"""The four benchmark workloads: inputs from a seed, one task, and its checks.

Every workload is a closed loop of tasks: the worker starts task i + 1 when
task i returns.  A workload object builds all of its inputs in its
constructor (that is the set-up the benchmark times), and `run(i)` performs
task i on input `i % POOL` and returns a plain result dict.  `checks(result)`
turns a result into `Check`s; `evaluate` turns those into an `Outcome`.

Only the public `roughflow` API is called, always through the package
attribute at call time (`rf.solve_rde`, not a name bound at import), so the
tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import roughflow as rf

POOL = 8  # distinct task inputs per run; tasks cycle through them


@dataclass
class Check:
    """One checked residual against its tolerance.

    A guaranteed check that misses its tolerance fails the task.  A
    statistical check (`guaranteed=False`) is a verdict on random data that
    may legitimately come out false for some seeds; it is counted, never a
    failure.
    """

    name: str
    value: float
    tolerance: float
    guaranteed: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)  # NaN never passes


@dataclass
class Outcome:
    failed: bool
    reasons: list = field(default_factory=list)
    tolerance_use: float = 0.0
    statistical_misses: dict = field(default_factory=dict)


def evaluate(checks, error: str | None = None) -> Outcome:
    """Fold a task's checks (or the exception it raised) into an Outcome."""
    if error is not None:
        return Outcome(True, [error])
    reasons, use, misses = [], 0.0, {}
    for c in checks:
        if c.guaranteed:
            if not c.passed:
                reasons.append(f"{c.name}: {c.value!r} > {c.tolerance!r}")
            ratio = c.value / c.tolerance if c.tolerance > 0 else float(c.value > 0)
            use = max(use, ratio) if math.isfinite(ratio) else math.inf
        elif not c.passed:
            misses[c.name] = misses.get(c.name, 0) + 1
    return Outcome(bool(reasons), reasons, use, misses)


def _brownian(rng, nodes, span, dim, scale=1.0):
    t = np.linspace(span[0], span[1], nodes)
    steps = rng.normal(scale=scale * math.sqrt(t[1] - t[0]), size=(nodes, dim))
    steps[0] = 0.0
    return rf.PiecewiseLinearPath(t, np.cumsum(steps, axis=0))


# ------------------------------------------------------------------ lyapunov


class Lyapunov:
    """C13-shaped: top Lyapunov exponent of dy = y dx over a small ensemble."""

    name = "lyapunov"
    HORIZON = 100.0
    STEP = 2.0**-7
    ENSEMBLE = 2
    # The scheme's bias on the rate is about 3 sigma^4 / 8 per cell, 0.003
    # here, with a sampling spread of about 5e-4 around it.
    RATE_TOL = 0.01

    def __init__(self, seed: int):
        nodes = int(round(self.HORIZON / self.STEP)) + 1
        self.paths = [
            [
                _brownian(np.random.default_rng([seed, i, j]), nodes, (0.0, self.HORIZON), 1)
                for j in range(self.ENSEMBLE)
            ]
            for i in range(POOL)
        ]
        self.family = rf.VectorFieldFamily([rf.LinearField([[1.0]])])
        self.control = rf.SolverControl(blowup_limit=1e300)

    def run(self, i: int) -> dict:
        span = (0.0, self.HORIZON)
        flows, closed = [], []
        for path in self.paths[i % POOL]:
            lift = rf.signature_lift(path, 2, p=2.2)
            problem = rf.RDEProblem(self.family, lift, np.array([1.0]), span, p=2.2)
            flows.append(rf.solve_rde(problem, self.STEP, self.control).flow)
            closed.append(float(path.values[-1, 0] - path.values[0, 0]) / self.HORIZON)
        est = rf.top_lyapunov_estimate(flows, np.array([1.0]))
        return {"rates": list(est.per_sample), "closed": closed, "samples": est.samples}

    def checks(self, result: dict) -> list:
        gap = max(abs(r - c) for r, c in zip(result["rates"], result["closed"]))
        out = [Check("rate_vs_closed_form", gap, self.RATE_TOL)]
        out.append(Check("sample_count", abs(result["samples"] - self.ENSEMBLE), 0))
        return out


# --------------------------------------------------------------- rds_cocycle


class RdsCocycle:
    """C12-shaped: RDS cocycle residuals of the shear-pair flow, with and without drift."""

    name = "rds_cocycle"
    WINDOWS = ((0.25, 0.75), (0.0, 0.5))
    SHIFT = 0.25
    TOL = 1e-5  # C12's bound

    def __init__(self, seed: int):
        t = np.linspace(0.0, 1.0, 1001)
        self.inputs = []
        for i in range(POOL):
            rng = np.random.default_rng([seed, i])
            a1, a2 = rng.uniform(0.2, 0.35), rng.uniform(0.15, 0.3)
            p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            x = np.stack(
                [a1 * np.sin(2 * np.pi * t + p1) + 0.2 * t, a2 * np.cos(3 * np.pi * t + p2)],
                axis=1,
            )
            x -= x[0]
            point = rng.uniform(-0.5, 0.5, size=(1, 2))
            self.inputs.append((rf.PiecewiseLinearPath(t, x), point))
        self.drift = rf.DriftSpec(rf.LinearField(-np.eye(2)))

    def run(self, i: int) -> dict:
        path, point = self.inputs[i % POOL]
        noise = rf.noise_from_path(path, 2, p=2.2)
        problem = rf.RDEProblem(
            rf.shear_pair_fields(), noise.omega, np.array([0.2, -0.4]), (0.0, 1.0),
            p=2.2, noise=noise,
        )
        flows = {
            "driftless": rf.solve_rde(problem, 1e-3).flow,
            "drifted": rf.drift_transform_solve(problem, self.drift, 5e-3),
        }
        residuals = {}
        for kind, flow in flows.items():
            for s, t in self.WINDOWS:
                key = f"{kind}_{s}_{t}"
                residuals[key] = rf.rds_cocycle_residual(flow, s, t, self.SHIFT, point)
        return {"residuals": residuals}

    def checks(self, result: dict) -> list:
        return [Check(k, v, self.TOL) for k, v in result["residuals"].items()]


# ------------------------------------------------------------- driver_series


class DriverSeries:
    """C08-shaped: Gaussian driver series, driver cocycle, driver flows, p-variation."""

    name = "driver_series"
    NODES = 257
    TRUNCATIONS = (4, 8, 12)
    WINDOWS = ((0.0, 0.5), (0.25, 1.0), (0.0, 1.0))
    P = 2.5
    COCYCLE_TOL = 1e-8  # C08's bound
    FLOW_POINTS = 3

    def __init__(self, seed: int):
        self.sigma = rf.decaying_linear_fields(12, 2, decay=0.5, seed=8)
        t = np.linspace(0.0, 1.0, self.NODES)
        t2 = np.linspace(-1.0, 1.0, 17)
        self.inputs = []
        for i in range(POOL):
            rng = np.random.default_rng([seed, i])
            # per-step scale 0.125 on 256 cells: C08's total variance (0.25 on 64 cells)
            betas = rf.PiecewiseLinearPath(
                t, np.cumsum(rng.normal(scale=0.125, size=(self.NODES, 12)), axis=0)
            )
            noise_path = rf.PiecewiseLinearPath(
                t2, np.cumsum(rng.normal(scale=0.2, size=(17, 12)), axis=0)
            )
            pts = rng.uniform(-2.0, 2.0, size=(12, 2))
            self.inputs.append((betas, noise_path, pts))

    def run(self, i: int) -> dict:
        path, noise_path, pts = self.inputs[i % POOL]
        lift = rf.signature_lift(path, 2, p=self.P)
        drivers = {k: rf.gaussian_driver(self.sigma, lift, truncation=k) for k in self.TRUNCATIONS}
        gaps = {}
        for op in ("V", "W"):
            for small, large in ((4, 8), (8, 12)):
                gaps[f"{op}_{small}_{large}"] = max(
                    float(np.max(np.abs(getattr(drivers[large], op)(s, u, pts)
                                        - getattr(drivers[small], op)(s, u, pts))))
                    for s, u in self.WINDOWS
                )
        # V is linear in the fields: its 8 -> 12 gap has the closed form
        # sum_{n=8}^{11} (x^n_u - x^n_s) A_n x, independent of the lift.
        closed_gap = 0.0
        for s, u in self.WINDOWS:
            got = drivers[12].V(s, u, pts) - drivers[8].V(s, u, pts)
            inc = path.value(u) - path.value(s)
            want = sum(inc[n] * pts @ self.sigma.fields[n].matrix.T for n in range(8, 12))
            closed_gap = max(closed_gap, float(np.max(np.abs(got - want))))
        noise = rf.noise_from_path(noise_path, 2, p=self.P)
        cocycle = rf.driver_cocycle_residual(self.sigma, noise, 0.25, 0.0, 0.5, pts)
        flow = rf.solve_driver_flow(drivers[12], (0.0, 1.0), 1.0 / (self.NODES - 1))
        ends = np.array([flow.map(0.0, 1.0, x) for x in pts[: self.FLOW_POINTS]])
        coarse_path = rf.piecewise_linear_projection(path, np.linspace(0.0, 1.0, 65))
        coarse = rf.signature_lift(coarse_path, 2, p=self.P)
        distance = rf.homogeneous_pvar_distance(lift, coarse, self.P)
        return {
            "gaps": gaps,
            "closed_gap": closed_gap,
            "scale": float(np.max(np.abs(path.values))) * float(np.max(np.abs(pts))),
            "cocycle": cocycle,
            "ends_finite": bool(np.all(np.isfinite(ends))),
            "distance": distance,
            "pvar_fine": rf.p_variation(path, self.P),
            "pvar_coarse": rf.p_variation(coarse_path, self.P),
        }

    def checks(self, result: dict) -> list:
        g = result["gaps"]
        fine = result["pvar_fine"]
        return [
            Check("driver_cocycle", result["cocycle"], self.COCYCLE_TOL),
            Check("V_gap_closed_form", result["closed_gap"], 1e-12 * (1.0 + result["scale"])),
            Check("flow_maps_finite", 0.0 if result["ends_finite"] else 1.0, 0.0),
            Check("distance_finite", 0.0 if math.isfinite(result["distance"]) else 1.0, 0.0),
            # the projection's breakpoints are a subset of the path's
            Check("pvar_projection", max(0.0, result["pvar_coarse"] - fine), 1e-12 * fine),
            # C08's truncation-gap decay holds at its seed; on random draws it
            # misses on a few per cent of them, so it is a verdict, not a failure
            Check("V_gap_decay", g["V_8_12"] / g["V_4_8"], 0.25, guaranteed=False),
            Check("W_gap_decay", g["W_8_12"] / g["W_4_8"], 0.25, guaranteed=False),
        ]


# ----------------------------------------------------------------- pipelines


class Pipelines:
    """Fresh-interpreter `roughflow run` of each bundled config, one after the other."""

    name = "pipelines"
    SEEDS = 2  # task i runs seed i % 2, so every later task is a same-seed rerun
    STATISTICAL = {"cocycle_decay"}  # random-data verdicts: exit code 1 is not a failure

    def __init__(self, seed: int, python: str, env: dict, workdir: Path, child: Path):
        self.configs = sorted((Path(rf.__file__).parent / "configs").glob("*.json"))
        if not self.configs:
            raise RuntimeError("no bundled configs found")
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(self.SEEDS)]
        self.python, self.env, self.workdir, self.child = python, env, workdir, child
        self.first = {}  # seed -> outputs of its first run

    def run(self, i: int, trace_out: Path | None = None) -> dict:
        seed = self.seeds[i % self.SEEDS]
        runs = {}
        for cfg in self.configs:
            out = self.workdir / f"task{i}" / cfg.stem
            argv = ["run", str(cfg), "--out", str(out), "--seed", str(seed)]
            if trace_out is None:
                cmd = [self.python, "-m", "roughflow.cli", *argv]
            else:
                cmd = [self.python, str(self.child), str(trace_out / f"{cfg.stem}.json"), *argv]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=120)
            files = (
                {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            )
            runs[cfg.stem] = {"code": proc.returncode, "files": files}
            if trace_out is not None and proc.returncode in (0, 1):
                runs[cfg.stem]["trace"] = json.loads((trace_out / f"{cfg.stem}.json").read_text())
        shutil.rmtree(self.workdir / f"task{i}", ignore_errors=True)
        rerun_of = self.first.setdefault(seed, runs)
        return {"seed": seed, "runs": runs, "rerun_of": None if rerun_of is runs else rerun_of}

    def checks(self, result: dict) -> list:
        out = []
        for name, run in result["runs"].items():
            code = run["code"]
            out.append(Check(f"{name}_exit_code", 0.0 if code in (0, 1) else 1.0, 0.0))
            records = [r for r in _records(run["files"]) if r["record"] == "check"]
            for rec in records:
                if rec["check"] in self.STATISTICAL:
                    out.append(Check(f"{name}.{rec['name']}", 0.0 if rec["pass"] else 1.0,
                                     0.0, guaranteed=False))
                else:
                    out.append(Check(f"{name}.{rec['name']}", rec["value"], rec["threshold"]))
            if code == 1 and all(r["pass"] for r in records):
                out.append(Check(f"{name}_exit_1_without_failed_check", 1.0, 0.0))
        if result["rerun_of"] is not None:
            same = _same_outputs(result["rerun_of"], result["runs"])
            out.append(Check("rerun_identical", 0.0 if same else 1.0, 0.0))
        return out


def _records(files: dict) -> list:
    """Every line of the run records among a run's output files."""
    return [json.loads(line) for name, raw in files.items() if name.endswith("_record.jsonl")
            for line in raw.decode().splitlines()]


def _without_wall_time(raw: bytes) -> list:
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
            for line in raw.decode().splitlines()]


def _same_outputs(first: dict, second: dict) -> bool:
    """C14's rule: CSV/TSV byte-identical, run records equal except `wall_time_s`."""
    if first.keys() != second.keys():
        return False
    for name in first:
        a, b = first[name], second[name]
        if a["code"] != b["code"] or a["files"].keys() != b["files"].keys():
            return False
        for fname in a["files"]:
            if fname.endswith("_record.jsonl"):
                if _without_wall_time(a["files"][fname]) != _without_wall_time(b["files"][fname]):
                    return False
            elif a["files"][fname] != b["files"][fname]:
                return False
    return True


WORKLOADS = {w.name: w for w in (Lyapunov, RdsCocycle, Pipelines, DriverSeries)}
