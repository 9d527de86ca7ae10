"""Experiment runner: JSON configs in, run records and plot data out.

A config names a pipeline of stages (sampler, path, driver, solver, check)
wired by stage name.  Stages execute in order; checks compare a measured
value against a named tolerance from the config, and the run record lists
one timed line per stage, then every check exactly once, ending with the
wall time.  Timings sit only under the key ``wall_time_s``, so two runs of
one config and seed compare equal once that key is dropped.  Exit status:
0 all checks pass, 1 a check failed, 2 the config is malformed, 3 a stage
failed numerically.

All data files are UTF-8; floats are serialized with 17 significant
digits, so identical config and seed reproduce byte-identical CSV/TSV
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np

from .cocycle import dyadic_noise, weak_cocycle_residual
from .drivers import (
    BoxSpec,
    LinearField,
    driver_chen_residual,
    driver_from_rough_path,
    field_family_registry,
    make_field_family,
)
from .errors import ArgumentError, ConfigError, RoughflowError
from .gaussian import make_kernel
from .paths import FLOAT_FORMAT, PiecewiseLinearPath, geometricity_residual_max, signature_lift
from .rde import RDEProblem, solve_rde

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "name", "seed", "pipeline", "tolerances"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
        },
        "extensions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kernels": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["kernel"],
                        "properties": {
                            "kernel": {"type": "string"},
                            "params": {"type": "object"},
                        },
                    },
                }
            },
        },
        "pipeline": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "kind"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "kind": {
                        "enum": ["sampler", "path", "driver", "solver", "check"]
                    },
                    "kernel": {"type": "string"},
                    "params": {"type": "object"},
                    "levels": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 1},
                        "minItems": 1,
                    },
                    "level": {"type": "integer", "minimum": 1},
                    "count": {"type": "integer", "minimum": 1},
                    "t_max": {"type": "number", "exclusiveMinimum": 0},
                    "dim": {"type": "integer", "minimum": 1},
                    "p": {"type": "number"},
                    "rho": {"type": "number"},
                    "shape": {"enum": ["line", "sine", "circle"]},
                    "nodes": {"type": "integer", "minimum": 2},
                    "source": {"type": "string"},
                    "family": {"type": "string"},
                    "family_params": {"type": "object"},
                    "y0": {"type": "array", "items": {"type": "number"}},
                    "step": {"type": "number", "exclusiveMinimum": 0},
                    "interval": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "check": {"type": "string"},
                    "tolerance": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
}

_REQUIRED_BY_KIND = {
    "sampler": ("kernel",),
    "path": ("shape", "nodes"),
    "driver": ("source", "family"),
    "solver": ("source", "y0", "step"),
    "check": ("check", "source", "tolerance"),
}

_CHECK_SOURCE_KINDS = {
    "chen": ("driver",),
    "cocycle_decay": ("sampler",),
    "exp_solution": ("solver",),
    "geometricity": ("path", "sampler"),
}


def _family_key(name: str) -> str:
    key = str(name).lower()
    return key[: -len("_fields")] if key.endswith("_fields") else key


def load_config(path):
    """Parse and validate a config file; returns (config dict, raw bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        config = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    validate_config(config)
    return config, raw


def validate_config(config) -> None:
    """Schema plus semantic validation; raises ConfigError with a field path."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise ConfigError(f"{err.json_path}: {err.message}")
    names = {}
    kernels = set(config.get("extensions", {}).get("kernels", {}))
    for idx, stage in enumerate(config["pipeline"]):
        where = f"$.pipeline[{idx}]"
        kind = stage["kind"]
        if stage["name"] in names:
            raise ConfigError(f"{where}.name: duplicate stage name {stage['name']!r}")
        for field in _REQUIRED_BY_KIND[kind]:
            if field not in stage:
                raise ConfigError(
                    f"{where}.{field}: required for kind {kind!r}"
                )
        if "source" in stage:
            if stage["source"] not in names:
                raise ConfigError(
                    f"{where}.source: unknown or later stage {stage['source']!r}"
                )
        if kind == "sampler":
            kname = stage["kernel"].lower()
            if kname not in kernels and kname not in ("bm", "brownian", "fbm"):
                raise ConfigError(f"{where}.kernel: unknown kernel {stage['kernel']!r}")
            if kname == "fbm" and "hurst" not in stage.get("params", {}):
                raise ConfigError(f"{where}.params.hurst: required for the fbm kernel")
            if "levels" not in stage and "level" not in stage:
                raise ConfigError(f"{where}.levels: sampler needs level or levels")
        if kind in ("driver", "solver") and "family" in stage:
            if _family_key(stage["family"]) not in field_family_registry:
                raise ConfigError(f"{where}.family: unknown family {stage['family']!r}")
        if kind == "driver":
            src = names[stage["source"]]
            if src["kind"] not in ("sampler", "path"):
                raise ConfigError(
                    f"{where}.source: driver needs a sampler or path stage"
                )
            if src["kind"] == "sampler" and len(src.get("levels", [0])) > 1:
                raise ConfigError(
                    f"{where}.source: driver needs a single-level sampler"
                )
        if kind == "solver":
            src = names[stage["source"]]
            if src["kind"] not in ("driver", "path", "sampler"):
                raise ConfigError(
                    f"{where}.source: solver must be fed a driver or rough-path stage"
                )
            if src["kind"] in ("path", "sampler") and "family" not in stage:
                raise ConfigError(
                    f"{where}.family: required when the solver is fed a raw path"
                )
        if kind == "check":
            cname = stage["check"]
            if cname not in _CHECK_SOURCE_KINDS:
                raise ConfigError(f"{where}.check: unknown check {cname!r}")
            src = names[stage["source"]]
            if src["kind"] not in _CHECK_SOURCE_KINDS[cname]:
                raise ConfigError(
                    f"{where}.source: check {cname!r} cannot read a "
                    f"{src['kind']!r} stage"
                )
            if stage["tolerance"] not in config["tolerances"]:
                raise ConfigError(
                    f"{where}.tolerance: {stage['tolerance']!r} is not a named tolerance"
                )
            if cname == "exp_solution":
                _validate_exp_solution(where, src, names)
            if cname == "cocycle_decay" and len(src.get("levels", [0])) > 1:
                raise ConfigError(
                    f"{where}.source: cocycle_decay projects one fine draw; "
                    "use a single-level sampler"
                )
        names[stage["name"]] = stage


def _validate_exp_solution(where, solver_stage, names):
    fam = _family_key(solver_stage.get("family", ""))
    mats = solver_stage.get("family_params", {}).get("matrices", [])
    src = names[solver_stage["source"]]
    if (
        fam != "linear"
        or len(mats) != 1
        or src["kind"] != "path"
        or src.get("shape") != "line"
    ):
        raise ConfigError(
            f"{where}.check: exp_solution needs a solver over a 'line' path "
            "with exactly one linear field"
        )


# --------------------------------------------------------------- stages


def _resolve_kernel(config, name, params):
    ext = config.get("extensions", {}).get("kernels", {})
    if name in ext:
        entry = ext[name]
        merged = dict(entry.get("params", {}))
        merged.update(params)
        return entry["kernel"], merged
    return name, params


def _sample_worker(args):
    kernel_name, params, level, t_max, dim, seed, p = args
    kernel = make_kernel(kernel_name, **params)
    return dyadic_noise(kernel, level, t_max, dim, seed=seed, p=p, count=1)[0]


def _exec_sampler(config, stage, stage_idx, seed, jobs):
    kernel_name, params = _resolve_kernel(
        config, stage["kernel"].lower(), stage.get("params", {})
    )
    levels = stage.get("levels", [stage.get("level")])
    count = stage.get("count", 1)
    t_max = float(stage.get("t_max", 1.0))
    dim = int(stage.get("dim", 1))
    p = float(stage.get("p", 2.5))
    tasks = []
    for li, level in enumerate(levels):
        for ci in range(count):
            child = np.random.SeedSequence(entropy=seed, spawn_key=(stage_idx, li, ci))
            tasks.append(
                (kernel_name, params, int(level), t_max, dim,
                 int(child.generate_state(1)[0]), p)
            )
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(_sample_worker, tasks))
    else:
        flat = [_sample_worker(t) for t in tasks]
    grouped = [flat[i * count : (i + 1) * count] for i in range(len(levels))]
    return {"kind": "sampler", "levels": [int(l) for l in levels], "noises": grouped}


def _exec_path(stage):
    n = int(stage["nodes"])
    t_max = float(stage.get("t_max", 1.0))
    params = stage.get("params", {})
    t = np.linspace(0.0, t_max, n)
    shape = stage["shape"]
    if shape == "line":
        values = t[:, None]
    elif shape == "sine":
        amp = float(params.get("amp", 0.3))
        cycles = float(params.get("cycles", 1.0))
        slope = float(params.get("slope", 0.5))
        values = (amp * np.sin(2 * np.pi * cycles * t / t_max) + slope * t)[:, None]
    else:  # circle
        amp = float(params.get("amp", 0.4))
        values = np.stack(
            [amp * np.sin(2 * np.pi * t / t_max), amp * np.cos(2 * np.pi * t / t_max)],
            axis=1,
        )
        values = values - values[0]
    path = PiecewiseLinearPath(t, values)
    lift = signature_lift(path, int(stage.get("level", 2)), p=float(stage.get("p", 1.0)))
    return {"kind": "path", "path": path, "lift": lift}


def _source_lift(src):
    if src["kind"] == "path":
        return src["lift"]
    return src["noises"][0][0].omega


def _exec_driver(stage, outputs):
    src = outputs[stage["source"]]
    lift = _source_lift(src)
    family = make_field_family(
        _family_key(stage["family"]), **stage.get("family_params", {})
    )
    driver = driver_from_rough_path(
        family, lift, p=stage.get("p"), rho=float(stage.get("rho", 1.0))
    )
    return {"kind": "driver", "driver": driver}


def _exec_solver(stage, outputs):
    src = outputs[stage["source"]]
    if src["kind"] == "driver":
        driver = src["driver"]
        sigma, target = driver.sigma, driver
        lift = driver.lift
    else:
        sigma = make_field_family(
            _family_key(stage["family"]), **stage.get("family_params", {})
        )
        lift = _source_lift(src)
        target = lift
    lo, hi = lift.span
    interval = tuple(stage.get("interval", (max(lo, 0.0), hi)))
    problem = RDEProblem(
        sigma, target, np.asarray(stage["y0"], dtype=float), interval,
        p=stage.get("p"),
    )
    solution = solve_rde(problem, float(stage["step"]))
    return {"kind": "solver", "solution": solution, "stage": dict(stage)}


# --------------------------------------------------------------- checks


def _check_cocycle_decay(stage, src, threshold):
    """Shift-cocycle defect of one fine draw projected onto coarser grids.

    Grid-aligned shifts satisfy the cocycle identity to rounding at every
    level.  An off-grid shift leaves a genuine defect; projecting the same
    draw onto finer and finer grids must shrink it.
    """
    params = stage.get("params", {})
    h_aligned = float(params.get("h_aligned", 0.25))
    h_offgrid = float(params.get("h_offgrid", 0.2371))
    levels = [int(v) for v in params.get("levels", (4, 5, 6, 7))]
    replicas = src["noises"][0]
    aligned, offgrid = [], []
    for level in levels:
        spacing = 2.0 ** -level
        for h, acc in ((h_aligned, aligned), (h_offgrid, offgrid)):
            acc.append(
                float(
                    np.mean(
                        [
                            weak_cocycle_residual(n.path, spacing, h, p=n.omega.p)
                            for n in replicas
                        ]
                    )
                )
            )
    decreasing = all(b < a for a, b in zip(offgrid, offgrid[1:]))
    passed = decreasing and all(a <= threshold for a in aligned)
    rows = list(zip(levels, aligned, offgrid))
    plot = (
        [
            "x: projection grid level (spacing 2^-level)",
            "y: mean shift-cocycle residual over replicas",
        ],
        ["level", "aligned", "offgrid"],
        rows,
    )
    return offgrid[-1], passed, plot


def _check_chen(stage, src, threshold):
    driver = src["driver"]
    times = driver.lift.times
    n = times.size - 1
    s, u, t = float(times[n // 4]), float(times[n // 2]), float(times[(3 * n) // 4])
    pts = BoxSpec(radius=2.0, nodes_per_axis=5).points(driver.sigma.dim)
    value = float(driver_chen_residual(driver, s, u, t, pts))
    plot = (
        ["x: split point", "y: Chen residual over the probe box"],
        ["s", "u", "t", "residual"],
        [(s, u, t, value)],
    )
    return value, value <= threshold, plot


def _check_exp_solution(stage, src, threshold):
    import scipy.linalg

    solution = src["solution"]
    problem = solution.flow.meta["problem"]
    field = problem.sigma.fields[0]
    if not isinstance(field, LinearField):
        raise ConfigError("exp_solution needs a single linear field")
    a_mat = field.matrix
    y0 = problem.y0
    rows = []
    worst = 0.0
    idx = np.linspace(0, solution.times.size - 1, 5).astype(int)
    for k in idx:
        t_k = float(solution.times[k])
        # validated source: a unit-slope line path, so the increment is just time
        dx = t_k - float(problem.interval[0])
        oracle = scipy.linalg.expm(a_mat * dx) @ y0
        gap = float(np.max(np.abs(solution.states[k] - oracle)))
        worst = max(worst, gap)
        rows.append((t_k, gap))
    plot = (
        ["x: time", "y: gap to the matrix-exponential solution"],
        ["t", "gap"],
        rows,
    )
    return worst, worst <= threshold, plot


def _check_geometricity(stage, src, threshold):
    lift = _source_lift(src)
    value = float(geometricity_residual_max(lift))
    plot = (
        ["x: lift size", "y: worst symmetric-part residual"],
        ["nodes", "residual"],
        [(lift.times.size, value)],
    )
    return value, value <= threshold, plot


_CHECKS = {
    "chen": _check_chen,
    "cocycle_decay": _check_cocycle_decay,
    "exp_solution": _check_exp_solution,
    "geometricity": _check_geometricity,
}


# -------------------------------------------------------------- running


def list_registry(config=None) -> str:
    """Stable alphabetized listing of kernels, field families, and checks."""
    kernels = {"bm", "fbm"}
    if config:
        kernels |= set(config.get("extensions", {}).get("kernels", {}))
    families = sorted(fn.__name__ for fn in field_family_registry.values())
    lines = ["kernels:"]
    lines += [f"  {k}" for k in sorted(kernels)]
    lines.append("vector field families:")
    lines += [f"  {f}" for f in families]
    lines.append("checks:")
    lines += [f"  {c}" for c in sorted(_CHECKS)]
    return "\n".join(lines)


def _git_blob_hash(raw: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(raw) + raw).hexdigest()


def _config_hash(config) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_tsv(path, plot):
    comments, cols, rows = plot
    with open(path, "w", encoding="utf-8") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write("\t".join(cols) + "\n")
        for row in rows:
            f.write(
                "\t".join(
                    str(v) if isinstance(v, (int, np.integer)) else FLOAT_FORMAT % v
                    for v in row
                )
                + "\n"
            )


def run_experiment(config, raw, out_dir, seed=None, jobs=1):
    """Execute the pipeline; returns (exit_code, record_lines)."""
    t_start = time.perf_counter()
    effective_seed = int(config["seed"] if seed is None else seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = [
        {
            "record": "header",
            "name": config["name"],
            "schema_version": config["schema_version"],
            "config_hash": _config_hash(config),
            "input_hash": _git_blob_hash(raw),
            "seed": effective_seed,
        }
    ]
    outputs = {}
    checks = []
    for idx, stage in enumerate(config["pipeline"]):
        kind = stage["kind"]
        t_stage = time.perf_counter()
        try:
            if kind == "sampler":
                outputs[stage["name"]] = _exec_sampler(
                    config, stage, idx, effective_seed, jobs
                )
            elif kind == "path":
                outputs[stage["name"]] = _exec_path(stage)
            elif kind == "driver":
                outputs[stage["name"]] = _exec_driver(stage, outputs)
            elif kind == "solver":
                result = _exec_solver(stage, outputs)
                outputs[stage["name"]] = result
                with open(out / f"{stage['name']}.csv", "w", encoding="utf-8") as f:
                    result["solution"].to_csv(f)
            else:
                threshold = float(config["tolerances"][stage["tolerance"]])
                value, passed, plot = _CHECKS[stage["check"]](
                    stage, outputs[stage["source"]], threshold
                )
                _write_tsv(out / f"{stage['name']}.tsv", plot)
                checks.append(
                    {
                        "record": "check",
                        "name": stage["name"],
                        "check": stage["check"],
                        "value": value,
                        "threshold": threshold,
                        "tolerance": stage["tolerance"],
                        "pass": bool(passed),
                    }
                )
        except ConfigError:
            raise
        except ArgumentError as exc:
            # bad argument values originate from the config, not the numerics
            raise ConfigError(f"stage {stage['name']!r}: {exc}") from exc
        except RoughflowError as exc:
            raise _StageFailure(stage["name"], exc) from exc
        record.append(
            {
                "record": "stage",
                "name": stage["name"],
                "kind": kind,
                "wall_time_s": time.perf_counter() - t_stage,
            }
        )
    record.extend(checks)
    all_pass = all(c["pass"] for c in checks)
    record.append(
        {
            "record": "summary",
            "passed": all_pass,
            "wall_time_s": time.perf_counter() - t_start,
        }
    )
    with open(out / f"{config['name']}_record.jsonl", "w", encoding="utf-8") as f:
        for line in record:
            f.write(json.dumps(line, sort_keys=True) + "\n")
    return (0 if all_pass else 1), record


class _StageFailure(Exception):
    def __init__(self, stage, error):
        super().__init__(f"stage {stage!r} failed: {error}")
        self.stage = stage
        self.error = error


def _resolve_out_dir(config, out_flag):
    if out_flag:
        return out_flag
    env = os.environ.get("ROUGHFLOW_OUT")
    if env:
        return env
    return config.get("output_dir", f"runs/{config['name']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughflow", description="Run rough-path experiment pipelines."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a pipeline config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sampling workers")
    p_val = sub.add_parser("validate", help="check a config against the schema")
    p_val.add_argument("config")
    p_list = sub.add_parser("list", help="list registered kernels, families, checks")
    p_list.add_argument("config", nargs="?", default=None)
    args = parser.parse_args(argv)

    if args.command == "list":
        config = None
        if args.config:
            try:
                config, _ = load_config(args.config)
            except ConfigError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
        print(list_registry(config))
        return 0

    if args.command == "validate":
        try:
            config, _ = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"ok: {config['name']}")
        return 0

    try:
        config, raw = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(config, args.out)
    try:
        code, record = run_experiment(config, raw, out_dir, args.seed, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _StageFailure as exc:
        print(f"numerical failure in stage {exc.stage!r}: {exc.error}", file=sys.stderr)
        return 3
    for line in record:
        if line["record"] == "check":
            status = "pass" if line["pass"] else "FAIL"
            print(
                f"{status} {line['name']}: {line['check']} = "
                f"{line['value']:.3e} (threshold {line['threshold']:.3e})"
            )
    summary = record[-1]
    print(
        f"{'all checks passed' if code == 0 else 'CHECKS FAILED'} "
        f"in {summary['wall_time_s']:.2f}s -> {out_dir}"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
