"""roughflow benchmark: run one workload in fresh interpreters and report it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; roughflow is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics.  The lines before it print every metric with its unit and what it
was computed from, plus `failed_ratio`, `tolerance_use` and the machine
fingerprint.  `--workload all` runs every workload with `--trace 0`.
NOTES.md, next to this file, describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lyapunov", "rds_cocycle", "pipelines", "driver_series")
# fresh interpreters whose set-up and cold-task times give the medians; the
# first one in a new checkout also compiles the bytecode, which the median
# leaves out
FRESH_SAMPLES = 3
BLAS_THREADS = "1"  # one BLAS thread: tasks run one at a time, at most nproc threads
RUN_LIMIT_S = 170.0  # every run ends within 180 s


class BenchError(Exception):
    pass


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["TMPDIR"] = str(workdir)
    env.pop("ROUGHFLOW_OUT", None)
    # cache bytecode as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def call(cmd, env, deadline) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def worker(mode, args, env, workdir, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    lines = call(cmd, env, deadline).strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten tasks beyond it, else the maximum."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return 100, max(values)


def per_layer_value(name, run, imports):
    if name == "cli.import_s":
        return statistics.median(imports)
    if name == "trace_overhead":
        return statistics.median(run["traced_s"]) - statistics.median(run["untraced_s"])
    if name == "cli.checks_failed":
        return sum(n for k, n in run["statistical_misses"].items() if k.endswith("shift_cocycle"))
    if name == "drivers.gap_decay_missed":
        return sum(n for k, n in run["statistical_misses"].items() if k.endswith("_gap_decay"))
    for source in ("counts", "self_s", "probes"):
        if name in run[source]:
            return run[source][name]
    return 0.0 if name.endswith("_s") else 0


def merge_checked_tasks(run, probe):
    """Add a cold-task interpreter's checked task to the measuring run's tally."""
    if "attempted" not in probe:
        return
    run["attempted"] += probe["attempted"]
    run["failed"] += probe["failed"]
    run["failures"] += probe["failures"]
    run["tolerance_use"] = max(run["tolerance_use"], probe["tolerance_use"])
    for name, n in probe["statistical_misses"].items():
        run["statistical_misses"][name] = run["statistical_misses"].get(name, 0) + n


def report(line):
    print(line, flush=True)


def run_workload(args, spec) -> dict:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        env = child_env(workdir)
        probes = [worker("setup" if args.trace else "cold", args, env, workdir, deadline)
                  for _ in range(FRESH_SAMPLES - 1)]
        run = worker("trace" if args.trace else "measure", args, env, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    imports = [p["import_s"] for p in probes] + [run["import_s"]]
    colds = [p["cold_task_s"] for p in probes if "cold_task_s" in p] + [run["cold_task_s"]]
    for p in probes:
        merge_checked_tasks(run, p)

    report(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
           f"  trace {args.trace}")
    report(f"fingerprint {json.dumps(run['fingerprint'], sort_keys=True)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if not args.trace:
        warm = run["warm_s"]
        q, tail_s = tail(warm)
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_task_s": statistics.median(colds),
            "task_p50_s": statistics.median(warm),
            "task_tail_s": tail_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters "
                       f"{[round(s, 4) for s in setups]}",
            "cold_task_s": f"median first task of {len(colds)} fresh interpreters "
                           f"{[round(c, 3) for c in colds]}",
            "task_p50_s": f"median of {len(warm)} warm tasks {[round(t, 3) for t in warm]}",
            "task_tail_s": f"p{q} of {len(warm)} warm tasks"
                           + ("" if q < 100 else "; fewer than 20, so no percentile"
                              " has ten beyond it"),
            "peak_rss_mb": "children's maximum" if args.workload == "pipelines"
                           else "workload process",
        }
        for name, value in metrics.items():
            report(f"{name:<16} {value:.6g} {units[name]}  ({notes[name]})")
    else:
        for m in spec["per_layer"]:
            metrics[m["name"]] = per_layer_value(m["name"], run, imports)
        for name, value in metrics.items():
            if name not in run["probes"]:
                report(f"{name:<44} {value:.6g} {units[name]}")
        report(f"trace: {len(run['untraced_s'])} untraced and {len(run['traced_s'])} traced"
               " tasks; counts are the first traced task's, self times medians per task")
        for name, (what, roadmap, target) in run["probe_info"].items():
            ref = f"ROADMAP hand-measured {roadmap:g} ms"
            if target is not None:
                ref += f"; item 3 target {target:g} ms"
            report(f"{name:<44} {run['probes'][name]:.4g} ms  ({what}; {ref})")
    ratio = run["failed"] / run["attempted"]
    report(f"{'failed_ratio':<16} {ratio:.6g} ratio  ({run['failed']} of {run['attempted']}"
           " tasks)")
    report(f"{'tolerance_use':<16} {run['tolerance_use']:.6g} ratio  (worst guaranteed"
           " residual over its tolerance)")
    if run["statistical_misses"]:
        report(f"statistical verdicts false (not failures): {run['statistical_misses']}")
    for reason in run["failures"]:
        report(f"FAILED {reason}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still reaches call()'s cleanup, which kills its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "roughflow" / "__init__.py").is_file():
        print(f"no roughflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        args.trace = 0
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, spec)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
