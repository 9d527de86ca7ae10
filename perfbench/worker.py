"""One fresh-interpreter measurement of one workload; prints one JSON line.

    python3 perfbench/worker.py --mode MODE --workload NAME --seed N --seconds S --workdir DIR

setup    import roughflow and build the workload's inputs; report both times.
cold     set-up, then the cold task (task 0), checked.
measure  set-up, then a closed loop of tasks for --seconds.  The first task
         is the cold task; every result is checked.
trace    set-up and a cold task, then task i untraced and task i traced in
         turn (i = 1, 2, ...) for --seconds, then the layer probes.  Counts
         come from the first traced task, so they repeat exactly at a seed.

`run.py` starts this script; it expects PYTHONPATH and the BLAS thread
variables to be set already.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_WARM = 2  # warm tasks measured even when --seconds has run out
MAX_LOOP_S = 110.0  # no loop runs longer than this, so a run ends within 180 s


def run_task(workload, i, tracer=None, trace_dir=None):
    """Run and check task i; returns (seconds, Outcome, trace snapshot or None)."""
    import workloads as wl

    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = perf_counter()
    try:
        result = workload.run(i) if trace_dir is None else workload.run(i, trace_dir)
        error = None
    except Exception as exc:  # a task that raises is a failed task; the loop goes on
        result, error = None, f"task {i}: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    elapsed = perf_counter() - start
    snap = None
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.snapshot()
    elif trace_dir is not None and result is not None:
        snap = _merge_child_traces(result)
    try:
        outcome = wl.evaluate(workload.checks(result) if error is None else [], error)
    except Exception as exc:  # a result the checks cannot read is a failed task
        outcome = wl.evaluate([], f"task {i}: unreadable result: {type(exc).__name__}: {exc}")
    return elapsed, outcome, snap


def _merge_child_traces(result) -> dict:
    counts, self_s = {}, {}
    for run in result["runs"].values():
        for key, value in run.get("trace", {}).get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, value in run.get("trace", {}).get("self_s", {}).items():
            self_s[key] = self_s.get(key, 0.0) + value
    return {"counts": counts, "self_s": self_s}


def _keep_going(elapsed, spent, seconds, done, minimum):
    """Start another task while it should end within half a task of --seconds."""
    if done < minimum:
        return elapsed < MAX_LOOP_S
    expected = statistics.median(spent)
    return elapsed + expected / 2 <= seconds and elapsed < MAX_LOOP_S


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library when possible."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _reference_loop_ms() -> float:
    """Min of 3 of a fixed pure-Python loop: how fast this machine ran just now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for k in range(300_000):
            total += k * k
        best = min(best, perf_counter() - start)
    return 1e3 * best


def fingerprint(seed) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "reference_loop_ms": _reference_loop_ms(),
    }


def _summary(outcomes) -> dict:
    misses = {}
    for o in outcomes:
        for name, n in o.statistical_misses.items():
            misses[name] = misses.get(name, 0) + n
    failures = [r for o in outcomes if o.failed for r in o.reasons]
    return {
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": failures[:5],
        "tolerance_use": max((o.tolerance_use for o in outcomes), default=0.0),
        "statistical_misses": misses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "cold", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    import roughflow

    import_s = perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(roughflow.__file__).resolve().parents:
        print(f"roughflow imported from {roughflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads as wl

    cls = wl.WORKLOADS[args.workload]
    if cls is wl.Pipelines:
        workload = cls(args.seed, sys.executable, dict(os.environ), args.workdir,
                       HERE / "cli_child.py")
    else:
        workload = cls(args.seed)
    setup_s = perf_counter() - start
    out = {"import_s": import_s, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    cold_s, cold, _ = run_task(workload, 0)
    outcomes = [cold]
    out["cold_task_s"] = cold_s
    loop_start = perf_counter() - cold_s  # the cold task counts toward --seconds
    if args.mode == "cold":
        out.update(_summary(outcomes))
        print(json.dumps(out))
        return 0
    if args.mode == "measure":
        warm = []
        i = 1
        while _keep_going(perf_counter() - loop_start, warm or [cold_s], args.seconds,
                          len(warm), MIN_WARM):
            spent, outcome, _ = run_task(workload, i)
            warm.append(spent)
            outcomes.append(outcome)
            i += 1
        out["warm_s"] = warm
    else:
        from tracer import Tracer

        tracer = None if cls is wl.Pipelines else Tracer()
        untraced, traced, snaps = [], [], []
        i = 1
        while _keep_going(perf_counter() - loop_start,
                          [a + b for a, b in zip(untraced, traced)] or [2 * cold_s],
                          args.seconds, len(traced), 1):
            spent, outcome, _ = run_task(workload, i)
            untraced.append(spent)
            outcomes.append(outcome)
            trace_dir = None
            if tracer is None:
                trace_dir = args.workdir / f"trace{i}"
                trace_dir.mkdir(parents=True, exist_ok=True)
            spent, outcome, snap = run_task(workload, i, tracer, trace_dir)
            traced.append(spent)
            outcomes.append(outcome)
            snaps.append(snap or {"counts": {}, "self_s": {}})
            i += 1
        from probes import PROBES, run_probes

        out["untraced_s"] = untraced
        out["traced_s"] = traced
        out["counts"] = snaps[0]["counts"]
        keys = {k for s in snaps for k in s["self_s"]}
        out["self_s"] = {k: statistics.median(s["self_s"].get(k, 0.0) for s in snaps)
                         for k in keys}
        out["probes"] = run_probes(args.seed)
        out["probe_info"] = PROBES

    who = resource.RUSAGE_CHILDREN if cls is wl.Pipelines else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(_summary(outcomes))
    out["fingerprint"] = fingerprint(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
