"""The benchmark's own tests: every output check bites, and the tracer restores what it wraps.

    python3 -m pytest perfbench/test_checks.py -q

Each workload runs one real task; the test then perturbs the result and
checks that the perturbed task is counted in failed_ratio while the real one
is not.  Statistical verdicts must be counted, never failed.
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import roughflow as rf  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _summary  # noqa: E402


def failed_ratio(workload, results) -> float:
    outcomes = [wl.evaluate(workload.checks(r)) for r in results]
    s = _summary(outcomes)
    return s["failed"] / s["attempted"]


@pytest.fixture(scope="module")
def lyapunov():
    w = wl.Lyapunov(3)
    return w, w.run(0)


@pytest.fixture(scope="module")
def rds():
    w = wl.RdsCocycle(3)
    return w, w.run(0)


@pytest.fixture(scope="module")
def series():
    w = wl.DriverSeries(3)
    return w, w.run(0)


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    w = wl.Pipelines(3, sys.executable, env, tmp_path_factory.mktemp("pipelines"),
                     HERE / "cli_child.py")
    first = w.run(0)
    rerun = w.run(2)  # same seed as task 0
    return w, first, rerun


def test_lyapunov_rate_check_bites(lyapunov):
    w, result = lyapunov
    assert failed_ratio(w, [result]) == 0.0
    bad = copy.deepcopy(result)
    bad["rates"][1] += 0.05
    assert failed_ratio(w, [result, bad]) == 0.5


def test_rds_residual_check_bites(rds):
    w, result = rds
    assert failed_ratio(w, [result]) == 0.0
    bad = copy.deepcopy(result)
    bad["residuals"]["drifted_0.0_0.5"] = 2e-5
    assert failed_ratio(w, [bad]) == 1.0


@pytest.mark.parametrize("key, value", [
    ("cocycle", 1e-7),
    ("closed_gap", 1e-9),
    ("pvar_coarse", 1e9),
    ("ends_finite", False),
])
def test_driver_series_checks_bite(series, key, value):
    w, result = series
    assert failed_ratio(w, [result]) == 0.0
    bad = copy.deepcopy(result)
    bad[key] = value
    assert failed_ratio(w, [bad]) == 1.0


def test_gap_decay_is_a_verdict_not_a_failure(series):
    w, result = series
    bad = copy.deepcopy(result)
    bad["gaps"]["W_8_12"] = bad["gaps"]["W_4_8"]
    outcome = wl.evaluate(w.checks(bad))
    assert not outcome.failed
    assert outcome.statistical_misses == {"W_gap_decay": 1}


def test_pipelines_rerun_is_checked_and_identical(pipelines):
    w, first, rerun = pipelines
    assert rerun["rerun_of"] is first["runs"]
    names = [c.name for c in w.checks(rerun)]
    assert "rerun_identical" in names
    assert failed_ratio(w, [first, rerun]) == 0.0


def test_pipelines_checks_bite(pipelines):
    w, first, rerun = pipelines
    crashed = copy.deepcopy(rerun)
    crashed["runs"]["linear_rde"]["code"] = 3
    changed = copy.deepcopy(rerun)
    files = changed["runs"]["linear_rde"]["files"]
    files[next(n for n in files if n.endswith(".csv"))] += b"0"
    missed = copy.deepcopy(first)
    files = missed["runs"]["linear_rde"]["files"]
    record = next(n for n in files if n.endswith(".jsonl"))
    files[record] = files[record].replace(b'"threshold": 1e-06', b'"threshold": 1e-09')
    for bad in (crashed, changed, missed):
        assert failed_ratio(w, [bad]) == 1.0


def test_statistical_cli_verdict_is_counted_not_failed(pipelines):
    w, first, _ = pipelines
    verdict = copy.deepcopy(first)
    run = verdict["runs"]["fbm_cocycle"]
    record = next(n for n in run["files"] if n.endswith(".jsonl"))
    lines = run["files"][record].decode().splitlines()
    lines = [line.replace('"pass": true', '"pass": false') if '"cocycle_decay"' in line
             else line for line in lines]
    run["files"][record] = "\n".join(lines).encode()
    run["code"] = 1
    outcome = wl.evaluate(w.checks(verdict))
    assert not outcome.failed
    assert outcome.statistical_misses == {"fbm_cocycle.shift_cocycle": 1}


def test_task_that_raises_is_failed():
    assert _summary([wl.evaluate([], "task 0: NumericalError: boom")])["failed"] == 1


def test_tracer_counts_exactly_and_restores_originals():
    originals = (rf.signature_lift, rf.rde.resample_lift, rf.FlowMap.map,
                 rf.GroupElement.__init__, rf.LinearField.value)
    tracer = Tracer()
    tracer.install()
    try:
        assert rf.rde.resample_lift is not originals[1]
        t = np.linspace(0.0, 1.0, 5)
        rf.signature_lift(rf.PiecewiseLinearPath(t, t[:, None]), 2)
    finally:
        tracer.uninstall()
    assert (rf.signature_lift, rf.rde.resample_lift, rf.FlowMap.map,
            rf.GroupElement.__init__, rf.LinearField.value) == originals
    counts = tracer.snapshot()["counts"]
    assert counts["paths.signature_lift.calls"] == 1
    assert counts["paths.signature_lift.nodes"] == 5
    assert counts["tensor_algebra.segment_exponential.calls"] == 4
    assert counts["tensor_algebra.group_elements"] == 9  # identity + 4 segments + 4 products
