"""Warm min-of-N layer probes: the rows of ROADMAP's "Open items" baseline table."""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import roughflow as rf
from roughflow.tensor_algebra import batch_mul

REPEATS = 3

# name -> (what it times, ROADMAP's hand-measured figure in ms, item 3's target in ms)
PROBES = {
    "probe.batch_mul_1e4_ms": ("batch_mul, 10^4 elements, d=3, N=3", 3.7, None),
    "probe.tensor_mul_x1000_ms": ("tensor_mul, scalar API, d=3, N=3, x1000", 18.0, None),
    "probe.signature_lift_4097_ms": ("signature_lift, 4097 nodes, d=2", 95.0, 5.0),
    "probe.resample_lift_4097_8193_ms": ("resample_lift, 4097 -> 8193 nodes", 280.0, 10.0),
    "probe.p_variation_1025_ms": ("p_variation, 1025 nodes, d=2", 50.0, None),
    "probe.solve_rde_shear_1024_ms": ("solve_rde, shear pair, 1024 cells, one state", 47.0, None),
}


def _min_ms(fn) -> float:
    fn()  # warm
    best = math.inf
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return 1e3 * best


def run_probes(seed: int) -> dict:
    rng = np.random.default_rng([seed, 99])
    a = [rng.uniform(-1.0, 1.0, size=(10**4, 3**k)) for k in (1, 2, 3)]
    b = [rng.uniform(-1.0, 1.0, size=(10**4, 3**k)) for k in (1, 2, 3)]
    g = rf.group_exp([rng.uniform(-1.0, 1.0, size=(3,) * k) for k in (1, 2, 3)], 3, 3)
    h = rf.group_exp([rng.uniform(-1.0, 1.0, size=(3,) * k) for k in (1, 2, 3)], 3, 3)

    def tensor_chain():
        for _ in range(1000):
            rf.tensor_mul(g, h)

    t = np.linspace(0.0, 1.0, 4097)
    path = rf.PiecewiseLinearPath(t, np.cumsum(rng.normal(scale=0.02, size=(4097, 2)), axis=0))
    lift = rf.signature_lift(path, 2)
    fine = np.linspace(0.0, 1.0, 8193)
    short = rf.PiecewiseLinearPath(t[:1025] * 4.0, path.values[:1025])

    ts = np.linspace(0.0, 1.0, 1025)
    x = np.stack([0.3 * np.sin(2 * np.pi * ts) + 0.2 * ts, 0.25 * np.cos(3 * np.pi * ts) - 0.25], 1)
    shear = rf.RDEProblem(
        rf.shear_pair_fields(), rf.signature_lift(rf.PiecewiseLinearPath(ts, x - x[0]), 2),
        np.array([0.2, -0.4]), (0.0, 1.0),
    )
    return {
        "probe.batch_mul_1e4_ms": _min_ms(lambda: batch_mul(a, b, 3)),
        "probe.tensor_mul_x1000_ms": _min_ms(tensor_chain),
        "probe.signature_lift_4097_ms": _min_ms(lambda: rf.signature_lift(path, 2)),
        "probe.resample_lift_4097_8193_ms": _min_ms(lambda: rf.resample_lift(lift, fine)),
        "probe.p_variation_1025_ms": _min_ms(lambda: rf.p_variation(short, 2.5)),
        "probe.solve_rde_shear_1024_ms": _min_ms(lambda: rf.solve_rde(shear, 1.0 / 1024)),
    }
