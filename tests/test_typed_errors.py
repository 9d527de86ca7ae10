"""Seeded sweep over the public group and lift entry points.

Invalid arguments (bad levels or dimensions, wrong level counts or shapes,
non-finite or overflowing coefficients, mismatched groups, bad times) must
raise a RoughflowError subclass; valid arguments must return finite values.
Arguments of the wrong Python type (a list where a GroupElement is expected,
strings for numbers) are outside the sweep.
"""

import numpy as np
import pytest

from roughflow.errors import RoughflowError
from roughflow.paths import PiecewiseLinearPath, resample_lift, signature_lift
from roughflow.tensor_algebra import (
    MAX_LEVEL,
    GroupElement,
    geodesic_point,
    group_exp,
    group_log,
    identity_element,
    segment_exponential,
    tensor_inv,
    tensor_mul,
)

BAD_LEVELS = (0, -1, 1.5, np.float64(2.0), np.nan, MAX_LEVEL + 1)
BAD_DIMS = (0, -2, 1.5, np.nan)
ROUNDS = 60


def _levels(rng, dim, level, scale=1.0):
    return [scale**k * rng.uniform(-1, 1, (dim,) * k) for k in range(1, level + 1)]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _finite(levels):
    return all(np.all(np.isfinite(lvl)) for lvl in levels)


def _group_cases(rng, dim, level):
    raw = _levels(rng, dim, level)
    g = GroupElement(dim, level, raw)
    other = GroupElement(dim + 1, level, _levels(rng, dim + 1, level))
    poisoned = [lvl.copy() for lvl in raw]
    poisoned[int(rng.integers(level))].flat[-1] = _pick(rng, (np.nan, np.inf, -np.inf))
    cases = [
        lambda: GroupElement(dim, _pick(rng, BAD_LEVELS), raw),
        lambda: GroupElement(_pick(rng, BAD_DIMS), level, raw),
        lambda: GroupElement(dim, level, raw[:-1]),
        lambda: GroupElement(dim, level, raw[:-1] + [np.zeros(dim**level + 1)]),
        lambda: GroupElement(dim, level, poisoned),
        lambda: identity_element(dim, _pick(rng, BAD_LEVELS)),
        lambda: identity_element(_pick(rng, BAD_DIMS), level),
        lambda: segment_exponential(rng.normal(size=dim), _pick(rng, BAD_LEVELS)),
        lambda: segment_exponential(np.zeros(0), level),
        lambda: segment_exponential(np.append(raw[0][1:], np.nan), level),
        lambda: tensor_mul(g, other),
        lambda: tensor_mul(g, identity_element(dim, level % MAX_LEVEL + 1)),
        lambda: group_exp(raw[:-1], dim, level),
        lambda: group_exp(raw[:-1] + [np.zeros(dim**level + 1)], dim, level),
        lambda: group_exp(poisoned, dim, level),
        lambda: group_exp(raw, dim, _pick(rng, BAD_LEVELS)),
        lambda: geodesic_point(g, other, 0.5),
        lambda: geodesic_point(g, g, _pick(rng, (np.nan, np.inf))),
        lambda: geodesic_point(g, g, rng.uniform(size=2)),
    ]
    if level >= 2:  # level-1 coefficients of 1e200 overflow in every product
        big = GroupElement(dim, level, [np.full(dim, 1e200)] + raw[1:])
        cases += [
            lambda: tensor_mul(big, big),
            lambda: tensor_inv(big),
            lambda: group_log(big),
            lambda: group_exp(big.levels, dim, level),
            lambda: geodesic_point(g, big, 0.5),
            lambda: segment_exponential(np.full(dim, 1e200), level),
        ]
    return cases


def _lift_cases(rng, dim, level):
    n = int(rng.integers(2, 9))
    times = np.sort(rng.uniform(-1.0, 1.0, n)) + np.arange(n)
    x = PiecewiseLinearPath(times, rng.normal(size=(n, dim)))
    zigzag = PiecewiseLinearPath(times, np.full((n, dim), 1e200) * (-1.0) ** np.arange(n)[:, None])
    lift = signature_lift(x, level)
    lo, hi = lift.span
    return [
        lambda: signature_lift(x, _pick(rng, BAD_LEVELS)),
        lambda: signature_lift(x, level, _pick(rng, (0.5, np.nan))),
        lambda: signature_lift(zigzag, max(level, 2)),
        lambda: resample_lift(lift, [lo, _pick(rng, (np.nan, np.inf))]),
        lambda: resample_lift(lift, [lo, hi + 1.0]),
        lambda: resample_lift(lift, [hi, lo]),
        lambda: resample_lift(lift, [lo]),
        lambda: resample_lift(lift, np.linspace(lo, hi, 4).reshape(2, 2)),
        lambda: PiecewiseLinearPath(np.linspace(lo, hi, 4).reshape(2, 2), np.zeros((4, dim))),
        lambda: lift.levels_at([_pick(rng, (np.nan, np.inf, lo - 1.0, hi + 1.0))]),
        lambda: lift.levels_at([]),
        lambda: lift.levels_at([[lo, hi]]),
        lambda: lift.levels_at(lo),
    ]


def _valid_outputs(rng, dim, level):
    scale = _pick(rng, (1e-3, 1.0, 1e3))
    g, h = (GroupElement(dim, level, _levels(rng, dim, level, scale)) for _ in range(2))
    log = group_log(g)
    outs = [log] + [
        e.levels
        for e in (
            identity_element(dim, level),
            segment_exponential(scale * rng.normal(size=dim), level),
            tensor_mul(g, h),
            tensor_inv(g),
            group_exp(log, dim, level),
            geodesic_point(g, h, rng.uniform(-0.5, 1.5)),
        )
    ]
    n = int(rng.integers(2, 9))
    times = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n)
    x = PiecewiseLinearPath(times, scale * rng.normal(size=(n, dim)))
    lift = signature_lift(x, level, 1.0 + 2 * rng.uniform())
    lo, hi = lift.span
    inner = np.sort(rng.uniform(lo, hi, int(rng.integers(2, 6))))
    outs += [lift.levels, resample_lift(lift, inner).levels, lift.levels_at(inner[::-1])]
    return outs


def test_group_and_lift_entry_points_raise_typed_errors_and_return_finite_values():
    rng = np.random.default_rng(9)
    for _ in range(ROUNDS):
        dim, level = int(rng.integers(1, 5)), int(rng.integers(1, MAX_LEVEL + 1))
        for out in _valid_outputs(rng, dim, level):
            assert _finite(out)
        for case in _group_cases(rng, dim, level) + _lift_cases(rng, dim, level):
            with pytest.raises(RoughflowError):
                case()
