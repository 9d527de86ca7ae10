"""Shift dynamics on sampled rough noise and cocycle verification.

A noise realization is a group-valued path anchored at the identity at
time 0.  The time shift acts by the group formula

    (theta_h omega)(s) = omega(h)^{-1} (x) omega(h + s),

so shifting is a single left multiplication of every stored point.  At
grid-aligned h this is exact; off-grid shifts interpolate a node
geodesically and carry a degraded-precision flag in the metadata.  When
the underlying scalar path is available, a shift can instead be
regenerated exactly at any h by re-lifting the shifted path.

The quantitative checks live here too: the cocycle residual
|X_{s, s+t}(omega) - X_t(theta_s omega)|, the weak cocycle residual of
piecewise-linear projections (zero at grid-multiple shifts, generically
nonzero otherwise), and a two-sample stationarity diagnostic over
populations of realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError
from .gaussian import CovarianceKernel, GaussianSampleConfig, sample_gaussian_paths, uniform_grid
from .paths import (
    PiecewiseLinearPath,
    SampledRoughPath,
    piecewise_linear_projection,
    shift_path,
    signature_lift,
)
from .tensor_algebra import (
    batch_distance,
    batch_increments,
    group_distance,
)

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class ShiftMap:
    """Time shift by h seconds; grid_aligned records whether it is exact."""

    h: float
    grid_aligned: bool = True

    @classmethod
    def for_spacing(cls, h: float, spacing: float) -> "ShiftMap":
        """Classify h against an equidistant grid of the given spacing."""
        if spacing <= 0.0:
            raise ArgumentError("grid spacing must be positive", spacing=spacing)
        k = h / spacing
        return cls(float(h), abs(k - round(k)) <= _ALIGN_TOL)

    def compose(self, other: "ShiftMap") -> "ShiftMap":
        return ShiftMap(self.h + other.h, self.grid_aligned and other.grid_aligned)


@dataclass
class NoiseRealization:
    """A sampled rough-path realization together with its lineage.

    ``omega`` is anchored at the identity at time 0; ``meta`` records the
    seed and construction (which lift, which dyadic level, accumulated
    shifts); ``path`` optionally keeps the underlying scalar path so that
    shifts can be regenerated exactly.
    """

    omega: SampledRoughPath
    meta: dict = field(default_factory=dict)
    path: Optional[PiecewiseLinearPath] = None

    def __post_init__(self):
        a, b = self.omega.span
        if not a <= 0.0 <= b:
            raise ArgumentError("realization span must contain time 0", span=(a, b))
        anchor = self.omega.node_index(0.0)
        gap = max(float(np.linalg.norm(lvl[anchor])) for lvl in self.omega.levels)
        if gap > 1e-9:
            raise ArgumentError(
                "realization is not anchored at the identity at time 0",
                anchor_gap=float(gap),
            )

    @property
    def span(self):
        return self.omega.span

    @property
    def degraded(self) -> bool:
        return bool(self.meta.get("degraded_shift", False))


def noise_from_path(
    x: PiecewiseLinearPath,
    level_count: int = 2,
    p: float = 2.5,
    meta: Optional[dict] = None,
) -> NoiseRealization:
    """Wrap the signature lift of a scalar path as a noise realization."""
    info = dict(meta or {})
    info.setdefault("lift", "signature")
    info.setdefault("level_count", int(level_count))
    return NoiseRealization(signature_lift(x, level_count, p=p), info, path=x)


def gaussian_noise(
    kernel: CovarianceKernel,
    config: GaussianSampleConfig,
    level_count: int = 2,
    p: float = 2.5,
    count: int = 1,
) -> list:
    """Independent lifted realizations of a Gaussian process."""
    paths = sample_gaussian_paths(kernel, config, count)
    out = []
    for i, x in enumerate(paths):
        meta = {
            "kernel": kernel.name,
            "params": dict(kernel.params),
            "seed": config.seed,
            "replication": i,
        }
        out.append(noise_from_path(x, level_count, p, meta))
    return out


def dyadic_noise(
    kernel: CovarianceKernel,
    level: int,
    t_max: float = 1.0,
    dim: int = 1,
    seed: int = 0,
    level_count: int = 2,
    p: float = 2.5,
    count: int = 1,
) -> list:
    """Realizations sampled on the two-sided dyadic grid of spacing 2^-level, level >= 0."""
    if not (isinstance(level, (int, np.integer)) and level >= 0):
        raise ArgumentError("dyadic level must be an integer >= 0", level=level)
    steps = 2.0 * float(t_max) * 2 ** int(level)
    if abs(steps - round(steps)) > _ALIGN_TOL:
        raise ArgumentError(
            "span is not a whole number of dyadic steps", t_max=t_max, level=level
        )
    grid = uniform_grid(-float(t_max), float(t_max), int(round(steps)))
    config = GaussianSampleConfig(times=grid, dim=dim, seed=seed)
    realizations = gaussian_noise(kernel, config, level_count, p, count)
    for noise in realizations:
        noise.meta["dyadic_level"] = int(level)
    return realizations


def shift_omega(noise: NoiseRealization, h: float, window=None) -> NoiseRealization:
    """Shifted realization (theta_h omega)(s) = omega(h)^{-1} (x) omega(h+s).

    Grid-aligned h is an exact group operation.  Off-grid h first completes
    the grid with a geodesic node at h and marks the result degraded.
    ``window`` optionally states the (s_lo, s_hi) range the caller needs;
    a shift that pushes it outside the data span raises.
    """
    lift = noise.omega
    times = lift.times
    a, b = lift.span
    h = float(h)
    if not a <= h <= b:
        raise ArgumentError("shift origin lies outside the data span", h=h, span=(a, b))
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        pad = _ALIGN_TOL * max(1.0, b - a)
        if lo + h < a - pad or hi + h > b + pad:
            raise ArgumentError(
                "requested window leaves the data span after shifting",
                h=h,
                window=(lo, hi),
                span=(a, b),
            )
    k = int(lift.match_nodes(h))
    aligned = k >= 0
    if aligned:
        levels = lift.levels
        new_times = times - h
        anchor = k
    else:
        j = int(np.searchsorted(times, h)) - 1
        base = lift.levels_at([h])
        levels = [np.insert(lvl, j + 1, row, axis=0) for lvl, row in zip(lift.levels, base)]
        new_times = np.concatenate([times[: j + 1] - h, [0.0], times[j + 1 :] - h])
        anchor = j + 1
    new_times[anchor] = 0.0
    shifted = batch_increments(levels, np.full(new_times.size, anchor), slice(None), lift.dim)
    for lvl in shifted:
        lvl[anchor] = 0.0
    meta = dict(noise.meta)
    meta["shift_total"] = float(meta.get("shift_total", 0.0)) + h
    meta["degraded_shift"] = noise.degraded or not aligned
    new_path = shift_path(noise.path, h) if noise.path is not None else None
    return NoiseRealization(
        SampledRoughPath.from_levels(new_times, shifted, lift.p), meta, path=new_path
    )


def regenerated_shift(noise: NoiseRealization, h: float) -> NoiseRealization:
    """Exact shift at arbitrary h by re-lifting the underlying scalar path."""
    if noise.path is None:
        raise ArgumentError("realization does not carry its underlying path")
    meta = dict(noise.meta)
    meta["shift_total"] = float(meta.get("shift_total", 0.0)) + float(h)
    meta["regenerated"] = True
    return noise_from_path(
        shift_path(noise.path, float(h)), noise.omega.level, noise.omega.p, meta
    )


def noise_distance(a: NoiseRealization, b: NoiseRealization) -> float:
    """Largest node-wise flat distance between two realizations on one grid."""
    ta, tb = a.omega.times, b.omega.times
    if ta.size != tb.size or not np.allclose(ta, tb, atol=1e-9, rtol=0.0):
        raise ArgumentError("realizations live on different grids")
    gaps = batch_distance(a.omega.levels, b.omega.levels)
    return float(np.max(gaps))


def cocycle_residual(
    noise: NoiseRealization,
    s: float,
    t: float,
    shifted: Optional[NoiseRealization] = None,
) -> float:
    """Flat norm of X_{s, s+t}(omega) - X_t(theta_s omega).

    Zero means the cocycle identity holds at (s, t).  ``shifted`` may
    supply a precomputed (or independently regenerated) theta_s omega.
    """
    lift = noise.omega
    left = lift.increment(s, float(s) + float(t))
    if shifted is None:
        shifted = shift_omega(noise, s)
    right = shifted.omega.point(t)
    return float(group_distance(left, right))


def _delta_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    k0 = math.ceil(lo / spacing - _ALIGN_TOL)
    k1 = math.floor(hi / spacing + _ALIGN_TOL)
    if k1 - k0 < 1:
        raise ArgumentError(
            "window shorter than one grid cell", window=(lo, hi), spacing=spacing
        )
    return spacing * np.arange(k0, k1 + 1, dtype=float)


def weak_cocycle_residual(
    x: PiecewiseLinearPath,
    spacing: float,
    h: float,
    level_count: int = 2,
    p: float = 2.5,
    max_probes: int = 64,
) -> float:
    """Cocycle residual of the equidistant piecewise-linear projection.

    Both sides are exact signature computations: the projection of x onto
    the absolute grid (spacing * integers) is lifted once with extra nodes
    at the probe times, and compared against the lift of the projected
    shifted path.  For h a multiple of the spacing the residual is pure
    rounding; for other h it is generically of the order of the path's
    oscillation within one cell.
    """
    spacing = float(spacing)
    if spacing <= 0.0:
        raise ArgumentError("grid spacing must be positive", spacing=spacing)
    a, b = x.span
    h = float(h)
    if not a <= h <= b:
        raise ArgumentError("shift origin lies outside the path span", h=h, span=(a, b))
    grid_x = _delta_grid(a, b, spacing)
    projected = piecewise_linear_projection(x, grid_x)
    shifted = shift_path(x, h)
    grid_y = _delta_grid(a - h, b - h, spacing)
    if not grid_y[0] <= 0.0 <= grid_y[-1]:
        raise ArgumentError("shifted grid does not reach time 0", h=h)
    projected_shift = piecewise_linear_projection(shifted, grid_y)
    lifted_shift = signature_lift(projected_shift, level_count, p=p)
    probes = grid_y
    if probes.size > max_probes:
        probes = probes[np.linspace(0, probes.size - 1, max_probes).astype(int)]
    lifted = signature_lift(
        projected.with_nodes(np.append(probes + h, h)), level_count, p=p
    )
    rows = lifted.match_nodes(np.append(h, probes + h))
    left = batch_increments(lifted.levels, np.full(probes.size, rows[0]), rows[1:], lifted.dim)
    right = lifted_shift.levels_at(probes)
    return float(np.max(batch_distance(left, right)))


@dataclass(frozen=True)
class StationarityReport:
    """Two-sample comparison of increment functionals across anchors."""

    anchors: tuple
    window: float
    threshold: float
    statistic: float
    p_value: float
    passed: bool
    detail: tuple

    def to_json_dict(self) -> dict:
        return {
            "anchors": list(self.anchors),
            "window": self.window,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "detail": [dict(rec) for rec in self.detail],
        }


def _increment_functionals(g) -> dict:
    out = {"level1_sum": float(np.sum(g.piece(1)))}
    if g.level >= 2:
        two = g.piece(2)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                out[f"area_{i}{j}"] = 0.5 * float(two[i, j] - two[j, i])
    return out


def stationarity_diagnostic(
    samples: Sequence[NoiseRealization],
    anchors: Sequence[float],
    window: float,
    threshold: float = 0.01,
) -> StationarityReport:
    """Kolmogorov-Smirnov comparison of increment laws across anchors.

    For every anchor pair, scalar functionals of X_{t0, t0 + window}
    (level-1 component sum, level-2 area entries) are compared by a
    two-sample KS test; the report passes when no comparison rejects at
    the given significance.
    """
    from scipy.stats import ks_2samp

    if len(samples) < 100:
        raise ArgumentError("need at least 100 samples", count=len(samples))
    window = float(window)
    anchors = [float(t0) for t0 in anchors]
    for noise in samples:
        a, b = noise.span
        for t0 in anchors:
            if t0 < a - _ALIGN_TOL or t0 + window > b + _ALIGN_TOL:
                raise ArgumentError(
                    "anchor window leaves the data span", anchor=t0, window=window
                )
    values: dict = {}
    for t0 in anchors:
        rows = [_increment_functionals(n.omega.increment(t0, t0 + window)) for n in samples]
        values[t0] = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    detail = []
    worst_stat, worst_p = 0.0, 1.0
    for i, t0 in enumerate(anchors):
        for t1 in anchors[i + 1 :]:
            for key in values[t0]:
                u, v = values[t0][key], values[t1][key]
                if np.array_equal(u, v):
                    stat, pval = 0.0, 1.0
                else:
                    res = ks_2samp(u, v)
                    stat, pval = float(res.statistic), float(res.pvalue)
                detail.append(
                    {
                        "anchor_a": t0,
                        "anchor_b": t1,
                        "functional": key,
                        "statistic": stat,
                        "p_value": pval,
                    }
                )
                worst_stat = max(worst_stat, stat)
                worst_p = min(worst_p, pval)
    return StationarityReport(
        anchors=tuple(anchors),
        window=window,
        threshold=float(threshold),
        statistic=worst_stat,
        p_value=worst_p,
        passed=worst_p >= threshold,
        detail=tuple(detail),
    )
