"""Piecewise-linear paths and their lifts to the truncated tensor group.

A path is stored by breakpoints (times, values); between breakpoints it is
linear, outside its span it is extended constantly (the usual convention for
finite windows of two-sided noise).

A lift is stored as level arrays, level k at n grid nodes as one (n, d**k)
array.  The signature lift anchors every path at time 0 with the group
identity and is built level by level from Chen's identity, so its increments
are exact signatures of the underlying path; times between grid nodes are
completed along the geodesic of the bracketing increment.

p-variation quantities are computed over breakpoint/grid partitions by dynamic
programming, which is exact for piecewise-linear data: merging collinear
increments never decreases a partition sum when p >= 1.  The programme builds
its pair weights a block of columns at a time, so no n x n array is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError
from .tensor_algebra import (
    GroupElement,
    _check_level,
    batch_distance,
    batch_from_elements,
    batch_gather,
    batch_geodesic,
    batch_increments,
    batch_inv,
    batch_mul,
    batch_segment_exponential,
)

_MAX_DP_NODES = 4096
_BLOCK_FLOATS = 1 << 15  # floats per block of an all-pairs sweep (256 KiB): bounds its memory, stays in cache
_NODE_TOL = 1e-9  # a time within _NODE_TOL * max(spacing, 1) of a grid node is that node
FLOAT_FORMAT = "%.17g"  # run-record floats: 17 significant digits round-trip a double

__all__ = [
    "PiecewiseLinearPath",
    "SampledRoughPath",
    "Mollifier",
    "bump_mollifier",
    "signature_lift",
    "p_variation",
    "homogeneous_pvar_distance",
    "pvar_norm",
    "glued_pvar_distance",
    "shift_path",
    "mollify",
    "piecewise_linear_projection",
    "resample_lift",
    "chen_residual_max",
    "geometricity_residual_max",
]


def write_csv(fileobj, prefix: str, times, rows) -> None:
    """Header t, <prefix>1, ..., then one line per time; floats in FLOAT_FORMAT."""
    fileobj.write(",".join(["t"] + [f"{prefix}{i + 1}" for i in range(rows.shape[1])]) + "\n")
    for t, row in zip(times, rows):
        fileobj.write(",".join([FLOAT_FORMAT % v for v in (t, *row)]) + "\n")


def _as_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.size < 2:
        raise ArgumentError("need at least two time nodes", count=t.size)
    if not np.all(np.isfinite(t)):
        raise ArgumentError("non-finite time nodes")
    if np.any(np.diff(t) <= 0):
        raise ArgumentError("times must be strictly increasing")
    return t


class PiecewiseLinearPath:
    """Continuous piecewise-linear function R -> R^d given by breakpoints."""

    __slots__ = ("times", "values")

    def __init__(self, times, values):
        t = _as_times(times)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != t.size:
            raise ArgumentError("values must be (n,) or (n, d) matching times", shape=v.shape, nodes=t.size)
        if not np.all(np.isfinite(v)):
            raise ArgumentError("non-finite path values")
        t.flags.writeable = False
        v = v.copy()
        v.flags.writeable = False
        self.times = t
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def value(self, t):
        """Linear interpolation at t (scalar or array); constant beyond the span."""
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        idx = np.clip(np.searchsorted(self.times, tq, side="right"), 1, self.times.size - 1)
        t0 = self.times[idx - 1]
        t1 = self.times[idx]
        lam = np.clip((tq - t0) / (t1 - t0), 0.0, 1.0)
        out = self.values[idx - 1] + lam[:, None] * (self.values[idx] - self.values[idx - 1])
        return out[0] if scalar else out

    def __call__(self, t):
        return self.value(t)

    def with_nodes(self, new_times) -> "PiecewiseLinearPath":
        """Insert breakpoints (values interpolated); the function is unchanged."""
        extra = np.unique(np.atleast_1d(np.asarray(new_times, dtype=float)))
        tol = 1e-12 * max(1.0, self.times[-1] - self.times[0])
        keep = []
        for t in extra:
            if np.min(np.abs(self.times - t)) <= tol:
                continue
            if keep and t - keep[-1] <= tol:
                continue
            keep.append(t)
        if not keep:
            return self
        t_all = np.sort(np.concatenate([self.times, np.asarray(keep)]))
        return PiecewiseLinearPath(t_all, self.value(t_all))

    def rebase(self, t0: float) -> "PiecewiseLinearPath":
        """Subtract the value at t0 so the path vanishes there."""
        return PiecewiseLinearPath(self.times, self.values - self.value(t0))

    def restrict(self, a: float, b: float) -> "PiecewiseLinearPath":
        if not (a < b):
            raise ArgumentError("empty restriction interval", interval=(a, b))
        p = self.with_nodes([a, b])
        mask = (p.times >= a - 1e-15 * max(1.0, abs(a))) & (p.times <= b + 1e-15 * max(1.0, abs(b)))
        return PiecewiseLinearPath(p.times[mask], p.values[mask])

    def to_json_dict(self) -> dict:
        return {"times": self.times.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewiseLinearPath":
        return cls(doc["times"], doc["values"])

    def to_csv(self, fileobj) -> None:
        """One row per node: t, x_1, ..., x_d with fixed 17-significant-digit floats."""
        write_csv(fileobj, "x", self.times, self.values)

    @classmethod
    def from_csv(cls, fileobj) -> "PiecewiseLinearPath":
        header = fileobj.readline()
        if not header.startswith("t"):
            raise ArgumentError("unrecognized path CSV header", header=header.strip())
        data = np.loadtxt(fileobj, delimiter=",", ndmin=2)
        return cls(data[:, 0], data[:, 1:])


class SampledRoughPath:
    """Group-valued path sampled on a time grid, anchored at the identity at 0.

    ``levels[k-1]`` is a read-only array of shape (n, d**k): level k at each of
    the n grid nodes, flattened in C order.  Finiteness is checked once per
    array.  ``points``, ``point(t)`` and ``increment(s, t)`` are GroupElement
    views derived from the arrays for the public API and JSON.
    """

    __slots__ = ("times", "levels", "p", "_tol")

    def __init__(self, times, points: Sequence[GroupElement], p: float = 1.0):
        t = _as_times(times)
        if len(points) != t.size:
            raise ArgumentError("one group point per time node", nodes=t.size, points=len(points))
        self._store(t, batch_from_elements(points), p)

    @classmethod
    def from_levels(cls, times, levels, p: float = 1.0) -> "SampledRoughPath":
        """Lift from flat level arrays of shape (n, d**k); takes ownership of the arrays."""
        lift = cls.__new__(cls)
        lift._store(_as_times(times), levels, p)
        return lift

    def _store(self, t, levels, p) -> None:
        d = levels[0].shape[1]
        for k, lvl in enumerate(levels, start=1):
            if lvl.shape != (t.size, d**k):
                raise ArgumentError("level array has wrong shape", level=k, expected=(t.size, d**k), got=lvl.shape)
            if not np.all(np.isfinite(lvl)):
                raise ArgumentError("non-finite coefficients", level=k)
            lvl.flags.writeable = False
        if not (p >= 1.0):
            raise ArgumentError("regularity bookkeeping p must be >= 1", p=p)
        self.times = t
        self.levels = tuple(levels)
        self.p = float(p)
        self._tol = _NODE_TOL * max(float(np.min(np.diff(t))), 1.0)

    @property
    def dim(self) -> int:
        return self.levels[0].shape[1]

    @property
    def level(self) -> int:
        return len(self.levels)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    @property
    def points(self) -> list:
        return [self._element(i) for i in range(self.times.size)]

    def _element(self, i: int) -> GroupElement:
        return GroupElement(self.dim, self.level, [lvl[i] for lvl in self.levels])

    def match_nodes(self, ts) -> np.ndarray:
        """Index of the grid node within 1e-9 max(spacing, 1) of each time; -1 where none is."""
        tq = np.asarray(ts, dtype=float)
        j = np.minimum(np.searchsorted(self.times, tq - self._tol), self.times.size - 1)
        return np.where(np.abs(self.times[j] - tq) <= self._tol, j, -1)

    def node_index(self, t: float) -> int:
        i = int(self.match_nodes(t))
        if i < 0:
            nearest = float(self.times[np.argmin(np.abs(self.times - t))])
            raise ArgumentError("time is not a grid node; resample_lift first", t=t, nearest=nearest)
        return i

    def levels_at(self, ts) -> list:
        """Flat levels at times inside the span, one row per time.

        Grid nodes give their stored rows exactly; other times are completed on
        the geodesic of the bracketing increment (linear interpolation at
        level 1, the group exponential of the scaled log at higher levels).
        """
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.span
        first, last = float(ts.min()), float(ts.max())
        if not lo - 1e-12 <= first <= last <= hi + 1e-12:  # NaN fails too
            raise ArgumentError("resample times outside the lift span", span=(lo, hi),
                                requested=(first, last))
        idx = self.match_nodes(ts)
        out = [lvl[np.maximum(idx, 0)] for lvl in self.levels]
        off = np.flatnonzero(idx < 0)
        if off.size:
            t = self.times
            j = np.minimum(np.maximum(np.searchsorted(t, ts[off], side="right") - 1, 0), t.size - 2)
            frac = (ts[off] - t[j]) / (t[j + 1] - t[j])
            mid = batch_geodesic(batch_gather(self.levels, j), batch_gather(self.levels, j + 1), frac, self.dim)
            for lvl, row in zip(out, mid):
                lvl[off] = row
        return out

    def point(self, t: float) -> GroupElement:
        return self._element(self.node_index(t))

    def increment(self, s: float, t: float) -> GroupElement:
        """Group increment between grid nodes: point(s)^{-1} (x) point(t)."""
        i, j = self.node_index(s), self.node_index(t)
        inc = batch_increments(batch_gather(self.levels, [i, j]), [0], [1], self.dim)
        return GroupElement(self.dim, self.level, [lvl[0] for lvl in inc])

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "p": self.p,
            "points": [g.to_json_dict() for g in self.points],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampledRoughPath":
        return cls(doc["times"], [GroupElement.from_json_dict(g) for g in doc["points"]], doc.get("p", 1.0))


def _running_products(exps) -> list:
    """Levels of P_0 = 1, P_{i+1} = P_i (x) E_i at i = 0..m, given the flat levels of E_0..E_{m-1}.

    Chen's identity level by level: pi_k(P_{i+1}) - pi_k(P_i) is
    sum_{j=1..k} pi_{k-j}(P_i) (x) pi_j(E_i), whose lower levels are already
    known at every node, so level k is one cumulative sum over segments.
    """
    m = exps[0].shape[0]
    out = []
    for k in range(1, len(exps) + 1):
        step = exps[k - 1]
        for i in range(1, k):
            left, right = out[i - 1][:-1], exps[k - i - 1]
            step = step + np.einsum("bi,bj->bij", left, right).reshape(m, left.shape[1] * right.shape[1])
        level = np.zeros((m + 1, step.shape[1]))
        np.cumsum(step, axis=0, out=level[1:])
        out.append(level)
    return out


def signature_lift(x: PiecewiseLinearPath, level: int, p: float = 1.0) -> SampledRoughPath:
    """Exact step-level signature lift of a piecewise-linear path, as level arrays.

    The lift is the identity at the anchor, time 0 (inserted as a node when the
    span covers it, the left endpoint otherwise).  Right of the anchor it is the
    running product of the segments' group exponentials, left of it the running
    product of the reversed segments' exponentials; both are built level by
    level from Chen's identity with one cumulative sum per level.  Increments of
    the result are therefore exact signatures and satisfy Chen's relation up to
    rounding.  Coefficients that overflow raise ArgumentError.
    """
    _check_level(level)
    lo, hi = x.span
    if lo <= 0.0 <= hi:
        x = x.with_nodes([0.0])
        anchor = int(np.argmin(np.abs(x.times)))
    else:
        anchor = 0
    x = x.rebase(x.times[anchor])
    increments = np.diff(x.values, axis=0)
    forward = _running_products(batch_segment_exponential(increments[anchor:], level))
    backward = _running_products(batch_segment_exponential(-increments[:anchor][::-1], level))
    levels = [np.concatenate([b[:0:-1], f]) for b, f in zip(backward, forward)]
    return SampledRoughPath.from_levels(x.times, levels, p)


def _restrict_nodes(x: PiecewiseLinearPath, interval) -> np.ndarray:
    if interval is None:
        return x.values
    a, b = float(interval[0]), float(interval[1])
    return x.restrict(a, b).values


def _max_partition_sums(n: int, rows: int, pair_weights, floats_per_pair: int, p: float) -> float:
    """max over weight rows of (max over partitions of the n nodes of the summed pair weights)^{1/p}.

    Dynamic programme f(j) = max_{i<j} f(i) + w(i, j), one per weight row.
    pair_weights(i, j) returns the (rows, len(i)) weights of the node pairs
    (i[m], j[m]).  Columns j are built in order, a block of at most
    _BLOCK_FLOATS / floats_per_pair pairs at a time (one column at least), so
    no n x n array is held.
    """
    ends = np.cumsum(np.arange(n))  # ends[j]: pairs in columns 1..j
    budget = max(1, _BLOCK_FLOATS // floats_per_pair)
    f = np.zeros((rows, n))
    j = 1
    while j < n:
        stop = max(j + 1, int(np.searchsorted(ends, ends[j - 1] + budget, side="right")))
        cols = np.arange(j, stop)
        starts = ends[cols - 1] - ends[j - 1]
        col_idx = np.repeat(cols, cols)
        w = pair_weights(np.arange(col_idx.size) - np.repeat(starts, cols), col_idx)
        for c, s in zip(cols, starts):
            f[:, c] = np.max(f[:, :c] + w[:, s:s + c], axis=1)
        j = stop
    return max(float(v) ** (1.0 / p) for v in f[:, -1])


def p_variation(x: PiecewiseLinearPath, p: float, interval=None) -> float:
    """p-variation over breakpoint partitions (exact for piecewise-linear paths).

    Dynamic programme over breakpoints: f(i) = max_{j<i} f(j) + |x_i - x_j|^p,
    answer f(last)^{1/p}.
    """
    if not (p >= 1.0):
        raise ArgumentError("p must be >= 1", p=p)
    values = _restrict_nodes(x, interval)
    n = values.shape[0]
    if n > _MAX_DP_NODES:
        raise ArgumentError("too many breakpoints for the quadratic programme", nodes=n, limit=_MAX_DP_NODES)

    def weights(i, j):
        return (np.linalg.norm(values[i] - values[j], axis=1) ** p)[None]

    return _max_partition_sums(n, 1, weights, values.shape[1], p)


def _node_window(lift: SampledRoughPath, interval):
    if interval is None:
        return np.arange(lift.times.size)
    a, b = float(interval[0]), float(interval[1])
    sel = np.where((lift.times >= a - 1e-12) & (lift.times <= b + 1e-12))[0]
    if sel.size < 2:
        raise ArgumentError("interval contains fewer than two grid nodes", interval=(a, b))
    return sel


def homogeneous_pvar_distance(x: SampledRoughPath, y: SampledRoughPath, p: float, interval=None) -> float:
    """Homogeneous p-variation distance of two lifts on a common grid.

    max over levels k of (sup over grid partitions of sum |pi_k of the increment
    difference|^{p/k})^{1/p}.  Lifts on different grids are resampled onto the
    union grid first (geodesic completion); spans must agree.
    """
    if x.dim != y.dim or x.level != y.level:
        raise ArgumentError("lifts live in different truncated groups",
                            left=(x.dim, x.level), right=(y.dim, y.level))
    if not (p >= 1.0):
        raise ArgumentError("p must be >= 1", p=p)
    if x.times.size != y.times.size or not np.allclose(x.times, y.times, atol=1e-12, rtol=0):
        if not np.allclose([x.times[0], x.times[-1]], [y.times[0], y.times[-1]], atol=1e-9, rtol=0):
            raise ArgumentError("lift spans differ; cannot resample onto a common grid",
                                left=x.span, right=y.span)
        union = np.union1d(np.round(x.times, 15), np.round(y.times, 15))
        x = resample_lift(x, union)
        y = resample_lift(y, union)
    sel = _node_window(x, interval)
    n = sel.size
    if n > _MAX_DP_NODES:
        raise ArgumentError("too many grid nodes for the quadratic programme", nodes=n, limit=_MAX_DP_NODES)
    d = x.dim
    xs, ys = batch_gather(x.levels, sel), batch_gather(y.levels, sel)
    x_inv, y_inv = batch_inv(xs, d), batch_inv(ys, d)

    def weights(i, j):
        inc_x = batch_mul(batch_gather(x_inv, i), batch_gather(xs, j), d)
        inc_y = batch_mul(batch_gather(y_inv, i), batch_gather(ys, j), d)
        return np.stack([np.linalg.norm(a - b, axis=1) ** (p / k)
                         for k, (a, b) in enumerate(zip(inc_x, inc_y), start=1)])

    return _max_partition_sums(n, x.level, weights, sum(lvl.shape[1] for lvl in xs), p)


def pvar_norm(lift: SampledRoughPath, p: float, interval=None) -> float:
    """Homogeneous p-variation norm of a lift: its distance to the identity lift on its own grid."""
    identity = SampledRoughPath.from_levels(lift.times, [np.zeros_like(lvl) for lvl in lift.levels], lift.p)
    return homogeneous_pvar_distance(lift, identity, p, interval)


def glued_pvar_distance(x: SampledRoughPath, y: SampledRoughPath, p: float, max_window: int = 8) -> float:
    """sum_m 2^{-m} (d_{p-var;[-m,m]} ^ 1) over growing windows clipped to the spans."""
    lo = max(x.times[0], y.times[0])
    hi = min(x.times[-1], y.times[-1])
    total = 0.0
    for m in range(1, max_window + 1):
        a, b = max(lo, -float(m)), min(hi, float(m))
        if b - a <= 0:
            break
        d = min(homogeneous_pvar_distance(x, y, p, interval=(a, b)), 1.0)
        total += 2.0 ** (-m) * d
        if a == lo and b == hi:
            # every larger window sees the same full span: geometric tail in closed form
            total += 2.0 ** (-m) * d
            break
    return total


def shift_path(x: PiecewiseLinearPath, h: float) -> PiecewiseLinearPath:
    """Time shift with re-basing: result(t) = x(t + h) - x(h)."""
    lo, hi = x.span
    if lo < h < hi:
        x = x.with_nodes([h])
    base = x.value(h)
    return PiecewiseLinearPath(x.times - h, x.values - base)


@dataclass(frozen=True)
class Mollifier:
    """Probability density with compact support used for convolution smoothing."""

    density: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __post_init__(self):
        if not (self.support_radius > 0):
            raise ArgumentError("support radius must be positive", radius=self.support_radius)
        us, w = _simpson_nodes(-self.support_radius, self.support_radius, 1025)
        vals = np.asarray(self.density(us), dtype=float)
        if np.any(vals < -1e-12):
            raise ArgumentError("mollifier density must be nonnegative")
        mass = float(np.dot(w, vals))
        if abs(mass - 1.0) > 1e-8:
            raise ArgumentError("mollifier density does not integrate to 1", mass=mass)


def _simpson_nodes(a: float, b: float, n_nodes: int):
    if n_nodes < 3:
        n_nodes = 3
    if n_nodes % 2 == 0:
        n_nodes += 1
    us = np.linspace(a, b, n_nodes)
    h = (b - a) / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return us, w * h / 3.0


_BUMP_CONST = None


def _bump_normalizer() -> float:
    global _BUMP_CONST
    if _BUMP_CONST is None:
        us, w = _simpson_nodes(-1.0, 1.0, 8193)
        inner = np.zeros_like(us)
        mask = np.abs(us) < 1.0
        inner[mask] = np.exp(-1.0 / (1.0 - us[mask] ** 2))
        _BUMP_CONST = 1.0 / float(np.dot(w, inner))
    return _BUMP_CONST


def bump_mollifier(radius: float) -> Mollifier:
    """Standard smooth bump supported on [-radius, radius], numerically normalized."""
    c = _bump_normalizer() / radius

    def density(u):
        u = np.asarray(u, dtype=float)
        s = u / radius
        out = np.zeros_like(s)
        mask = np.abs(s) < 1.0
        out[mask] = c * np.exp(-1.0 / (1.0 - s[mask] ** 2))
        return out

    return Mollifier(density, float(radius))


def mollify(
    x: PiecewiseLinearPath,
    mu: Mollifier,
    interval=None,
    nodes_per_support: int = 64,
    refine: int = 1,
) -> PiecewiseLinearPath:
    """Convolution smoothing: result(t) = int (x(t - u) - x(-u)) mu(du).

    Composite Simpson quadrature over the mollifier support; the discrete
    weights are normalized to unit mass so constant-slope paths are fixed
    points exactly.  The output grid refines the input breakpoints, which makes
    smoothing commute with time shifts at common evaluation nodes.
    """
    r = mu.support_radius
    lo, hi = x.span
    if lo > -r or hi < r:
        raise ArgumentError("path span must cover the mollifier support around 0",
                            span=(lo, hi), radius=r)
    if interval is None:
        interval = (lo + r, hi - r)
    a, b = float(interval[0]), float(interval[1])
    if a < lo + r - 1e-12 or b > hi - r + 1e-12 or a >= b:
        raise ArgumentError("target interval must sit inside the span shrunk by the support radius",
                            interval=(a, b), admissible=(lo + r, hi - r))
    us, w = _simpson_nodes(-r, r, int(nodes_per_support))
    wq = w * np.asarray(mu.density(us), dtype=float)
    wq = wq / wq.sum()

    base = x.times
    if refine > 1:
        pieces = [np.linspace(base[i], base[i + 1], refine, endpoint=False) for i in range(base.size - 1)]
        base = np.concatenate(pieces + [base[-1:]])
    grid = base[(base >= a - 1e-12) & (base <= b + 1e-12)]
    extra = [a, b] + ([0.0] if a < 0.0 < b else [])
    for t in extra:
        if grid.size == 0 or np.min(np.abs(grid - t)) > 1e-12 * max(1.0, b - a):
            grid = np.append(grid, t)
    grid = np.sort(grid)

    query = grid[:, None] - us[None, :]
    vals = x.value(query.reshape(-1)).reshape(grid.size, us.size, x.dim)
    offset = x.value(-us)
    out = np.einsum("q,tqd->td", wq, vals - offset[None, :, :])
    return PiecewiseLinearPath(grid, out)


def piecewise_linear_projection(x, grid) -> PiecewiseLinearPath:
    """Values of x on an equidistant grid, joined piecewise linearly."""
    g = _as_times(grid)
    steps = np.diff(g)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ArgumentError("projection grid must be equidistant")
    if isinstance(x, PiecewiseLinearPath):
        vals = x.value(g)
    else:
        vals = np.asarray([np.atleast_1d(np.asarray(x(t), dtype=float)) for t in g])
    return PiecewiseLinearPath(g, vals)


def resample_lift(lift: SampledRoughPath, new_times) -> SampledRoughPath:
    """Evaluate a lift at new times inside its span.

    Grid nodes are returned exactly; strictly interior times use geodesic
    completion of the bracketing increment (linear interpolation at level 1,
    the group exponential of the scaled log at higher levels).
    """
    ts = _as_times(np.asarray(new_times, dtype=float))
    return SampledRoughPath.from_levels(ts, lift.levels_at(ts), lift.p)


def chen_residual_max(lift: SampledRoughPath, max_nodes: int = 64) -> float:
    """max over node triples s < u < t of |inc(s,u) (x) inc(u,t) - inc(s,t)|."""
    n = lift.times.size
    if n > max_nodes:
        raise ArgumentError("too many nodes for the all-triples sweep", nodes=n, limit=max_nodes)
    rows, cols = np.triu_indices(n, 1)
    pair_id = np.zeros((n, n), dtype=int)
    pair_id[rows, cols] = np.arange(rows.size)
    incs = batch_increments(lift.levels, rows, cols, lift.dim)
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))  # i < j < k
    if not i.size:
        return 0.0
    lhs = batch_mul(batch_gather(incs, pair_id[i, j]), batch_gather(incs, pair_id[j, k]), lift.dim)
    rhs = batch_gather(incs, pair_id[i, k])
    return float(np.max(batch_distance(lhs, rhs)))


def geometricity_residual_max(lift: SampledRoughPath) -> float:
    """max over node pairs s < t of |r(inc(s, t))|, r(g) = Sym(pi_2 g) - 0.5 pi_1 g (x) pi_1 g.

    Expanding the product gives r(g_s^{-1} (x) g_t) = r(g_t) - r(g_s) exactly:
    the cross terms cancel.  So the maximum over pairs is the diameter of the n
    node residuals in the flat norm, O(n d^2) work and memory.  Squared distances
    come from Gram products of the centred residuals, a block of rows at a time.
    """
    if lift.level < 2:
        return 0.0
    n, d = lift.times.size, lift.dim
    x1 = lift.levels[0]
    x2 = lift.levels[1].reshape(n, d, d)
    r = (0.5 * (x2 + np.transpose(x2, (0, 2, 1))) - 0.5 * np.einsum("bi,bj->bij", x1, x1)).reshape(n, -1)
    c = r - r.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    rows = max(1, _BLOCK_FLOATS // n)
    best = 0.0
    for a in range(0, n, rows):
        gram = c[a:a + rows] @ c[a:].T
        best = max(best, float(np.max(sq[a:a + rows, None] + sq[None, a:] - 2.0 * gram)))
    return best**0.5
