"""Truncated tensor group over R^d.

Group elements are formal series 1 + a_1 + ... + a_N with a_k in (R^d)^{tensor k},
truncated beyond level N.  The scalar level is pinned to 1 and never stored; level
k is a dense float64 array of shape (d,)*k whose C-order flattening is the
lexicographic coefficient order used by the JSON form.

The flat norm is the maximum over levels (including the scalar 1) of the level
Frobenius norm.  Frobenius is compatible with the tensor product in the exact
sense |v (x) w| = |v| |w|, which several invariants below rely on.

Batched kernels (leading axis = batch, level k flattened to d**k columns)
are the only implementation of the group operations.  They carry every lift:
signature lifts, resampling and geodesic completion, cell increments, shifts
and the all-pairs/all-triples verification sweeps.  The GroupElement API
(product, inverse, segment exponential, log, exp, geodesic) runs each
operation as a batch of one; the per-element loops it replaced are the test
oracles.  Those entry points run with overflow warnings off, because
GroupElement's finiteness check turns an overflow into ArgumentError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

# Dense storage grows like d**N; level 4 is the supported ceiling.
MAX_LEVEL = 4

__all__ = [
    "MAX_LEVEL",
    "GroupElement",
    "identity_element",
    "segment_exponential",
    "tensor_mul",
    "tensor_inv",
    "flat_norm",
    "group_distance",
    "homogeneous_gauge",
    "group_log",
    "group_exp",
    "geodesic_point",
]


def _check_level(level: int) -> None:
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise ArgumentError("truncation level must be a positive integer", level=level)
    if level > MAX_LEVEL:
        raise ArgumentError("truncation level above supported ceiling", level=level, max_level=MAX_LEVEL)


def _check_group(dim: int, level: int) -> None:
    _check_level(level)
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ArgumentError("dimension must be a positive integer", dim=dim)


class GroupElement:
    """Point of the truncated tensor group with unit scalar part."""

    __slots__ = ("dim", "level", "levels")

    def __init__(self, dim: int, level: int, levels):
        _check_group(dim, level)
        if len(levels) != level:
            raise ArgumentError("wrong number of level arrays", expected=level, got=len(levels))
        stored = []
        for k, arr in enumerate(levels, start=1):
            a = np.asarray(arr, dtype=float)
            want = (dim,) * k
            if a.shape != want:
                if a.size == dim**k:
                    a = a.reshape(want)
                else:
                    raise ArgumentError("level array has wrong shape", level=k, expected=want, got=a.shape)
            if not np.all(np.isfinite(a)):
                raise ArgumentError("non-finite coefficients", level=k)
            stored.append(a)
        self.dim = int(dim)
        self.level = int(level)
        self.levels = tuple(stored)

    def piece(self, k: int):
        """Level-k part; k = 0 returns the scalar 1.0."""
        if k == 0:
            return 1.0
        return self.levels[k - 1]

    def __repr__(self) -> str:
        return f"GroupElement(dim={self.dim}, level={self.level})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "level": self.level,
            "levels": [lvl.reshape(-1).tolist() for lvl in self.levels],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GroupElement":
        return cls(int(doc["dim"]), int(doc["level"]), doc["levels"])


def identity_element(dim: int, level: int) -> GroupElement:
    _check_group(dim, level)
    return GroupElement(dim, level, [np.zeros((dim,) * k) for k in range(1, level + 1)])


def _as_batch(g: GroupElement):
    return [lvl.reshape(1, -1) for lvl in g.levels]


def _element(levels, dim: int, level: int) -> GroupElement:
    """Row 0 of batched flat levels as a GroupElement, which checks their count, shapes and finiteness."""
    return GroupElement(dim, level, [lvl[0] for lvl in levels])


@np.errstate(over="ignore", invalid="ignore")
def segment_exponential(increment, level: int) -> GroupElement:
    """Group exponential of a single linear segment with value increment v.

    Level k is v^{tensor k} / k!; for one segment this is the exact lift.
    """
    _check_level(level)
    v = np.asarray(increment, dtype=float).reshape(1, -1)
    return _element(batch_segment_exponential(v, level), v.shape[1], level)


def _check_pair(g: GroupElement, h: GroupElement) -> None:
    if g.dim != h.dim or g.level != h.level:
        raise ArgumentError("group elements live in different truncated groups",
                            left=(g.dim, g.level), right=(h.dim, h.level))


@np.errstate(over="ignore", invalid="ignore")
def tensor_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Truncated tensor product: level k of g (x) h is sum_i g_i (x) h_{k-i}."""
    _check_pair(g, h)
    return _element(batch_mul(_as_batch(g), _as_batch(h), g.dim), g.dim, g.level)


@np.errstate(over="ignore", invalid="ignore")
def tensor_inv(g: GroupElement) -> GroupElement:
    """Group inverse via the truncated Neumann series (1 + a)^{-1} = sum (-a)^j."""
    return _element(batch_inv(_as_batch(g), g.dim), g.dim, g.level)


def flat_norm(g: GroupElement) -> float:
    """max over levels 0..N of the level Frobenius norm (level 0 is the scalar 1)."""
    best = 1.0
    for lvl in g.levels:
        best = max(best, float(np.linalg.norm(lvl.reshape(-1))))
    return best


def group_distance(g: GroupElement, h: GroupElement) -> float:
    """Flat norm of the difference g - h (the scalar parts cancel)."""
    _check_pair(g, h)
    best = 0.0
    for a, b in zip(g.levels, h.levels):
        best = max(best, float(np.linalg.norm((a - b).reshape(-1))))
    return best


def homogeneous_gauge(g: GroupElement) -> float:
    """max_k |pi_k(g)|^{1/k}; scales linearly under dilation of the underlying path."""
    best = 0.0
    for k, lvl in enumerate(g.levels, start=1):
        best = max(best, float(np.linalg.norm(lvl.reshape(-1))) ** (1.0 / k))
    return best


@np.errstate(over="ignore", invalid="ignore")
def group_log(g: GroupElement):
    """Truncated series log(1 + a) = a - a^2/2 + a^3/3 - ...; returns level arrays."""
    return list(_element(batch_log(_as_batch(g), g.dim), g.dim, g.level).levels)


@np.errstate(over="ignore", invalid="ignore")
def group_exp(levels, dim: int, level: int) -> GroupElement:
    """Truncated exp of a series with zero scalar part (inverse of group_log); GroupElement checks its levels."""
    return _element(batch_exp(_as_batch(GroupElement(dim, level, levels)), dim), dim, level)


@np.errstate(over="ignore", invalid="ignore")
def geodesic_point(g0: GroupElement, g1: GroupElement, frac: float) -> GroupElement:
    """Point at parameter frac on the one-parameter geodesic from g0 to g1.

    Realized as g0 (x) exp(frac * log(g0^{-1} (x) g1)); frac = 0 and 1 return the
    endpoints up to rounding.
    """
    _check_pair(g0, g1)
    if np.ndim(frac):
        raise ArgumentError("geodesic parameter must be a scalar", shape=np.shape(frac))
    return _element(batch_geodesic(_as_batch(g0), _as_batch(g1), [frac], g0.dim), g0.dim, g0.level)


# ---------------------------------------------------------------------------
# Batched arithmetic: levels stored flat as arrays of shape (B, d**k).
# ---------------------------------------------------------------------------


def batch_identity(batch: int, dim: int, level: int):
    return [np.zeros((batch, dim**k)) for k in range(1, level + 1)]


def batch_from_elements(elements) -> list:
    """Stack GroupElements (same dim/level) into batched flat level arrays."""
    first = elements[0]
    for g in elements:
        _check_pair(first, g)
    return [
        np.stack([g.levels[k].reshape(-1) for g in elements])
        for k in range(first.level)
    ]


def _cross(a, b, out):
    """Add sum_{0<i<k} a_i (x) b_{k-i} into out[k] at every level, skipping None levels; returns out."""
    for k in range(2, len(out) + 1):
        for i in range(1, k):
            left, right = a[i - 1], b[k - i - 1]
            if left is None or right is None:
                continue
            prod = np.einsum("bi,bj->bij", left, right).reshape(left.shape[0], -1)
            out[k - 1] = prod if out[k - 1] is None else out[k - 1] + prod
    return out


def batch_mul(a, b, dim: int):
    return _cross(a, b, [x + y for x, y in zip(a, b)])


def _batch_series(a, coeff):
    """sum_j coeff(j) a^j over j = 1..N for a series a with zero scalar part (coeff(1) = 1)."""
    level = len(a)
    total = [lvl.copy() for lvl in a]
    power = a
    for j in range(2, level + 1):
        power = _cross(power, a, [None] * level)
        c = coeff(j)
        for k in range(level):
            if power[k] is not None:
                total[k] = total[k] + c * power[k]
    return total


def batch_inv(a, dim: int):
    """Group inverse via the truncated Neumann series (1 + a)^{-1} = sum (-a)^j."""
    return _batch_series([-lvl for lvl in a], lambda j: 1.0)


def batch_log(a, dim: int):
    """Truncated log(1 + a) = sum_j (-1)^{j+1} a^j / j; returns the flat levels of the log."""
    return _batch_series(a, lambda j: (-1.0) ** (j + 1) / j)


def batch_exp(a, dim: int):
    """Truncated exp of a series with zero scalar part; inverse of batch_log."""
    return _batch_series(a, lambda j: 1.0 / math.factorial(j))


def batch_geodesic(a, b, frac, dim: int):
    """Per-element a (x) exp(frac * log(a^{-1} (x) b)): the geodesic from a to b at frac."""
    log_levels = batch_log(batch_mul(batch_inv(a, dim), b, dim), dim)
    scale = np.asarray(frac, dtype=float).reshape(-1, 1)
    return batch_mul(a, batch_exp([scale * lvl for lvl in log_levels], dim), dim)


def batch_segment_exponential(increments, level: int):
    v = np.asarray(increments, dtype=float)
    if v.ndim != 2:
        raise ArgumentError("expected a (batch, dim) increment array", shape=v.shape)
    levels = [v.copy()]
    power = v
    for k in range(2, level + 1):
        power = np.einsum("bi,bj->bij", power, v).reshape(v.shape[0], power.shape[1] * v.shape[1]) / k
        levels.append(power)
    return levels


def batch_distance(a, b):
    """Per-element flat norm of the difference; returns shape (B,)."""
    best = None
    for x, y in zip(a, b):
        norms = np.linalg.norm(x - y, axis=1)
        best = norms if best is None else np.maximum(best, norms)
    return best


def batch_gather(levels, indices):
    return [lvl[indices] for lvl in levels]


def batch_increments(levels, i, j, dim: int):
    """Row increments g_i^{-1} (x) g_j of stacked flat levels; i and j index rows (arrays or slices)."""
    return batch_mul(batch_gather(batch_inv(levels, dim), i), batch_gather(levels, j), dim)
