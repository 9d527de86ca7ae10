"""Rough differential equations, two-parameter flows, and drift transforms.

The solver advances a second-order Taylor scheme cell by cell:

    y <- y + sum_i sigma_i(y) X1_i + sum_{ij} (D sigma_j sigma_i)(y) X2_{ij},

with X1, X2 the level-1/level-2 increments of the driving lift over the
cell.  One kernel computes it from the family's stacked field jets with
plain matmuls; driver flows run the same kernel on the level-2 data
(1/2) X1 (x) X1 + Anti(X2), which turns it into x + V + W + (1/2) DV V.
For an all-linear family sigma_i(y) = A_i y the step is exactly y <- M y,
M = I + sum_i X1_i A_i + sum_{ij} X2_{ij} A_j A_i for any level-2 data, and
M is also its Jacobian: every whole cell's M is built with the cell table,
and whole cells below the gauge threshold step by one matmul each.
Jacobians propagate the derivative of the same scheme, never finite
differences of the state, so adaptive substepping cannot desynchronize
them.  Flows with drift are solved by transformation: the driftless flow
psi and its Jacobian are computed first, the drift is integrated through
the auxiliary equation dy/du = (D psi)^{-1} b(psi(y)) on sub-intervals
kept short enough that psi stays a diffeomorphism, and the semiflow is
composed across sub-intervals.

State spaces are finite-dimensional; the scheme requires p < 3 (one level
of area).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cocycle import NoiseRealization, shift_omega
from .drivers import (
    BoxSpec,
    CallableField,
    RoughDriver,
    VectorField,
    VectorFieldFamily,
    central_difference,
)
from .errors import ArgumentError, ConfigError, DivergenceError, NumericalError
from .paths import SampledRoughPath, resample_lift, write_csv
from .tensor_algebra import batch_increments

# central-difference step of flows without a variational scheme, relative to 1 + |y_k|
_FD_STEP = 1e-6


@dataclass(frozen=True)
class SolverControl:
    """Numerical policy knobs shared by the solvers.

    gauge_threshold triggers adaptive cell splitting; blowup_limit with
    retry_halvings separates numerical overflow from genuine growth;
    drift_delta bounds the p-variation-plus-length budget of each drift
    sub-interval; drift_substeps is the fixed fourth-order substep count
    per sub-interval; condition_limit rejects singular flow Jacobians.
    """

    gauge_threshold: float = 0.5
    max_split_depth: int = 12
    blowup_limit: float = 1e8
    retry_halvings: int = 2
    drift_delta: float = 0.1
    drift_substeps: int = 16
    condition_limit: float = 1e12


@dataclass(frozen=True)
class RDEProblem:
    """Equation dz = sigma(z) dX on an interval, with initial state y0."""

    sigma: VectorFieldFamily
    driver: Union[SampledRoughPath, RoughDriver]
    y0: np.ndarray
    interval: tuple
    p: Optional[float] = None
    noise: Optional[NoiseRealization] = None

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if y0.ndim != 1 or y0.size != self.sigma.dim:
            raise ArgumentError(
                "initial state must live in the fields' state space",
                state=y0.shape,
                dim=self.sigma.dim,
            )
        if not np.all(np.isfinite(y0)):
            raise ArgumentError("initial state must be finite")
        object.__setattr__(self, "y0", y0)
        lift = self.lift
        if lift.dim != len(self.sigma):
            raise ArgumentError(
                "field count must match driver dimension",
                fields=len(self.sigma),
                driver_dim=lift.dim,
            )
        if lift.level < 2:
            raise ArgumentError("solver needs a level-2 lift", level=lift.level)
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b:
            raise ArgumentError("empty solve interval", interval=(a, b))
        lo, hi = lift.span
        if a < lo - 1e-12 or b > hi + 1e-12:
            raise ArgumentError(
                "solve interval outside driver span", interval=(a, b), span=(lo, hi)
            )
        object.__setattr__(self, "interval", (a, b))

    @property
    def lift(self) -> SampledRoughPath:
        return self.driver.lift if isinstance(self.driver, RoughDriver) else self.driver

    @property
    def regularity(self) -> float:
        return float(self.p) if self.p is not None else float(self.lift.p)


@dataclass(frozen=True)
class DriftSpec:
    """Drift vector field b with optional known growth constants.

    The one-sided growth conditions read <b(x), x> <= c1 (1 + |x|^2),
    |tangential part| <= c2 (1 + |x|), <b(x) - b(y), x - y> <= c3 |x-y|^2
    and |b(x) - b(y)| <= c4 |x-y| on balls; the constants are optional
    metadata, the empirical check estimates them regardless.
    """

    b: Callable
    dim: Optional[int] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    c3: Optional[float] = None
    c4: Optional[float] = None

    def as_field(self, dim: int) -> VectorField:
        if self.dim is not None and self.dim != dim:
            raise ArgumentError("drift dimension mismatch", drift=self.dim, state=dim)
        if isinstance(self.b, VectorField):
            if self.b.dim != dim:
                raise ArgumentError("drift field dimension mismatch", drift=self.b.dim, state=dim)
            return self.b
        return CallableField(self.b, dim)


# ---------------------------------------------------------------- cell table


class _CellTable:
    """Precomputed per-cell increments of a lift on a solve grid.

    Whole cells are consecutive rows of the resampled level arrays; arbitrary
    interior times are completed geodesically on demand (exact when the lift's
    nodes coincide with the underlying path's breakpoints).  level2 maps
    (X1, X2) to the kernel's level-2 data on every cell; the gauge `flat`
    measures the lift's X2.  `update` is sigma's cell step, `mats` each whole cell's step
    matrix if sigma is all-linear, `hard` the whole cells that _run steps by
    _advance_segment (all of them without `mats`), followed by the cell count.
    """

    def __init__(self, lift: SampledRoughPath, nodes: np.ndarray, sigma, control, level2=None):
        self.lift = resample_lift(lift, nodes)
        self.nodes = self.lift.times
        d = self.lift.dim
        incs = batch_increments(self.lift.levels, slice(None, -1), slice(1, None), d)
        self._level2 = level2 or (lambda one, two: two)
        self.one = incs[0]
        self.two = self._level2(self.one, incs[1].reshape(-1, d, d))
        self.flat = np.maximum(
            np.linalg.norm(incs[0], axis=1), np.linalg.norm(incs[1], axis=1)
        )
        self.control = control
        self.update, cell_matrices = _cell_kernel(sigma)
        self.mats = None if cell_matrices is None else cell_matrices(self.one, self.two)
        split = self.flat > control.gauge_threshold
        self.hard = np.append(np.flatnonzero(split | (self.mats is None)), split.size)
        self.report = {  # meta["cell_update"]
            "method": "taylor_jets" if self.mats is None else "linear_propagator",
            "split_cells": int(np.count_nonzero(split)),
        }

    def increment_between(self, a: float, b: float):
        d = self.lift.dim
        inc = batch_increments(self.lift.levels_at([a, b]), [0], [1], d)
        one = inc[0][0]
        two = inc[1][0].reshape(d, d)
        flat = max(float(np.linalg.norm(one)), float(np.linalg.norm(two)))
        return one, self._level2(one, two), flat


# -------------------------------------------------------------- cell kernel


def _driver_level2(one, two):
    """(1/2) X1 (x) X1 + Anti(X2), on which the Taylor step is x + V + W + (1/2) DV V."""
    return 0.5 * (one[..., :, None] * one[..., None, :] + two - np.swapaxes(two, -1, -2))


def _make_taylor_update(sigma: VectorFieldFamily):
    """y + X1 . sigma + sum_ij X2_ij (D sigma_j sigma_i) and its derivative, by matmuls.

    With w = X2^T vals (w_j = sum_i X2_ij sigma_i) the step is
    y + X1 vals + sum_j D sigma_j w_j, and its derivative is
    I + X1 D sigma + sum_j D2 sigma_j w_j + sum_j D sigma_j (X2^T D sigma)_j;
    the Hessian term is skipped when the family reports none.
    """
    n, m = len(sigma), sigma.dim
    eye = np.eye(m)
    jets = sigma.jets

    def update(y, one, two, need_jac):
        vals, jacs, hess = jets(y, need_jac)
        row = jacs.transpose(1, 0, 2).reshape(m, n * m)  # [D sigma_1 | ... | D sigma_n]
        w = two.T @ vals
        y2 = y + one @ vals + row @ w.reshape(n * m)
        if not need_jac:
            return y2, None
        stack = jacs.reshape(n, m * m)  # row i: D sigma_i, flattened
        mat = eye + (one @ stack).reshape(m, m) + row @ (two.T @ stack).reshape(n * m, m)
        if hess is not None:
            # rows (j, b) of D2 sigma_j[a, b, k] against w_j[b]
            bent = hess.transpose(0, 2, 1, 3).reshape(n * m, m * m)
            mat += (w.reshape(n * m) @ bent).reshape(m, m)
        return y2, mat

    return update


def _cell_kernel(sigma: VectorFieldFamily):
    """sigma's cell step update(y, X1, X2, need_jac) -> (y2, jacobian), and cell_matrices.

    All-linear: y2 = M y with Jacobian M = I + sum_i X1_i A_i + sum_ij X2_ij A_j A_i, and
    cell_matrices maps (..., n), (..., n, n) to (..., m, m).  Otherwise the jets kernel, None.
    """
    a = sigma._matrices
    if a is None:
        return _make_taylor_update(sigma), None
    n, m = a.shape[:2]
    stack = a.reshape(n, m * m)
    pairs = np.matmul(a[None], a[:, None]).reshape(n * n, m * m)  # row (i, j): A_j A_i
    eye = np.eye(m).reshape(m * m)

    def cell_matrices(one, two):
        lead = one.shape[:-1]
        return (eye + one @ stack + two.reshape(lead + (n * n,)) @ pairs).reshape(lead + (m, m))

    def update(y, one, two, need_jac):
        mat = cell_matrices(one, two)
        return mat @ y, mat

    return update, cell_matrices


# -------------------------------------------------------------- propagation


def _blown_up(y, limit):
    """True where a state (the last axis of y) holds inf or NaN or leaves [-limit, limit]^m."""
    peak = np.abs(y).max(axis=-1)
    return ~np.isfinite(peak) | (peak > limit)


def _advance_segment(table, a, b, y, jac, depth, retries, k=None):
    """One step over whole cell k, or over [a, b], with gauge splitting and blow-up retries."""
    control = table.control
    if k is None:
        one, two, flat = table.increment_between(a, b)
    else:
        one, two, flat = table.one[k], table.two[k], table.flat[k]
    if not (flat > control.gauge_threshold and depth < control.max_split_depth):
        y2, mat = table.update(y, one, two, jac is not None)
        if not _blown_up(y2, control.blowup_limit):
            return y2, (mat @ jac if jac is not None else None)
        if retries <= 0 or depth >= control.max_split_depth:
            raise DivergenceError(
                "state exceeded the blow-up guard", time=float(b), limit=control.blowup_limit
            )
        retries -= 1
    # split at the midpoint: the gauge is too large, or the state blew up
    mid = 0.5 * (a + b)
    y, jac = _advance_segment(table, a, mid, y, jac, depth + 1, retries)
    return _advance_segment(table, mid, b, y, jac, depth + 1, retries)


def _lane(table, k, stop, y, jac, rows):
    """Whole cells k..stop-1 by y <- M_c y, states into rows[1:] (rows[0] holds y); returns
    (end, y, jac) with y the state at node end, and end < stop if cell end blew up."""
    with np.errstate(over="ignore", invalid="ignore"):  # states past a blow-up are dropped
        for i, mat in enumerate(table.mats[k:stop], 1):
            y = rows[i] = mat @ y
    bad = np.flatnonzero(_blown_up(rows[1 : stop - k + 1], table.control.blowup_limit))
    end = k + int(bad[0]) if bad.size else stop
    if jac is not None:
        for mat in table.mats[k:end]:
            jac = mat @ jac
    return end, (y if end == stop else rows[end - k]), jac


def _run(table, s, t, y, need_jac, out=None):
    """Advance the scheme from s to t (s <= t within the table span).

    Whole cells at or below the gauge threshold run by _lane when the table
    has cell matrices; all other cells, partial edges and cells that blew up
    in the lane run by _advance_segment.  out receives the node states.
    """
    y = np.array(y, dtype=float)
    jac = np.eye(y.size) if need_jac else None
    if t <= s + 1e-15 * max(1.0, abs(s)):
        return y, jac
    nodes = table.nodes
    i, j = table.lift.match_nodes((s, t)).tolist()
    # whole cells run from node first to node last; off-node s or t add partial edges
    first = i if i >= 0 else int(np.searchsorted(nodes, s, side="right"))
    last = j if j >= 0 else int(np.searchsorted(nodes, t, side="left")) - 1
    retries = table.control.retry_halvings
    if first > last:
        return _advance_segment(table, s, t, y, jac, 0, retries)
    if i < 0:
        y, jac = _advance_segment(table, s, nodes[first], y, jac, 0, retries)
    rows = np.empty((last - first + 1, y.size)) if out is None else out
    rows[0] = y
    k = first
    while k < last:
        h = min(int(table.hard[np.searchsorted(table.hard, k)]), last)
        if k < h:
            k, y, jac = _lane(table, k, h, y, jac, rows[k - first :])
        if k < last:  # a split or jets cell, or a lane cell redone from its start state
            y, jac = _advance_segment(table, nodes[k], nodes[k + 1], y, jac, 0, retries, k)
            rows[k - first + 1] = y
            k += 1
    if j < 0:
        y, jac = _advance_segment(table, nodes[last], t, y, jac, 0, retries)
    return y, jac


# ------------------------------------------------------------------ FlowMap


class FlowMap:
    """Two-parameter flow psi(s, t) realized by re-running a per-cell scheme.

    step(s, t, y, need_jac) returns psi(s, t)(y) and, when need_jac, its Jacobian
    (else None).  map(s, t, y) advances a single state; propagate additionally carries
    the flow Jacobian with periodic QR renormalization, factoring out the
    spectral norm as an exactly-accumulated scalar so that long-horizon
    products never overflow.  psi(s, s) is the identity, and composition
    over grid nodes is exact because both sides run the identical cell
    sequence.  For an all-linear family a whole cell below the gauge threshold
    is y <- M_k y, M_k = I + sum_i X1_i A_i + sum_ij X2_ij A_j A_i, and the
    Jacobian is the product of the M_k; the state is the same with or without it.
    """

    def __init__(self, grid, step, state_dim, meta=None):
        self.grid = np.asarray(grid, dtype=float)
        self.state_dim = int(state_dim)
        self._step = step
        self.meta = dict(meta or {})

    @property
    def span(self):
        return float(self.grid[0]), float(self.grid[-1])

    def _check_times(self, s, t):
        lo, hi = self.span
        if s < lo - 1e-12 or t > hi + 1e-12 or t < s:
            raise ArgumentError("times outside the flow span", times=(s, t), span=(lo, hi))

    def _state(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.state_dim,):
            raise ArgumentError("state has wrong dimension", got=y.shape, dim=self.state_dim)
        return y

    def map(self, s: float, t: float, y) -> np.ndarray:
        self._check_times(s, t)
        y = self._state(y)
        if t == s:
            return y.copy()
        return self._step(s, t, y, False)[0]

    def propagate(self, s: float, t: float, y, with_jacobian: bool = False,
                  renorm_interval: Optional[float] = None):
        """Advance the state; returns (y, jacobian, log_scale).

        The returned jacobian J satisfies D_y psi(s,t) = exp(log_scale) * J.
        Without renormalization log_scale is 0.
        """
        self._check_times(s, t)
        y = self._state(y)
        if not with_jacobian:
            return (self.map(s, t, y), None, 0.0)
        if renorm_interval is None:
            cuts = np.array([s, t])
        else:
            n = max(1, int(np.ceil((t - s) / renorm_interval - 1e-12)))
            cuts = np.linspace(s, t, n + 1)
        jac = np.eye(self.state_dim)
        log_scale = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            y, seg = self._step(float(a), float(b), y, True)
            jac = seg @ jac
            if renorm_interval is not None:
                q, r = np.linalg.qr(jac)
                scale = float(np.linalg.norm(r, 2))
                if scale > 0.0:
                    jac = q @ (r / scale)
                    log_scale += float(np.log(scale))
        return y, jac, log_scale


@dataclass(frozen=True)
class RDESolution:
    """Trajectory on the solve grid plus the underlying two-parameter flow."""

    times: np.ndarray
    states: np.ndarray
    flow: FlowMap

    def to_csv(self, fileobj) -> None:
        write_csv(fileobj, "y", self.times, self.states)

    def to_json_dict(self) -> dict:
        return {"times": self.times.tolist(), "states": self.states.tolist()}


def _solve_grid(interval, step) -> np.ndarray:
    a, b = float(interval[0]), float(interval[1])
    if not step > 0.0:
        raise ArgumentError("step must be positive", step=step)
    n = (b - a) / step
    cells = int(round(n))
    if cells < 1 or abs(n - cells) > 1e-9 * max(1.0, abs(n)):
        raise ArgumentError(
            "step must divide the interval into whole cells", interval=(a, b), step=step
        )
    grid = a + step * np.arange(cells + 1)
    grid[-1] = b
    return grid


def solve_rde(problem: RDEProblem, step: float, control: SolverControl = SolverControl()) -> RDESolution:
    """Integrate dz = sigma(z) dX with the second-order increment scheme.

    Returns the trajectory on the solve grid together with the FlowMap; the
    flow re-runs the same scheme for arbitrary (s, t) inside the interval, and
    the trajectory is its run from the start.  For an all-linear family
    sigma_i(y) = A_i y, whole cells below the gauge threshold step by y <- M_k y,
    M_k = I + sum_i X1_i A_i + sum_ij X2_ij A_j A_i built once per cell.
    ``flow.meta["cell_update"]`` records the step used and the split cell count.
    """
    p = problem.regularity
    if not p < 3.0:
        raise ArgumentError("scheme needs p < 3 (one level of area)", p=p)
    grid = _solve_grid(problem.interval, step)
    table = _CellTable(problem.lift, grid, problem.sigma, control)
    meta = {"kind": "rde", "step": float(step), "problem": problem, "control": control,
            "cell_update": table.report}
    if problem.noise is not None:
        meta["noise"] = problem.noise

        def rebuild(noise, interval):
            shifted = dataclasses.replace(
                problem, driver=noise.omega, noise=noise, interval=interval
            )
            return solve_rde(shifted, step, control).flow

        meta["rebuild"] = rebuild
    flow = FlowMap(grid, functools.partial(_run, table), problem.sigma.dim, meta)
    states = np.empty((grid.size, problem.sigma.dim))
    _run(table, grid[0], grid[-1], problem.y0, False, out=states)
    return RDESolution(grid, states, flow)


def solve_driver_flow(
    driver: RoughDriver,
    interval,
    step: float,
    control: SolverControl = SolverControl(),
    noise: Optional[NoiseRealization] = None,
) -> FlowMap:
    """Flow of a rough driver: per cell x <- x + V(x) + W(x) + (1/2)(DV V)(x).

    The step is the Taylor kernel of solve_rde run on the level-2 data
    (1/2) X1 (x) X1 + Anti(X2), on whole, split and partial cells alike;
    that is this update exactly, and its Jacobian is exactly
    I + DV + DW + (1/2)(D2V V + DV DV), for any lift, geometric or not.
    Requires the well-posedness regime rho > p/3.
    """
    if not driver.rho > driver.p / 3.0:
        raise ConfigError(
            "driver regularity outside the well-posedness regime rho > p/3",
            rho=driver.rho,
            p=driver.p,
        )
    grid = _solve_grid(interval, step)
    table = _CellTable(driver.lift, grid, driver.sigma, control, _driver_level2)
    meta = {"kind": "driver_flow", "step": float(step), "control": control,
            "cell_update": table.report}
    if noise is not None:
        meta["noise"] = noise

        def rebuild(new_noise, new_interval):
            moved = RoughDriver(
                driver.sigma, new_noise.omega, p=driver.p, rho=driver.rho,
                check_geometric=False,
            )
            return solve_driver_flow(moved, new_interval, step, control, new_noise)

        meta["rebuild"] = rebuild
    return FlowMap(grid, functools.partial(_run, table), driver.sigma.dim, meta)


# ------------------------------------------------------------------- drift


@dataclass(frozen=True)
class DriftGrowthReport:
    """Empirical growth constants of a drift field over sampled balls."""

    radius: float
    samples: int
    c1: float
    c2: float
    c3: float
    c4: float
    c1_doubled: float
    c2_doubled: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "samples": self.samples,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c4": self.c4,
            "c1_doubled": self.c1_doubled,
            "c2_doubled": self.c2_doubled,
            "pass": self.passed,
        }


def _field_values(field, x):
    """Batch-evaluate a field, falling back row by row for scalar callables."""
    try:
        vals = np.asarray(field.value(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except Exception:
        pass
    return np.stack(
        [np.atleast_1d(np.asarray(field.value(row), dtype=float)) for row in x]
    )


def _ball_cloud(rng, radius, samples, dim):
    x = rng.normal(size=(samples, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(samples, 1)) ** (1.0 / dim)
    cloud = x / norms * radii
    # keep points off the origin so the tangential decomposition is defined
    small = np.linalg.norm(cloud, axis=1) < 1e-6 * radius
    cloud[small] += 1e-3 * radius
    return cloud


def _growth_constants(field, rng, radius, samples, dim):
    x = _ball_cloud(rng, radius, samples, dim)
    b = _field_values(field, x)
    r2 = np.sum(x * x, axis=1)
    inner = np.sum(b * x, axis=1)
    c1 = float(np.max(inner / (1.0 + r2)))
    tangential = b - (inner / r2)[:, None] * x
    c2 = float(np.max(np.linalg.norm(tangential, axis=1) / (1.0 + np.sqrt(r2))))
    half = samples // 2
    dx = x[:half] - x[half : 2 * half]
    db = b[:half] - b[half : 2 * half]
    gaps = np.linalg.norm(dx, axis=1)
    keep = gaps > 1e-9 * radius
    dx, db, gaps = dx[keep], db[keep], gaps[keep]
    c3 = float(np.max(np.sum(db * dx, axis=1) / gaps**2))
    c4 = float(np.max(np.linalg.norm(db, axis=1) / gaps))
    return c1, c2, c3, c4


def drift_growth_check(
    drift: DriftSpec, radius: float, samples: int = 2000, dim: Optional[int] = None, seed: int = 0
) -> DriftGrowthReport:
    """Estimate the one-sided growth constants of b over B(0, radius).

    Reports the smallest empirical constants and re-estimates C1, C2 at the
    doubled radius; the check fails when either grows faster than the
    permitted quadratic/linear envelope allows (super-quadratic radial or
    super-linear tangential growth).
    """
    if not radius > 0.0:
        raise ArgumentError("radius must be positive", radius=radius)
    if samples < 1000:
        raise ArgumentError("growth check needs at least 1000 samples", samples=samples)
    m = dim if dim is not None else drift.dim
    if m is None:
        raise ArgumentError("state dimension needed: set DriftSpec.dim or pass dim")
    field = drift.as_field(m)
    rng = np.random.default_rng(seed)
    c1, c2, c3, c4 = _growth_constants(field, rng, radius, samples, m)
    c1d, c2d, _, _ = _growth_constants(field, rng, 2.0 * radius, samples, m)
    stable = (
        np.isfinite([c1, c2, c3, c4, c1d, c2d]).all()
        and c1d <= 2.0 * max(c1, 0.0) + 0.1
        and c2d <= 2.0 * max(c2, 0.0) + 0.1
    )
    return DriftGrowthReport(
        radius=float(radius),
        samples=int(samples),
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c1_doubled=c1d,
        c2_doubled=c2d,
        passed=bool(stable),
    )


def _subdivide(table: _CellTable, grid: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Sub-interval boundaries with per-interval gauge^p-plus-length <= delta."""
    gauge = np.maximum(
        np.linalg.norm(table.one, axis=1),
        np.sqrt(np.linalg.norm(table.two.reshape(len(table.two), -1), axis=1)),
    )
    weights = gauge**p + np.diff(grid)
    bounds = [grid[0]]
    acc = 0.0
    for k, w in enumerate(weights):
        if acc > 0.0 and acc + w > delta:
            bounds.append(grid[k])
            acc = 0.0
        acc += w
    bounds.append(grid[-1])
    return np.asarray(bounds)


def drift_transform_solve(
    problem: RDEProblem,
    drift: DriftSpec,
    step: float,
    control: SolverControl = SolverControl(),
    force: bool = False,
) -> FlowMap:
    """Semiflow of dz = sigma(z) dX + b(z) dt via the flow transformation.

    Per sub-interval the driftless flow psi and its Jacobian are computed
    by the increment scheme, the auxiliary state solves
    dy/du = (D psi)^{-1}(y) b(psi(y)) with a classical fourth-order method
    at fixed substep, and phi = psi o (aux flow); sub-intervals compose by
    the semiflow property.  Jacobians of phi differentiate the composed
    map directly (the transformation's exact variational system would need
    second derivatives of psi) by central differences; ``meta["jacobian"]``
    records the method and its relative step.
    """
    p = problem.regularity
    if not p < 3.0:
        raise ArgumentError("scheme needs p < 3 (one level of area)", p=p)
    m = problem.sigma.dim
    bfield = drift.as_field(m)
    probe = BoxSpec(radius=max(4.0, 2.0 * float(np.max(np.abs(problem.y0))))).points(m)
    if not np.all(np.isfinite(_field_values(bfield, probe))):
        raise ArgumentError("drift is not finite on the test box")
    report = drift_growth_check(drift, radius=4.0, samples=2000, dim=m)
    if not report.passed and not force:
        raise ConfigError(
            "drift growth check failed; pass force=True to override",
            c1=report.c1,
            c1_doubled=report.c1_doubled,
        )
    grid = _solve_grid(problem.interval, step)
    table = _CellTable(problem.lift, grid, problem.sigma, control)
    bounds = _subdivide(table, grid, max(p, 1.0), control.drift_delta)

    def aux_rhs(a, u, y):
        val, jac = _run(table, a, u, y, True)
        cond = float(np.linalg.cond(jac))
        if cond > control.condition_limit:
            raise NumericalError(
                "flow Jacobian singular to tolerance", time=float(u), condition=cond
            )
        return np.linalg.solve(jac, bfield.value(val))

    def advance_sub(a, b, y):
        # fourth-order integration of the auxiliary equation, then apply psi
        h = (b - a) / control.drift_substeps
        u = a
        for _ in range(control.drift_substeps):
            k1 = aux_rhs(a, u, y)
            k2 = aux_rhs(a, u + 0.5 * h, y + 0.5 * h * k1)
            k3 = aux_rhs(a, u + 0.5 * h, y + 0.5 * h * k2)
            k4 = aux_rhs(a, u + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if _blown_up(y, control.blowup_limit):
                raise DivergenceError(
                    "state exceeded the blow-up guard in the drift stage",
                    time=float(u + h),
                    limit=control.blowup_limit,
                )
            u += h
        return _run(table, a, b, y, False)[0]

    def advance(s, t, y):
        cuts = [s] + [float(c) for c in bounds if s < c < t] + [t]
        for a, b in zip(cuts[:-1], cuts[1:]):
            y = advance_sub(a, b, y)
        return y

    def drift_step(s, t, y, need_jac):
        jac = None
        if need_jac:  # no variational scheme here: differentiate the composed map itself
            jac = central_difference(lambda z: advance(s, t, z), y, _FD_STEP * (1.0 + np.abs(y)))
        return advance(s, t, y), jac

    meta = {
        "kind": "drift_flow",
        "step": float(step),
        "control": control,
        "growth_report": report,
        "subdivision": bounds,
        "jacobian": {"method": "central_difference", "relative_step": _FD_STEP},
        "cell_update": table.report,
    }
    if problem.noise is not None:
        meta["noise"] = problem.noise

        def rebuild(noise, interval):
            shifted = dataclasses.replace(
                problem, driver=noise.omega, noise=noise, interval=interval
            )
            return drift_transform_solve(shifted, drift, step, control, force=force)

        meta["rebuild"] = rebuild
    return FlowMap(bounds, drift_step, m, meta)


# -------------------------------------------------------- cocycle residual


def rds_cocycle_residual(flow: FlowMap, s: float, t: float, h: float, test_points) -> float:
    """Largest defect of the flow cocycle property under the time shift h.

    Compares phi(s+h, t+h, omega, x) with phi(s, t, theta_h omega, x) on the
    test points, rebuilding the shifted flow at the matched discretization,
    and includes the derived one-parameter residual
    |phi_{t+h}(omega, x) - phi_t(theta_h omega, phi_h(omega, x))| when the
    span covers time 0 and h >= 0.
    """
    noise = flow.meta.get("noise")
    rebuild = flow.meta.get("rebuild")
    if noise is None or rebuild is None:
        raise ArgumentError("flow does not carry its noise realization; solve with noise set")
    step = float(flow.meta["step"])
    if abs(h / step - round(h / step)) > 1e-9:
        raise ArgumentError(
            "shift is not aligned with the solve discretization", h=h, step=step
        )
    lo, hi = flow.span
    if s + h < lo - 1e-12 or t + h > hi + 1e-12 or t < s:
        raise ArgumentError("shifted window outside the flow span", window=(s + h, t + h))
    shifted_flow = rebuild(shift_omega(noise, h), (lo - h, hi - h))
    pts = np.atleast_2d(np.asarray(test_points, dtype=float))
    worst = 0.0
    for x in pts:
        gap = flow.map(s + h, t + h, x) - shifted_flow.map(s, t, x)
        worst = max(worst, float(np.max(np.abs(gap))))
    if h >= 0.0 and lo <= 0.0 and t + h <= hi + 1e-12 and t >= 0.0:
        for x in pts:
            through = shifted_flow.map(0.0, t, flow.map(0.0, h, x))
            gap = flow.map(0.0, t + h, x) - through
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


# ------------------------------------------------------------------ Lyapunov


@dataclass(frozen=True)
class LyapunovEstimate:
    """Top Lyapunov exponent estimate with its sampling error."""

    value: float
    stderr: float
    horizon: float
    samples: int
    per_sample: tuple

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "horizon": self.horizon,
            "samples": self.samples,
        }


def top_lyapunov_estimate(
    flows: Sequence[FlowMap], x0, renorm_interval: float = 1.0
) -> LyapunovEstimate:
    """(1/T) log of the spectral norm of the flow Jacobian, averaged over flows.

    Jacobians are renormalized every renorm_interval time units by a QR
    factorization whose scalar scale is accumulated in log space, so the
    reported exponent is exact up to the scheme error even over horizons
    where the raw product would overflow.
    """
    flows = list(flows)
    if not flows:
        raise ArgumentError("at least one flow needed")
    lo, hi = flows[0].span
    for f in flows:
        if abs(f.span[0] - lo) > 1e-9 or abs(f.span[1] - hi) > 1e-9:
            raise ArgumentError("flows cover different horizons", spans=(f.span, (lo, hi)))
    horizon = hi - lo
    if horizon < 50.0:
        raise ArgumentError("horizon too short for a Lyapunov estimate", horizon=horizon)
    rates = []
    for f in flows:
        _, jac, log_scale = f.propagate(
            lo, hi, x0, with_jacobian=True, renorm_interval=renorm_interval
        )
        rates.append((log_scale + float(np.log(np.linalg.norm(jac, 2)))) / horizon)
    rates = np.asarray(rates)
    value = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1) / np.sqrt(len(rates))) if len(rates) > 1 else 0.0
    return LyapunovEstimate(
        value=value,
        stderr=stderr,
        horizon=float(horizon),
        samples=len(rates),
        per_sample=tuple(float(r) for r in rates),
    )
