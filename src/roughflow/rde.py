"""Rough differential equations, two-parameter flows, and drift transforms.

The solver advances a second-order Taylor scheme cell by cell:

    y <- y + sum_i sigma_i(y) X1_i + sum_{ij} (D sigma_j sigma_i)(y) X2_{ij},

with X1, X2 the level-1/level-2 increments of the driving lift over the
cell.  One kernel computes it from the family's stacked field jets with
plain matmuls; driver flows run the same kernel on the level-2 data
(1/2) X1 (x) X1 + Anti(X2), which turns it into x + V + W + (1/2) DV V.
For an all-linear family sigma_i(y) = A_i y the step is exactly y <- M y,
M = I + sum_i X1_i A_i + sum_{ij} X2_{ij} A_j A_i for any level-2 data, and
M is also its Jacobian.  The cell table splits cells above the gauge threshold
into rows once, and each row is one step (one matmul by its M when all-linear;
one running product over the rows for a one-coordinate state).
Jacobians propagate the derivative of the same scheme, never finite
differences of the state, so adaptive substepping cannot desynchronize
them.  Flows with drift are solved by transformation: the driftless flow
psi and its Jacobian are computed first, the drift is integrated through
the auxiliary equation dy/du = (D psi)^{-1} b(psi(y)) on sub-intervals
kept short enough that psi stays a diffeomorphism, and the semiflow is
composed across sub-intervals.  For an all-linear family psi(a, u) is the
stage propagator M(a, u), the same for every state, so each sub-interval
builds the M(a, u) of all its RK stage times in one pass of left products
over its rows, and a stage is y -> M^{-1} b(M y).

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

    gauge_threshold caps the lift gauge max(|X1|, |X2|) of a step: the cell
    table halves larger cells, at most max_split_depth times each.  A step whose
    state leaves blowup_limit is halved, at most retry_halvings times, before
    DivergenceError.  drift_delta bounds the p-variation-plus-length budget of
    each drift sub-interval; drift_substeps is the fixed fourth-order substep
    count per sub-interval; condition_limit rejects singular flow Jacobians.
    """

    gauge_threshold: float = 0.5
    max_split_depth: int = 12
    blowup_limit: float = 1e8
    retry_halvings: int = 2
    drift_delta: float = 0.1
    drift_substeps: int = 16
    condition_limit: float = 1e12

    def __post_init__(self):
        for name in ("gauge_threshold", "blowup_limit", "drift_delta", "condition_limit"):
            value = getattr(self, name)
            if not value > 0.0:  # NaN fails too
                raise ArgumentError(f"{name} must be positive", **{name: value})
        for name, least in (("max_split_depth", 0), ("retry_halvings", 0), ("drift_substeps", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ArgumentError(f"{name} must be an integer >= {least}", **{name: value})


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
    """The adaptive grid of a flow: lift increments per row of a refined solve grid.

    Rows start as the grid's whole cells; each round halves every row whose lift
    gauge max(|X1|, |X2|) exceeds control.gauge_threshold (at most
    control.max_split_depth times per cell), completing the new times
    geodesically on the grid's lift.  `lift` and `nodes` are the refined lift,
    `grid_rows` its grid nodes (a slice when no cell splits).  level2 maps (X1, X2)
    to the kernel's level-2 data: `one`, `two` per row, `cells` per whole cell.
    `update` is sigma's cell step; if all-linear, `cell_matrices` maps level-2 data
    to step matrices and `mats` holds each row's.
    """

    def __init__(self, lift: SampledRoughPath, nodes: np.ndarray, sigma, control, level2=None):
        self._level2 = level2 or (lambda one, two: two)
        self.control = control
        self.update, self.cell_matrices = _cell_kernel(sigma)
        grid = self.lift = resample_lift(lift, nodes)
        one, two, flat = self._increments(grid.levels)
        self.cells = one, two
        self.report = {  # meta["cell_update"]
            "method": "taylor_jets" if self.cell_matrices is None else "linear_propagator",
            "split_cells": int(np.count_nonzero(flat > control.gauge_threshold)),
        }
        depth = np.zeros(flat.size, dtype=int)
        while np.any(split := (flat > control.gauge_threshold) & (depth < control.max_split_depth)):
            t, k = self.lift.times, np.flatnonzero(split)
            mids = 0.5 * (t[k] + t[k + 1])
            levels = [np.insert(lvl, k + 1, new, axis=0)
                      for lvl, new in zip(self.lift.levels, grid.levels_at(mids))]
            self.lift = SampledRoughPath.from_levels(np.insert(t, k + 1, mids), levels, grid.p)
            depth = np.repeat(depth + split, 1 + split)
            one, two, flat = self._increments(self.lift.levels)
        self.nodes = self.lift.times
        self.grid_rows = slice(None) if self.lift is grid else np.searchsorted(self.nodes, nodes)
        self.one, self.two = one, two
        self.mats = None if self.cell_matrices is None else self.cell_matrices(one, two)

    def _increments(self, levels, i=slice(None, -1), j=slice(1, None)):
        """(X1, level-2 data, gauge max(|X1|, |X2|)) from rows i to rows j of levels
        (by default between consecutive rows)."""
        d = self.lift.dim
        one, two = batch_increments(levels, i, j, d)[:2]
        flat = np.maximum(np.linalg.norm(one, axis=1), np.linalg.norm(two, axis=1))
        return one, self._level2(one, two.reshape(-1, d, d)), flat

    def increment_between(self, a: float, b: float):
        """(X1, level-2 data) from a to b, completed geodesically inside one row."""
        one, two, _ = self._increments(self.lift.levels_at([a, b]))
        return one[0], two[0]


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


def _advance_segment(table, a, b, y, jac, retries, k=None):
    """One step over row k, or over [a, b] inside one row, halved while it blows up."""
    one, two = (table.one[k], table.two[k]) if k is not None else table.increment_between(a, b)
    y2, mat = table.update(y, one, two, jac is not None)
    if not _blown_up(y2, table.control.blowup_limit):
        return y2, (mat @ jac if jac is not None else None)
    if retries <= 0:
        raise DivergenceError(
            "state exceeded the blow-up guard", time=float(b), limit=table.control.blowup_limit
        )
    mid = 0.5 * (a + b)
    y, jac = _advance_segment(table, a, mid, y, jac, retries - 1)
    return _advance_segment(table, mid, b, y, jac, retries - 1)


def _lane(table, k, stop, y, jac, rows):
    """Rows k..stop-1 by y <- M_c y, states into rows[1:] (rows[0] holds y); returns
    (end, y, jac) with y the state at node end, and end < stop if row end blew up.

    A one-coordinate state is a running product: np.cumprod over [y, M_k, ...] is a
    sequential accumulate, so each step is the same IEEE multiply as M_c @ y and the
    states and Jacobian equal the per-cell loop's bit for bit.
    """
    mats = table.mats[k:stop]
    scalar = y.size == 1
    with np.errstate(over="ignore", invalid="ignore"):  # states past a blow-up are dropped
        if scalar:
            rows[: stop - k + 1, 0] = np.cumprod(np.concatenate([y, mats[:, 0, 0]]))
        else:
            for i, mat in enumerate(mats, 1):
                y = rows[i] = mat @ y
    bad = np.flatnonzero(_blown_up(rows[1 : stop - k + 1], table.control.blowup_limit))
    end = k + int(bad[0]) if bad.size else stop
    if jac is not None:
        if scalar:
            jac = np.cumprod(np.concatenate([jac[0], mats[: end - k, 0, 0]]))[-1:, None]
        else:
            for mat in mats[: end - k]:
                jac = mat @ jac
    return end, rows[end - k].copy(), jac


def _run(table, s, t, y, need_jac, out=None):
    """Advance the scheme from s to t (s <= t within the table span).

    Rows run by _lane when the table has cell matrices, else one by one by
    _advance_segment, which also takes partial edges and rows that blew up in
    the lane.  out receives the states at the table's nodes.
    """
    y = np.array(y, dtype=float)
    jac = np.eye(y.size) if need_jac else None
    if t <= s + 1e-15 * max(1.0, abs(s)):
        return y, jac
    nodes = table.nodes
    i, j = table.lift.match_nodes((s, t)).tolist()
    # rows run from node first to node last; off-node s or t add partial edges
    first = i if i >= 0 else int(np.searchsorted(nodes, s, side="right"))
    last = j if j >= 0 else int(np.searchsorted(nodes, t, side="left")) - 1
    retries = table.control.retry_halvings
    if first > last:
        return _advance_segment(table, s, t, y, jac, retries)
    if i < 0:
        y, jac = _advance_segment(table, s, nodes[first], y, jac, retries)
    rows = np.empty((last - first + 1, y.size)) if out is None else out
    rows[0] = y
    k = first
    while k < last:
        if table.mats is not None:
            k, y, jac = _lane(table, k, last, y, jac, rows[k - first :])
        if k < last:  # a jets row, or a lane row redone from its start state
            y, jac = _advance_segment(table, nodes[k], nodes[k + 1], y, jac, retries, k)
            rows[k - first + 1] = y
            k += 1
    if j < 0:
        y, jac = _advance_segment(table, nodes[last], t, y, jac, retries)
    return y, jac


# ------------------------------------------------------------------ FlowMap


class FlowMap:
    """Two-parameter flow psi(s, t) realized by re-running a per-cell scheme.

    step(s, t, y, need_jac) returns psi(s, t)(y) and, when need_jac, its Jacobian
    (else None).  map(s, t, y) advances a single state; propagate additionally carries
    the flow Jacobian with periodic QR renormalization, factoring out the
    spectral norm as an exactly-accumulated scalar so that long-horizon
    products never overflow.  psi(s, s) is the identity, and composition over
    the cell table's nodes (grid nodes and the midpoints of split cells) is
    exact because both sides run the identical row sequence.  Every solver's
    meta holds kind, step, control and cell_update; a flow solved with noise set
    adds noise and rebuild, and rebuild(noise, interval) is the same solve on
    other noise over interval.
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
        if not lo - 1e-12 <= s <= t <= hi + 1e-12:  # NaN fails too
            raise ArgumentError("times outside the flow span", times=(s, t), span=(lo, hi))

    def _state(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.state_dim,):
            raise ArgumentError("state has wrong dimension", got=y.shape, dim=self.state_dim)
        if not np.all(np.isfinite(y)):
            raise ArgumentError("state must be finite")
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
        Without renormalization log_scale is 0.  This is the batch of one of the
        ensemble loop top_lyapunov_estimate runs (_propagate_members), so a flow's
        (y, J, log_scale) are the same alone and in an ensemble; a one-coordinate
        cell-matrix flow's J is a running product, bit-identical to the cell loop.
        """
        if not with_jacobian:
            _check_renorm_interval(renorm_interval)
            return (self.map(s, t, y), None, 0.0)
        ys, jacs, log_scales = _propagate_members([self], s, t, y, renorm_interval)
        return ys[0], jacs[0], float(log_scales[0])


def _check_renorm_interval(renorm_interval):
    if renorm_interval is not None and not renorm_interval > 0.0:  # NaN fails too
        raise ArgumentError("renorm_interval must be positive", renorm_interval=renorm_interval)


def _propagate_members(flows, s, t, y0, renorm_interval):
    """(states, Jacobians (B, m, m), log scales (B,)) of flows advanced together from y0.

    [s, t] is cut into segments of at most renorm_interval (one segment without it).
    Every member runs its own step over a segment, then the stacked Jacobian products
    are renormalized in one np.linalg.qr and one np.linalg.svd call for all members:
    LAPACK runs the same routine on each member as on a lone matrix, so a member's
    results do not depend on the ensemble around it.  A step that raises stops the
    loop, so among several failing members the earliest segment wins and list order
    breaks ties.
    """
    _check_renorm_interval(renorm_interval)
    ys = []
    for f in flows:
        f._check_times(s, t)
        ys.append(f._state(y0))
    if renorm_interval is None:
        cuts = [s, t]
    else:
        n = max(1, int(np.ceil((t - s) / renorm_interval - 1e-12)))
        cuts = np.linspace(s, t, n + 1).tolist()
    jacs = np.tile(np.eye(ys[0].size), (len(flows), 1, 1))
    log_scales = np.zeros(len(flows))
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        segs = np.empty_like(jacs)
        for k, f in enumerate(flows):
            ys[k], segs[k] = f._step(float(a), float(b), ys[k], True)
        jacs = segs @ jacs
        if renorm_interval is not None:
            q, r = np.linalg.qr(jacs)
            scales = np.linalg.svd(r, compute_uv=False)[:, 0]
            kept = np.where(scales > 0.0, scales, 1.0)  # a zero product stays as it is
            jacs = np.where((scales > 0.0)[:, None, None], q @ (r / kept[:, None, None]), jacs)
            log_scales += np.log(kept)
    return ys, jacs, log_scales


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


def _flow(grid, step_fn, dim, table, noise, rebuild, **meta) -> FlowMap:
    """FlowMap with meta, then the table's cell_update and, when noise is set, noise and rebuild."""
    meta["cell_update"] = table.report
    if noise is not None:
        meta.update(noise=noise, rebuild=rebuild)
    return FlowMap(grid, step_fn, dim, meta)


def _problem_table(problem: RDEProblem, step, control):
    """(solve grid, cell table) of an RDE problem."""
    if not problem.regularity < 3.0:
        raise ArgumentError("scheme needs p < 3 (one level of area)", p=problem.regularity)
    grid = _solve_grid(problem.interval, step)
    return grid, _CellTable(problem.lift, grid, problem.sigma, control)


def _on_noise(problem: RDEProblem, noise, interval) -> RDEProblem:
    """The problem driven by noise.omega over interval."""
    return dataclasses.replace(problem, driver=noise.omega, noise=noise, interval=interval)


def solve_rde(problem: RDEProblem, step: float, control: SolverControl = SolverControl()) -> RDESolution:
    """Integrate dz = sigma(z) dX with the second-order increment scheme.

    Returns the trajectory on the solve grid together with the FlowMap; the
    flow re-runs the same scheme for arbitrary (s, t) inside the interval, and
    the trajectory is its run from the start, read at the grid nodes.  Cells
    above the gauge threshold are split into table rows when the flow is built;
    for an all-linear family sigma_i(y) = A_i y every row steps by its y <- M_k y.
    ``flow.meta["cell_update"]`` records the step used and the split cell count.
    """
    grid, table = _problem_table(problem, step, control)
    flow = _flow(grid, functools.partial(_run, table), problem.sigma.dim, table, problem.noise,
                 lambda noise, interval: solve_rde(_on_noise(problem, noise, interval), step, control).flow,
                 kind="rde", step=float(step), problem=problem, control=control)
    states = np.empty((table.nodes.size, problem.sigma.dim))
    _run(table, grid[0], grid[-1], problem.y0, False, out=states)
    return RDESolution(grid, states[table.grid_rows], flow)


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

    def rebuild(new_noise, new_interval):
        moved = RoughDriver(
            driver.sigma, new_noise.omega, p=driver.p, rho=driver.rho, check_geometric=False
        )
        return solve_driver_flow(moved, new_interval, step, control, new_noise)

    return _flow(grid, functools.partial(_run, table), driver.sigma.dim, table, noise, rebuild,
                 kind="driver_flow", step=float(step), control=control)


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


def _subdivide(one, two, grid: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Sub-interval boundaries with per-interval gauge^p-plus-length <= delta, from cell (X1, X2)."""
    gauge = np.maximum(
        np.linalg.norm(one, axis=1),
        np.sqrt(np.linalg.norm(two.reshape(len(two), -1), axis=1)),
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


def _stage_propagators(table, a, times):
    """(M(a, u) for each time u >= a, growth bound) of a table with cell matrices.

    M(a, u) is the Jacobian that _run(table, a, u, y, True) accumulates when no
    step blows up, formed by the same products in the same order: an off-node a
    or u adds a partial edge, completed geodesically as increment_between does
    (all of them in one levels_at call), and one sweep of left products over the
    rows from a gives every prefix.  The bound is the product of max(1, |N|_inf)
    over every matrix N used, so |y|_inf times it caps every state that _run
    forms from y on the way to any u, up to rounding.
    """
    nodes, lift = table.nodes, table.lift
    m = table.mats.shape[-1]
    i = int(lift.match_nodes(a))
    first = i if i >= 0 else int(np.searchsorted(nodes, a, side="right"))
    js = lift.match_nodes(times)
    lasts = np.where(js >= 0, js, np.searchsorted(nodes, times, side="left") - 1).tolist()
    ends = [a, nodes[first]] if i < 0 else []  # edge 0 when a is off-node
    plan = []  # per time: (row count from first, partial edge index or None)
    for u, j, last in zip(times, js.tolist(), lasts):
        if u <= a + 1e-15 * max(1.0, abs(a)):
            plan.append((None, None))
        elif first > last or j < 0:
            plan.append((None if first > last else last - first, len(ends) // 2))
            ends += [a, u] if first > last else [nodes[last], u]
        else:
            plan.append((last - first, None))
    edges = np.empty((0, m, m))
    if ends:
        one, two, _ = table._increments(lift.levels_at(ends), slice(0, None, 2), slice(1, None, 2))
        # a unit row axis keeps the vector-matrix products of one edge at a time,
        # which round differently from a batched matrix-matrix product
        edges = table.cell_matrices(one[:, None], two[:, None])[:, 0]
    rows = table.mats[first : max([first] + lasts)]
    jac = edges[0] if i < 0 else np.eye(m)  # M @ I is M for finite M
    prefix = [jac]
    for mat in rows:
        jac = mat @ jac
        prefix.append(jac)
    out = np.empty((len(times), m, m))
    for k, (count, e) in enumerate(plan):
        if count is None:
            out[k] = np.eye(m) if e is None else edges[e]
        else:
            out[k] = prefix[count] if e is None else edges[e] @ prefix[count]
    norms = np.abs(np.concatenate([rows, edges])).sum(axis=-1).max(axis=-1)
    return out, float(np.prod(np.maximum(1.0, norms)))


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
    the semiflow property.  Jets families re-run psi from the sub-interval
    start at every RK stage.  Cell-matrix families build the stage
    propagators M(a, u) = psi(a, u) of every stage time once per
    sub-interval (_stage_propagators) with their condition numbers and
    inverses, and raise a condition error only when the RK loop reaches that
    stage; a stage whose states could leave blowup_limit re-runs psi
    instead, so halving and error times stay the per-stage scheme's.
    Jacobians of phi differentiate the composed map directly (the
    transformation's exact variational system would need second derivatives
    of psi) by central differences; ``meta["jacobian"]`` records the method
    and its relative step.
    """
    grid, table = _problem_table(problem, step, control)
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
    bounds = _subdivide(*table.cells, grid, max(problem.regularity, 1.0), control.drift_delta)

    def aux_rhs(a, u, y):
        val, jac = _run(table, a, u, y, True)
        cond = float(np.linalg.cond(jac))
        if cond > control.condition_limit:
            raise NumericalError(
                "flow Jacobian singular to tolerance", time=float(u), condition=cond
            )
        return np.linalg.solve(jac, bfield.value(val))

    def stage_matrices(a, times):
        """(M(a, u), their conditions, inverses, growth bound), or None if some M is not finite."""
        mats, growth = _stage_propagators(table, a, times)
        if not np.all(np.isfinite(mats)):
            return None
        conds = np.linalg.cond(mats)
        # singular stages raise before their inverse is used
        invs = np.linalg.inv(np.where((conds > control.condition_limit)[:, None, None],
                                      np.eye(mats.shape[-1]), mats))
        return mats, conds, invs, growth

    # stage matrices of the sub-intervals between two subdivision bounds, which
    # every map across them shares; partial end sub-intervals are built per call
    memo = {}
    bound_set = set(bounds.tolist())

    def stage_field(a, b, times):
        """f(k, z): the auxiliary field at stage time times[k], by aux_rhs for jets
        families and by the stage propagators M(a, u) for cell-matrix families."""
        def rerun(k, z):
            return aux_rhs(a, times[k], z)

        if table.mats is None:
            return rerun
        if a in bound_set and b in bound_set:
            if (a, b) not in memo:
                memo[a, b] = stage_matrices(a, times)
            built = memo[a, b]
        else:
            built = stage_matrices(a, times)
        if built is None:
            return rerun
        mats, conds, invs, growth = built
        singular = conds > control.condition_limit
        # half the limit leaves room for the rounding of the states _run would form
        safe = 0.5 * control.blowup_limit / growth

        def field(k, z):
            if not np.abs(z).max() < safe:  # a state may leave the guard (NaN too)
                return rerun(k, z)
            if singular[k]:
                raise NumericalError(
                    "flow Jacobian singular to tolerance", time=float(times[k]), condition=float(conds[k])
                )
            return invs[k] @ bfield.value(mats[k] @ z)

        return field

    def advance_sub(a, b, y):
        # fourth-order integration of the auxiliary equation, then apply psi;
        # stage times follow the recurrence u, u + h/2, u + h, u <- u + h
        h = (b - a) / control.drift_substeps
        times = [a]
        for _ in range(control.drift_substeps):
            times += [times[-1] + 0.5 * h, times[-1] + h]
        f = stage_field(a, b, times)
        for k in range(0, len(times) - 1, 2):
            k1 = f(k, y)
            k2 = f(k + 1, y + 0.5 * h * k1)
            k3 = f(k + 1, y + 0.5 * h * k2)
            k4 = f(k + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if _blown_up(y, control.blowup_limit):
                raise DivergenceError(
                    "state exceeded the blow-up guard in the drift stage",
                    time=float(times[k + 2]),
                    limit=control.blowup_limit,
                )
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

    return _flow(bounds, drift_step, m, table, problem.noise,
                 lambda noise, interval: drift_transform_solve(
                     _on_noise(problem, noise, interval), drift, step, control, force=force),
                 kind="drift_flow", step=float(step), control=control, growth_report=report,
                 subdivision=bounds, jacobian={"method": "central_difference", "relative_step": _FD_STEP})


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
    gaps = [flow.map(s + h, t + h, x) - shifted_flow.map(s, t, x) for x in pts]
    if h >= 0.0 and lo <= 0.0 and t + h <= hi + 1e-12 and t >= 0.0:
        gaps += [shifted_flow.map(0.0, t, flow.map(0.0, h, x)) - flow.map(0.0, t + h, x) for x in pts]
    return max([0.0] + [float(np.max(np.abs(gap))) for gap in gaps])


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
    where the raw product would overflow.  All flows advance together, segment
    by segment, and each segment renormalizes every member in one stacked QR;
    per_sample equals each flow's own propagate bit for bit.  When several
    flows fail, the error of the earliest segment is raised, the first such
    flow in list order on a tie.
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
    _, jacs, log_scales = _propagate_members(flows, lo, hi, x0, renorm_interval)
    rates = (log_scales + np.log(np.linalg.svd(jacs, compute_uv=False)[:, 0])) / horizon
    value = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1) / np.sqrt(len(rates))) if len(rates) > 1 else 0.0
    return LyapunovEstimate(
        value=value,
        stderr=stderr,
        horizon=float(horizon),
        samples=len(rates),
        per_sample=tuple(float(r) for r in rates),
    )
