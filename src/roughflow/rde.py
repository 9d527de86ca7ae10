"""Rough differential equations, two-parameter flows, and drift transforms.

The solver advances a second-order Taylor scheme cell by cell:

    y <- y + sum_i sigma_i(y) X1_i + sum_{ij} (D sigma_j sigma_i)(y) X2_{ij},

with X1, X2 the level-1/level-2 increments of the driving lift over the
cell.  One kernel computes it from the family's stacked field jets with
plain matmuls; driver flows run the same kernel on the level-2 data
(1/2) X1 (x) X1 + Anti(X2), which turns it into x + V + W + (1/2) DV V.
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
import math
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
)
from .errors import ArgumentError, ConfigError, DivergenceError, NumericalError
from .paths import SampledRoughPath, resample_lift
from .tensor_algebra import (
    batch_from_elements,
    batch_inv,
    batch_mul,
    geodesic_point,
    tensor_inv,
    tensor_mul,
)

_FLOAT_FMT = "%.17g"
_NODE_TOL = 1e-9


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
    renorm_interval: float = 1.0


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

    Whole cells read from batched arrays; arbitrary interior times are
    completed geodesically on demand (exact when the lift's nodes coincide
    with the underlying path's breakpoints).  level2 maps (X1, X2) to the
    kernel's level-2 data on every cell; the gauge `flat` measures the lift's X2.
    """

    def __init__(self, lift: SampledRoughPath, nodes: np.ndarray, level2=None):
        sampled = resample_lift(lift, nodes)
        self.nodes = sampled.times
        self.points = sampled.points
        self.dim = sampled.dim
        d = self.dim
        levels = batch_from_elements(self.points)
        prev = [lvl[:-1] for lvl in levels]
        nxt = [lvl[1:] for lvl in levels]
        incs = batch_mul(batch_inv(prev, d), nxt, d)
        self._level2 = level2 or (lambda one, two: two)
        self.one = incs[0]
        self.two = self._level2(self.one, incs[1].reshape(-1, d, d))
        self.flat = np.maximum(
            np.linalg.norm(incs[0], axis=1), np.linalg.norm(incs[1], axis=1)
        )
        self._spacing = float(np.min(np.diff(self.nodes)))

    def node_index(self, t: float) -> Optional[int]:
        i = int(np.searchsorted(self.nodes, t))
        for j in (i - 1, i):
            if 0 <= j < self.nodes.size and abs(self.nodes[j] - t) <= _NODE_TOL * max(
                self._spacing, 1.0
            ):
                return j
        return None

    def point_at(self, t: float):
        i = self.node_index(t)
        if i is not None:
            return self.points[i]
        j = int(np.searchsorted(self.nodes, t, side="right")) - 1
        j = min(max(j, 0), self.nodes.size - 2)
        frac = (t - self.nodes[j]) / (self.nodes[j + 1] - self.nodes[j])
        return geodesic_point(self.points[j], self.points[j + 1], float(frac))

    def increment_between(self, a: float, b: float):
        g = tensor_mul(tensor_inv(self.point_at(a)), self.point_at(b))
        one = g.piece(1)
        two = g.piece(2)
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


# -------------------------------------------------------------- propagation


def _split_segment(table, update, control, a, b, y, jac, depth, retries):
    mid = 0.5 * (a + b)
    one1, two1, flat1 = table.increment_between(a, mid)
    one2, two2, flat2 = table.increment_between(mid, b)
    y, jac = _advance_segment(
        table, update, control, a, mid, one1, two1, flat1, y, jac, depth + 1, retries
    )
    return _advance_segment(
        table, update, control, mid, b, one2, two2, flat2, y, jac, depth + 1, retries
    )


def _blown_up(y, limit) -> bool:
    """True when y holds inf or NaN or leaves [-limit, limit]^m, from one reduction."""
    peak = float(np.abs(y).max())
    return not math.isfinite(peak) or peak > limit


def _advance_segment(table, update, control, a, b, one, two, flat, y, jac, depth, retries):
    """One (sub-)cell step with gauge splitting and blow-up retries."""
    if flat > control.gauge_threshold and depth < control.max_split_depth:
        return _split_segment(table, update, control, a, b, y, jac, depth, retries)
    y2, mat = update(y, one, two, jac is not None)
    if not _blown_up(y2, control.blowup_limit):
        return y2, (mat @ jac if jac is not None else None)
    if retries <= 0 or depth >= control.max_split_depth:
        raise DivergenceError(
            "state exceeded the blow-up guard",
            time=float(b),
            limit=control.blowup_limit,
        )
    return _split_segment(table, update, control, a, b, y, jac, depth, retries - 1)


def _run(table, update, control, s, t, y, need_jac):
    """Advance the scheme from s to t (s <= t within the table span)."""
    y = np.array(y, dtype=float)
    jac = np.eye(y.size) if need_jac else None
    if t <= s + 1e-15 * max(1.0, abs(s)):
        return y, jac
    i = table.node_index(s)
    j = table.node_index(t)
    segments = []
    if i is None or j is None:
        # partial edges: resolve via geodesic increments
        lo = int(np.searchsorted(table.nodes, s, side="right"))
        hi = int(np.searchsorted(table.nodes, t, side="left")) - 1
        if lo > hi:
            segments.append((s, t, None))
        else:
            if i is None:
                segments.append((s, table.nodes[lo], None))
                start = lo
            else:
                start = i
            for k in range(start, hi):
                segments.append((table.nodes[k], table.nodes[k + 1], k))
            if j is None:
                segments.append((table.nodes[hi], t, None))
            else:
                for k in range(hi, j):
                    segments.append((table.nodes[k], table.nodes[k + 1], k))
    else:
        for k in range(i, j):
            segments.append((table.nodes[k], table.nodes[k + 1], k))
    for a, b, k in segments:
        if k is None:
            one, two, flat = table.increment_between(a, b)
        else:
            one, two, flat = table.one[k], table.two[k], table.flat[k]
        y, jac = _advance_segment(
            table, update, control, a, b, one, two, flat, y, jac, 0, control.retry_halvings
        )
    return y, jac


# ------------------------------------------------------------------ FlowMap


class FlowMap:
    """Two-parameter flow psi(s, t) realized by re-running a per-cell scheme.

    map(s, t, y) advances a single state; propagate additionally carries
    the flow Jacobian with periodic QR renormalization, factoring out the
    spectral norm as an exactly-accumulated scalar so that long-horizon
    products never overflow.  psi(s, s) is the identity, and composition
    over grid nodes is exact because both sides run the identical cell
    sequence.
    """

    def __init__(self, grid, advance, state_dim, advance_jac=None, meta=None):
        self.grid = np.asarray(grid, dtype=float)
        self.state_dim = int(state_dim)
        self._advance = advance
        self._advance_jac = advance_jac
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
        return self._advance(s, t, y)

    def _segment_jacobian(self, a, b, y):
        if self._advance_jac is not None:
            return self._advance_jac(a, b, y)
        # flows without a variational scheme: differentiate the map itself
        m = y.size
        cols = []
        for k in range(m):
            e = np.zeros(m)
            e[k] = 1e-6 * (1.0 + abs(y[k]))
            cols.append((self._advance(a, b, y + e) - self._advance(a, b, y - e)) / (2 * e[k]))
        return self._advance(a, b, y), np.stack(cols, axis=1)

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
            y, seg = self._segment_jacobian(float(a), float(b), y)
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
        cols = ["t"] + [f"y{i + 1}" for i in range(self.states.shape[1])]
        fileobj.write(",".join(cols) + "\n")
        for t, row in zip(self.times, self.states):
            cells = [_FLOAT_FMT % t] + [_FLOAT_FMT % v for v in row]
            fileobj.write(",".join(cells) + "\n")

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


def _kernel_flow(grid, table, update, control, dim, meta) -> FlowMap:
    """FlowMap whose maps and Jacobians re-run the cell kernel over the table."""

    def advance(s, t, y):
        return _run(table, update, control, s, t, y, False)[0]

    def advance_jac(s, t, y):
        return _run(table, update, control, s, t, y, True)

    return FlowMap(grid, advance, dim, advance_jac, meta)


def solve_rde(problem: RDEProblem, step: float, control: SolverControl = SolverControl()) -> RDESolution:
    """Integrate dz = sigma(z) dX with the second-order increment scheme.

    Returns the trajectory on the solve grid together with the FlowMap; the
    flow re-runs the same scheme for arbitrary (s, t) inside the interval.
    """
    p = problem.regularity
    if not p < 3.0:
        raise ArgumentError("scheme needs p < 3 (one level of area)", p=p)
    grid = _solve_grid(problem.interval, step)
    table = _CellTable(problem.lift, grid)
    update = _make_taylor_update(problem.sigma)
    meta = {"kind": "rde", "step": float(step), "problem": problem, "control": control}
    if problem.noise is not None:
        meta["noise"] = problem.noise

        def rebuild(noise, interval):
            shifted = dataclasses.replace(
                problem, driver=noise.omega, noise=noise, interval=interval
            )
            return solve_rde(shifted, step, control).flow

        meta["rebuild"] = rebuild
    flow = _kernel_flow(grid, table, update, control, problem.sigma.dim, meta)
    # one sweep over the table's cells: the cell sequence flow.map runs, bit for bit
    nodes = table.nodes
    states = np.empty((nodes.size, problem.sigma.dim))
    states[0] = y = problem.y0
    for k in range(nodes.size - 1):
        y, _ = _advance_segment(
            table, update, control, nodes[k], nodes[k + 1], table.one[k], table.two[k],
            table.flat[k], y, None, 0, control.retry_halvings,
        )
        states[k + 1] = y
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
    table = _CellTable(driver.lift, grid, _driver_level2)
    update = _make_taylor_update(driver.sigma)
    meta = {"kind": "driver_flow", "step": float(step), "control": control}
    if noise is not None:
        meta["noise"] = noise

        def rebuild(new_noise, new_interval):
            moved = RoughDriver(
                driver.sigma, new_noise.omega, p=driver.p, rho=driver.rho,
                check_geometric=False,
            )
            return solve_driver_flow(moved, new_interval, step, control, new_noise)

        meta["rebuild"] = rebuild
    return _kernel_flow(grid, table, update, control, driver.sigma.dim, meta)


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
    second derivatives of psi).
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
    table = _CellTable(problem.lift, grid)
    update = _make_taylor_update(problem.sigma)
    bounds = _subdivide(table, grid, max(p, 1.0), control.drift_delta)

    def aux_rhs(a, u, y):
        val, jac = _run(table, update, control, a, u, y, True)
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
        return _run(table, update, control, a, b, y, False)[0]

    def advance(s, t, y):
        cuts = [s] + [float(c) for c in bounds if s < c < t] + [t]
        for a, b in zip(cuts[:-1], cuts[1:]):
            y = advance_sub(a, b, y)
        return y

    meta = {
        "kind": "drift_flow",
        "step": float(step),
        "control": control,
        "growth_report": report,
        "subdivision": bounds,
    }
    if problem.noise is not None:
        meta["noise"] = problem.noise

        def rebuild(noise, interval):
            shifted = dataclasses.replace(
                problem, driver=noise.omega, noise=noise, interval=interval
            )
            return drift_transform_solve(shifted, drift, step, control, force=force)

        meta["rebuild"] = rebuild
    return FlowMap(bounds, advance, m, None, meta)


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
