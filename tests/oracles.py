"""Independent reference computations used as test oracles.

Everything here is deliberately written against the definitions (Riemann sums,
exhaustive enumeration, finite differences) rather than through the library's
own fast paths, so agreement is evidence and not tautology.  The per-element
tensor loops are the reference for the batched group product, inverse and
segment exponential.  The all-pairs sweeps build the increment of every node
pair with the library's batched group product (held to those loops bit for bit)
and keep the full n x n weight matrix.
"""

from __future__ import annotations

import itertools

import numpy as np

from roughflow.drivers import BracketField
from roughflow.errors import DivergenceError, NumericalError
from roughflow.paths import resample_lift
from roughflow.rde import _blown_up, _CellTable, _run, _solve_grid, _subdivide
from roughflow.tensor_algebra import batch_increments


def riemann_iterated_integrals(path_values, level):
    """Iterated integrals of a sampled path by left-Riemann sums.

    path_values: (n, d) samples on a fine grid.  Converges O(1/n); callers pick
    n to match their tolerance.  Returns a list of level arrays.
    """
    xs = np.asarray(path_values, dtype=float)
    n, d = xs.shape
    S = [np.zeros((d,) * k) for k in range(1, level + 1)]
    for i in range(n - 1):
        dx = xs[i + 1] - xs[i]
        # update top-down so each level uses the pre-update lower level
        for k in range(level, 1, -1):
            S[k - 1] = S[k - 1] + np.multiply.outer(S[k - 2], dx)
        S[0] = S[0] + dx
    return S


def tensor_mul_loop(g, h):
    """Truncated tensor product of level lists: level k is g_k + h_k + sum_{0<i<k} g_i (x) h_{k-i}."""
    out = []
    for k in range(1, len(g) + 1):
        acc = g[k - 1] + h[k - 1]  # i = k and i = 0 terms
        for i in range(1, k):
            acc = acc + np.multiply.outer(g[i - 1], h[k - i - 1])
        out.append(acc)
    return out


def _nilpotent_mul_loop(a, b, level):
    """Product of two series with zero scalar part (levels as lists, None for a zero level)."""
    out = [None] * level
    for k in range(2, level + 1):
        acc = None
        for i in range(1, k):
            if a[i - 1] is None or b[k - i - 1] is None:
                continue
            term = np.multiply.outer(a[i - 1], b[k - i - 1])
            acc = term if acc is None else acc + term
        out[k - 1] = acc
    return out


def tensor_inv_loop(g):
    """Group inverse of a level list via the truncated Neumann series (1 + a)^{-1} = sum (-a)^j."""
    level = len(g)
    neg = [-lvl for lvl in g]
    total = [lvl.copy() for lvl in neg]
    power = neg
    for _ in range(2, level + 1):
        power = _nilpotent_mul_loop(power, neg, level)
        for k in range(level):
            if power[k] is not None:
                total[k] = total[k] + power[k]
    return total


def segment_exponential_loop(increment, level):
    """Levels v^{tensor k} / k! of one linear segment with increment v."""
    v = np.asarray(increment, dtype=float).reshape(-1)
    levels = [v.copy()]
    power = v
    for k in range(2, level + 1):
        power = np.multiply.outer(power, v) / k
        levels.append(power)
    return levels


def pvar_exhaustive(values, p):
    """p-variation by enumerating every breakpoint subset containing both ends."""
    xs = np.asarray(values, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    n = len(xs)
    if n < 2:
        return 0.0
    dist = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=2)
    interior = range(1, n - 1)
    best = dist[0, n - 1] ** p
    for r in range(1, n - 1):
        for combo in itertools.combinations(interior, r):
            chain = (0,) + combo + (n - 1,)
            total = 0.0
            for a, b in zip(chain[:-1], chain[1:]):
                total += dist[a, b] ** p
            best = max(best, total)
    return best ** (1.0 / p)


def max_partition_sum(weight):
    """f(last) of f(j) = max_{i<j} f(i) + weight[i, j] over a full (n, n) weight matrix."""
    n = weight.shape[0]
    f = np.zeros(n)
    for j in range(1, n):
        f[j] = np.max(f[:j] + weight[:j, j])
    return float(f[-1])


def pvar_all_pairs(values, p):
    """p-variation over breakpoint partitions from the (n, n) matrix of pair distances."""
    values = np.asarray(values, dtype=float)
    dist = np.linalg.norm(values[:, None, :] - values[None, :, :], axis=2)
    return float(max_partition_sum(dist**p) ** (1.0 / p))


def homogeneous_pvar_all_pairs(x_levels, y_levels, dim, p):
    """Homogeneous p-variation distance of two lifts on one grid, from the increment of every node pair.

    x_levels, y_levels: flat level arrays (n, dim**k) at the same n nodes.
    """
    n = x_levels[0].shape[0]
    iu = np.triu_indices(n, 1)
    inc_x = batch_increments(x_levels, iu[0], iu[1], dim)
    inc_y = batch_increments(y_levels, iu[0], iu[1], dim)
    best = 0.0
    for k in range(1, len(x_levels) + 1):
        w = np.zeros((n, n))
        w[iu] = np.linalg.norm(inc_x[k - 1] - inc_y[k - 1], axis=1) ** (p / k)
        best = max(best, max_partition_sum(w) ** (1.0 / p))
    return best


def geometricity_residual_all_pairs(x_levels, dim):
    """max over node pairs of |Sym(pi_2(inc)) - 0.5 pi_1(inc) (x) pi_1(inc)|, one increment per pair."""
    n = x_levels[0].shape[0]
    iu = np.triu_indices(n, 1)
    incs = batch_increments(x_levels, iu[0], iu[1], dim)
    lvl1 = incs[0]
    lvl2 = incs[1].reshape(-1, dim, dim)
    sym = 0.5 * (lvl2 + np.transpose(lvl2, (0, 2, 1)))
    outer = 0.5 * np.einsum("bi,bj->bij", lvl1, lvl1)
    return float(np.max(np.linalg.norm((sym - outer).reshape(len(lvl1), -1), axis=1)))


def driver_loops(fields, one, two, x):
    """V, DV, D2V, W and DW of a driver at x, one field or one field pair at a time.

    one (n,) and two (n, n) are the lift increment over the cell; W pairs the
    bracket [sigma_i, sigma_j] with the antisymmetric part of two, for i < j.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    v, dv, d2v = np.zeros(x.shape), np.zeros(x.shape + (m,)), np.zeros(x.shape + (m, m))
    for i, f in enumerate(fields):
        if one[i] != 0.0:
            v += one[i] * f.value(x)
            dv += one[i] * f.jacobian(x)
            d2v += one[i] * f.hessian(x)
    anti = two - two.T
    w, dw = np.zeros(x.shape), np.zeros(x.shape + (m,))
    for i, j in itertools.combinations(range(len(fields)), 2):
        if anti[i, j] != 0.0:
            bracket = BracketField(fields[i], fields[j])
            w += 0.5 * anti[i, j] * bracket.value(x)
            dw += 0.5 * anti[i, j] * bracket.jacobian(x)
    return {"V": v, "DV": dv, "D2V": d2v, "W": w, "DW": dw}


def second_order_action_loop(fields, two, grad, hess, x):
    """sum_{ij} two[i, j] sigma_i(sigma_j f) at x, one field pair at a time."""
    x = np.asarray(x, dtype=float)
    g, h = grad(x), hess(x)
    vals = [f.value(x) for f in fields]
    jacs = [f.jacobian(x) for f in fields]
    out = np.zeros(x.shape[:-1])
    for i in range(len(fields)):
        for j in range(len(fields)):
            if two[i, j] == 0.0:
                continue
            quad = np.einsum("...i,...ij,...j->...", vals[i], h, vals[j])
            trans = np.einsum("...a,...a->...", g, np.einsum("...ai,...i->...a", jacs[j], vals[i]))
            out += two[i, j] * (quad + trans)
    return out


def stratonovich_midpoint_integral(xs, ys):
    """int x o dy by the midpoint rule on the sampling grid."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mid = 0.5 * (xs[1:] + xs[:-1])
    return float(np.sum(mid * np.diff(ys)))


def fd_jacobian(f, x, eps=1e-6):
    """Central finite-difference Jacobian of f: R^m -> R^m."""
    x = np.asarray(x, dtype=float)
    m = x.size
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = eps
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * eps))
    return np.stack(cols, axis=1)


def field_jacobian_loop(field, x, step=1e-5):
    """A field's central-difference Jacobian, one coordinate at a time (columns last)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(field.dim):
        e = np.zeros(field.dim)
        e[i] = step
        cols.append((field.value(x + e) - field.value(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def field_hessian_loop(field, x, step=1e-3):
    """Central differences of field_jacobian_loop, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(field.dim):
        e = np.zeros(field.dim)
        e[i] = step
        cols.append((field_jacobian_loop(field, x + e) - field_jacobian_loop(field, x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def fd_grad_loop(fn, x, step=1e-3):
    """Central-difference gradient of a scalar function on points (..., m), columns last."""
    m = x.shape[-1]
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        cols.append((fn(x + e) - fn(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def fd_hess_loop(fn, x, step=1e-3):
    """Central differences of fd_grad_loop, one coordinate at a time."""
    m = x.shape[-1]
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        cols.append((fd_grad_loop(fn, x + e, step) - fd_grad_loop(fn, x - e, step)) / (2 * step))
    return np.stack(cols, axis=-1)


def leibniz_residual_loops(driver, s, t, points):
    """driver_leibniz_residual with the test functions differentiated by fd_grad_loop/fd_hess_loop."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    m = driver.state_dim
    a = np.linspace(0.3, 0.7, m)
    b = np.linspace(-0.5, 0.4, m) + 0.15

    def f(z):
        return np.sin(z @ a)

    def g(z):
        return np.cos(z @ b) + 0.2 * z[..., 0]

    v = driver.V(s, t, x)
    dv = driver.DV(s, t, x)

    def op(fn):
        vv = driver.second_order_action(
            s, t, lambda z: fd_grad_loop(fn, z), lambda z: fd_hess_loop(fn, z), x
        )
        grad = fd_grad_loop(fn, x)
        hess = fd_hess_loop(fn, x)
        half = 0.5 * (
            np.einsum("...i,...ij,...j->...", v, hess, v)
            + np.einsum("...a,...a->...", grad, np.einsum("...ai,...i->...a", dv, v))
        )
        return vv - half

    gap = op(lambda z: f(z) * g(z)) - f(x) * op(g) - g(x) * op(f)
    return float(np.max(np.abs(gap)))


def propagate_by_map_differences(advance, s, t, y, renorm_interval=None, rel_step=1e-6):
    """(y, J, log_scale) of a flow from central differences of advance(a, b, y) per segment.

    Coordinate k steps by rel_step * (1 + |y_k|); with renorm_interval the product is
    QR-renormalised after each segment and its spectral-norm scale summed in log space.
    """
    y = np.asarray(y, dtype=float)
    if renorm_interval is None:
        cuts = np.array([s, t])
    else:
        n = max(1, int(np.ceil((t - s) / renorm_interval - 1e-12)))
        cuts = np.linspace(s, t, n + 1)
    jac = np.eye(y.size)
    log_scale = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        a, b = float(a), float(b)
        cols = []
        for k in range(y.size):
            e = np.zeros(y.size)
            e[k] = rel_step * (1.0 + abs(y[k]))
            cols.append((advance(a, b, y + e) - advance(a, b, y - e)) / (2 * e[k]))
        y = advance(a, b, y)
        jac = np.stack(cols, axis=1) @ jac
        if renorm_interval is not None:
            q, r = np.linalg.qr(jac)
            scale = float(np.linalg.norm(r, 2))
            if scale > 0.0:
                jac = q @ (r / scale)
                log_scale += float(np.log(scale))
    return y, jac, log_scale


def rho_var_2d_exhaustive(R, rho):
    """2-D rho-variation of a covariance sampled on a grid, by full enumeration.

    R: (n, n) kernel matrix on grid nodes.  Every partition of each axis drawn
    from the grid (all subsets containing both endpoints) is tried.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    interior = range(1, n - 1)

    def partitions():
        for r in range(0, n - 1):
            for combo in itertools.combinations(interior, r):
                yield (0,) + combo + (n - 1,)

    parts = list(partitions())
    best = 0.0
    for D in parts:
        for Dp in parts:
            block = R[np.ix_(D, Dp)]
            inc = block[1:, 1:] - block[:-1, 1:] - block[1:, :-1] + block[:-1, :-1]
            best = max(best, float(np.sum(np.abs(inc) ** rho)))
    return best ** (1.0 / rho)


def gauge_split_flow(lift, grid, update, control, y, need_jac, level2=None):
    """(states at the grid nodes, Jacobian or None, deepest split) of a per-call gauge recursion.

    Every whole cell of the grid is one call of update(y, X1, level2(X1, X2), need_jac).  A
    call whose gauge max(|X1|, |X2|) exceeds control.gauge_threshold, or whose state blows
    up, is replaced by calls on the two halves of its interval, down to control.max_split_depth
    halvings (blow-ups at most control.retry_halvings times); half intervals take their
    increments from the lift resampled at the grid, completed there geodesically.
    """
    level2 = level2 or (lambda one, two: two)
    d = lift.dim
    ref = resample_lift(lift, grid)
    deepest = 0

    def increment(levels, i, j):
        inc = batch_increments(levels, i, j, d)
        one, two = inc[0], inc[1].reshape(-1, d, d)
        flat = np.maximum(np.linalg.norm(inc[0], axis=1), np.linalg.norm(inc[1], axis=1))
        return one, level2(one, two), flat

    def advance(a, b, y, jac, depth, retries, cell=None):
        nonlocal deepest
        deepest = max(deepest, depth)
        if cell is None:
            one, two, flat = (v[0] for v in increment(ref.levels_at([a, b]), [0], [1]))
        else:
            one, two, flat = cell
        if not (flat > control.gauge_threshold and depth < control.max_split_depth):
            y2, mat = update(y, one, two, jac is not None)
            peak = np.max(np.abs(y2))
            if np.isfinite(peak) and peak <= control.blowup_limit:
                return y2, (mat @ jac if jac is not None else None)
            if retries <= 0 or depth >= control.max_split_depth:
                raise DivergenceError("state exceeded the blow-up guard", time=float(b))
            retries -= 1
        mid = 0.5 * (a + b)
        y, jac = advance(a, mid, y, jac, depth + 1, retries)
        return advance(mid, b, y, jac, depth + 1, retries)

    cells = increment(ref.levels, slice(None, -1), slice(1, None))
    states = [np.asarray(y, dtype=float)]
    jac = np.eye(states[0].size) if need_jac else None
    for k in range(len(grid) - 1):
        cell = tuple(v[k] for v in cells)
        y, jac = advance(grid[k], grid[k + 1], states[-1], jac, 0, control.retry_halvings, cell)
        states.append(y)
    return np.array(states), jac, deepest


def drift_map_by_stage_reruns(problem, drift, step, control, s, t, y):
    """The drift flow's map from s to t with psi re-run from the sub-interval start at every stage.

    Each of the four RK stages per substep calls _run(table, a, u, z, True) for psi(a, u)(z)
    and its Jacobian, checks that Jacobian's condition number and solves
    (D psi) k = b(psi(z)); the state is guarded after every substep and psi(a, b) closes each
    sub-interval.  Sub-intervals are the flow's own (the drift budget over the cell table).
    """
    grid = _solve_grid(problem.interval, step)
    table = _CellTable(problem.lift, grid, problem.sigma, control)
    bounds = _subdivide(*table.cells, grid, max(problem.regularity, 1.0), control.drift_delta)
    b_field = drift.as_field(problem.sigma.dim)

    def aux_rhs(a, u, z):
        val, jac = _run(table, a, u, z, True)
        cond = float(np.linalg.cond(jac))
        if cond > control.condition_limit:
            raise NumericalError("flow Jacobian singular to tolerance", time=float(u), condition=cond)
        return np.linalg.solve(jac, b_field.value(val))

    y = np.asarray(y, dtype=float)
    cuts = [s] + [float(c) for c in bounds if s < c < t] + [t]
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = (b - a) / control.drift_substeps
        u = a
        for _ in range(control.drift_substeps):
            k1 = aux_rhs(a, u, y)
            k2 = aux_rhs(a, u + 0.5 * h, y + 0.5 * h * k1)
            k3 = aux_rhs(a, u + 0.5 * h, y + 0.5 * h * k2)
            k4 = aux_rhs(a, u + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if _blown_up(y, control.blowup_limit):
                raise DivergenceError("state exceeded the blow-up guard in the drift stage", time=float(u + h))
            u += h
        y = _run(table, a, b, y, False)[0]
    return y


def lane_by_cells(table, k, stop, y, jac, rows):
    """rde._lane as one matmul per row: rows k..stop-1 by y <- M_c y, states into rows[1:].

    Returns (end, y, jac) with y the state at node end, end < stop if row end blew up;
    the Jacobian is the left product of the rows before end, one matmul at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # states past a blow-up are dropped
        for i, mat in enumerate(table.mats[k:stop], 1):
            y = rows[i] = mat @ y
    bad = np.flatnonzero(_blown_up(rows[1 : stop - k + 1], table.control.blowup_limit))
    end = k + int(bad[0]) if bad.size else stop
    if jac is not None:
        for mat in table.mats[k:end]:
            jac = mat @ jac
    return end, (y if end == stop else rows[end - k]), jac


def propagate_by_flow(flow, s, t, y, renorm_interval=None):
    """(y, J, log_scale) of one flow, stepping its segments and renormalizing one matrix at a time.

    With renorm_interval, [s, t] is cut into ceil((t - s) / renorm_interval) equal segments;
    after each, J is QR-factored and divided by the spectral norm of r, whose log is summed.
    """
    y = np.asarray(y, dtype=float)
    if renorm_interval is None:
        cuts = np.array([s, t])
    else:
        n = max(1, int(np.ceil((t - s) / renorm_interval - 1e-12)))
        cuts = np.linspace(s, t, n + 1)
    jac = np.eye(y.size)
    log_scale = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        y, seg = flow._step(float(a), float(b), y, True)
        jac = seg @ jac
        if renorm_interval is not None:
            q, r = np.linalg.qr(jac)
            scale = float(np.linalg.norm(r, 2))
            if scale > 0.0:
                jac = q @ (r / scale)
                log_scale += float(np.log(scale))
    return y, jac, log_scale


def lyapunov_rates_by_flow(flows, x0, renorm_interval=1.0):
    """Per-flow growth rates (log_scale + log |J|_2) / T, one propagate_by_flow per flow."""
    lo, hi = flows[0].span
    rates = []
    for flow in flows:
        _, jac, log_scale = propagate_by_flow(flow, lo, hi, x0, renorm_interval)
        rates.append((log_scale + float(np.log(np.linalg.norm(jac, 2)))) / (hi - lo))
    return tuple(rates)
