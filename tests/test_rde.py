"""Solver tests: scheme accuracy, flows, drift transform, cocycle, Lyapunov.

Oracles are closed-form solutions (scalar exponentials, matrix exponentials
via scipy, Doss-Sussmann formulas) or independent reference loops written
inline; none of them call the solver under test.
"""

import io
import math

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    drift_map_by_stage_reruns,
    gauge_split_flow,
    lane_by_cells,
    lyapunov_rates_by_flow,
    propagate_by_flow,
    propagate_by_map_differences,
)
from roughflow import (
    ArgumentError,
    CallableField,
    ConfigError,
    ConstantField,
    DecayField,
    DivergenceError,
    DriftSpec,
    LinearField,
    NumericalError,
    PiecewiseLinearPath,
    Poly1DField,
    RDEProblem,
    RoughDriver,
    SolverControl,
    VectorFieldFamily,
    decay_fields,
    drift_growth_check,
    drift_transform_solve,
    noise_from_path,
    rds_cocycle_residual,
    shear_pair_fields,
    signature_lift,
    solve_driver_flow,
    solve_rde,
    top_lyapunov_estimate,
)
from roughflow.paths import SampledRoughPath
from roughflow.rde import _CellTable, _cell_kernel, _driver_level2, _run, _solve_grid, _stage_propagators
from roughflow.tensor_algebra import GroupElement


def _smooth_path_1d(n=1025, span=(0.0, 1.0), amp=0.3, drift=0.5):
    t = np.linspace(span[0], span[1], n)
    x = amp * np.sin(2.0 * np.pi * t) + drift * t
    return PiecewiseLinearPath(t, x[:, None])


def _line_path(n=129, span=(0.0, 1.0)):
    t = np.linspace(span[0], span[1], n)
    return PiecewiseLinearPath(t, t[:, None])


def _circle_path(n=1025, span=(0.0, 1.0), amp=0.4):
    t = np.linspace(span[0], span[1], n)
    xy = np.stack([amp * np.sin(2 * np.pi * t), amp * np.cos(2 * np.pi * t)], axis=1)
    return PiecewiseLinearPath(t, xy - xy[0])


def _brownian_path(seed, n, span, dim=1, scale=1.0):
    rng = np.random.default_rng(seed)
    t = np.linspace(span[0], span[1], n)
    dt = np.diff(t)[:, None]
    steps = rng.normal(size=(n - 1, dim)) * np.sqrt(dt) * scale
    values = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return PiecewiseLinearPath(t, values)


def _scalar_family(matrix=((1.0,),)):
    return VectorFieldFamily([LinearField(np.asarray(matrix))])


# ------------------------------------------------------------- validation


def test_problem_validation_guards():
    lift = signature_lift(_line_path(), 2)
    sigma = _scalar_family()
    with pytest.raises(ArgumentError):
        RDEProblem(sigma, lift, np.array([1.0, 2.0]), (0.0, 1.0))
    with pytest.raises(ArgumentError):
        RDEProblem(sigma, lift, np.array([np.nan]), (0.0, 1.0))
    with pytest.raises(ArgumentError):
        RDEProblem(sigma, lift, np.array([1.0]), (0.0, 2.0))
    with pytest.raises(ArgumentError):
        RDEProblem(sigma, lift, np.array([1.0]), (0.7, 0.3))
    two_fields = VectorFieldFamily([ConstantField([1.0]), ConstantField([2.0])])
    with pytest.raises(ArgumentError):
        RDEProblem(two_fields, lift, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ArgumentError):
        RDEProblem(sigma, signature_lift(_line_path(), 1), np.array([1.0]), (0.0, 1.0))


def test_step_must_divide_interval():
    lift = signature_lift(_line_path(), 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ArgumentError):
        solve_rde(problem, 0.3)
    with pytest.raises(ArgumentError):
        solve_rde(problem, -0.1)
    with pytest.raises(ArgumentError):
        solve_rde(RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0), p=3.0), 0.1)


# ------------------------------------------------------ scheme accuracy


def test_scalar_exponential_against_closed_form():
    # dy = y dx has solution y0 exp(x_t - x_0)
    path = _smooth_path_1d(n=2049, amp=0.2)
    lift = signature_lift(path, 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.5]), (0.0, 1.0))
    sol = solve_rde(problem, 1e-3)
    exact = 1.5 * math.exp(path.values[-1, 0] - path.values[0, 0])
    assert abs(sol.states[-1, 0] - exact) < 1e-6
    # interior node too
    mid = 1.5 * math.exp(path.value(0.5)[0] - path.values[0, 0])
    k = np.argmin(np.abs(sol.times - 0.5))
    assert abs(sol.states[k, 0] - mid) < 1e-6


def test_constant_fields_are_exact():
    path = _circle_path(n=65)
    lift = signature_lift(path, 2)
    sigma = VectorFieldFamily([ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])])
    problem = RDEProblem(sigma, lift, np.array([0.25, -0.5]), (0.0, 1.0))
    sol = solve_rde(problem, 0.25)
    exact = problem.y0 + (path.value(1.0) - path.value(0.0))
    assert np.allclose(sol.states[-1], exact, atol=1e-14)


def test_linear_rde_matches_matrix_exponential():
    # dy = A y dx with x(t) = t: flow is expm(A (t - s))
    a_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lift = signature_lift(_line_path(n=1025), 2)
    sigma = VectorFieldFamily([LinearField(a_mat)])
    y0 = np.array([1.0, 0.5])
    problem = RDEProblem(sigma, lift, y0, (0.0, 1.0))
    sol = solve_rde(problem, 1e-3)
    exact = scipy.linalg.expm(a_mat) @ y0
    assert np.max(np.abs(sol.states[-1] - exact)) < 1e-6


def test_flow_jacobian_matches_matrix_exponential():
    a_mat = np.array([[0.2, 1.0], [-0.7, -0.1]])
    lift = signature_lift(_line_path(n=1025), 2)
    sigma = VectorFieldFamily([LinearField(a_mat)])
    problem = RDEProblem(sigma, lift, np.array([1.0, 0.0]), (0.0, 1.0))
    sol = solve_rde(problem, 1e-3)
    _, jac, log_scale = sol.flow.propagate(0.0, 1.0, problem.y0, with_jacobian=True)
    assert log_scale == 0.0
    assert np.max(np.abs(jac - scipy.linalg.expm(a_mat))) < 1e-6


def test_convergence_order_at_least_1p9():
    a_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lift = signature_lift(_line_path(n=2), 2)  # exact lift of a straight line
    sigma = VectorFieldFamily([LinearField(a_mat)])
    y0 = np.array([1.0, 0.5])
    exact = scipy.linalg.expm(a_mat) @ y0
    errors = []
    steps = [2.0**-k for k in range(4, 10)]
    for step in steps:
        sol = solve_rde(RDEProblem(sigma, lift, y0, (0.0, 1.0)), step)
        errors.append(np.max(np.abs(sol.states[-1] - exact)))
    slope = np.polyfit(np.log2(steps), np.log2(errors), 1)[0]
    assert slope >= 1.9
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


def test_qr_renormalization_is_exact_bookkeeping():
    a_mat = np.array([[0.3, 0.9], [-0.4, 0.1]])
    lift = signature_lift(_line_path(n=257), 2)
    sigma = VectorFieldFamily([LinearField(a_mat)])
    problem = RDEProblem(sigma, lift, np.array([1.0, -1.0]), (0.0, 1.0))
    flow = solve_rde(problem, 2**-8).flow
    _, raw, _ = flow.propagate(0.0, 1.0, problem.y0, with_jacobian=True)
    _, unit, log_scale = flow.propagate(
        0.0, 1.0, problem.y0, with_jacobian=True, renorm_interval=0.25
    )
    assert np.allclose(np.exp(log_scale) * unit, raw, atol=1e-12)
    y, jac, ls = flow.propagate(0.0, 1.0, problem.y0)
    assert jac is None and ls == 0.0


# ---------------------------------------------------------------- flows


def test_flow_identity_and_grid_composition_bitwise():
    path = _circle_path()
    lift = signature_lift(path, 2, p=1.0)
    sigma = shear_pair_fields()
    problem = RDEProblem(sigma, lift, np.array([0.3, -0.2]), (0.0, 1.0))
    flow = solve_rde(problem, 0.1).flow
    y = np.array([0.4, 0.7])
    assert np.array_equal(flow.map(0.3, 0.3, y), y)
    through = flow.map(0.4, 1.0, flow.map(0.0, 0.4, y))
    assert np.array_equal(through, flow.map(0.0, 1.0, y))


def test_trajectory_is_the_flow_from_the_start_bitwise():
    lift = signature_lift(_circle_path(), 2, p=1.0)
    problem = RDEProblem(shear_pair_fields(), lift, np.array([0.3, -0.2]), (0.0, 1.0))
    sol = solve_rde(problem, 0.05)
    for k in (1, 7, 20):
        assert np.array_equal(sol.states[k], sol.flow.map(0.0, sol.times[k], problem.y0))


def test_flow_composition_off_grid_within_tolerance():
    path = _circle_path()
    lift = signature_lift(path, 2, p=1.0)
    sigma = shear_pair_fields()
    problem = RDEProblem(sigma, lift, np.array([0.3, -0.2]), (0.0, 1.0))
    flow = solve_rde(problem, 1e-3).flow
    y = np.array([0.4, 0.7])
    direct = flow.map(0.0, 1.0, y)
    through = flow.map(0.3705, 1.0, flow.map(0.0, 0.3705, y))
    assert np.max(np.abs(through - direct)) < 1e-6
    assert np.max(np.abs(through - direct)) > 0.0  # different cell decomposition


def test_flow_guards():
    lift = signature_lift(_line_path(), 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0))
    flow = solve_rde(problem, 0.25).flow
    y = np.array([1.0])
    for s, t in ((-0.5, 0.5), (0.8, 0.2), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ArgumentError, match="span"):
            flow.map(s, t, y)
    with pytest.raises(ArgumentError):
        flow.map(0.0, 1.0, np.array([1.0, 2.0]))
    for state in (np.array([np.nan]), np.array([np.inf])):
        with pytest.raises(ArgumentError, match="finite"):
            flow.map(0.0, 1.0, state)
    for interval in (0.0, -1.0, np.nan):
        with pytest.raises(ArgumentError, match="renorm_interval"):
            flow.propagate(0.0, 1.0, y, with_jacobian=True, renorm_interval=interval)
    t = np.linspace(0.0, 60.0, 61)
    flat = signature_lift(PiecewiseLinearPath(t, np.zeros((61, 1))), 2)
    long_flow = solve_rde(RDEProblem(_scalar_family(), flat, y, (0.0, 60.0)), 1.0).flow
    with pytest.raises(ArgumentError, match="renorm_interval"):
        top_lyapunov_estimate([long_flow], y, renorm_interval=0.0)


def test_zero_driver_gives_identity_flow():
    t = np.linspace(0.0, 1.0, 9)
    flat = PiecewiseLinearPath(t, np.zeros((9, 2)))
    lift = signature_lift(flat, 2)
    sigma = shear_pair_fields()
    flow = solve_rde(RDEProblem(sigma, lift, np.array([1.0, 2.0]), (0.0, 1.0)), 0.125).flow
    y = np.array([0.9, -1.7])
    assert np.array_equal(flow.map(0.0, 1.0, y), y)
    driver = RoughDriver(sigma, lift, p=2.2)
    dflow = solve_driver_flow(driver, (0.0, 1.0), 0.125)
    assert np.array_equal(dflow.map(0.0, 1.0, y), y)


def test_driver_flow_agrees_with_taylor_scheme():
    # dual routes: V/W/bracket update vs level-increment update
    path = _circle_path()
    lift = signature_lift(path, 2, p=2.2)
    sigma = VectorFieldFamily(
        [
            DecayField([1.0, 0.3], eta=0.5),
            DecayField([-0.2, 1.0], eta=1.0, scale=0.8),
        ]
    )
    y0 = np.array([0.4, -0.3])
    sol = solve_rde(RDEProblem(sigma, lift, y0, (0.0, 1.0), p=2.2), 1e-2)
    driver = RoughDriver(sigma, lift, p=2.2)
    dflow = solve_driver_flow(driver, (0.0, 1.0), 1e-2)
    assert np.max(np.abs(dflow.map(0.0, 1.0, y0) - sol.states[-1])) < 1e-10
    _, j1, _ = sol.flow.propagate(0.0, 1.0, y0, with_jacobian=True)
    _, j2, _ = dflow.propagate(0.0, 1.0, y0, with_jacobian=True)
    assert np.max(np.abs(j1 - j2)) < 1e-8


def _non_geometric_lift():
    # perturb the symmetric part of level 2: the lift stops being geometric
    lift = signature_lift(_brownian_path(21, 17, (0.0, 1.0), dim=2, scale=0.3), 2, p=2.2)
    bump = np.array([[0.05, 0.02], [0.02, -0.03]])
    points = [
        GroupElement(2, 2, [g.levels[0], g.levels[1] + math.sin(3.0 * t) * bump])
        for t, g in zip(lift.times, lift.points)
    ]
    return SampledRoughPath(lift.times, points, lift.p)


def test_driver_flow_matches_explicit_update_on_non_geometric_lift():
    # on a non-geometric lift the flow must still step x + V + W + (1/2) DV V
    # per cell, through the jets kernel (mixed family) and the cell matrices
    # (all-linear family) alike
    lift = _non_geometric_lift()
    linear = LinearField([[0.2, -0.5], [0.4, 0.1]])
    seconds = (DecayField([-0.2, 1.0], eta=1.0, scale=0.8), LinearField([[0.1, 0.3], [-0.6, 0.2]]))
    for second in seconds:
        sigma = VectorFieldFamily([linear, second])
        driver = RoughDriver(sigma, lift, p=2.2, check_geometric=False)
        control = SolverControl(gauge_threshold=10.0)
        flow = solve_driver_flow(driver, (0.0, 1.0), 1.0 / 16, control)
        y0 = np.array([0.4, -0.3])
        x, jac = y0.copy(), np.eye(2)
        for s, t in zip(lift.times[:-1], lift.times[1:]):
            v, dv = driver.V(s, t, x), driver.DV(s, t, x)
            step = np.eye(2) + dv + driver.DW(s, t, x) + 0.5 * (
                np.einsum("abk,b->ak", driver.D2V(s, t, x), v) + dv @ dv
            )
            x = x + v + driver.W(s, t, x) + 0.5 * dv @ v
            jac = step @ jac
        y, j, _ = flow.propagate(0.0, 1.0, y0, with_jacobian=True)
        assert np.max(np.abs(y - x)) < 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(j - jac)) < 1e-12 * np.max(np.abs(jac))
        assert np.array_equal(flow.map(0.0, 1.0, y0), y)


# ------------------------------------------------- linear cell matrices

_LANE_MATRICES = (
    np.array([[0.3, 0.9], [-0.4, 0.1]]),
    np.array([[0.1, -0.2], [0.5, 0.2]]),
)


def _jets_reference(matrices):
    """The same linear fields as CallableFields, so the flow runs the jets kernel."""
    fields = []
    for a in matrices:
        m = a.shape[0]
        fields.append(
            CallableField(
                lambda x, a=a: x @ a.T,
                m,
                jac=lambda x, a=a: np.broadcast_to(a, x.shape + (m,)).copy(),
                hess=lambda x, m=m: np.zeros(x.shape + (m, m)),
            )
        )
    return VectorFieldFamily(fields)


def _jumpy_lift(jumps=(3, 10), scale=1.0):
    # small Brownian steps plus a unit jump inside each listed cell of a
    # 16-cell grid, the whole path times scale; four path segments per cell
    # give every cell an area
    path = _brownian_path(5, 65, (0.0, 1.0), dim=2, scale=0.2)
    steps = np.diff(path.values, axis=0)
    for k in jumps:
        steps[4 * k + 1] += [1.0, -0.5]
    values = scale * np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return signature_lift(PiecewiseLinearPath(path.times, values), 2, p=2.2)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cell_update_is_recorded_with_its_split_count():
    lift = _jumpy_lift()
    y0 = np.array([0.4, -0.3])
    families = {
        "linear_propagator": VectorFieldFamily([LinearField(a) for a in _LANE_MATRICES]),
        "taylor_jets": VectorFieldFamily([DecayField([1.0, 0.3]), DecayField([-0.2, 1.0])]),
    }
    for method, sigma in families.items():
        problem = RDEProblem(sigma, lift, y0, (0.0, 1.0), p=2.2)
        flows = (
            solve_rde(problem, 1.0 / 16).flow,
            solve_driver_flow(RoughDriver(sigma, lift, p=2.2), (0.0, 1.0), 1.0 / 16),
            drift_transform_solve(problem, DriftSpec(LinearField(-np.eye(2))), 1.0 / 16),
        )
        for flow in flows:
            # the two jump cells exceed the default gauge threshold 0.5
            assert flow.meta["cell_update"] == {"method": method, "split_cells": 2}
    flow = solve_rde(problem, 1.0 / 16, SolverControl(gauge_threshold=10.0)).flow
    assert flow.meta["cell_update"]["split_cells"] == 0


_JUMPY_FAMILIES = (
    VectorFieldFamily([LinearField(a) for a in _LANE_MATRICES]),
    VectorFieldFamily([DecayField([1.0, 0.3]), DecayField([-0.2, 1.0])]),
)


def test_split_cells_match_the_per_call_gauge_recursion():
    # the table's rows step exactly as halving each split cell at every call did:
    # bit for bit through the jets kernel, to rounding through the cell matrices
    y0 = np.array([0.4, -0.3])
    grid = np.linspace(0.0, 1.0, 17)
    control = SolverControl()
    for scale, split_levels in ((1.0, 1), (3.0, 2)):
        lift = _jumpy_lift(scale=scale)
        for sigma, same in zip(_JUMPY_FAMILIES, (_close, np.array_equal)):
            update = _cell_kernel(sigma)[0]
            sol = solve_rde(RDEProblem(sigma, lift, y0, (0.0, 1.0), p=2.2), 1.0 / 16)
            states, jac, deepest = gauge_split_flow(lift, grid, update, control, y0, True)
            assert deepest >= split_levels
            assert same(sol.states, states)
            assert same(sol.flow.propagate(0.0, 1.0, y0, with_jacobian=True)[1], jac)
            flow = solve_driver_flow(RoughDriver(sigma, lift, p=2.2), (0.0, 1.0), 1.0 / 16)
            states, jac, _ = gauge_split_flow(lift, grid, update, control, y0, True, _driver_level2)
            y, j, _ = flow.propagate(0.0, 1.0, y0, with_jacobian=True)
            assert same(y, states[-1]) and same(j, jac)


def test_split_cells_need_no_increments_at_run_time(monkeypatch):
    calls = []
    between = _CellTable.increment_between

    def counted(table, a, b):
        calls.append((a, b))
        return between(table, a, b)

    monkeypatch.setattr(_CellTable, "increment_between", counted)
    y0 = np.array([0.4, -0.3])
    for sigma in _JUMPY_FAMILIES:
        flow = solve_rde(RDEProblem(sigma, _jumpy_lift(), y0, (0.0, 1.0), p=2.2), 1.0 / 16).flow
        flow.map(0.0, 1.0, y0)
        flow.propagate(0.0, 1.0, y0, with_jacobian=True)
    assert calls == []


def test_flow_composes_exactly_at_a_split_cells_midpoint():
    # inside split cell 3 of the 16-cell grid, its midpoint is a node of the flow
    y0 = np.array([0.4, -0.3])
    s, mid = 3.0 / 16 + 0.01, 3.0 / 16 + 1.0 / 32
    for sigma in _JUMPY_FAMILIES:
        flow = solve_rde(RDEProblem(sigma, _jumpy_lift(), y0, (0.0, 1.0), p=2.2), 1.0 / 16).flow
        assert np.array_equal(flow.map(s, 0.9, y0), flow.map(mid, 0.9, flow.map(s, mid, y0)))


def test_solver_control_rejects_values_that_make_no_sense():
    bad = {
        "gauge_threshold": (0.0, -1.0, np.nan),
        "blowup_limit": (0.0, np.nan),
        "drift_delta": (-0.1, np.nan),
        "condition_limit": (0.0, np.nan),
        "max_split_depth": (-1, 1.5),
        "retry_halvings": (-1, np.nan),
        "drift_substeps": (0, 2.5),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ArgumentError, match=name):
                SolverControl(**{name: value})
    SolverControl(gauge_threshold=np.inf, blowup_limit=np.inf, max_split_depth=0,
                  retry_halvings=0, drift_substeps=1, condition_limit=np.inf)


def test_cell_matrices_match_the_jets_kernel():
    lane = VectorFieldFamily([LinearField(a) for a in _LANE_MATRICES])
    jets = _jets_reference(_LANE_MATRICES)
    y0 = np.array([0.4, -0.3])
    # cells span several path segments, so X2 has an antisymmetric part
    brownian = signature_lift(_brownian_path(3, 257, (0.0, 1.0), dim=2), 2, p=2.2)
    for lift in (brownian, _jumpy_lift()):
        sols = [solve_rde(RDEProblem(f, lift, y0, (0.0, 1.0), p=2.2), 1.0 / 16) for f in (lane, jets)]
        assert sols[0].flow.meta["cell_update"]["method"] == "linear_propagator"
        assert sols[1].flow.meta["cell_update"]["method"] == "taylor_jets"
        assert _close(sols[0].states, sols[1].states)
        off_node = [sol.flow.map(0.1234, 0.8765, y0) for sol in sols]
        assert _close(*off_node)
        runs = [
            sol.flow.propagate(0.0, 1.0, y0, with_jacobian=True, renorm_interval=0.3)
            for sol in sols
        ]
        assert _close(runs[0][0], runs[1][0]) and _close(runs[0][1], runs[1][1])
        assert abs(runs[0][2] - runs[1][2]) <= 1e-12 * abs(runs[1][2])
        # the lane computes the state identically with or without the Jacobian
        y, _, _ = sols[0].flow.propagate(0.0, 1.0, y0, with_jacobian=True)
        assert np.array_equal(y, sols[0].flow.map(0.0, 1.0, y0))

    lift = _non_geometric_lift()
    control = SolverControl(gauge_threshold=10.0)
    drivers = [RoughDriver(f, lift, p=2.2, check_geometric=False) for f in (lane, jets)]
    dflows = [solve_driver_flow(d, (0.0, 1.0), 1.0 / 8, control) for d in drivers]
    runs = [f.propagate(0.0, 1.0, y0, with_jacobian=True) for f in dflows]
    assert _close(runs[0][0], runs[1][0]) and _close(runs[0][1], runs[1][1])

    path = _smooth_path_1d(n=129, amp=0.3, drift=0.1)
    drift = DriftSpec(LinearField([[-0.5]]))
    maps = []
    for f in (_scalar_family(), _jets_reference([np.array([[1.0]])])):
        problem = RDEProblem(f, signature_lift(path, 2), np.array([1.0]), (0.0, 1.0))
        maps.append(drift_transform_solve(problem, drift, 2**-5).map(0.1, 0.9, np.array([0.8])))
    assert _close(*maps)


def test_cell_matrices_blowup_matches_the_jets_kernel():
    lift = signature_lift(_line_path(n=129), 2)
    times = []
    for sigma in (_scalar_family([[40.0]]), _jets_reference([np.array([[40.0]])])):
        problem = RDEProblem(sigma, lift, np.array([2.0]), (0.0, 1.0))
        with pytest.raises(DivergenceError) as info:
            solve_rde(problem, 2**-7)
        times.append(info.value.details["time"])
    assert times[0] == times[1] and 0.0 < times[0] < 1.0


def test_driver_flow_regime_gate():
    path = _circle_path(n=65)
    lift = signature_lift(path, 2, p=2.97)
    sigma = shear_pair_fields()
    driver = RoughDriver(sigma, lift, p=2.97, rho=0.98)
    with pytest.raises(ConfigError):
        solve_driver_flow(driver, (0.0, 1.0), 0.25)


def test_blowup_guard_reports_time():
    # dy = y^2 dt from y0 = 2 leaves any bounded set at t = 1/2
    lift = signature_lift(_line_path(n=129), 2)
    sigma = VectorFieldFamily([Poly1DField([0.0, 0.0, 1.0])])
    problem = RDEProblem(sigma, lift, np.array([2.0]), (0.0, 1.0))
    with pytest.raises(DivergenceError) as info:
        solve_rde(problem, 2**-7)
    assert 0.3 < info.value.details["time"] < 0.7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_guard_catches_overflow_with_infinite_limit():
    # with no finite limit the guard must still reject inf and NaN states:
    # y^2 overflows into NaN, fast linear growth into +inf without a NaN
    lift = signature_lift(_line_path(n=129), 2)
    for field in (Poly1DField([0.0, 0.0, 1.0]), LinearField([[5000.0]])):
        problem = RDEProblem(VectorFieldFamily([field]), lift, np.array([2.0]), (0.0, 1.0))
        with pytest.raises(DivergenceError):
            solve_rde(problem, 2**-7, SolverControl(blowup_limit=np.inf))


def _scalar_lane_outputs(problem, step, control, propagate):
    sol = solve_rde(problem, step, control)
    flow, y = sol.flow, problem.y0
    lo, hi = flow.span
    mid = lo + 0.3712 * (hi - lo)
    out = [sol.states, flow.map(lo, hi, y), flow.map(mid, hi, y)]
    for renorm_interval in (None, (hi - lo) / 7):
        for s in (lo, mid):
            y_end, jac, log_scale = propagate(flow, s, hi, y, renorm_interval)
            out += [y_end, jac, np.array([log_scale])]
    return out


def test_scalar_lane_is_the_cell_loop_bitwise(monkeypatch):
    # a one-coordinate lane is one running product; the oracle is one matmul per row
    span = (0.0, 60.0)
    brownian = RDEProblem(
        _scalar_family(), signature_lift(_brownian_path(3, 60 * 32 + 1, span, scale=2.0), 2, p=2.2),
        np.array([0.7]), span, p=2.2,
    )
    split = RDEProblem(
        VectorFieldFamily([LinearField([[0.7]]), LinearField([[-0.4]])]), _jumpy_lift(),
        np.array([0.3]), (0.0, 1.0), p=2.2,
    )
    assert solve_rde(split, 1.0 / 16).flow.meta["cell_update"]["split_cells"] == 2

    def propagate(flow, s, t, y, renorm_interval):
        return flow.propagate(s, t, y, with_jacobian=True, renorm_interval=renorm_interval)

    for problem, step, control in ((brownian, 1.0 / 32, SolverControl(blowup_limit=1e300)),
                                   (split, 1.0 / 16, SolverControl())):
        got = _scalar_lane_outputs(problem, step, control, propagate)
        with monkeypatch.context() as patch:
            patch.setattr("roughflow.rde._lane", lane_by_cells)
            want = _scalar_lane_outputs(problem, step, control, propagate_by_flow)
        assert got[-1][0] != 0.0  # log_scale of a renormalized run
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scalar_lane_blowups_match_the_cell_loop(monkeypatch):
    lift = signature_lift(_line_path(n=129), 2)
    for matrix, control in (([[40.0]], SolverControl()),
                            ([[5000.0]], SolverControl(blowup_limit=np.inf))):
        problem = RDEProblem(_scalar_family(matrix), lift, np.array([2.0]), (0.0, 1.0))
        got = _raised(lambda: solve_rde(problem, 2**-7, control))
        with monkeypatch.context() as patch:
            patch.setattr("roughflow.rde._lane", lane_by_cells)
            want = _raised(lambda: solve_rde(problem, 2**-7, control))
        assert got == want and got[0] is DivergenceError and 0.0 < got[1] < 1.0


def test_solution_csv_roundtrip():
    lift = signature_lift(_line_path(n=9), 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0))
    sol = solve_rde(problem, 0.125)
    buf = io.StringIO()
    sol.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,y1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], sol.times)
    assert np.array_equal(parsed[:, 1:], sol.states)


# ---------------------------------------------------------------- drift


def test_drift_growth_check_dissipative_cubic_passes():
    report = drift_growth_check(DriftSpec(Poly1DField([0.0, 0.0, 0.0, -1.0]), dim=1), 2.0)
    assert report.passed
    assert report.c2 < 1e-8  # no tangential part in one dimension
    assert report.c3 < 0.0


def test_drift_growth_check_explosive_cubic_fails():
    report = drift_growth_check(DriftSpec(Poly1DField([0.0, 0.0, 0.0, 1.0]), dim=1), 2.0)
    assert not report.passed
    assert report.c1_doubled > 2.0 * report.c1 + 0.1


def test_drift_growth_check_zero_and_linear():
    zero = drift_growth_check(DriftSpec(lambda x: np.zeros_like(x), dim=3), 2.0)
    assert zero.passed
    assert zero.c1 == 0.0 and zero.c2 == 0.0 and zero.c3 == 0.0 and zero.c4 == 0.0
    lin = drift_growth_check(DriftSpec(LinearField(-np.eye(2))), 2.0, dim=2)
    assert lin.passed
    assert abs(lin.c3 + 1.0) < 1e-12
    assert abs(lin.c4 - 1.0) < 1e-12
    d = lin.to_json_dict()
    assert d["pass"] and d["samples"] == 2000


def test_drift_growth_check_guards():
    spec = DriftSpec(lambda x: -x, dim=2)
    with pytest.raises(ArgumentError):
        drift_growth_check(spec, -1.0)
    with pytest.raises(ArgumentError):
        drift_growth_check(spec, 2.0, samples=10)
    with pytest.raises(ArgumentError):
        drift_growth_check(DriftSpec(lambda x: -x), 2.0)
    with pytest.raises(ArgumentError):
        DriftSpec(LinearField(-np.eye(2)), dim=2).as_field(3)


def test_pure_drift_exponential_decay():
    # sigma contributes nothing; phi(0, t) x = exp(-t) x
    t = np.linspace(0.0, 1.0, 21)
    lift = signature_lift(PiecewiseLinearPath(t, np.zeros((21, 1))), 2)
    sigma = VectorFieldFamily([ConstantField([0.0])])
    problem = RDEProblem(sigma, lift, np.array([2.0]), (0.0, 1.0))
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-1.0]])), 0.05)
    got = flow.map(0.0, 1.0, np.array([2.0]))[0]
    assert abs(got - 2.0 * math.exp(-1.0)) < 1e-8


def test_doss_sussmann_closed_form():
    # dy = y dx - y dt: y_t = y0 exp(x_t - x_0 - t)
    path = _smooth_path_1d(n=1025, amp=0.4, drift=0.2)
    lift = signature_lift(path, 2)
    sigma = _scalar_family()
    problem = RDEProblem(sigma, lift, np.array([1.25]), (0.0, 1.0))
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-1.0]])), 1e-3)
    for t_end in (0.5, 1.0):
        got = flow.map(0.0, t_end, problem.y0)[0]
        exact = 1.25 * math.exp(path.value(t_end)[0] - path.values[0, 0] - t_end)
        assert abs(got - exact) < 1e-5


def test_drift_matches_joint_euler_taylor_reference():
    # independent reference: one loop doing sigma X1 + (Dsigma sigma) X2 + b dt
    path = _smooth_path_1d(n=1001, amp=0.1, drift=0.2)
    lift = signature_lift(path, 2)
    sigma = _scalar_family()
    y0 = np.array([1.0])
    problem = RDEProblem(sigma, lift, y0, (0.0, 1.0))
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-0.1]])), 1e-3)
    got = flow.map(0.0, 1.0, y0)[0]

    y = 1.0
    dt = 1e-3
    for k in range(1000):
        dx = path.values[k + 1, 0] - path.values[k, 0]
        y = y + y * dx + y * 0.5 * dx * dx - 0.1 * y * dt
    exact = math.exp(path.values[-1, 0] - path.values[0, 0] - 0.1)
    assert abs(got - y) < 1e-4
    assert abs(got - exact) < 1e-4


def test_drift_semiflow_identity():
    path = _smooth_path_1d(n=513, amp=0.3, drift=0.1)
    lift = signature_lift(path, 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0))
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-0.5]])), 2**-6)
    y = np.array([0.8])
    u = float(flow.grid[len(flow.grid) // 2])  # stored sub-interval boundary
    assert np.array_equal(flow.map(u, 1.0, flow.map(0.0, u, y)), flow.map(0.0, 1.0, y))
    through = flow.map(0.33, 1.0, flow.map(0.0, 0.33, y))
    assert np.max(np.abs(through - flow.map(0.0, 1.0, y))) < 1e-6


def test_drift_flow_records_its_jacobian_method():
    path = _smooth_path_1d(n=129, amp=0.3, drift=0.1)
    problem = RDEProblem(_scalar_family(), signature_lift(path, 2), np.array([1.0]), (0.0, 1.0))
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-0.5]])), 2**-5)
    info = flow.meta["jacobian"]
    assert info == {"method": "central_difference", "relative_step": 1e-6}
    y = np.array([0.8])
    _, jac, _ = flow.propagate(0.0, 1.0, y, with_jacobian=True)
    e = info["relative_step"] * (1.0 + abs(y[0]))
    central = (flow.map(0.0, 1.0, y + e) - flow.map(0.0, 1.0, y - e)) / (2 * e)
    assert np.array_equal(jac, central[:, None])
    # two coordinates, so each column has its own step, renormalised every 0.25
    lift = signature_lift(_circle_path(n=65), 2)
    problem = RDEProblem(shear_pair_fields(), lift, np.array([0.2, -0.4]), (0.0, 1.0))
    flow = drift_transform_solve(
        problem, DriftSpec(LinearField(-np.eye(2))), 2**-4, SolverControl(drift_substeps=4)
    )
    y = np.array([0.7, -1.9])
    got = flow.propagate(0.0, 0.5, y, with_jacobian=True, renorm_interval=0.25)
    want = propagate_by_map_differences(flow.map, 0.0, 0.5, y, 0.25)
    assert got[2] != 0.0 and all(np.array_equal(a, b) for a, b in zip(got, want))


def _stage_times(a, b, substeps):
    h = (b - a) / substeps
    times = [a]
    for _ in range(substeps):
        times += [times[-1] + 0.5 * h, times[-1] + h]
    return times


def _raised(call):
    try:
        call()
    except (DivergenceError, NumericalError) as err:
        return type(err), err.details["time"], err.details.get("condition")
    raise AssertionError("no error raised")


def test_drift_stage_propagators_match_stage_reruns():
    # cell-matrix families build each sub-interval's psi(a, u) once; the oracle
    # re-runs psi from a at every RK stage
    c11 = RDEProblem(
        _scalar_family(), signature_lift(_smooth_path_1d(n=1025, amp=0.4, drift=0.2), 2),
        np.array([1.25]), (0.0, 1.0),
    )
    jumpy = RDEProblem(_JUMPY_FAMILIES[0], _jumpy_lift(), np.array([0.4, -0.3]), (0.0, 1.0), p=2.2)
    lin = DriftSpec(LinearField(-np.eye(2)))
    cases = (
        (c11, DriftSpec(LinearField([[-1.0]])), 1e-3, SolverControl(), ((0.0, 0.5), (0.33, 1.0))),
        (_shear_noise_problem(), lin, 5e-3, SolverControl(),
         ((0.0, 0.5), (0.25, 0.75), (0.3712, 0.9101))),
        # rows of the split cells 3 and 10; 0.2 lies inside split cell 3
        (jumpy, lin, 1.0 / 16, SolverControl(drift_substeps=4), ((0.0, 1.0), (0.2, 0.7))),
        (jumpy, DriftSpec(lambda x: -x + 0.1 * x**3, dim=2), 1.0 / 16, SolverControl(),
         ((0.2, 0.7),)),
    )
    for problem, drift, step, control, windows in cases:
        flow = drift_transform_solve(problem, drift, step, control, force=True)
        assert flow.meta["cell_update"]["method"] == "linear_propagator"
        for s, t in windows:
            got = flow.map(s, t, problem.y0)
            assert _close(got, drift_map_by_stage_reruns(problem, drift, step, control, s, t, problem.y0))


def test_stage_propagators_equal_the_runs_jacobians():
    y = np.array([0.3, -0.2])
    for lift, step in ((_shear_noise_problem().lift, 5e-3), (_jumpy_lift(), 1.0 / 16),
                       (_jumpy_lift(scale=3.0), 1.0 / 16)):
        table = _CellTable(lift, _solve_grid((0.0, 1.0), step), _JUMPY_FAMILIES[0], SolverControl())
        for a, b in ((0.0, 0.5), (0.3712, 0.9101), (0.18, 0.22), (0.1, 0.1 + 1e-3)):
            times = _stage_times(a, b, 16)
            mats, growth = _stage_propagators(table, a, times)
            assert growth >= 1.0
            for u, mat in zip(times, mats):
                assert np.array_equal(mat, _run(table, a, u, y, True)[1])


def test_jets_drift_flows_match_stage_reruns_bitwise():
    lift = _jumpy_lift()
    y0 = np.array([0.4, -0.3])
    drift = DriftSpec(LinearField(-np.eye(2)))
    control = SolverControl(drift_substeps=4)
    for sigma in (_JUMPY_FAMILIES[1], _jets_reference(_LANE_MATRICES)):
        problem = RDEProblem(sigma, lift, y0, (0.0, 1.0), p=2.2)
        flow = drift_transform_solve(problem, drift, 1.0 / 16, control)
        assert flow.meta["cell_update"]["method"] == "taylor_jets"
        for s, t in ((0.0, 1.0), (0.2, 0.7)):
            want = drift_map_by_stage_reruns(problem, drift, 1.0 / 16, control, s, t, y0)
            assert np.array_equal(flow.map(s, t, y0), want)


def test_drift_stage_condition_error_matches_stage_reruns():
    problem = _shear_noise_problem()
    drift = DriftSpec(LinearField(-np.eye(2)))
    flow = drift_transform_solve(problem, drift, 5e-3)
    b = float(flow.meta["subdivision"][1])
    times = _stage_times(0.0, b, 16)
    table = _CellTable(problem.lift, _solve_grid((0.0, 1.0), 5e-3), problem.sigma, SolverControl())
    conds = np.linalg.cond(_stage_propagators(table, 0.0, times)[0])
    worst = int(np.argmax(conds))
    control = SolverControl(condition_limit=float(np.nextafter(conds[worst], 0.0)))
    got = _raised(lambda: drift_transform_solve(problem, drift, 5e-3, control).map(0.0, 1.0, problem.y0))
    want = _raised(lambda: drift_map_by_stage_reruns(problem, drift, 5e-3, control, 0.0, 1.0, problem.y0))
    assert got == want == (NumericalError, times[worst], conds[worst])


def test_drift_stage_falls_back_to_stage_reruns_near_the_guard(monkeypatch):
    # psi(0, u) = exp(40 u) leaves the guard 1e8 inside the one sub-interval: the
    # stage reruns psi and halves, as the oracle does, before the DivergenceError
    lift = signature_lift(_line_path(n=129), 2)
    problem = RDEProblem(_scalar_family(((40.0,),)), lift, np.array([1.0]), (0.0, 1.0))
    drift = DriftSpec(LinearField([[-1.0]]))
    control = SolverControl(drift_delta=10.0)
    got = _raised(lambda: drift_transform_solve(problem, drift, 2**-6, control).map(0.0, 1.0, problem.y0))
    want = _raised(lambda: drift_map_by_stage_reruns(problem, drift, 2**-6, control, 0.0, 1.0, problem.y0))
    assert got == want and got[0] is DivergenceError and 0.0 < got[1] < 1.0
    # a guard within the bound's factor 2 of the states reruns psi too, and the map is unchanged
    problem = _shear_noise_problem()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return _run(*args, **kwargs)

    monkeypatch.setattr("roughflow.rde._run", counted)
    lin = DriftSpec(LinearField(-np.eye(2)))
    for limit, reruns in ((1e8, False), (1.0, True)):
        control = SolverControl(blowup_limit=limit)
        flow = drift_transform_solve(problem, lin, 5e-3, control)
        calls.clear()
        got = flow.map(0.0, 0.5, problem.y0)
        subs = sum(1 for c in flow.meta["subdivision"] if 0.0 < c < 0.5) + 1
        assert (len(calls) > subs) == reruns
        assert _close(got, drift_map_by_stage_reruns(problem, lin, 5e-3, control, 0.0, 0.5, problem.y0))


def test_drift_divergence_at_an_earlier_substep_comes_before_a_later_condition_error():
    # one sub-interval [0, 1]: psi(0, u) = diag(exp(-2u), exp(-6u)) grows ill-conditioned,
    # cond = exp(4u) > 40 from u = 0.92 on, while the drift 12 y takes the states past
    # the guard 100 about halfway; every condition is known when the sub-interval starts
    lift = signature_lift(_line_path(n=129), 2)
    sigma = VectorFieldFamily([LinearField([[-2.0, 0.0], [0.0, -6.0]])])
    problem = RDEProblem(sigma, lift, np.array([0.5, 0.5]), (0.0, 1.0))
    drift = DriftSpec(LinearField(12.0 * np.eye(2)))
    runs = {}
    for name, limits in {"both": (100.0, 40.0), "guard": (100.0, 1e12), "condition": (1e30, 40.0)}.items():
        control = SolverControl(blowup_limit=limits[0], condition_limit=limits[1], drift_delta=10.0)
        flow = drift_transform_solve(problem, drift, 2**-6, control, force=True)
        assert len(flow.meta["subdivision"]) == 2
        runs[name] = _raised(lambda: flow.map(0.0, 1.0, problem.y0))
        want = _raised(lambda: drift_map_by_stage_reruns(problem, drift, 2**-6, control, 0.0, 1.0, problem.y0))
        assert runs[name] == want
    assert runs["condition"][0] is NumericalError and runs["guard"][0] is DivergenceError
    assert runs["both"] == runs["guard"]


def test_drift_stage_matrices_are_built_once_per_whole_sub_interval(monkeypatch):
    # sub-intervals between two subdivision bounds keep their stage matrices;
    # a partial first or last sub-interval is built on every call
    problem = _shear_noise_problem()
    lin = DriftSpec(LinearField(-np.eye(2)))
    builds = []

    def counted(table, a, times):
        builds.append(a)
        return _stage_propagators(table, a, times)

    monkeypatch.setattr("roughflow.rde._stage_propagators", counted)
    flow = drift_transform_solve(problem, lin, 5e-3)
    bounds = flow.meta["subdivision"]
    y = problem.y0
    first = flow.map(0.0, 1.0, y)
    assert builds == bounds[:-1].tolist()
    for s, t, partial in ((0.0, 1.0, []), (0.25, 0.75, None), (0.3712, 0.9101, None)):
        if partial is None:  # the two partial ends of the window
            partial = [s, max(c for c in bounds if c < t)]
        want = drift_transform_solve(problem, lin, 5e-3).map(s, t, y)
        for _ in range(2):
            builds.clear()
            assert np.array_equal(flow.map(s, t, y), want)
            assert builds == partial
    assert np.array_equal(first, flow.map(0.0, 1.0, y))
    # errors stay lazy: a memoised singular stage raises on every call, at its own time
    b = float(bounds[1])
    conds = np.linalg.cond(counted(_CellTable(problem.lift, _solve_grid((0.0, 1.0), 5e-3),
                                              problem.sigma, SolverControl()),
                                   0.0, _stage_times(0.0, b, 16))[0])
    control = SolverControl(condition_limit=float(np.nextafter(conds.max(), 0.0)))
    singular = drift_transform_solve(problem, lin, 5e-3, control)
    raised = [_raised(lambda: singular.map(0.0, 1.0, y)) for _ in range(2)]
    assert raised[0] == raised[1] and raised[0][0] is NumericalError


def test_drift_gate_and_force_override():
    lift = signature_lift(_line_path(n=65, span=(0.0, 0.25)), 2)
    sigma = VectorFieldFamily([ConstantField([0.0])])
    problem = RDEProblem(sigma, lift, np.array([0.1]), (0.0, 0.25))
    cubic = DriftSpec(Poly1DField([0.0, 0.0, 0.0, 1.0]), dim=1)
    with pytest.raises(ConfigError):
        drift_transform_solve(problem, cubic, 0.0625)
    flow = drift_transform_solve(problem, cubic, 0.0625, force=True)
    got = flow.map(0.0, 0.25, np.array([0.1]))[0]
    # dy = y^3 dt: y_t = y0 / sqrt(1 - 2 y0^2 t)
    exact = 0.1 / math.sqrt(1.0 - 2.0 * 0.01 * 0.25)
    assert abs(got - exact) < 1e-10


def test_drift_blowup_guard():
    lift = signature_lift(_line_path(n=129), 2)
    sigma = VectorFieldFamily([ConstantField([0.0])])
    problem = RDEProblem(sigma, lift, np.array([2.0]), (0.0, 1.0))
    quad = DriftSpec(Poly1DField([0.0, 0.0, 1.0]), dim=1)
    with pytest.raises(DivergenceError) as info:
        drift_transform_solve(problem, quad, 2**-7, force=True).map(0.0, 1.0, np.array([2.0]))
    assert 0.3 < info.value.details["time"] < 0.7


# ------------------------------------------------------------- cocycle


def _shear_noise_problem():
    t = np.linspace(0.0, 1.0, 1001)
    x = np.stack(
        [0.3 * np.sin(2 * np.pi * t) + 0.2 * t, 0.25 * np.cos(3 * np.pi * t) - 0.25],
        axis=1,
    )
    x -= x[0]
    noise = noise_from_path(PiecewiseLinearPath(t, x), 2, p=2.2)
    return RDEProblem(shear_pair_fields(), noise.omega, np.array([0.2, -0.4]), (0.0, 1.0), p=2.2, noise=noise)


def _flow_with_noise(step=1e-3, drift=None):
    problem = _shear_noise_problem()
    if drift is None:
        return solve_rde(problem, step).flow
    return drift_transform_solve(problem, drift, step)


def test_rds_cocycle_driftless():
    flow = _flow_with_noise(step=1e-3)
    pts = np.array([[0.2, -0.4], [0.5, 0.1], [-0.3, 0.3]])
    res = rds_cocycle_residual(flow, 0.25, 0.75, 0.25, pts)
    assert res < 1e-8
    assert rds_cocycle_residual(flow, 0.25, 0.75, 0.0, pts) == 0.0


def test_rds_cocycle_guards():
    flow = _flow_with_noise(step=1e-2)
    pts = np.array([[0.2, -0.4]])
    with pytest.raises(ArgumentError):
        rds_cocycle_residual(flow, 0.25, 0.75, 0.0037, pts)  # off the solve grid
    with pytest.raises(ArgumentError):
        rds_cocycle_residual(flow, 0.25, 0.9, 0.25, pts)  # shifted window escapes
    lift = signature_lift(_line_path(), 2)
    bare = solve_rde(RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0)), 0.25).flow
    with pytest.raises(ArgumentError):
        rds_cocycle_residual(bare, 0.0, 0.5, 0.25, np.array([[1.0]]))


def test_rds_cocycle_with_drift():
    flow = _flow_with_noise(step=5e-3, drift=DriftSpec(LinearField(-np.eye(2))))
    pts = np.array([[0.2, -0.4], [0.4, 0.3]])
    res = rds_cocycle_residual(flow, 0.0, 0.5, 0.25, pts)
    assert res < 1e-5


FLOW_META_KEYS = {
    "rde": ["kind", "step", "problem", "control", "cell_update"],
    "driver_flow": ["kind", "step", "control", "cell_update"],
    "drift_flow": ["kind", "step", "control", "growth_report", "subdivision", "jacobian", "cell_update"],
}


@pytest.mark.parametrize("family", [shear_pair_fields(), decay_fields(2, 2)], ids=["shear", "decay"])
def test_every_flow_kind_carries_its_meta_and_rebuilds_on_its_noise(family):
    # a two-sided Brownian noise: 193 nodes on [-1.5, 1.5], one per solve step
    noise = noise_from_path(_brownian_path(28, 193, (-1.5, 1.5), dim=2), 2)
    span, step = noise.omega.span, 1.0 / 64
    pts = np.array([[0.2, -0.4], [0.5, 0.1]])
    for carried in (None, noise):
        problem = RDEProblem(family, noise.omega, np.array([0.3, -0.2]), span, noise=carried)
        flows = {
            "rde": solve_rde(problem, step).flow,
            "driver_flow": solve_driver_flow(RoughDriver(family, noise.omega), span, step, noise=carried),
            "drift_flow": drift_transform_solve(problem, DriftSpec(LinearField(-np.eye(2))), step),
        }
        for kind, flow in flows.items():
            assert flow.meta["kind"] == kind
            if carried is None:
                assert list(flow.meta) == FLOW_META_KEYS[kind]
                continue
            assert list(flow.meta) == FLOW_META_KEYS[kind] + ["noise", "rebuild"]
            assert flow.meta["noise"] is noise
            again = flow.meta["rebuild"](noise, flow.span)
            assert np.array_equal(again.map(0.5, 1.0, pts[0]), flow.map(0.5, 1.0, pts[0]))
    driver_flow = flows["driver_flow"]
    assert rds_cocycle_residual(driver_flow, -0.5, 0.75, 0.25, pts) <= 1e-12
    assert rds_cocycle_residual(driver_flow, -0.5, 0.75, 0.0, pts) == 0.0


# ------------------------------------------------------------ Lyapunov


def test_lyapunov_deterministic_decay():
    t = np.linspace(0.0, 60.0, 61)
    lift = signature_lift(PiecewiseLinearPath(t, np.zeros((61, 1))), 2)
    sigma = VectorFieldFamily([ConstantField([0.0])])
    problem = RDEProblem(sigma, lift, np.array([1.0]), (0.0, 60.0))
    control = SolverControl(drift_substeps=4)
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[-1.0]])), 0.5, control)
    est = top_lyapunov_estimate([flow], np.array([1.0]))
    assert abs(est.value + 1.0) < 0.01
    assert est.stderr == 0.0
    assert est.horizon == 60.0 and est.samples == 1


def test_lyapunov_deterministic_growth():
    # genuine exponential growth: raise the magnitude guard deliberately
    t = np.linspace(0.0, 60.0, 61)
    lift = signature_lift(PiecewiseLinearPath(t, np.zeros((61, 1))), 2)
    sigma = VectorFieldFamily([ConstantField([0.0])])
    problem = RDEProblem(sigma, lift, np.array([1.0]), (0.0, 60.0))
    control = SolverControl(blowup_limit=1e30, drift_substeps=4)
    flow = drift_transform_solve(problem, DriftSpec(LinearField([[1.0]])), 0.5, control)
    est = top_lyapunov_estimate([flow], np.array([1.0]))
    assert abs(est.value - 1.0) < 0.01


def test_lyapunov_multiplicative_brownian_near_zero():
    # dy = y o dB has top exponent 0
    flows = []
    span = (0.0, 50.0)
    for seed in range(6):
        path = _brownian_path(seed, 801, span)
        lift = signature_lift(path, 2, p=2.2)
        problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), span, p=2.2)
        flows.append(solve_rde(problem, 0.0625, SolverControl(blowup_limit=1e30)).flow)
    est = top_lyapunov_estimate(flows, np.array([1.0]))
    assert est.samples == 6 and est.stderr > 0.0
    assert abs(est.value) < 3.0 * est.stderr + 0.03


def test_lyapunov_guards():
    with pytest.raises(ArgumentError):
        top_lyapunov_estimate([], np.array([1.0]))
    lift = signature_lift(_line_path(), 2)
    problem = RDEProblem(_scalar_family(), lift, np.array([1.0]), (0.0, 1.0))
    short = solve_rde(problem, 0.25).flow
    with pytest.raises(ArgumentError):
        top_lyapunov_estimate([short], np.array([1.0]))


def _scalar_brownian_flows(seeds, span, step, scale=1.0, dim=1, family=None):
    flows = []
    for seed in seeds:
        nodes = int(round((span[1] - span[0]) / step)) + 1
        lift = signature_lift(_brownian_path(seed, nodes, span, dim=dim, scale=scale), 2, p=2.2)
        y0 = np.full(dim, 0.5)
        problem = RDEProblem(family or _scalar_family(), lift, y0, span, p=2.2)
        flows.append(solve_rde(problem, step, SolverControl(blowup_limit=1e300)).flow)
    return flows


def test_lyapunov_ensemble_equals_the_per_flow_loop():
    # the stacked renormalization gives every member the rate of its own propagate
    c13 = _scalar_brownian_flows(range(1300, 1305), (0.0, 50.0), 2.0**-5)
    pair = VectorFieldFamily([LinearField(a) for a in _LANE_MATRICES])
    planar = _scalar_brownian_flows(range(20, 24), (0.0, 50.0), 1.0 / 16, scale=0.8, dim=2, family=pair)
    t = np.linspace(0.0, 60.0, 61)
    flat = signature_lift(PiecewiseLinearPath(t, np.zeros((61, 1))), 2)
    decay = drift_transform_solve(
        RDEProblem(VectorFieldFamily([ConstantField([0.0])]), flat, np.array([1.0]), (0.0, 60.0)),
        DriftSpec(LinearField([[-1.0]])), 1.0, SolverControl(drift_substeps=2),
    )
    mixed = ([decay] + _scalar_brownian_flows([7], (0.0, 60.0), 1.0 / 16)
             + _scalar_brownian_flows([8], (0.0, 60.0), 1.0 / 32, scale=1.5))
    for flows, x0, renorm_interval in ((c13, [1.0], 1.0), (c13, [1.0], 0.3),
                                       (planar, [1.0, -0.5], 1.0), (mixed, [0.8], 1.0)):
        est = top_lyapunov_estimate(flows, np.array(x0), renorm_interval)
        assert est.per_sample == lyapunov_rates_by_flow(flows, np.array(x0), renorm_interval)
    assert len(set(est.per_sample)) == 3


def _line_growth_flow(rate, y0=1e-30):
    # dy = rate y dx along x(t) = t: psi(0, t) y = exp(rate t) y crosses the
    # guard 1e8 from y = 1 at t = ln(1e8) / rate, far above the solve's own y0
    t = np.linspace(0.0, 60.0, 481)
    lift = signature_lift(PiecewiseLinearPath(t, t[:, None]), 2)
    return solve_rde(RDEProblem(_scalar_family([[rate]]), lift, np.array([y0]), (0.0, 60.0)), 0.125).flow


def test_lyapunov_ensemble_raises_the_earliest_segments_error():
    healthy = _scalar_brownian_flows([1, 2], (0.0, 60.0), 0.125)
    slow, fast, faster = (_line_growth_flow(rate) for rate in (0.5, 1.0, 0.51))
    x0 = np.array([1.0])

    def own(flow):
        return _raised(lambda: flow.propagate(0.0, 60.0, x0, with_jacobian=True, renorm_interval=1.0))

    def ensemble(flows):
        return _raised(lambda: top_lyapunov_estimate(flows, x0))

    assert own(slow)[0] is DivergenceError and 36.0 < own(slow)[1] < 37.0
    assert ensemble([healthy[0], slow, healthy[1]]) == own(slow)
    # fast fails in segment [18, 19], before slow does, though it comes later in the list
    assert ensemble([healthy[0], slow, fast]) == own(fast)
    # slow and faster both fail in segment [36, 37]: list order breaks the tie
    assert own(faster)[1] < own(slow)[1]
    assert ensemble([slow, faster]) == own(slow)
    assert ensemble([faster, slow]) == own(faster)


def test_lyapunov_ensemble_guards():
    scalar = _scalar_brownian_flows([1], (0.0, 60.0), 0.125)
    planar = _scalar_brownian_flows([2], (0.0, 60.0), 0.125, dim=2,
                                    family=VectorFieldFamily([LinearField(a) for a in _LANE_MATRICES]))
    with pytest.raises(ArgumentError, match="dimension"):
        top_lyapunov_estimate(scalar + planar, np.array([1.0]))
    for interval in (0.0, np.nan):
        with pytest.raises(ArgumentError, match="renorm_interval"):
            top_lyapunov_estimate(scalar, np.array([1.0]), renorm_interval=interval)


# -------------------------------------------------- local Taylor remainder


def test_taylor_remainder_exponent_on_rough_driver():
    # single-cell local error against a much finer solve, dyadic span sweep
    p = 2.2
    path = _brownian_path(11, 2**12 + 1, (0.0, 1.0), dim=2, scale=0.5)
    lift = signature_lift(path, 2, p=p)
    sigma = VectorFieldFamily(
        [DecayField([1.0, 0.3], eta=0.5), DecayField([-0.2, 1.0], eta=1.0)]
    )
    y0 = np.array([0.3, -0.2])
    spans = [2.0**-k for k in range(2, 7)]
    anchors = [0.0, 0.25, 0.375, 0.5]
    errors = []
    for span in spans:
        worst = 0.0
        for s in anchors:
            window = (s, s + span)
            fine = solve_rde(
                RDEProblem(sigma, lift, y0, window, p=p), span / 256.0
            ).states[-1]
            one_step = solve_rde(RDEProblem(sigma, lift, y0, window, p=p), span).states[-1]
            worst = max(worst, float(np.max(np.abs(one_step - fine))))
        errors.append(worst)
    slope = np.polyfit(np.log2(spans), np.log2(errors), 1)[0]
    assert slope >= 3.0 / p - 0.1
