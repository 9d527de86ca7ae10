"""Vector-field families, rough drivers, and their structural checks."""

import numpy as np
import pytest

from oracles import (
    driver_loops,
    fd_jacobian,
    field_hessian_loop,
    field_jacobian_loop,
    leibniz_residual_loops,
    second_order_action_loop,
)
from roughflow.cocycle import NoiseRealization, noise_from_path
from roughflow.drivers import (
    BoxSpec,
    CallableField,
    ConstantField,
    DecayField,
    LinearField,
    Poly1DField,
    VectorFieldFamily,
    corrupt_driver_cell,
    decay_fields,
    decaying_linear_fields,
    driver_additivity_residual,
    driver_chen_residual,
    driver_cocycle_residual,
    driver_from_rough_path,
    driver_leibniz_residual,
    driver_norm,
    gaussian_driver,
    lie_bracket,
    make_field_family,
    rotation_fields,
    scalar_polynomial_fields,
    series_vector_part,
    shear_pair_fields,
)
from roughflow.errors import ArgumentError, NumericalError
from roughflow.paths import PiecewiseLinearPath, piecewise_linear_projection, signature_lift
from roughflow.tensor_algebra import GroupElement


def _brownian_lift(seed=0, nodes=17, dim=2, span=(0.0, 1.0), scale=0.3, p=2.2):
    rng = np.random.default_rng(seed)
    t = np.linspace(span[0], span[1], nodes)
    vals = np.cumsum(rng.normal(scale=scale, size=(nodes, dim)), axis=0)
    return signature_lift(PiecewiseLinearPath(t, vals), 2, p=p)


def _fd_bracket(f, g, x, eps=1e-5):
    jf = fd_jacobian(lambda z: f.value(z), x, eps)
    jg = fd_jacobian(lambda z: g.value(z), x, eps)
    return jg @ f.value(x) - jf @ g.value(x)


# ----------------------------------------------------------------- brackets


def test_bracket_of_constants_is_zero():
    f = ConstantField([1.0, 2.0])
    g = ConstantField([3.0, -1.0])
    pts = np.random.default_rng(0).uniform(-2, 2, size=(7, 2))
    br = lie_bracket(f, g)
    assert np.all(br.value(pts) == 0.0)
    assert np.all(br.jacobian(pts) == 0.0)


def test_bracket_of_linear_fields_matches_commutator():
    a = LinearField([[0.0, 1.0], [0.0, 0.0]])
    b = LinearField([[0.0, 0.0], [1.0, 0.0]])
    br = lie_bracket(a, b)
    comm = np.array([[-1.0, 0.0], [0.0, 1.0]])  # BA - AB
    rng = np.random.default_rng(1)
    for x in rng.uniform(-2, 2, size=(10, 2)):
        assert np.allclose(br.value(x), comm @ x, atol=1e-12)
        assert np.max(np.abs(br.value(x) - _fd_bracket(a, b, x))) < 1e-6


def test_bracket_is_antisymmetric():
    f = DecayField([1.0, -0.5], eta=1.2, scale=0.8)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(6, 2))
    assert np.all(lie_bracket(f, f).value(pts) == 0.0)
    g = LinearField([[0.2, -1.0], [0.6, 0.1]])
    fg = lie_bracket(f, g).value(pts)
    gf = lie_bracket(g, f).value(pts)
    assert np.allclose(fg, -gf, atol=1e-14)


def test_bracket_jacobian_matches_finite_differences():
    f = DecayField([1.0, -0.5], eta=1.2, scale=0.8)
    g = LinearField([[0.2, -1.0], [0.6, 0.1]])
    br = lie_bracket(f, g)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1.5, 1.5, size=(5, 2)):
        fd = fd_jacobian(lambda z: br.value(z), x)
        assert np.max(np.abs(br.jacobian(x) - fd)) < 1e-6


def test_fd_fallback_matches_analytic_derivatives():
    exact = DecayField([0.7, 0.4], eta=0.9, scale=1.3)
    fallback = CallableField(exact.value, 2)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-2, 2, size=(4, 2)):
        assert np.max(np.abs(fallback.jacobian(x) - exact.jacobian(x))) < 1e-8
        assert np.max(np.abs(fallback.hessian(x) - exact.hessian(x))) < 1e-4
    batch = rng.uniform(-2, 2, size=(3, 4, 2))
    assert np.array_equal(fallback.jacobian(batch), field_jacobian_loop(fallback, batch))
    assert np.array_equal(fallback.hessian(batch), field_hessian_loop(fallback, batch))


def test_polynomial_field_derivatives():
    f = Poly1DField([0.0, 1.0, -0.5, 2.0])  # x - x^2/2 + 2x^3
    x = np.array([0.7])
    assert f.value(x)[0] == pytest.approx(0.7 - 0.245 + 2 * 0.343)
    assert f.jacobian(x)[0, 0] == pytest.approx(1.0 - 0.7 + 6 * 0.49)
    assert f.hessian(x)[0, 0, 0] == pytest.approx(-1.0 + 12 * 0.7)


# ------------------------------------------------------------ field families


def test_family_rejects_mixed_dimensions():
    with pytest.raises(ArgumentError):
        VectorFieldFamily([ConstantField([1.0, 0.0]), ConstantField([1.0])])


def test_family_rejects_bad_smoothness_and_decay():
    with pytest.raises(ArgumentError):
        VectorFieldFamily([ConstantField([1.0])], gamma=1.5)
    with pytest.raises(ArgumentError):
        VectorFieldFamily([ConstantField([1.0])], kappa=-1.0)


def test_family_rejects_non_finite_field():
    bad = CallableField(lambda x: x / x[..., :1], 2)  # blows up on the x1 = 0 axis
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ArgumentError):
            VectorFieldFamily([bad])


def test_component_norms_and_tail_ratio_decay():
    fam = decaying_linear_fields(6, 2, decay=0.5, seed=0)
    norms = fam.component_norms()
    assert np.all(norms[:-1] >= norms[1:] * 0.99)
    assert fam.tail_ratio() < 0.2
    assert fam.truncate(3).tail_ratio() > fam.tail_ratio()
    with pytest.raises(ArgumentError):
        fam.truncate(7)


def test_field_family_registry():
    fam = make_field_family("rotation", count=3, decay=0.5)
    assert len(fam) == 3 and fam.dim == 2
    with pytest.raises(ArgumentError):
        make_field_family("unknown_family")


def _stacked(fam, x):
    return (
        np.stack([f.value(x) for f in fam.fields], axis=-2),
        np.stack([f.jacobian(x) for f in fam.fields], axis=-3),
        np.stack([f.hessian(x) for f in fam.fields], axis=-4),
    )


def test_linear_family_jets_match_per_field_stacking():
    fam = decaying_linear_fields(5, 3, decay=0.5, seed=2)
    x = np.random.default_rng(3).normal(size=(7, 3))
    for pts in (x, x[0]):
        vals, jacs, hess = fam.jets(pts, hessians=True)
        want_vals, want_jacs, want_hess = _stacked(fam, pts)
        assert vals.shape == want_vals.shape and jacs.shape == want_jacs.shape
        np.testing.assert_allclose(vals, want_vals, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(jacs, want_jacs)
        # Hessians of linear fields vanish: the family reports none
        assert hess is None and not np.any(want_hess)
    assert fam.jets(x[0])[2] is None


def test_mixed_family_jets_take_per_field_path():
    fam = VectorFieldFamily(
        [LinearField([[0.3, -1.0], [0.5, 0.2]]), DecayField([1.0, -0.4], eta=0.7, scale=0.9)]
    )
    x = np.random.default_rng(4).normal(size=(6, 2))
    for pts in (x, x[0]):
        got = fam.jets(pts, hessians=True)
        for g, want in zip(got, _stacked(fam, pts)):
            np.testing.assert_array_equal(g, want)
        vals, jacs, hess = fam.jets(pts)
        assert hess is None
        np.testing.assert_array_equal(vals, got[0])
        np.testing.assert_array_equal(jacs, got[1])


# -------------------------------------------------------- driver construction


def test_single_field_driver_has_no_vector_part():
    lift = _brownian_lift(seed=5, dim=1)
    driver = driver_from_rough_path(VectorFieldFamily([Poly1DField([0.0, 1.0])]), lift)
    pts = np.linspace(-2, 2, 9)[:, None]
    grid = lift.times
    for s, t in [(grid[0], grid[-1]), (grid[3], grid[10])]:
        assert np.all(driver.W(s, t, pts) == 0.0)
        assert np.all(driver.DW(s, t, pts) == 0.0)


def test_commuting_fields_give_zero_vector_part():
    sigma = VectorFieldFamily([ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0])])
    driver = driver_from_rough_path(sigma, _brownian_lift(seed=6))
    pts = np.random.default_rng(6).uniform(-3, 3, size=(8, 2))
    assert np.all(driver.W(0.0, 1.0, pts) == 0.0)


def test_l_path_driver_against_hand_computed_vector_part():
    # L-path: right then up; area pairing two[1,2] - two[2,1] = 1.
    lpath = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0, 0], [1, 0], [1, 1]])
    driver = driver_from_rough_path(shear_pair_fields(), signature_lift(lpath, 2))
    comm = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])
    for x in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -0.25)]:
        x = np.array(x)
        assert np.allclose(driver.W(0.0, 1.0, x), comm @ x, atol=1e-14)
        assert np.allclose(
            driver.V(0.0, 1.0, x), np.array([[0.0, 1.0], [1.0, 0.0]]) @ x, atol=1e-14
        )


def test_gaussian_driver_matches_rough_path_driver():
    lift = _brownian_lift(seed=7)
    pts = np.random.default_rng(7).uniform(-2, 2, size=(6, 2))
    grid = lift.times
    for sigma in (rotation_fields(2, decay=0.7), decay_fields(2, 2, eta=1.0, seed=7)):
        direct = driver_from_rough_path(sigma, lift)
        series = gaussian_driver(sigma, lift, truncation=2)
        for s, t in [(grid[0], grid[8]), (grid[2], grid[14])]:
            assert np.max(np.abs(direct.V(s, t, pts) - series.V(s, t, pts))) < 1e-10
            assert np.max(np.abs(direct.W(s, t, pts) - series.W(s, t, pts))) < 1e-10
            # the literal double-sum route must agree with the pair form
            assert np.max(np.abs(series_vector_part(direct, s, t, pts) - direct.W(s, t, pts))) < 1e-12


def test_single_term_series_has_zero_vector_part():
    lift = _brownian_lift(seed=8, dim=3)
    sigma = decaying_linear_fields(3, 2, seed=8)
    driver = gaussian_driver(sigma, lift, truncation=1)
    pts = np.random.default_rng(8).uniform(-2, 2, size=(5, 2))
    assert np.all(driver.W(0.0, 1.0, pts) == 0.0)


def test_driver_scaling_in_the_path():
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, 17)
    vals = np.cumsum(rng.normal(scale=0.3, size=(17, 2)), axis=0)
    sigma = shear_pair_fields()
    base = driver_from_rough_path(sigma, signature_lift(PiecewiseLinearPath(t, vals), 2))
    c = 1.7
    scaled = driver_from_rough_path(sigma, signature_lift(PiecewiseLinearPath(t, c * vals), 2))
    pts = rng.uniform(-2, 2, size=(6, 2))
    for s, u in [(0.0, 0.5), (0.25, 0.875)]:
        assert np.allclose(scaled.V(s, u, pts), c * base.V(s, u, pts), rtol=1e-12, atol=1e-13)
        assert np.allclose(scaled.W(s, u, pts), c * c * base.W(s, u, pts), rtol=1e-12, atol=1e-13)


def test_driver_rejects_dimension_mismatch():
    with pytest.raises(ArgumentError):
        driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=10, dim=3))


def test_driver_rejects_non_geometric_lift():
    lift = _brownian_lift(seed=11)
    points = list(lift.points)
    lvl1, lvl2 = points[5].levels
    points[5] = GroupElement(2, 2, [lvl1, lvl2 + np.array([[0.1, 0.0], [0.0, 0.0]])])
    from roughflow.paths import SampledRoughPath

    broken = SampledRoughPath(lift.times, points, lift.p)
    with pytest.raises(ArgumentError):
        driver_from_rough_path(shear_pair_fields(), broken)


def test_driver_rejects_bad_regularity_parameters():
    lift = _brownian_lift(seed=12)
    with pytest.raises(ArgumentError):
        driver_from_rough_path(shear_pair_fields(), lift, p=3.2)
    with pytest.raises(ArgumentError):
        driver_from_rough_path(shear_pair_fields(), lift, p=2.5, rho=0.4)


def _oracle_families():
    return {
        "linear": decaying_linear_fields(12, 2, decay=0.5, seed=8),
        "decay": decay_fields(3, 2, eta=1.0, seed=7),
        "poly": scalar_polynomial_fields([[0.0, 1.0, -0.5, 2.0], [0.3, 0.0, 1.0], [1.0, -1.0, 0.0, 0.2]]),
        "mixed": VectorFieldFamily(
            [
                LinearField([[0.2, -0.5], [0.4, 0.1]]),
                DecayField([-0.2, 1.0], eta=1.0, scale=0.8),
                ConstantField([0.6, -0.3]),
            ]
        ),
    }


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", ["linear", "decay", "poly", "mixed"])
def test_driver_jets_match_per_field_loops(name, level):
    sigma = _oracle_families()[name]
    n, m = len(sigma), sigma.dim
    rng = np.random.default_rng(30)
    t = np.linspace(0.0, 1.0, 17)
    path = PiecewiseLinearPath(t, np.cumsum(rng.normal(scale=0.3, size=(17, n)), axis=0))
    driver = driver_from_rough_path(sigma, signature_lift(path, level, p=2.2))
    a = np.linspace(0.3, 0.7, m)

    def grad(z):
        return np.cos(z @ a)[..., None] * a

    def hess(z):
        return -np.sin(z @ a)[..., None, None] * np.outer(a, a)

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    grid = driver.grid
    for x in (rng.uniform(-2, 2, size=m), rng.uniform(-2, 2, size=(3, 4, m))):
        for s, u in [(grid[0], grid[-1]), (grid[3], grid[10]), (grid[12], grid[5])]:
            one, two = driver.increment(s, u)
            want = driver_loops(sigma.fields, one, two, x)
            for op in ("V", "DV", "D2V", "W", "DW"):
                close(getattr(driver, op)(s, u, x), want[op])
            close(
                driver.second_order_action(s, u, grad, hess, x),
                second_order_action_loop(sigma.fields, two, grad, hess, x),
            )


def test_driver_evaluation_builds_no_group_elements(monkeypatch):
    sigma = decay_fields(3, 2, eta=1.0, seed=31)
    lift = _brownian_lift(seed=31, dim=3)
    noise = _pl_noise(seed=31, dim=3)
    pts = np.random.default_rng(31).uniform(-2, 2, size=(5, 2))
    built = []
    init = GroupElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counting_init)
    grid = lift.times
    for driver in (driver_from_rough_path(sigma, lift), gaussian_driver(sigma, lift, truncation=2)):
        for s, u in [(grid[0], grid[-1]), (grid[3], grid[10])]:
            for op in (driver.V, driver.W, driver.DW):
                op(s, u, pts)
    driver_cocycle_residual(sigma, noise, 0.25, 0.0, 0.5, pts)
    driver_cocycle_residual(sigma, noise, 0.3, 0.1, 0.45, pts)
    assert built == []
    lift.increment(grid[0], grid[4])  # the counter itself sees the view the lift builds
    assert len(built) == 1


# --------------------------------------------------- truncation and decay


def test_truncation_tail_shrinks_geometrically():
    rng = np.random.default_rng(13)
    t = np.linspace(0.0, 1.0, 65)
    vals = np.cumsum(rng.normal(scale=0.25, size=(65, 12)), axis=0)
    lift = signature_lift(PiecewiseLinearPath(t, vals), 2, p=2.5)
    sigma = decaying_linear_fields(12, 2, decay=0.5, seed=13)
    pts = rng.uniform(-2, 2, size=(10, 2))
    windows = [(0.0, 0.5), (0.25, 1.0), (0.0, 1.0)]

    def tail_gap(k):
        small = gaussian_driver(sigma, lift, truncation=k)
        large = gaussian_driver(sigma, lift, truncation=k + 4)
        worst = 0.0
        for s, u in windows:
            worst = max(worst, float(np.max(np.abs(large.V(s, u, pts) - small.V(s, u, pts)))))
            worst = max(worst, float(np.max(np.abs(large.W(s, u, pts) - small.W(s, u, pts)))))
        return worst

    gap4, gap8 = tail_gap(4), tail_gap(8)
    assert gap8 < gap4 / 8.0


def test_tail_ratio_guard_rejects_growing_series():
    growing = VectorFieldFamily(
        [LinearField(np.eye(2)), LinearField(2.0 * np.eye(2))]
    )
    with pytest.raises(NumericalError):
        gaussian_driver(growing, _brownian_lift(seed=14), truncation=2)
    with pytest.raises(ArgumentError):
        gaussian_driver(growing, _brownian_lift(seed=14), truncation=5)


def test_decaying_fields_give_spatially_decaying_vector_part():
    sigma = decay_fields(3, 2, eta=1.0, kappa=1.0, decay=0.5, seed=15)
    lift = _brownian_lift(seed=15, dim=3)
    driver = gaussian_driver(sigma, lift, truncation=3)
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    bounds = []
    for radius in (1.0, 2.0, 4.0, 8.0):
        w = driver.W(0.0, 1.0, radius * circle)
        bounds.append(float(np.max(np.abs(w))) * (1.0 + radius ** (2 * sigma.eta)))
    assert max(bounds) <= 2.0 * bounds[0]
    assert bounds[-1] < bounds[0]


# -------------------------------------------------------------- driver norm


def test_zero_driver_has_zero_norm():
    lift = signature_lift(
        PiecewiseLinearPath(np.linspace(0, 1, 9), np.linspace(0, 1, 9)[:, None]), 2
    )
    sigma = VectorFieldFamily([ConstantField([0.0, 0.0])])
    assert driver_norm(driver_from_rough_path(sigma, lift, p=2.0)) == 0.0


def test_constant_field_norm_closed_form():
    # x_t = t, sigma = v constant: V_{s,t} = (t-s) v, W = 0, so the norm is
    # max |v|_inf (t-s)^{1 - 1/p} = |v|_inf at p = 2 over the unit interval.
    lift = signature_lift(
        PiecewiseLinearPath(np.linspace(0, 1, 9), np.linspace(0, 1, 9)[:, None]), 2
    )
    sigma = VectorFieldFamily([ConstantField([0.6, -0.2])])
    value, resolution = driver_norm(
        driver_from_rough_path(sigma, lift, p=2.0), detail=True
    )
    assert value == pytest.approx(0.6, rel=1e-12)
    assert resolution["nodes_per_axis"] == 17 and resolution["p"] == 2.0


def test_norm_homogeneity_under_field_scaling():
    lift = _brownian_lift(seed=16)
    mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    one = driver_from_rough_path(VectorFieldFamily([LinearField(m) for m in mats]), lift)
    two = driver_from_rough_path(
        VectorFieldFamily([LinearField(2.0 * m) for m in mats]), lift
    )
    box = BoxSpec(radius=3.0, nodes_per_axis=9, seed=1)
    assert driver_norm(two, box=box) == pytest.approx(2.0 * driver_norm(one, box=box), rel=1e-10)


def test_norm_rejects_degenerate_interval():
    driver = driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=17))
    with pytest.raises(ArgumentError):
        driver_norm(driver, interval=(0.4999, 0.5001))


# ------------------------------------------------- Chen, additivity, Leibniz


def test_chen_residual_small_on_random_probes():
    driver = driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=18))
    grid = driver.grid
    rng = np.random.default_rng(18)
    for _ in range(100):
        i, j, k = np.sort(rng.choice(grid.size, size=3, replace=False))
        pts = rng.uniform(-3, 3, size=(4, 2))
        assert driver_chen_residual(driver, grid[i], grid[j], grid[k], pts) < 1e-8
        assert driver_additivity_residual(driver, grid[i], grid[j], grid[k], pts) < 1e-10


def test_chen_residual_degenerate_split():
    driver = driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=19))
    pts = np.random.default_rng(19).uniform(-2, 2, size=(5, 2))
    assert driver_chen_residual(driver, 0.0, 0.0, 0.5, pts) < 1e-12
    assert driver_chen_residual(driver, 0.0, 0.5, 0.5, pts) < 1e-12


def test_corrupted_cell_is_detected_by_chen():
    driver = driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=20))
    grid = driver.grid
    s0, u, t0 = grid[2], grid[7], grid[12]
    bad = corrupt_driver_cell(driver, s0, t0, [0.01, -0.006])
    pts = np.random.default_rng(20).uniform(-2, 2, size=(5, 2))
    assert driver_chen_residual(bad, s0, u, t0, pts) > 1e-3
    # away from the corrupted cell the driver is untouched
    assert driver_chen_residual(bad, grid[3], grid[5], grid[11], pts) < 1e-8


def test_vector_part_satisfies_leibniz_rule():
    drivers = [
        driver_from_rough_path(shear_pair_fields(), _brownian_lift(seed=21)),
        gaussian_driver(
            decay_fields(3, 2, eta=1.0, seed=21), _brownian_lift(seed=22, dim=3), 3
        ),
    ]
    pts = np.random.default_rng(21).uniform(-1.5, 1.5, size=(6, 2))
    for driver in drivers:
        got = driver_leibniz_residual(driver, 0.0, 0.625, pts)
        assert got < 1e-6
        assert got == leibniz_residual_loops(driver, 0.0, 0.625, pts)


# ------------------------------------------------------------ driver cocycle


def _pl_noise(seed=0, nodes=17, dim=2):
    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, nodes)
    vals = np.cumsum(rng.normal(scale=0.3, size=(nodes, dim)), axis=0)
    return noise_from_path(PiecewiseLinearPath(t, vals), 2, p=2.2)


def test_driver_cocycle_exact_on_aligned_shifts():
    noise = _pl_noise(seed=23)
    sigma = shear_pair_fields()
    pts = np.random.default_rng(23).uniform(-2, 2, size=(5, 2))
    assert driver_cocycle_residual(sigma, noise, 0.25, 0.0, 0.5, pts) < 1e-10
    assert driver_cocycle_residual(sigma, noise, -0.375, 0.125, 0.625, pts) < 1e-10


def test_driver_cocycle_zero_shift():
    noise = _pl_noise(seed=24)
    pts = np.random.default_rng(24).uniform(-2, 2, size=(4, 2))
    assert driver_cocycle_residual(shear_pair_fields(), noise, 0.0, 0.0, 0.5, pts) == 0.0


def test_driver_cocycle_group_shift_exact_even_off_grid():
    # left conjugation preserves increments, so the group-shift route is a
    # consistency identity at any h; the projection error needs regeneration
    noise = _pl_noise(seed=25)
    pts = np.random.default_rng(25).uniform(-2, 2, size=(4, 2))
    assert driver_cocycle_residual(shear_pair_fields(), noise, 0.3, 0.1, 0.45, pts) < 1e-10


def test_driver_cocycle_refinement_sweep():
    # multiscale data, drivers built on coarser dyadic lifts: the
    # regenerated-shift residual measures projection error and shrinks
    fine_t = np.linspace(-1.0, 1.0, 2 ** 11 + 1)
    ks = np.arange(0, 11)
    amps = 2.0 ** (-0.6 * ks)
    x1 = (amps * np.sin(np.outer(fine_t, 2.0 ** ks) + 0.3)).sum(axis=1)
    x2 = (amps * np.cos(np.outer(fine_t, 2.0 ** ks) - 0.7)).sum(axis=1)
    fine = PiecewiseLinearPath(fine_t, np.column_stack([x1, x2]))
    sigma = shear_pair_fields()
    pts = np.random.default_rng(26).uniform(-2, 2, size=(4, 2))
    probes = [(0.3, 0.125, 0.375), (0.3, -0.5, 0.0), (-0.41, 0.125, 0.625)]
    residuals = []
    for level in range(4, 9):
        grid = np.linspace(-1.0, 1.0, 2 ** (level + 1) + 1)
        lift = signature_lift(piecewise_linear_projection(fine, grid), 2, p=2.5)
        noise = NoiseRealization(lift, {}, fine)
        residuals.append(
            max(
                driver_cocycle_residual(sigma, noise, h, s, t, pts, regenerate=True)
                for h, s, t in probes
            )
        )
    assert all(r > 1e-8 for r in residuals)
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < residuals[0] / 3.0


def test_driver_cocycle_span_violation():
    noise = _pl_noise(seed=27)
    pts = np.zeros((1, 2))
    with pytest.raises(ArgumentError):
        driver_cocycle_residual(shear_pair_fields(), noise, 0.25, 0.5, 0.9, pts)
