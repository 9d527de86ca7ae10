import io
import tracemalloc

import numpy as np
import pytest

from roughflow.errors import ArgumentError
from roughflow.paths import (
    Mollifier,
    PiecewiseLinearPath,
    SampledRoughPath,
    bump_mollifier,
    chen_residual_max,
    geometricity_residual_max,
    glued_pvar_distance,
    homogeneous_pvar_distance,
    mollify,
    p_variation,
    piecewise_linear_projection,
    pvar_norm,
    resample_lift,
    shift_path,
    signature_lift,
)
from roughflow.tensor_algebra import (
    flat_norm,
    geodesic_point,
    group_distance,
    identity_element,
    segment_exponential,
    tensor_inv,
    tensor_mul,
)

from oracles import (
    geometricity_residual_all_pairs,
    homogeneous_pvar_all_pairs,
    pvar_all_pairs,
    pvar_exhaustive,
    riemann_iterated_integrals,
)


def random_path(rng, n_nodes, dim, t0=0.0, t1=1.0):
    times = np.sort(rng.uniform(t0, t1, size=n_nodes - 2))
    times = np.concatenate([[t0], times, [t1]])
    times = np.unique(times)
    values = rng.uniform(-1, 1, size=(times.size, dim))
    return PiecewiseLinearPath(times, values)


# ---------------------------------------------------------------------------
# basic path mechanics
# ---------------------------------------------------------------------------


def test_interpolation_and_constant_extrapolation():
    x = PiecewiseLinearPath([0.0, 1.0, 2.0], [[0.0], [2.0], [1.0]])
    assert x.value(0.5)[0] == pytest.approx(1.0)
    assert x.value(1.5)[0] == pytest.approx(1.5)
    assert x.value(-3.0)[0] == pytest.approx(0.0)
    assert x.value(9.0)[0] == pytest.approx(1.0)


def test_with_nodes_preserves_function():
    rng = np.random.default_rng(0)
    x = random_path(rng, 8, 2)
    y = x.with_nodes([0.123, 0.456, 0.789])
    probes = rng.uniform(0, 1, size=50)
    assert np.allclose(x.value(probes), y.value(probes), atol=1e-14)


def test_csv_and_json_roundtrip():
    x = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
    buf = io.StringIO()
    x.to_csv(buf)
    buf.seek(0)
    y = PiecewiseLinearPath.from_csv(buf)
    assert np.array_equal(x.times, y.times)
    assert np.array_equal(x.values, y.values)
    z = PiecewiseLinearPath.from_json_dict(x.to_json_dict())
    assert np.array_equal(x.values, z.values)


# ---------------------------------------------------------------------------
# signature lift
# ---------------------------------------------------------------------------


def test_lift_of_unit_slope_line():
    x = PiecewiseLinearPath([0.0, 1.0], [[0.0], [1.0]])
    lift = signature_lift(x, 2)
    g = lift.point(1.0)
    assert g.levels[0][0] == pytest.approx(1.0)
    assert g.levels[1][0, 0] == pytest.approx(0.5)
    assert group_distance(lift.point(0.0), identity_element(1, 2)) == 0.0


def test_lift_matches_riemann_oracle_for_l_path():
    x = PiecewiseLinearPath([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    lift = signature_lift(x, 2)
    g = lift.point(2.0)
    assert np.allclose(g.levels[1], [[0.5, 1.0], [0.0, 0.5]], atol=1e-14)
    fine = np.linspace(0, 2, 20001)
    S = riemann_iterated_integrals(x.value(fine), 2)
    assert np.allclose(S[1], g.levels[1], atol=2e-3)


def test_lift_anchoring_and_negative_times():
    x = PiecewiseLinearPath([-1.0, -0.25, 0.5, 1.0], np.array([[0.3], [-0.2], [0.4], [0.1]]))
    lift = signature_lift(x, 3)
    assert group_distance(lift.point(0.0), identity_element(1, 3)) == 0.0
    # increments across 0 equal the lift of the re-based restriction
    sub = signature_lift(PiecewiseLinearPath(x.times + 1.0, x.values), 3)
    inc_a = lift.increment(-1.0, 1.0)
    inc_b = sub.increment(0.0, 2.0)
    assert group_distance(inc_a, inc_b) < 1e-14


def test_lift_span_without_zero_anchors_at_left_end():
    x = PiecewiseLinearPath([1.0, 2.0], [[0.0], [1.0]])
    lift = signature_lift(x, 2)
    assert group_distance(lift.point(1.0), identity_element(1, 2)) == 0.0


def test_chen_relation_exact_by_construction():
    rng = np.random.default_rng(1)
    for dim, level in [(2, 2), (3, 3)]:
        lift = signature_lift(random_path(rng, 12, dim), level)
        assert chen_residual_max(lift) < 1e-13


def test_geometricity_of_lifts():
    rng = np.random.default_rng(2)
    lift = signature_lift(random_path(rng, 16, 3), 2)
    assert geometricity_residual_max(lift) < 1e-12


def test_shift_identity_for_lifted_increments():
    rng = np.random.default_rng(3)
    x = random_path(rng, 10, 2)
    h = float(x.times[4])
    shifted = shift_path(x, h)
    lift = signature_lift(x, 2)
    lift_shifted = signature_lift(shifted, 2)
    for s, t in [(x.times[5], x.times[8]), (x.times[4], x.times[9])]:
        a = lift.increment(s, t)
        b = lift_shifted.increment(s - h, t - h)
        assert group_distance(a, b) < 1e-13


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------


def test_pvar_monotone_path_is_total_variation():
    x = PiecewiseLinearPath([0.0, 0.3, 1.0], [[0.0], [0.3], [1.0]])
    assert p_variation(x, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_pvar_zigzag_values():
    x = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]])
    assert p_variation(x, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert p_variation(x, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_pvar_matches_exhaustive_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        dim = int(rng.integers(1, 3))
        x = random_path(rng, n, dim)
        for p in (1.0, 1.5, 2.0, 2.5):
            assert p_variation(x, p) == pytest.approx(pvar_exhaustive(x.values, p), rel=1e-12)


def test_pvar_nonincreasing_in_p():
    rng = np.random.default_rng(5)
    x = random_path(rng, 20, 2)
    vals = [p_variation(x, p) for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pvar_interval_restriction_interpolates_endpoints():
    x = PiecewiseLinearPath([0.0, 2.0], [[0.0], [2.0]])
    assert p_variation(x, 1.0, interval=(0.25, 0.75)) == pytest.approx(0.5, abs=1e-14)


def test_pvar_requires_p_at_least_one():
    x = PiecewiseLinearPath([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ArgumentError):
        p_variation(x, 0.5)


# ---------------------------------------------------------------------------
# homogeneous distance
# ---------------------------------------------------------------------------


def constant_identity_lift(times, dim, level):
    e = identity_element(dim, level)
    return SampledRoughPath(times, [e] * len(times), 1.0)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(6)
    lift = signature_lift(random_path(rng, 10, 2), 2)
    assert homogeneous_pvar_distance(lift, lift, 2.0) == 0.0


def test_distance_of_unit_line_to_identity():
    x = PiecewiseLinearPath([0.0, 1.0], [[0.0], [1.0]])
    lift = signature_lift(x, 2)
    flat = constant_identity_lift(lift.times, 1, 2)
    d = homogeneous_pvar_distance(lift, flat, 2.0)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert pvar_norm(lift, 2.0) == pytest.approx(d, abs=1e-12)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(7)
    times = np.linspace(0, 1, 9)
    for _ in range(10):
        lifts = [
            signature_lift(PiecewiseLinearPath(times, rng.uniform(-1, 1, (9, 2))), 2)
            for _ in range(3)
        ]
        dxy = homogeneous_pvar_distance(lifts[0], lifts[1], 2.0)
        dyz = homogeneous_pvar_distance(lifts[1], lifts[2], 2.0)
        dxz = homogeneous_pvar_distance(lifts[0], lifts[2], 2.0)
        assert dxz <= dxy + dyz + 1e-12


def test_distance_symmetry():
    rng = np.random.default_rng(8)
    times = np.linspace(0, 1, 7)
    a = signature_lift(PiecewiseLinearPath(times, rng.uniform(-1, 1, (7, 2))), 2)
    b = signature_lift(PiecewiseLinearPath(times, rng.uniform(-1, 1, (7, 2))), 2)
    assert homogeneous_pvar_distance(a, b, 2.0) == pytest.approx(
        homogeneous_pvar_distance(b, a, 2.0), rel=1e-12
    )


def test_distance_resamples_mismatched_grids():
    x = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [0.7], [0.2]])
    lift_coarse = signature_lift(x, 2)
    lift_fine = signature_lift(x.with_nodes([0.25, 0.75]), 2)
    # rounding noise eps in increments surfaces as eps^{1/p} through the outer root
    assert homogeneous_pvar_distance(lift_coarse, lift_fine, 2.0) < 1e-7


def test_glued_distance_zero_for_equal_lifts():
    rng = np.random.default_rng(9)
    lift = signature_lift(random_path(rng, 8, 2, t0=-2.0, t1=2.0), 2)
    assert glued_pvar_distance(lift, lift, 2.0) == 0.0


# ---------------------------------------------------------------------------
# pair sweeps against the all-pairs references
# ---------------------------------------------------------------------------


def window_nodes(times, interval):
    a, b = interval
    return np.where((times >= a - 1e-12) & (times <= b + 1e-12))[0]


@pytest.mark.parametrize(
    "dim,level,n_nodes",
    [(1, 2, 65), (2, 4, 33), (3, 3, 40), (6, 2, 50), (12, 2, 33), (12, 3, 17)],
)
def test_geometricity_matches_all_pairs_sweep(dim, level, n_nodes):
    rng = np.random.default_rng(10 + dim + level)
    lift = signature_lift(random_path(rng, n_nodes, dim, t0=-1.0, t1=1.5), level)
    assert abs(geometricity_residual_max(lift) - geometricity_residual_all_pairs(lift.levels, dim)) <= 1e-12
    # a level-2 offset from node 10 on: only pairs straddling node 10 see it
    levels = [lvl.copy() for lvl in lift.levels]
    levels[1][10:] += 0.05 * rng.normal(size=dim * dim)
    bent = SampledRoughPath.from_levels(lift.times, levels)
    got = geometricity_residual_max(bent)
    assert got > 1e-3
    assert abs(got - geometricity_residual_all_pairs(bent.levels, dim)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 3, 12])
def test_p_variation_equals_all_pairs_programme(dim):
    # 300 nodes: the column blocks split every weight matrix into several blocks
    rng = np.random.default_rng(20 + dim)
    x = random_path(rng, 300, dim, t0=-1.0, t1=1.0)
    for p in (1.0, 2.5):
        assert p_variation(x, p) == pvar_all_pairs(x.values, p)
        window = (-0.3, 0.62)
        assert p_variation(x, p, interval=window) == pvar_all_pairs(x.restrict(*window).values, p)


def test_homogeneous_distance_and_norm_equal_all_pairs_programme():
    rng = np.random.default_rng(30)
    dim, level = 3, 3
    x = random_path(rng, 120, dim, t0=-0.5, t1=1.0)
    fine = signature_lift(x, level)
    other = signature_lift(PiecewiseLinearPath(x.times, rng.uniform(-1, 1, size=x.values.shape)), level)
    coarse = signature_lift(piecewise_linear_projection(x, np.linspace(-0.5, 1.0, 31)), level)
    zeros = [np.zeros_like(lvl) for lvl in fine.levels]
    union = np.union1d(np.round(fine.times, 15), np.round(coarse.times, 15))
    on_union = [resample_lift(lift, union) for lift in (fine, coarse)]
    for p in (1.0, 2.5):
        assert homogeneous_pvar_distance(fine, coarse, p) == homogeneous_pvar_all_pairs(
            on_union[0].levels, on_union[1].levels, dim, p
        )
        assert pvar_norm(fine, p) == homogeneous_pvar_all_pairs(fine.levels, zeros, dim, p)
        for window in [(-0.2, 0.7), (0.1, 1.0)]:
            sel = window_nodes(fine.times, window)
            fine_w = [lvl[sel] for lvl in fine.levels]
            assert homogeneous_pvar_distance(fine, other, p, interval=window) == homogeneous_pvar_all_pairs(
                fine_w, [lvl[sel] for lvl in other.levels], dim, p
            )
            assert pvar_norm(fine, p, interval=window) == homogeneous_pvar_all_pairs(
                fine_w, [lvl[sel] for lvl in zeros], dim, p
            )


def test_pvar_norm_rejects_too_many_nodes():
    x = PiecewiseLinearPath(np.linspace(0.0, 1.0, 4098), np.zeros((4098, 1)))
    with pytest.raises(ArgumentError):
        pvar_norm(signature_lift(x, 2), 2.0)


def traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_sweeps_hold_no_pair_arrays():
    # all-pairs arrays would need 112-230 MiB here (257 nodes with d = 12, 1025 with d = 2)
    rng = np.random.default_rng(40)
    walks = {}
    for n_nodes, dim in [(257, 12), (1025, 2), (1025, 3)]:
        t = np.linspace(0.0, 1.0, n_nodes)
        walks[n_nodes, dim] = PiecewiseLinearPath(t, np.cumsum(rng.normal(scale=0.125, size=(n_nodes, dim)), axis=0))
    for key in [(257, 12), (1025, 2)]:
        path = walks[key]
        lift = signature_lift(path, 2)
        coarse = signature_lift(piecewise_linear_projection(path, np.linspace(0.0, 1.0, 65)), 2)
        assert traced_peak_mib(lambda: geometricity_residual_max(lift)) < 20.0
        assert traced_peak_mib(lambda: homogeneous_pvar_distance(lift, coarse, 2.5)) < 20.0
        assert traced_peak_mib(lambda: pvar_norm(lift, 2.5)) < 20.0
        assert traced_peak_mib(lambda: p_variation(path, 2.5)) < 20.0
    assert traced_peak_mib(lambda: p_variation(walks[1025, 3], 2.5)) < 5.0


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_by_zero_only_rebases():
    rng = np.random.default_rng(10)
    x = random_path(rng, 9, 2)
    y = shift_path(x, 0.0)
    probes = rng.uniform(0, 1, 20)
    assert np.allclose(x.value(probes) - x.value(0.0), y.value(probes), atol=1e-15)


def test_shift_values_and_rebase():
    rng = np.random.default_rng(11)
    x = random_path(rng, 9, 2)
    h = 0.37
    y = shift_path(x, h)
    probes = rng.uniform(-0.3, 0.6, 20)
    assert np.allclose(y.value(probes), x.value(probes + h) - x.value(h), atol=1e-14)
    assert np.allclose(y.value(0.0), 0.0, atol=1e-15)


def test_shift_group_law():
    rng = np.random.default_rng(12)
    x = random_path(rng, 9, 2)
    a, b = 0.21, 0.33
    once = shift_path(x, a + b)
    twice = shift_path(shift_path(x, b), a)
    probes = rng.uniform(-0.5, 0.4, 20)
    assert np.allclose(once.value(probes), twice.value(probes), atol=1e-13)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_bump_mollifier_normalized():
    mu = bump_mollifier(0.25)
    assert mu.support_radius == 0.25
    # construction would have raised if Simpson mass were off by more than 1e-8


def test_mollifier_rejects_bad_density():
    with pytest.raises(ArgumentError):
        Mollifier(lambda u: np.full_like(np.asarray(u, dtype=float), 0.3), 1.0)
    with pytest.raises(ArgumentError):
        Mollifier(lambda u: -np.ones_like(np.asarray(u, dtype=float)), 1.0)


def test_mollify_fixes_linear_paths():
    v = np.array([0.7, -0.4])
    times = np.linspace(-1, 2, 13)
    x = PiecewiseLinearPath(times, times[:, None] * v)
    mu = bump_mollifier(0.5)
    y = mollify(x, mu)
    assert np.allclose(y.values, y.times[:, None] * v, atol=1e-13)
    assert np.allclose(y.value(0.0), 0.0, atol=1e-15)


def test_mollify_vanishes_at_zero_and_converges_with_radius():
    rng = np.random.default_rng(13)
    x = random_path(rng, 25, 2, t0=-1.5, t1=1.5)
    sups = []
    for r in (0.4, 0.2, 0.1):
        y = mollify(x, bump_mollifier(r), interval=(-1.0, 1.0), nodes_per_support=129)
        assert np.allclose(y.value(0.0), 0.0, atol=1e-14)
        probes = np.linspace(-1, 1, 101)
        sups.append(np.max(np.linalg.norm(y.value(probes) - (x.value(probes) - x.value(0.0)), axis=1)))
    assert sups[0] > sups[1] > sups[2]


def test_mollify_commutes_with_grid_aligned_shift():
    # h a breakpoint of x: shifting and smoothing commute exactly at the
    # breakpoints both outputs share
    rng = np.random.default_rng(14)
    x = random_path(rng, 25, 2, t0=-2.0, t1=2.0)
    mu = bump_mollifier(0.3)
    h = float(x.times[13])
    a = shift_path(mollify(x, mu, interval=(-1.5, 1.5)), h)
    b = mollify(shift_path(x, h), mu, interval=(-1.5 - h, 1.5 - h))
    probes = np.array([t - h for t in x.times if -1.2 < t - h < 1.2])
    assert np.max(np.abs(a.value(probes) - b.value(probes))) < 1e-12


def test_mollify_shift_commutation_improves_with_refinement():
    # generic h: the mismatch is the interpolation error of the smoothed path
    # at h, so refining the output grid shrinks it quadratically
    rng = np.random.default_rng(15)
    x = random_path(rng, 17, 1, t0=-2.0, t1=2.0)
    mu = bump_mollifier(0.3)
    h = 0.1234567  # off every grid
    errs = []
    for refine in (1, 4):
        a = shift_path(mollify(x, mu, interval=(-1.5, 1.5), refine=refine), h)
        b = mollify(shift_path(x, h), mu, interval=(-1.5 - h, 1.5 - h), refine=refine)
        probes = np.linspace(-1.2 - h, 1.2 - h, 201)
        errs.append(np.max(np.abs(a.value(probes) - b.value(probes))))
    assert errs[1] < errs[0] / 4


def test_mollify_requires_margin():
    x = PiecewiseLinearPath([-1.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ArgumentError):
        mollify(x, bump_mollifier(0.5), interval=(-0.9, 0.9))


# ---------------------------------------------------------------------------
# projection and resampling
# ---------------------------------------------------------------------------


def test_projection_is_idempotent_on_grid():
    grid = np.linspace(0, 1, 9)
    y = piecewise_linear_projection(lambda t: np.array([t * t]), grid)
    z = piecewise_linear_projection(y, grid)
    assert np.allclose(y.values, z.values, atol=1e-15)
    assert np.allclose(y.values[:, 0], grid**2, atol=1e-15)


def test_projection_rejects_uneven_grid():
    with pytest.raises(ArgumentError):
        piecewise_linear_projection(lambda t: np.array([t]), [0.0, 0.1, 0.5])


def test_projection_commutes_with_aligned_shift():
    rng = np.random.default_rng(16)
    x = random_path(rng, 40, 2, t0=-2.0, t1=2.0)
    delta = 0.25
    grid = np.arange(-8, 9) * delta
    h = 2 * delta
    a = piecewise_linear_projection(shift_path(x, h), np.arange(-8, 7) * delta)
    b = shift_path(piecewise_linear_projection(x, grid), h)
    probes = np.linspace(-1.5, 1.2, 64)
    assert np.max(np.abs(a.value(probes) - b.value(probes))) < 1e-13


def test_resample_lift_exact_at_nodes_and_consistent_between():
    rng = np.random.default_rng(17)
    x = random_path(rng, 6, 2)
    lift = signature_lift(x, 2)
    new_times = np.sort(np.concatenate([lift.times, [0.111, 0.555]]))
    fine = resample_lift(lift, new_times)
    for t in lift.times:
        assert group_distance(fine.point(t), lift.point(t)) == 0.0
    # geodesic points split the bracketing increment multiplicatively
    i = int(np.searchsorted(lift.times, 0.111)) - 1
    t0, t1 = lift.times[i], lift.times[i + 1]
    left = fine.increment(t0, 0.111)
    right = fine.increment(0.111, t1)
    assert group_distance(tensor_mul(left, right), lift.increment(t0, t1)) < 1e-13


def test_resample_lift_matches_exact_lift_within_segment():
    # inside one linear segment the geodesic is the exact signature
    x = PiecewiseLinearPath([0.0, 1.0], [[0.0, 0.0], [2.0, -1.0]])
    lift = signature_lift(x, 2)
    mid = resample_lift(lift, [0.0, 0.4, 1.0]).point(0.4)
    exact = segment_exponential([0.8, -0.4], 2)
    assert group_distance(mid, exact) < 1e-14


def test_resample_lift_matches_scalar_geodesic_off_nodes():
    rng = np.random.default_rng(19)
    lift = signature_lift(random_path(rng, 9, 2, t0=-0.6, t1=0.9), 3)
    off = rng.uniform(-0.6, 0.9, size=12)
    fine = resample_lift(lift, np.union1d(lift.times, off))
    points = lift.points
    for t in off:
        j = int(np.searchsorted(lift.times, t)) - 1
        frac = (t - lift.times[j]) / (lift.times[j + 1] - lift.times[j])
        ref = geodesic_point(points[j], points[j + 1], frac)
        assert group_distance(fine.point(t), ref) <= 1e-12 * flat_norm(ref)


def test_increment_off_node_raises():
    x = PiecewiseLinearPath([0.0, 1.0], [[0.0], [1.0]])
    lift = signature_lift(x, 2)
    with pytest.raises(ArgumentError):
        lift.increment(0.0, 0.3)


def test_sampled_rough_path_json_roundtrip():
    rng = np.random.default_rng(18)
    lift = signature_lift(random_path(rng, 5, 2), 2)
    back = SampledRoughPath.from_json_dict(lift.to_json_dict())
    assert np.array_equal(back.times, lift.times)
    for a, b in zip(back.points, lift.points):
        assert group_distance(a, b) == 0.0


def test_signature_lift_matches_sequential_scalar_products():
    # span straddles 0: running products forward and backward from the anchor
    rng = np.random.default_rng(20)
    x = random_path(rng, 11, 3, t0=-1.3, t1=1.1)
    lift = signature_lift(x, 4)
    anchor = int(np.flatnonzero(lift.times == 0.0)[0])
    assert 0 < anchor < lift.times.size - 1
    values = x.value(lift.times)
    ref = [None] * lift.times.size
    ref[anchor] = identity_element(3, 4)
    for i in range(anchor, lift.times.size - 1):
        ref[i + 1] = tensor_mul(ref[i], segment_exponential(values[i + 1] - values[i], 4))
    for i in range(anchor - 1, -1, -1):
        ref[i] = tensor_mul(ref[i + 1], segment_exponential(values[i] - values[i + 1], 4))
    for got, want in zip(lift.points, ref):
        assert group_distance(got, want) <= 1e-12 * flat_norm(want)


def test_signature_lift_overflow_raises_instead_of_returning_non_finite_levels():
    x = PiecewiseLinearPath([0.0, 1.0, 2.0], [[0.0], [1e100], [0.0]])
    with pytest.raises(ArgumentError):
        signature_lift(x, 4)
