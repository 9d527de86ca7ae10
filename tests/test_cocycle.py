"""Shift maps, cocycle residuals, and stationarity diagnostics."""

import numpy as np
import pytest

from roughflow.cocycle import (
    NoiseRealization,
    ShiftMap,
    StationarityReport,
    cocycle_residual,
    dyadic_noise,
    gaussian_noise,
    noise_distance,
    noise_from_path,
    regenerated_shift,
    shift_omega,
    stationarity_diagnostic,
    weak_cocycle_residual,
    _delta_grid,
)
from roughflow.errors import ArgumentError
from roughflow.gaussian import (
    GaussianSampleConfig,
    brownian_covariance,
    dyadic_lift_sequence,
    fbm_covariance,
    sample_gaussian_path,
    uniform_grid,
)
from roughflow.paths import (
    PiecewiseLinearPath,
    piecewise_linear_projection,
    shift_path,
    signature_lift,
)
from roughflow.tensor_algebra import GroupElement, group_distance, identity_element


def _random_pl_noise(seed=0, nodes=17, dim=2, level=2):
    rng = np.random.default_rng(seed)
    t = np.linspace(-1.0, 1.0, nodes)
    vals = np.cumsum(rng.normal(scale=0.3, size=(nodes, dim)), axis=0)
    vals -= vals[nodes // 2]
    return noise_from_path(PiecewiseLinearPath(t, vals), level, p=2.2)


# ------------------------------------------------------------------ shifts


def test_shift_map_alignment_classification():
    assert ShiftMap.for_spacing(0.25, 0.125).grid_aligned
    assert not ShiftMap.for_spacing(0.1, 0.125).grid_aligned
    combined = ShiftMap(0.25).compose(ShiftMap(0.1, grid_aligned=False))
    assert combined.h == pytest.approx(0.35)
    assert not combined.grid_aligned
    with pytest.raises(ArgumentError):
        ShiftMap.for_spacing(0.1, 0.0)


def test_shift_by_zero_is_identity():
    noise = _random_pl_noise()
    same = shift_omega(noise, 0.0)
    assert noise_distance(noise, same) == 0.0
    assert not same.degraded


def test_shift_group_law_on_aligned_shifts():
    noise = dyadic_noise(brownian_covariance(), level=3, dim=2, seed=4)[0]
    s, t = 0.25, 0.375
    once = shift_omega(noise, s + t)
    twice = shift_omega(shift_omega(noise, t), s)
    assert noise_distance(once, twice) < 1e-12


def test_dyadic_noise_rejects_levels_that_are_not_whole_and_non_negative():
    for level in (1.5, -1, -3):
        with pytest.raises(ArgumentError, match="dyadic level"):
            dyadic_noise(brownian_covariance(), level)


def test_linear_path_realization_is_shift_invariant():
    t = np.linspace(-1.0, 1.0, 17)
    v = np.array([0.7, -0.3])
    noise = noise_from_path(PiecewiseLinearPath(t, np.outer(t, v)), 2)
    shifted = shift_omega(noise, 0.5)
    for probe in np.linspace(-1.0, 0.5, 13):
        gap = group_distance(shifted.omega.point(probe), noise.omega.point(probe))
        assert gap < 1e-13


def test_off_grid_shift_flags_degraded_but_stays_anchored():
    noise = _random_pl_noise(seed=3)
    shifted = shift_omega(noise, 0.1)
    assert shifted.degraded
    anchor = shifted.omega.point(0.0)
    assert group_distance(anchor, identity_element(anchor.dim, anchor.level)) == 0.0
    aligned = shift_omega(noise, 0.25)
    assert not aligned.degraded


def test_shift_window_guard():
    noise = _random_pl_noise()
    with pytest.raises(ArgumentError):
        shift_omega(noise, 0.5, window=(-1.0, 1.0))
    with pytest.raises(ArgumentError):
        shift_omega(noise, 3.0)
    shift_omega(noise, 0.5, window=(-1.0, 0.5))


def test_realization_validation():
    t = np.linspace(0.5, 1.5, 5)
    x = PiecewiseLinearPath(t, np.ones((5, 1)) * t[:, None])
    with pytest.raises(ArgumentError):
        NoiseRealization(signature_lift(x, 2))
    bad_points = [identity_element(1, 2) for _ in range(5)]
    bad_points[2] = GroupElement(1, 2, [np.array([1.0]), np.array([[0.0]])])
    from roughflow.paths import SampledRoughPath

    with pytest.raises(ArgumentError):
        NoiseRealization(SampledRoughPath(np.linspace(-1, 1, 5), bad_points))


# ------------------------------------------------------ cocycle residuals


def test_cocycle_residual_zero_at_s_zero():
    noise = _random_pl_noise(seed=5)
    assert cocycle_residual(noise, 0.0, 0.5) == 0.0


def test_cocycle_residual_vanishes_at_breakpoints():
    noise = _random_pl_noise(seed=6, nodes=17)
    worst = 0.0
    for s in (-0.5, -0.125, 0.25, 0.5):
        for t in (0.125, 0.375, 0.5):
            worst = max(worst, cocycle_residual(noise, s, t))
    assert worst < 1e-13


def test_cocycle_residual_accepts_regenerated_shift():
    noise = _random_pl_noise(seed=7)
    s, t = 0.25, 0.5
    shifted = regenerated_shift(noise, s)
    assert cocycle_residual(noise, s, t, shifted=shifted) < 1e-13


def test_dyadic_brownian_lift_residual_at_rounding_level():
    grid = uniform_grid(-1.0, 1.0, 512)
    config = GaussianSampleConfig(times=grid, dim=2, seed=11)
    sample = sample_gaussian_path(brownian_covariance(), config)
    for lift in dyadic_lift_sequence(sample, levels=[4, 5], level_count=2, p=2.2):
        noise = NoiseRealization(lift, {"dyadic_level": "test"}, path=None)
        spacing = 2.0 ** -4
        worst = 0.0
        for s in np.arange(-0.5, 0.5, spacing):
            worst = max(worst, cocycle_residual(noise, s, 2 * spacing))
        assert worst < 1e-12


def test_regenerated_shift_matches_group_shift_when_aligned():
    noise = _random_pl_noise(seed=8)
    a = shift_omega(noise, 0.25)
    b = regenerated_shift(noise, 0.25)
    assert noise_distance(a, b) < 1e-13


def test_regenerated_shift_is_exact_off_grid():
    noise = _random_pl_noise(seed=9)
    h = 0.1
    reg = regenerated_shift(noise, h)
    x = noise.path
    # regenerated grid nodes sit at data breakpoints minus h
    probes = [(-0.475, 0.275), (0.025, 0.65)]
    flat = [v for pair in probes for v in (pair[0] + h, pair[1] + h)]
    reference = signature_lift(x.with_nodes(flat), 2, p=2.2)
    for s1, t1 in probes:
        left = reg.omega.increment(s1, t1)
        right = reference.increment(s1 + h, t1 + h)
        assert group_distance(left, right) < 1e-13
    # lift nodes coincide with path breakpoints, so the geodesic completion
    # is exact here despite the degraded flag
    geo = shift_omega(noise, h)
    gaps = [
        group_distance(geo.omega.point(t), reg.omega.point(t))
        for t in reg.omega.times
        if -0.9 <= t <= 0.8 and abs(t) > 1e-9
    ]
    assert max(gaps) < 1e-13


def test_geodesic_shift_degrades_on_coarsened_lifts():
    from roughflow.paths import resample_lift

    grid = uniform_grid(-1.0, 1.0, 256)
    sample = sample_gaussian_path(
        brownian_covariance(), GaussianSampleConfig(times=grid, dim=2, seed=31)
    )
    fine = signature_lift(sample, 2, p=2.2)
    coarse = resample_lift(fine, uniform_grid(-1.0, 1.0, 16))
    noise = NoiseRealization(coarse, {}, path=sample)
    h = 0.1
    geo = shift_omega(noise, h)
    reg = regenerated_shift(noise, h)
    assert geo.degraded
    gaps = [
        group_distance(geo.omega.point(t), reg.omega.point(t))
        for t in geo.omega.times
        if -0.85 <= t <= 0.85 and abs(t) > 1e-9
    ]
    assert max(gaps) > 1e-6


def test_regenerated_shift_requires_path():
    noise = _random_pl_noise(seed=10)
    stripped = NoiseRealization(noise.omega, dict(noise.meta), path=None)
    with pytest.raises(ArgumentError):
        regenerated_shift(stripped, 0.25)


# -------------------------------------------------------- weak cocycle


def test_weak_cocycle_exact_at_grid_multiples():
    grid = uniform_grid(-1.0, 1.0, 128)
    sample = sample_gaussian_path(
        brownian_covariance(), GaussianSampleConfig(times=grid, dim=2, seed=14)
    )
    res = weak_cocycle_residual(sample, spacing=0.125, h=0.25, level_count=2)
    assert res < 1e-12


def test_weak_cocycle_breaks_off_grid():
    grid = uniform_grid(-1.0, 1.0, 128)
    sample = sample_gaussian_path(
        brownian_covariance(), GaussianSampleConfig(times=grid, dim=2, seed=14)
    )
    res = weak_cocycle_residual(sample, spacing=0.125, h=0.1, level_count=2)
    assert res > 1e-4


def _weak_cocycle_per_probe(x, spacing, h, p, level_count=2, max_probes=64):
    """Reference: the weak cocycle residual compared one probe at a time."""
    a, b = x.span
    projected = piecewise_linear_projection(x, _delta_grid(a, b, spacing))
    grid_y = _delta_grid(a - h, b - h, spacing)
    shifted = piecewise_linear_projection(shift_path(x, h), grid_y)
    lifted_shift = signature_lift(shifted, level_count, p=p)
    probes = grid_y
    if probes.size > max_probes:
        probes = probes[np.linspace(0, probes.size - 1, max_probes).astype(int)]
    lifted = signature_lift(projected.with_nodes(np.append(probes + h, h)), level_count, p=p)
    return max(
        group_distance(lifted.increment(h, h + s), lifted_shift.point(s)) for s in probes
    )


@pytest.mark.parametrize("h", [0.25, 0.2371], ids=["aligned", "offgrid"])
def test_weak_cocycle_matches_per_probe_loop(h):
    # the bundled fbm_cocycle config: fBm H = 0.4 at level 9, shifts 0.25 and 0.2371
    noise = dyadic_noise(fbm_covariance(0.4), 9, dim=2, seed=5, p=2.6)[0]
    for level in (4, 5, 6, 7):
        spacing = 2.0**-level
        res = weak_cocycle_residual(noise.path, spacing, h, p=2.6)
        ref = _weak_cocycle_per_probe(noise.path, spacing, h, p=2.6)
        assert abs(res - ref) <= 1e-12


def test_weak_cocycle_guards():
    grid = uniform_grid(-1.0, 1.0, 16)
    sample = sample_gaussian_path(
        brownian_covariance(), GaussianSampleConfig(times=grid, dim=1, seed=2)
    )
    with pytest.raises(ArgumentError):
        weak_cocycle_residual(sample, spacing=-0.1, h=0.25)
    with pytest.raises(ArgumentError):
        weak_cocycle_residual(sample, spacing=0.125, h=5.0)


# -------------------------------------------------------- stationarity


def test_stationarity_passes_for_fbm():
    grid = uniform_grid(-1.0, 3.0, 32)
    config = GaussianSampleConfig(times=grid, dim=2, seed=23)
    samples = gaussian_noise(fbm_covariance(0.4), config, level_count=2, count=150)
    report = stationarity_diagnostic(samples, anchors=[-1.0, 0.0, 2.0], window=1.0)
    assert report.passed
    assert report.statistic < 1.0
    doc = report.to_json_dict()
    assert set(doc) >= {"anchors", "window", "statistic", "threshold", "pass"}


def test_stationarity_fails_for_deterministic_quadratic():
    t = np.linspace(-1.0, 3.0, 33)
    x = PiecewiseLinearPath(t, np.column_stack([t ** 2, t ** 2 + t]))
    samples = [noise_from_path(x, 2) for _ in range(120)]
    report = stationarity_diagnostic(samples, anchors=[0.0, 1.0], window=1.0)
    assert not report.passed
    assert report.statistic == pytest.approx(1.0)


def test_stationarity_identical_anchor_is_trivially_stationary():
    t = np.linspace(-1.0, 3.0, 33)
    x = PiecewiseLinearPath(t, np.column_stack([t ** 2, np.sin(t)]))
    samples = [noise_from_path(x, 2) for _ in range(120)]
    report = stationarity_diagnostic(samples, anchors=[0.5, 0.5], window=1.0)
    assert report.passed
    assert report.statistic == 0.0


def test_stationarity_requires_enough_samples():
    noise = _random_pl_noise()
    with pytest.raises(ArgumentError):
        stationarity_diagnostic([noise] * 10, anchors=[0.0], window=0.5)


def test_stationarity_anchor_window_guard():
    grid = uniform_grid(-1.0, 1.0, 16)
    config = GaussianSampleConfig(times=grid, dim=1, seed=3)
    samples = gaussian_noise(brownian_covariance(), config, count=100)
    with pytest.raises(ArgumentError):
        stationarity_diagnostic(samples, anchors=[0.5], window=1.0)
