import itertools

import numpy as np
import pytest

from roughflow.errors import ArgumentError
from roughflow.tensor_algebra import (
    MAX_LEVEL,
    GroupElement,
    batch_distance,
    batch_from_elements,
    batch_inv,
    batch_mul,
    flat_norm,
    geodesic_point,
    group_distance,
    group_exp,
    group_log,
    homogeneous_gauge,
    identity_element,
    segment_exponential,
    tensor_inv,
    tensor_mul,
)

from oracles import (
    riemann_iterated_integrals,
    segment_exponential_loop,
    tensor_inv_loop,
    tensor_mul_loop,
)


def random_element(rng, dim, level, scale=1.0):
    levels = [scale * rng.uniform(-1, 1, size=(dim,) * k) for k in range(1, level + 1)]
    return GroupElement(dim, level, levels)


def test_mul_scalar_example():
    # d=1, N=2: (1, 1, 0.5) (x) (1, 2, 2) = (1, 3, 4.5)
    g = GroupElement(1, 2, [[1.0], [0.5]])
    h = GroupElement(1, 2, [[2.0], [2.0]])
    gh = tensor_mul(g, h)
    assert gh.levels[0][0] == pytest.approx(3.0, abs=1e-15)
    assert gh.levels[1][0, 0] == pytest.approx(4.5, abs=1e-15)


def test_identity_neutral():
    rng = np.random.default_rng(0)
    g = random_element(rng, 3, 3)
    e = identity_element(3, 3)
    assert group_distance(tensor_mul(g, e), g) == 0.0
    assert group_distance(tensor_mul(e, g), g) == 0.0


def test_inverse_scalar_example():
    g = GroupElement(1, 2, [[1.0], [0.5]])
    inv = tensor_inv(g)
    assert inv.levels[0][0] == pytest.approx(-1.0, abs=1e-15)
    assert inv.levels[1][0, 0] == pytest.approx(0.5, abs=1e-15)


def test_inverse_matches_level_by_level_solve():
    # independent construction: solve pi_k(g (x) h) = 0 recursively for h
    rng = np.random.default_rng(1)
    g = random_element(rng, 3, 3)
    h = [None] * 3
    h[0] = -g.levels[0]
    h[1] = -(g.levels[1] + np.multiply.outer(g.levels[0], h[0]))
    h[2] = -(
        g.levels[2]
        + np.multiply.outer(g.levels[1], h[0])
        + np.multiply.outer(g.levels[0], h[1])
    )
    assert group_distance(tensor_inv(g), GroupElement(3, 3, h)) < 1e-14


def test_group_laws_random():
    rng = np.random.default_rng(2)
    for dim, level in [(1, 2), (2, 3), (4, 3), (3, 4)]:
        for _ in range(25):
            g = random_element(rng, dim, level)
            h = random_element(rng, dim, level)
            k = random_element(rng, dim, level)
            left = tensor_mul(tensor_mul(g, h), k)
            right = tensor_mul(g, tensor_mul(h, k))
            assert group_distance(left, right) < 1e-12
            e = identity_element(dim, level)
            assert group_distance(tensor_mul(g, tensor_inv(g)), e) < 1e-12
            assert group_distance(tensor_mul(tensor_inv(g), g), e) < 1e-12


def test_l_path_level2_value_and_oracle():
    # unit step right then unit step up, composed from segment exponentials
    g = tensor_mul(
        segment_exponential([1.0, 0.0], 2),
        segment_exponential([0.0, 1.0], 2),
    )
    expected = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert np.allclose(g.levels[1], expected, atol=1e-14)
    # cross-check against plain Riemann-Stieltjes iterated integrals
    ts = np.linspace(0.0, 2.0, 40001)
    corner = np.minimum(ts, 1.0)
    rise = np.maximum(ts - 1.0, 0.0)
    values = np.stack([corner, rise], axis=1)
    S = riemann_iterated_integrals(values, 2)
    assert np.allclose(S[0], g.levels[0], atol=1e-12)
    assert np.allclose(S[1], g.levels[1], atol=1e-3)


def test_segment_exponential_is_group_homomorphism_on_a_line():
    v = np.array([0.3, -0.7, 0.2])
    whole = segment_exponential(2.0 * v, 3)
    halves = tensor_mul(segment_exponential(v, 3), segment_exponential(v, 3))
    assert group_distance(whole, halves) < 1e-14


def test_flat_norm_examples():
    assert flat_norm(identity_element(3, 2)) == 1.0
    g = GroupElement(1, 2, [[3.0], [0.5]])
    assert flat_norm(g) == pytest.approx(3.0)


def test_flat_norm_compatibility_on_outer_products():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4)
    w = rng.normal(size=4)
    outer = np.multiply.outer(v, w)
    assert np.linalg.norm(outer) == pytest.approx(np.linalg.norm(v) * np.linalg.norm(w), rel=1e-12)


def test_homogeneous_gauge_scales_linearly():
    g = segment_exponential([0.4, -0.3], 3)
    h = segment_exponential([0.8, -0.6], 3)
    assert homogeneous_gauge(h) == pytest.approx(2.0 * homogeneous_gauge(g), rel=1e-10)


def test_log_exp_roundtrip():
    rng = np.random.default_rng(4)
    g = random_element(rng, 2, 4, scale=0.5)
    back = group_exp(group_log(g), 2, 4)
    assert group_distance(back, g) < 1e-12


def test_geodesic_endpoints_and_midpoint_consistency():
    rng = np.random.default_rng(5)
    g0 = random_element(rng, 2, 2, scale=0.5)
    g1 = random_element(rng, 2, 2, scale=0.5)
    assert group_distance(geodesic_point(g0, g1, 0.0), g0) < 1e-13
    assert group_distance(geodesic_point(g0, g1, 1.0), g1) < 1e-12
    mid = geodesic_point(g0, g1, 0.5)
    # two half-geodesics compose to the full increment
    first = tensor_mul(tensor_inv(g0), mid)
    second = tensor_mul(tensor_inv(mid), g1)
    assert group_distance(tensor_mul(g0, tensor_mul(first, second)), g1) < 1e-12


def test_json_roundtrip_and_lexicographic_order():
    arr = np.arange(9.0).reshape(3, 3)
    g = GroupElement(3, 2, [np.array([1.0, 2.0, 3.0]), arr])
    doc = g.to_json_dict()
    assert doc["levels"][1][1 * 3 + 2] == arr[1, 2]
    back = GroupElement.from_json_dict(doc)
    assert group_distance(back, g) == 0.0


def test_argument_errors():
    g = identity_element(2, 2)
    h = identity_element(3, 2)
    with pytest.raises(ArgumentError):
        tensor_mul(g, h)
    with pytest.raises(ArgumentError):
        identity_element(2, 5)
    with pytest.raises(ArgumentError):
        GroupElement(2, 2, [np.array([1.0, np.nan]), np.zeros((2, 2))])
    for level in (0, -1, 1.5, MAX_LEVEL + 1):
        with pytest.raises(ArgumentError, match="truncation level"):
            segment_exponential([1.0, 2.0], level)
    with pytest.raises(ArgumentError, match="wrong number of level arrays"):
        group_exp([np.ones(2), np.zeros((2, 2))], 2, 3)
    big = GroupElement(1, 2, [[1e200], [0.0]])
    for overflow in (lambda: tensor_mul(big, big), lambda: tensor_inv(big),
                     lambda: segment_exponential([1e200], 2)):
        with pytest.raises(ArgumentError, match="non-finite"):
            overflow()


def test_scalar_api_equals_the_per_element_loops():
    # d 1-4, levels 1-4, dilations 1e-3, 1 and 1e3 (level k scaled by s**k), 40 random pairs each
    rng = np.random.default_rng(25)
    for dim, level, scale in itertools.product(range(1, 5), range(1, MAX_LEVEL + 1), (1e-3, 1.0, 1e3)):
        for _ in range(40):
            g, h = (
                GroupElement(dim, level, [scale**k * rng.uniform(-1, 1, (dim,) * k) for k in range(1, level + 1)])
                for _ in range(2)
            )
            v = scale * rng.normal(size=dim)
            for got, want in (
                (tensor_mul(g, h), tensor_mul_loop(g.levels, h.levels)),
                (tensor_inv(g), tensor_inv_loop(g.levels)),
                (segment_exponential(v, level), segment_exponential_loop(v, level)),
            ):
                assert all(np.array_equal(a, b) for a, b in zip(got.levels, want, strict=True))


def test_batched_ops_match_scalar_ops():
    rng = np.random.default_rng(6)
    gs = [random_element(rng, 3, 3) for _ in range(8)]
    hs = [random_element(rng, 3, 3) for _ in range(8)]
    bg = batch_from_elements(gs)
    bh = batch_from_elements(hs)
    prod = batch_mul(bg, bh, 3)
    inv = batch_inv(bg, 3)
    for i in range(8):
        single = tensor_mul(gs[i], hs[i])
        assert np.allclose(prod[2][i].reshape(3, 3, 3), single.levels[2], atol=1e-13)
        assert np.allclose(prod[0][i], single.levels[0], atol=1e-14)
        single_inv = tensor_inv(gs[i])
        assert np.allclose(inv[2][i].reshape(3, 3, 3), single_inv.levels[2], atol=1e-13)
    dists = batch_distance(bg, bh)
    assert dists[0] == pytest.approx(group_distance(gs[0], hs[0]), rel=1e-12)
