import math

import numpy as np
import pytest

from kform.errors import DegenerateSampleError, DimensionError, DomainError
from kform.expressions import compose, evaluate_map, jacobian, parse_map
from kform.linalg import hermitian_eigen
from kform.ppforms import (
    _offsets,
    compound_matrix,
    index_basis,
    pooled_fit,
    proportionality_stacks,
    proportionality_test,
    pullback_pp,
    relatives_test,
    wedge_power_coeffs,
)
from kform.spaceforms import ball, euclidean, metric, projective, sample_chart_points

from oracles import (
    cofactor_det,
    identity_map,
    increasing_multiindices,
    mobius_components,
    mp_compounds,
    pooled_ratio_fsum,
    random_ball_point,
    random_hermitian,
)

VERONESE = ["1.4142135623730951*z1", "z1^2"]
FLAT_EXAMPLE_3 = ["z1+1/(1-z2)", "z2", "0"]
FLAT_EXAMPLE_4 = ["z1+1/(1-z2)", "z2", "0", "0"]


def test_index_basis_pinned():
    assert index_basis(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert index_basis(4, 1) == ((1,), (2,), (3,), (4,))
    assert len(index_basis(5, 3)) == 10
    # a plain tuple of 1-based tuples, the same object on equal calls
    basis = index_basis(3, 2)
    assert type(basis) is tuple and all(type(member) is tuple for member in basis)
    assert index_basis(3, 2) is basis
    # the checks still run on arguments equal to a cached call's
    for n, p in ((np.int64(3), 2), (3, np.int64(2)), (3, 0), (3, 4)):
        with pytest.raises(DimensionError):
            index_basis(n, p)


def test_memoized_bases_and_offsets_are_read_only():
    basis = index_basis(4, 2)
    offsets = _offsets(basis)
    assert _offsets(index_basis(4, 2)) is offsets
    np.testing.assert_array_equal(offsets, np.subtract(basis, 1))
    assert not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0, 0] = 3


def test_wedge_power_coeffs_pinned():
    for p in (1, 2, 3):
        m = wedge_power_coeffs(np.eye(4), p)
        np.testing.assert_array_equal(m, np.eye(len(index_basis(4, p))))
    m = wedge_power_coeffs(np.diag([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(m, np.diag([2.0, 3.0, 6.0]), atol=1e-14)
    g = metric(ball(2), [0.5, 0.0])
    m = wedge_power_coeffs(g, 2)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(64.0 / 27.0)


def test_wedge_power_coeffs_top_degree_is_det():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = random_hermitian(rng, n)
        m = wedge_power_coeffs(g, n)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - cofactor_det(g)) < 1e-10


def test_wedge_power_coeffs_matches_bruteforce_minors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 1))
        g = random_hermitian(rng, n)
        m = wedge_power_coeffs(g, p)
        members = increasing_multiindices(n, p)
        assert tuple(members) == index_basis(n, p)
        for a, I in enumerate(members):
            for b, J in enumerate(members):
                sub = g[np.ix_(np.asarray(I) - 1, np.asarray(J) - 1)]
                assert abs(m[a, b] - cofactor_det(sub)) < 1e-10
        np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
    # rectangular compounds up to (6, 4); every third input has rank 1
    for trial in range(30):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        p = int(rng.integers(1, min(n, k) + 1))
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        if trial % 3 == 0:
            a = np.outer(a[:, 0], a[0, :])
        c = compound_matrix(a, p)
        rows, cols = increasing_multiindices(n, p), increasing_multiindices(k, p)
        assert c.shape == (len(rows), len(cols))
        for x, I in enumerate(rows):
            for y, J in enumerate(cols):
                sub = a[np.ix_(np.asarray(I) - 1, np.asarray(J) - 1)]
                assert abs(c[x, y] - cofactor_det(sub)) < 1e-10


def _hadamard_bounds(a, p: int) -> np.ndarray:
    """Hadamard's bound prod_i |row i| for each (I, J) minor: the scale of its roundoff."""
    rows = np.subtract(increasing_multiindices(a.shape[0], p), 1)
    cols = np.subtract(increasing_multiindices(a.shape[1], p), 1)
    sub = a[rows[:, None, :, None], cols[None, :, None, :]]
    return np.prod(np.linalg.norm(sub, axis=-1), axis=-1)


def test_compounds_and_wedge_powers_match_50_digit_minors():
    rng = np.random.default_rng(29)
    inputs = []
    for n in range(1, 7):
        k = int(rng.integers(1, 7))
        for shape in ((n, n), (n, k)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            inputs += [a, np.outer(a[:, 0], a[0, :])]  # a generic matrix and a rank-1 one
    for a in inputs:
        for p, exact in enumerate(mp_compounds(a), start=1):
            c = compound_matrix(a, p)
            assert type(c) is np.ndarray and c.dtype == np.complex128
            dev = np.abs(c - exact)
            assert (dev <= 1e-13 * _hadamard_bounds(a, p)).all(), (a.shape, p, dev.max())
    for n in range(1, 7):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for g in (a @ a.conj().T, random_hermitian(rng, n), np.outer(a[0], a[0].conj())):
            for p, exact in enumerate(mp_compounds(g), start=1):
                w = wedge_power_coeffs(g, p)
                assert type(w) is np.ndarray and w.dtype == np.complex128
                np.testing.assert_array_equal(w, w.conj().T)
                dev = np.abs(w - exact)
                assert (dev <= 1e-13 * _hadamard_bounds(g, p)).all(), (n, p, dev.max())


def test_compound_matrix_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        mdim = int(rng.integers(2, 5))
        p = int(rng.integers(1, min(n, k, mdim) + 1))
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        b = rng.standard_normal((k, mdim)) + 1j * rng.standard_normal((k, mdim))
        lhs = compound_matrix(a @ b, p)
        rhs = compound_matrix(a, p) @ compound_matrix(b, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_compounds_and_wedge_coefficients_take_stacks():
    # one batched gather for a (2, 3, n, k) stack equals one call per matrix, bit for bit
    rng = np.random.default_rng(17)
    for n, k in ((3, 3), (4, 2), (2, 4), (5, 5)):
        a = rng.standard_normal((2, 3, n, k)) + 1j * rng.standard_normal((2, 3, n, k))
        for p in range(1, min(n, k) + 1):
            stacked = compound_matrix(a, p)
            assert stacked.shape == (2, 3, math.comb(n, p), math.comb(k, p))
            for i, j in np.ndindex(2, 3):
                np.testing.assert_array_equal(stacked[i, j], compound_matrix(a[i, j], p))
                if n == k:
                    g = a[i, j] @ a[i, j].conj().T
                    np.testing.assert_array_equal(
                        wedge_power_coeffs(np.stack([g, 2 * g]), p)[1], wedge_power_coeffs(2 * g, p)
                    )
    with pytest.raises(DimensionError):
        wedge_power_coeffs(np.zeros((2, 3, 4)), 1)
    with pytest.raises(DimensionError):
        compound_matrix(np.zeros(3), 1)


def test_pullback_identity_map():
    for sf in (euclidean(3), ball(3), projective(3)):
        w = [0.1, 0.2j, -0.1]
        for p in (1, 2, 3):
            theta = pullback_pp(identity_map(3), sf, sf, p, w)
            np.testing.assert_allclose(theta, wedge_power_coeffs(metric(sf, w), p), atol=1e-12)


def test_pullback_flat_example_top_degree():
    F = parse_map(FLAT_EXAMPLE_3, 2)
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = random_ball_point(rng, 2, 0.5)
        theta = pullback_pp(F, euclidean(2), euclidean(3), 2, w)
        np.testing.assert_allclose(theta, [[1.0]], atol=1e-12)


def test_pullback_veronese_doubles_metric():
    F = parse_map(VERONESE, 1)
    for w in (0.3, 0.5 - 0.1j):
        theta = pullback_pp(F, projective(1), projective(2), 1, [w])
        np.testing.assert_allclose(theta, 2.0 * metric(projective(1), [w]), atol=1e-13)


def test_pullback_validates_dims_and_chart():
    F = parse_map(["z1", "z1"], 1)
    with pytest.raises(DimensionError):
        pullback_pp(F, euclidean(2), euclidean(2), 1, [0.0, 0.0])
    with pytest.raises(DimensionError):
        pullback_pp(F, euclidean(1), euclidean(3), 1, [0.0])
    big = parse_map(["2*z1", "0"], 1)
    with pytest.raises(DomainError):
        pullback_pp(big, euclidean(1), ball(2), 1, [0.9])


def _random_poly_map(rng, m, n, scale=0.3):
    comps = []
    for _ in range(n):
        src = []
        for k in range(1, m + 1):
            c = scale * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            deg = int(rng.integers(1, 3))
            src.append(f"({c.real:+.6f}{c.imag:+.6f}i)*z{k}^{deg}")
        comps.append("+".join(src))
    return parse_map(comps, m)


def test_pullback_hermitian_psd_for_definite_targets():
    rng = np.random.default_rng(17)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 4))
        p = int(rng.integers(1, m + 1))
        tgt = (euclidean(n), ball(n), projective(n))[int(rng.integers(0, 3))]
        F = _random_poly_map(rng, m, n, scale=0.2)
        w = random_ball_point(rng, m, 0.6)
        theta = pullback_pp(F, euclidean(m), tgt, p, w)
        np.testing.assert_allclose(theta, theta.conj().T, atol=1e-12)
        eigs, _ = hermitian_eigen(theta)
        assert eigs.min() > -1e-10, f"pullback not PSD: {eigs}"


def test_pullback_functorial_under_composition():
    rng = np.random.default_rng(19)
    for _ in range(15):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(m, 4))
        n = int(rng.integers(k, 4))
        p = int(rng.integers(1, min(m, 2) + 1))
        F = _random_poly_map(rng, m, k, scale=0.4)
        G = _random_poly_map(rng, k, n, scale=0.4)
        w = random_ball_point(rng, m, 0.5)
        lhs = pullback_pp(compose(G, F), euclidean(m), euclidean(n), p, w)
        inner = pullback_pp(G, euclidean(k), euclidean(n), p, evaluate_map(F, w))
        d = compound_matrix(jacobian(F, w), p)
        rhs = d.T @ inner @ np.conj(d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_pullback_cauchy_binet_top_degree():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        F = _random_poly_map(rng, n, n, scale=0.2)
        w = random_ball_point(rng, n, 0.5)
        tgt = ball(n)
        theta = pullback_pp(F, euclidean(n), tgt, n, w)[0, 0]
        jf = jacobian(F, w)
        expect = cofactor_det(metric(tgt, evaluate_map(F, w))) * abs(cofactor_det(jf)) ** 2
        assert abs(theta - expect) < 1e-11


def test_proportionality_identity_and_flat_example():
    pts = sample_chart_points(euclidean(2), 50, seed=42, radius=0.5)
    res = proportionality_test(identity_map(2), euclidean(2), euclidean(2), 1, pts)
    assert res.passed and res.lambdaHat == pytest.approx(1.0, abs=1e-12)
    assert res.maxResidual < 1e-12

    F = parse_map(FLAT_EXAMPLE_4, 2)
    res2 = proportionality_test(F, euclidean(2), euclidean(4), 2, pts)
    assert res2.passed and res2.lambdaHat == pytest.approx(1.0, abs=1e-10)

    res1 = proportionality_test(F, euclidean(2), euclidean(4), 1, pts)
    assert not res1.passed
    assert res1.maxResidual > 1e-2


def test_proportionality_veronese():
    pts = sample_chart_points(projective(1), 50, seed=42)
    res = proportionality_test(parse_map(VERONESE, 1), projective(1), projective(2), 1, pts)
    assert res.passed
    assert abs(res.lambdaHat - 2.0) < 1e-10


def test_proportionality_requires_points():
    with pytest.raises(DegenerateSampleError):
        proportionality_test(identity_map(2), euclidean(2), euclidean(2), 1, [])


def test_relatives_same_map_and_veronese():
    pts = sample_chart_points(projective(1), 30, seed=7)
    F = parse_map(VERONESE, 1)
    res = relatives_test(F, F, projective(2), projective(2), 1, pts)
    assert res.passed and res.lambdaHat == pytest.approx(1.0, abs=1e-12)

    res2 = relatives_test(F, identity_map(1), projective(2), projective(1), 1, pts)
    assert res2.passed
    assert abs(res2.lambdaHat - 2.0) < 1e-10


def test_relatives_ball_vs_projective_fails():
    pts = sample_chart_points(ball(1), 50, seed=42)
    F = parse_map(["z1", "0"], 1)
    res = relatives_test(F, identity_map(1), ball(2), projective(1), 1, pts)
    assert not res.passed
    # pointwise ratios (1-|z|^2)^-2 vs (1+|z|^2)^-2 spread far apart
    assert res.maxResidual > 1e-2


def test_pooled_fit_lambda_matches_fsum_oracle():
    rng = np.random.default_rng(11)
    for S, K in [(1, 1), (3, 1), (50, 3), (20, 10), (7, 28)]:
        base = rng.normal(size=(S, K, K)) + 1j * rng.normal(size=(S, K, K))
        theta = 1.7 * base + 1e-3 * (rng.normal(size=(S, K, K)) + 1j * rng.normal(size=(S, K, K)))
        scales = 10.0 ** rng.uniform(-6, 6, size=(S, 1, 1))
        base, theta = base * scales, theta * scales
        lam = pooled_fit(base, theta).lambdaHat
        assert lam == pytest.approx(pooled_ratio_fsum(base, theta), rel=1e-13)
    # degenerate stacks: a base with one nonzero entry per point, theta zero,
    # theta an exact multiple, and coefficients far apart in size
    base = np.zeros((4, 3, 3), dtype=complex)
    base[:, 1, 1] = 2.0
    theta = np.full((4, 3, 3), 0.5 + 0.25j)
    res = pooled_fit(base, theta)
    assert res.lambdaHat == pooled_ratio_fsum(base, theta) == 0.25
    assert pooled_fit(base, np.zeros_like(theta)).lambdaHat == 0.0
    exact = np.arange(1.0, 10.0).reshape(1, 3, 3) * np.array([1e-150, 1.0, 1e150])[:, None, None]
    lam = pooled_fit(exact, 3.0 * exact).lambdaHat
    assert lam == pytest.approx(pooled_ratio_fsum(exact, 3.0 * exact), rel=1e-15) and lam == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(DegenerateSampleError, match="vanish at sample 0$"):
        pooled_fit(np.zeros((2, 1, 1)), np.ones((2, 1, 1)))
    with pytest.raises(DegenerateSampleError, match="underflow at every sample point"):
        pooled_fit(np.full((2, 1, 1), 1e-170), np.ones((2, 1, 1)))


def test_pooled_fit_reads_the_stacks_of_both_tests():
    pts = sample_chart_points(projective(2), 20, seed=3)
    F = parse_map(["z1", "z2", "0.5*z1*z2"], 2)
    base, theta = proportionality_stacks(F, projective(2), projective(3), 1, pts)
    assert base.shape == theta.shape == (20, 2, 2)
    assert pooled_fit(base, theta, 1e-9) == proportionality_test(F, projective(2), projective(3), 1, pts)
    assert pooled_fit(base, theta).lambdaHat == pytest.approx(pooled_ratio_fsum(base, theta), rel=1e-13)


def test_vanishing_base_names_the_sample_index():
    # G = z1^2 pulls the flat metric back to 4|z|^2, which vanishes at the origin only
    pts = [[0.5], [0.25j], [0.0], [0.3]]
    G = parse_map(["z1^2"], 1)
    with pytest.raises(DegenerateSampleError, match="vanish at sample 2$"):
        relatives_test(identity_map(1), G, euclidean(1), euclidean(1), 1, pts)
    with pytest.raises(DegenerateSampleError, match="at least one sample point"):
        relatives_test(identity_map(1), G, euclidean(1), euclidean(1), 1, [])


def test_relatives_maps_of_different_arity_raise():
    pts = sample_chart_points(euclidean(1), 5, seed=1)
    with pytest.raises(DimensionError, match="arity"):
        relatives_test(identity_map(1), identity_map(2), euclidean(1), euclidean(2), 1, pts)
    with pytest.raises(DimensionError, match="arity"):
        relatives_test(identity_map(2), identity_map(1), euclidean(2), euclidean(1), 1, pts)


@pytest.mark.parametrize("space, reach", [(ball, 0.85), (projective, 0.5)])
def test_verdicts_hold_at_every_scale(space, reach):
    # the omega^p coefficients scale like u^-(p+1): they grow toward the
    # ball's edge and decay far out in the projective chart.  An absolute
    # residual failed the automorphism of B^8 at p = 7 here, and passed the
    # perturbed maps of P^n for n >= 4, p >= 4
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        sf = space(n)
        comps = mobius_components(sf, random_ball_point(rng, n, reach))
        aut = parse_map(comps, n)
        bent = parse_map([comps[0] + "+1e-6*z1^2", *comps[1:]], n)
        scaled = parse_map([f"0.7*({c})" for c in comps], n)
        pts = sample_chart_points(sf, 5, seed=n)
        for p in range(1, n + 1):
            res = proportionality_test(aut, sf, sf, p, pts)
            assert res.passed and res.lambdaHat == pytest.approx(1.0, rel=1e-9), (n, p)
            assert not proportionality_test(bent, sf, sf, p, pts).passed, (n, p)
            assert not proportionality_test(scaled, sf, sf, p, pts).passed, (n, p)
