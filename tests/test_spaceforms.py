import math
import warnings

import numpy as np
import pytest

from kform.errors import DimensionError, DomainError
from kform.expressions import compose, evaluate_map, jacobian
from kform.linalg import hermitian_eigen, sign_counts
from kform.spaceforms import (
    _U_MAX,
    SpaceForm,
    ball,
    center_automorphism,
    chart_point,
    euclidean,
    in_chart,
    metric,
    metric_dz,
    projective,
    ricci,
    sample_chart_points,
    wedge_curvature_block,
)
import kform.numdiff as numdiff

from oracles import (
    cofactor_det,
    fd_directional_hessian,
    fd_wirtinger_gradient,
    mobius_map,
    random_ball_point,
    sample_chart_points_reference,
)

ALL_KINDS = [euclidean, ball, projective]


def _minor(g, I, J):
    """det of g's (I, J) minor for 1-based multi-indices, by cofactor expansion."""
    return cofactor_det(g[np.ix_(np.subtract(I, 1), np.subtract(J, 1))])


def _wedge_pairing(sf, w, eta, I, J):
    """eta^T B_IJ conj(eta): the wedge-power curvature pairing along eta."""
    eta = np.asarray(eta, dtype=np.complex128)
    return complex(eta @ wedge_curvature_block(sf, w, I, J) @ np.conj(eta))


def _bisectional(sf, w, eta, v):
    """R(eta, etabar, v, vbar) = -sum_{i,j} v_i conj(v_j) eta^T B_(i),(j) conj(eta)."""
    v = np.asarray(v, dtype=np.complex128)
    n = sf.dim
    return -sum(
        v[i] * np.conj(v[j]) * _wedge_pairing(sf, w, eta, (i + 1,), (j + 1,))
        for i in range(n)
        for j in range(n)
    )


def test_constructor_validation():
    sf = ball(3)
    assert sf.sig == 3 and sf.is_definite
    assert projective(4, 2).sig == 2
    with pytest.raises(DimensionError):
        euclidean(0)
    with pytest.raises(DimensionError):
        ball(2, 3)
    with pytest.raises(ValueError):
        chart_point(ball(1), [np.nan])


def test_chart_domains():
    assert in_chart(ball(2), [0.5, 0.5])
    assert not in_chart(ball(2), [1.0, 0.2])
    # indefinite ball: negative directions enlarge the domain
    assert in_chart(ball(2, 1), [0.5, 5.0])
    assert not in_chart(ball(2, 1), [1.1, 0.0])
    assert in_chart(projective(1), [100.0])
    # indefinite projective chart excludes 1 + |w|_s^2 <= 0
    assert not in_chart(projective(1, 0), [1.0])
    with pytest.raises(DomainError):
        chart_point(ball(1), [1.0])


def test_curvature_sign_sets_the_constants():
    for make, c in ((euclidean, 0), (ball, -1), (projective, 1)):
        for n, s in ((1, 1), (3, 1), (3, 0)):
            sf = make(n, s)
            assert sf.curv == c
            assert sf.ricci_factor == c * (n + 1)


def test_eps_is_one_read_only_array_per_form():
    sf = ball(3, 2)
    eps = sf.eps
    assert sf.eps is eps
    assert not eps.flags.writeable
    with pytest.raises(ValueError):
        eps[0] = -1.0


def test_eps_is_plus_one_then_minus_one():
    for kind in ("euclidean", "ball", "projective"):
        for dim in range(1, 5):
            for sig in range(dim + 1):
                want = np.ones(dim)
                want[sig:] = -1.0
                eps = SpaceForm(kind, dim, sig).eps
                assert eps.dtype == want.dtype
                np.testing.assert_array_equal(eps, want)


def test_curved_chart_factor_and_its_square_are_finite():
    # u = 1 + c|w|^2 and u*u must both be finite and positive; in_chart and
    # _chart share the rule, and asking about any finite point warns of nothing
    above = math.nextafter(_U_MAX, math.inf)
    assert _U_MAX * _U_MAX < math.inf and above * above == math.inf
    for sf, w in (
        (projective(2), [1e100, 0.0]),  # u finite, u*u overflows
        (projective(2), [1e200, 0.0]),  # |w|^2 overflows: u = inf
        (projective(2, 1), [1e200, 1e200]),  # inf - inf: u = nan
        (ball(2, 0), [1e200j, 0.0]),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not in_chart(sf, w)
            with pytest.raises(DomainError, match="outside the"):
                chart_point(sf, w)
            with pytest.raises(DomainError, match="at stack index 1"):
                metric(sf, [[0.0, 0.0], w])
    assert in_chart(projective(2), [1e76, 0.0])
    assert np.isfinite(metric(projective(2), [1e76, 0.0])).all()


def test_flat_chart_holds_huge_finite_points():
    z = [1e200, -1e200j]
    assert in_chart(euclidean(2, 1), z)
    np.testing.assert_array_equal(metric(euclidean(2, 1), z), np.diag([1.0, -1.0]))
    assert not np.isnan(metric_dz(euclidean(2), z)).any()


def test_signed_norm_through_the_metric():
    # the flat metric is diag(eps), so w^T g conj(w) is the signed norm 1 + 1 - 1
    w = np.ones(3)
    assert w @ metric(euclidean(3, 2), w) @ w == pytest.approx(1.0)
    # on the ball det g = u^-(n+1) with u = 1 - |w|^2 = 1 - 0.5
    assert np.linalg.det(metric(ball(2), [0.5, 0.5])).real == pytest.approx(0.5**-3)


def test_metric_pinned_values():
    np.testing.assert_allclose(metric(ball(1), [0.0]), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(metric(ball(1), [0.5]), [[16.0 / 9.0]], atol=1e-14)
    np.testing.assert_allclose(metric(projective(1), [1.0]), [[0.25]], atol=1e-15)
    np.testing.assert_allclose(
        metric(euclidean(3, 2), np.zeros(3)), np.diag([1.0, 1.0, -1.0]), atol=0
    )


def test_metric_hermitian_and_definite():
    rng = np.random.default_rng(2)
    for make in ALL_KINDS:
        for n in (1, 2, 3):
            sf = make(n)
            for _ in range(60):
                z = random_ball_point(rng, n, 0.8 if make is ball else 1.5)
                g = metric(sf, z)
                np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
                w, _ = hermitian_eigen(g)
                assert w.min() > 0, f"{sf} metric not positive definite at {z}"


def test_metric_center_signature_indefinite():
    for make in ALL_KINDS:
        sf = make(3, 1)
        assert sign_counts(hermitian_eigen(metric(sf, np.zeros(3)))[0]) == (2, 0, 1)


def test_metric_dz_matches_finite_differences():
    rng = np.random.default_rng(5)
    for make in ALL_KINDS:
        for n, s in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)):
            sf = make(n, s)
            z = random_ball_point(rng, n, 0.5)
            dg = metric_dz(sf, z)
            for j in range(n):
                for k in range(n):
                    fd = fd_wirtinger_gradient(lambda zz: metric(sf, zz)[j, k], z)
                    np.testing.assert_allclose(dg[:, j, k], fd, atol=1e-8)


def test_ricci_pinned_values():
    np.testing.assert_array_equal(ricci(euclidean(2), [5.0, 1j]), np.zeros((2, 2)))
    np.testing.assert_allclose(ricci(projective(1), [0.0]), [[2.0]], atol=1e-15)
    np.testing.assert_allclose(ricci(ball(2), np.zeros(2)), -3.0 * np.eye(2), atol=1e-15)


def test_ricci_proportional_to_metric_everywhere():
    rng = np.random.default_rng(11)
    for make, factor_of in ((euclidean, 0.0), (ball, -1.0), (projective, 1.0)):
        for n in (1, 2, 3):
            sf = make(n)
            expect = factor_of * (n + 1)
            for _ in range(20):
                z = random_ball_point(rng, n, 0.8 if make is ball else 1.5)
                resid = np.abs(ricci(sf, z) - expect * metric(sf, z)).max()
                assert resid < 1e-9


def test_ricci_matches_log_det_hessian():
    # Ricci tensor = -d dbar log |det g|, finite-difference route
    rng = np.random.default_rng(13)
    for make in ALL_KINDS:
        for n in (1, 2):
            sf = make(n)
            z = random_ball_point(rng, n, 0.4)

            def logdet(zz):
                return float(np.log(abs(np.linalg.det(metric(sf, zz)))))

            fd = -numdiff.wirtinger_hessian(logdet, z)
            np.testing.assert_allclose(ricci(sf, z), fd, atol=1e-5)


def test_wirtinger_hessian_evaluates_the_center_once():
    # four stencil points per direction, n diagonal directions and four per
    # pair of coordinates, and f(z) once; f = |z|^2 + 2 |z_1|^2 |z_n|^2 has
    # the Hessian I + 2 (|z_n|^2 e_1 e_1^T + |z_1|^2 e_n e_n^T + ...) below
    for n in (1, 2, 3):
        z = np.linspace(0.1, 0.3, n) + 0.2j
        calls = []

        def f(x):
            calls.append(x)
            return float(np.sum(np.abs(x) ** 2) + 2.0 * abs(x[0]) ** 2 * (abs(x[-1]) ** 2 if n > 1 else 0.0))

        h = numdiff.wirtinger_hessian(f, z)
        assert len(calls) == 1 + 4 * n + 16 * math.comb(n, 2)
        assert sum(np.array_equal(x, z) for x in calls) == 1
        expect = np.eye(n, dtype=complex)
        if n > 1:
            expect[0, 0] += 2.0 * abs(z[-1]) ** 2
            expect[-1, -1] += 2.0 * abs(z[0]) ** 2
            expect[0, -1] += 2.0 * np.conj(z[0]) * z[-1]
            expect[-1, 0] += 2.0 * z[0] * np.conj(z[-1])
        np.testing.assert_allclose(h, expect, atol=1e-6)


def test_curvature_pinned_values():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    assert _bisectional(euclidean(2), [0.3, 0.1], e1, e2) == 0.0
    assert _bisectional(projective(2), np.zeros(2), e1, e1) == pytest.approx(2.0)
    assert _bisectional(ball(2), np.zeros(2), e1, e2) == pytest.approx(-1.0)


def test_curvature_matches_normal_coordinate_hessian():
    # at the chart center, R(eta, etabar, u, ubar) = -d^2/(dt dtbar) g(eta, etabar)(t u)
    rng = np.random.default_rng(17)
    for make in ALL_KINDS:
        for n in (1, 2, 3):
            sf = make(n)
            z0 = np.zeros(n)
            for _ in range(5):
                eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                eta /= np.linalg.norm(eta)
                u /= np.linalg.norm(u)

                def g_eta(zz):
                    return complex(eta @ metric(sf, zz) @ np.conj(eta))

                fd = -fd_directional_hessian(g_eta, z0, u)
                assert abs(_bisectional(sf, z0, eta, u) - fd) < 1e-5


def test_wedge_curvature_pinned_values():
    e1 = [1.0, 0.0]
    assert _wedge_pairing(euclidean(2), np.zeros(2), e1, (1,), (1,)) == 0.0
    val = _wedge_pairing(projective(2), np.zeros(2), e1, (1, 2), (1, 2))
    assert val == pytest.approx(-3.0)
    val = _wedge_pairing(ball(2), np.zeros(2), e1, (1,), (1,))
    assert val == pytest.approx(2.0)


def test_wedge_curvature_is_minor_hessian_at_center():
    # returned value = d_eta dbar_eta det(g[I, J]) at the center, incl. I != J
    rng = np.random.default_rng(19)
    cases = [
        (projective(3), (1, 2), (1, 2)),
        (projective(3), (1, 2), (1, 3)),
        (projective(3), (1, 3), (2, 3)),
        (ball(3), (1, 2), (1, 2)),
        (ball(3), (2,), (3,)),
        (ball(2), (1, 2), (1, 2)),
    ]
    for sf, I, J in cases:
        n = sf.dim
        for _ in range(3):
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)

            def minor(zz):
                return _minor(metric(sf, zz), I, J)

            fd = fd_directional_hessian(minor, np.zeros(n), eta)
            got = _wedge_pairing(sf, np.zeros(n), eta, I, J)
            assert abs(got - fd) < 1e-5, f"{sf} I={I} J={J}: {got} vs {fd}"


def test_wedge_curvature_matches_log_norm_hessian_on_diagonal():
    for sf, I, expect_sign in (
        (projective(2), (1, 2), -1.0),
        (ball(2), (1,), 1.0),
    ):
        n = sf.dim
        eta = np.array([1.0, 0.5j])

        def log_norm(zz):
            return float(np.log(abs(_minor(metric(sf, zz), I, I))))

        fd = fd_directional_hessian(log_norm, np.zeros(n), eta)
        got = _wedge_pairing(sf, np.zeros(n), eta, I, I)
        assert abs(got - fd) < 1e-5
        assert np.sign(got.real) == expect_sign


def test_wedge_curvature_block_index_validation():
    sf = projective(2)
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (1, 3), (1, 2))
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (2, 1), (1, 2))
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (1,), (1, 2))
    # below the range, past it in J, and repeated indices
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (0, 1), (1, 2))
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (1, 2), (1, 3))
    with pytest.raises(IndexError):
        wedge_curvature_block(sf, np.zeros(2), (1, 1), (1, 2))


def test_projective_slice_minor_determinant():
    for p in (1, 2, 3):
        sf = projective(3)
        for zeta in (0.3, 0.5 - 0.2j):
            w = np.array([zeta, 0.0, 0.0])
            g = metric(sf, w)
            topdet = cofactor_det(g[:p, :p])
            expect = (1.0 + abs(zeta) ** 2) ** (-(p + 1))
            assert abs(topdet - expect) < 1e-12


def test_ball_slice_minor_determinant():
    for p in (1, 2, 3):
        sf = ball(3)
        w = np.array([0.5, 0.0, 0.0])
        g = metric(sf, w)
        topdet = cofactor_det(g[:p, :p])
        expect = (1.0 - 0.25) ** (-(p + 1))
        assert abs(topdet - expect) < 1e-12
        if p == 2:
            assert topdet == pytest.approx(64.0 / 27.0)


def test_center_automorphism_moves_point_to_origin():
    # the oracle's phi_a sends a to 0, its inverse undoes it, and its
    # Jacobian at a is the closed-form frame
    rng = np.random.default_rng(23)
    for make, radius in ((euclidean, 1.5), (ball, 0.8), (projective, 1.8)):
        for n in (1, 2, 3):
            sf = make(n)
            z0 = random_ball_point(rng, n, radius)
            forward, inverse = mobius_map(sf, z0)
            np.testing.assert_allclose(evaluate_map(forward, z0), np.zeros(n), atol=1e-12)
            np.testing.assert_allclose(evaluate_map(inverse, np.zeros(n)), z0, atol=1e-12)
            np.testing.assert_allclose(jacobian(forward, z0), center_automorphism(sf, z0), atol=1e-12)
            both = compose(inverse, forward)
            for _ in range(3):
                z = random_ball_point(rng, n, radius)
                np.testing.assert_allclose(evaluate_map(both, z), z, atol=1e-10)


def test_center_frame_carries_the_metric():
    # dphi^T g(0) conj(dphi) = g(w), and g(0) = I on definite forms
    rng = np.random.default_rng(37)
    for make, radius in ((euclidean, 1.5), (ball, 0.9), (projective, 2.0)):
        for n in range(1, 7):
            sf = make(n)
            for _ in range(3):
                w = random_ball_point(rng, n, radius)
                dphi = center_automorphism(sf, w)
                np.testing.assert_allclose(dphi.T @ np.conj(dphi), metric(sf, w), atol=1e-13)
            # exactly the identity at the center
            assert center_automorphism(sf, np.zeros(n)).tolist() == np.eye(n).tolist()
    # flat forms of every signature get exactly I, also where |w|^2 overflows
    for n in (1, 2, 3):
        for sig in range(n + 1):
            for w in (random_ball_point(rng, n, 1.5), np.full(n, 1e200 - 3e300j)):
                dphi = center_automorphism(euclidean(n, sig), w)
                assert dphi.dtype == np.complex128
                assert dphi.tolist() == np.eye(n).tolist()


def test_center_automorphism_is_isometry():
    rng = np.random.default_rng(29)
    for make, radius in ((euclidean, 1.5), (ball, 0.7), (projective, 1.5)):
        for n in (1, 2):
            sf = make(n)
            z0 = random_ball_point(rng, n, radius)
            forward, _ = mobius_map(sf, z0)
            for _ in range(5):
                z = random_ball_point(rng, n, radius)
                jphi = jacobian(forward, z)
                pulled = jphi.T @ metric(sf, evaluate_map(forward, z)) @ np.conj(jphi)
                np.testing.assert_allclose(pulled, metric(sf, z), atol=1e-10)


def test_center_automorphism_indefinite_rules():
    message = "center automorphism is only available for definite ball/projective forms"
    with pytest.raises(DomainError, match=message):
        center_automorphism(ball(2, 1), [0.1, 0.1])
    with pytest.raises(DomainError, match=message):
        center_automorphism(projective(2, 1), [0.1, 0.1])
    # euclidean translations exist for every signature
    assert center_automorphism(euclidean(2, 1), [0.3, 0.4]).tolist() == np.eye(2).tolist()
    forward, _ = mobius_map(euclidean(2, 1), [0.3, 0.4])
    np.testing.assert_allclose(evaluate_map(forward, [0.3, 0.4]), np.zeros(2), atol=0)


def test_sample_chart_points_deterministic_and_in_chart():
    for make in ALL_KINDS:
        sf = make(2, 1)
        a = sample_chart_points(sf, 20, seed=42)
        b = sample_chart_points(sf, 20, seed=42)
        np.testing.assert_array_equal(a, b)
        for z in a:
            assert in_chart(sf, z)
    c = sample_chart_points(ball(2), 100, seed=1)
    assert np.abs(c).max() <= 0.9 + 1e-12


def test_metric_and_ricci_take_stacks_of_points():
    for make in ALL_KINDS:
        for n in range(1, 5):
            for sig in range(n + 1):
                sf = make(n, sig)
                pts = sample_chart_points(sf, 24, seed=n + 7 * sig, radius=0.9)
                g, r = metric(sf, pts), ricci(sf, pts.reshape(4, 6, n))
                assert g.shape == (24, n, n) and r.shape == (4, 6, n, n)
                for k, w in enumerate(pts):
                    np.testing.assert_array_equal(g[k], metric(sf, w))
                    np.testing.assert_array_equal(r.reshape(24, n, n)[k], ricci(sf, w))
                assert metric(sf, pts[:0]).shape == (0, n, n)


def test_center_automorphism_takes_stacks_of_points():
    # the stacked frames equal one call per point bit for bit, on definite
    # curved forms and on flat forms of every signature
    cases = [make(n) for make in (ball, projective) for n in (1, 2, 4)]
    cases += [euclidean(n, sig) for n in (1, 3) for sig in range(n + 1)]
    for sf in cases:
        pts = sample_chart_points(sf, 12, seed=sf.dim + 3, radius=0.9)
        frames = center_automorphism(sf, pts.reshape(3, 4, sf.dim))
        assert frames.shape == (3, 4, sf.dim, sf.dim) and frames.dtype == np.complex128
        for k, w in enumerate(pts):
            np.testing.assert_array_equal(frames.reshape(12, sf.dim, sf.dim)[k], center_automorphism(sf, w))
        assert center_automorphism(sf, pts[:0]).shape == (0, sf.dim, sf.dim)
    pts = np.array([[0.1, 0.2], [0.3, 0.1j], [0.9, 0.9]])
    with pytest.raises(DomainError, match="point at stack index 2 outside the ball chart"):
        center_automorphism(ball(2), pts)
    with pytest.raises(DomainError, match="only available for definite"):
        center_automorphism(ball(2, 1), pts[:2])


def test_stacked_metric_names_the_bad_point():
    pts = np.array([[0.1, 0.2], [0.3, 0.1j], [0.9, 0.9], [0.0, 0.0]])
    with pytest.raises(DomainError, match="point at stack index 2 outside the ball chart"):
        metric(ball(2), pts)
    pts[2] = [np.inf, 0.0]
    with pytest.raises(DomainError, match="coordinates at stack index 2 must be finite"):
        metric(ball(2), pts)
    with pytest.raises(DimensionError):
        metric(ball(2), np.zeros((4, 3)))


def test_sample_chart_points_equals_the_per_point_loop():
    # the one-pass normalization against the loop it replaced, bit for bit:
    # flat, ball, projective and indefinite projective forms, n = 1..8, at
    # the default and an explicit radius, and every signature at n <= 4
    cases = [make(n) for make in ALL_KINDS for n in range(1, 9)]
    cases += [projective(n, n // 2) for n in range(1, 9)]
    for sf in cases:
        for count in (0, 1, 5, 200):
            for radius in (None, 0.5):
                got = sample_chart_points(sf, count, seed=count + sf.dim, radius=radius)
                assert got.shape == (count, sf.dim) and got.dtype == np.complex128
                assert np.array_equal(got, sample_chart_points_reference(sf, count, count + sf.dim, radius)), (sf, count)
    for make in ALL_KINDS:
        for n in (1, 2, 4):
            for sig in range(n + 1):
                sf = make(n, sig)
                got = sample_chart_points(sf, 30, seed=n + sig, radius=0.9)
                assert np.array_equal(got, sample_chart_points_reference(sf, 30, n + sig, 0.9)), sf
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_chart_points(ball(2), -1, seed=1)
    # a point outside the chart is named by its index in the drawn stack
    for sf in (ball(2), projective(2, 1)):
        drawn = sample_chart_points_reference(sf, 50, 3, 1.5)
        first = next(k for k, w in enumerate(drawn) if not in_chart(sf, w))
        with pytest.raises(DomainError, match=f"point at stack index {first} outside the"):
            sample_chart_points(sf, 50, seed=3, radius=1.5)
