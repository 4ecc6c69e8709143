import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kform.errors import (
    DegenerateSampleError,
    DimensionError,
    DomainError,
    PreconditionError,
)
import kform.levi
import kform.suite
from kform.expressions import compose, evaluate_map, jacobian, parse_map
from kform.levi import (
    bundle_point,
    draw_fibers,
    levi_form,
    levi_level_ceiling,
    levi_level_floor,
    levi_signatures,
    levi_spectra,
    obstruction_probe,
    obstruction_probes,
    rho_gradient,
    sample_bundle_points,
    spectrum_signatures,
    tangent_basis,
)
from kform.linalg import sign_counts
from kform.ppforms import _contraction_signs, index_basis, wedge_power_coeffs
from kform.spaceforms import (
    ball,
    default_radius,
    euclidean,
    metric,
    projective,
    sample_chart_points,
)

from oracles import (
    fd_directional_hessian,
    fd_wirtinger_gradient,
    levi_form_fd,
    mobius_map,
    random_unitary,
    rho,
)

SPACES = [euclidean(2), ball(2), projective(2), ball(3), projective(3)]


def _random_fiber(rng, sf, p):
    k = len(index_basis(sf.dim, p))
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _stacked_rho(sf, p, r):
    m = sf.dim

    def f(x):
        return rho(sf, p, r, x[:m], x[m:])

    return f


def test_rho_pinned_values():
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert rho(euclidean(3), 1, 1.0, z, [1, 0, 0]) == pytest.approx(0.0, abs=1e-14)
    assert rho(projective(1), 1, 1.0, [0], [1]) == pytest.approx(0.0, abs=1e-14)
    assert rho(ball(2), 2, 64.0 / 27.0, [0.5, 0.0], [1]) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(DomainError):
        rho(ball(1), 1, 1.0, [1.5], [1])


def test_rho_quadratic_form_is_real():
    rng = np.random.default_rng(1)
    for sf in SPACES:
        for _ in range(10):
            z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)))[0]
            p = int(rng.integers(1, sf.dim + 1))
            xi = _random_fiber(rng, sf, p)
            w = wedge_power_coeffs(metric(sf, z), p)
            assert abs(np.imag(xi @ w @ np.conj(xi))) < 1e-13 * (1 + abs(xi @ w @ np.conj(xi)))


def test_rho_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for sf in SPACES:
        for p in range(1, min(sf.dim, 2) + 1):
            z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)), radius=0.4)[0]
            xi = _random_fiber(rng, sf, p)
            d_z, d_xi = rho_gradient(sf, p, z, xi)
            fd = fd_wirtinger_gradient(_stacked_rho(sf, p, 1.0), np.concatenate([z, xi]))
            assert_allclose(d_z, fd[: sf.dim], atol=1e-6)
            assert_allclose(d_xi, fd[sf.dim :], atol=1e-6)


def test_bundle_point_normalizes_onto_level_set():
    rng = np.random.default_rng(3)
    for sf in (ball(2), projective(3), euclidean(2)):
        for _ in range(10):
            p = int(rng.integers(1, min(sf.dim, 2) + 1))
            r = float(rng.uniform(0.5, 3.0))
            z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)))[0]
            base, fiber = bundle_point(sf, p, r, z, _random_fiber(rng, sf, p))
            assert abs(rho(sf, p, r, base, fiber)) < 1e-10
    with pytest.raises(PreconditionError):
        bundle_point(euclidean(2, sig=1), 1, 1.0, [0, 0], [1, 0])
    with pytest.raises(PreconditionError):
        bundle_point(ball(2), 1, -1.0, [0, 0], [1, 0])
    with pytest.raises(DegenerateSampleError, match="^zero fiber vector$"):
        bundle_point(ball(2), 1, 1.0, [0, 0], [0, 0])
    # far out in a projective chart: below top degree the norm holds, at top
    # degree the point is refused instead of losing the norm's precision
    _, fiber = bundle_point(projective(2), 1, 1.0, [1e40, 2e40j], [1.0, 0.5])
    assert np.isfinite(fiber).all() and np.abs(fiber).max() > 0
    with pytest.raises(DomainError, match="^chart point with 1 \\+ \\|w\\|\\^2 = 1e\\+26 is too far out"):
        bundle_point(projective(2), 2, 1.0, [1e13, 0], [1.0])


def test_sample_bundle_points_deterministic():
    a = sample_bundle_points(projective(2), 1, 1.0, 4, seed=11)
    b = sample_bundle_points(projective(2), 1, 1.0, 4, seed=11)
    assert a[0].shape == (4, 2) and a[1].shape == (4, 2)
    for za, xa, zb, xb in zip(*a, *b):
        assert_allclose(za, zb)
        assert_allclose(xa, xb)
        assert abs(rho(projective(2), 1, 1.0, za, xa)) < 1e-10


def test_sample_bundle_points_rows_are_the_one_point_bundle_points():
    # one bundle_point per chart point, its fiber drawn real part then
    # imaginary part from default_rng(seed + 1): the same points bit for bit,
    # the fibers scaled in one stacked pass to within 1e-15 relative
    for sf in (ball(3), projective(3), euclidean(2)):
        for p in range(1, sf.dim + 1):
            for r, seed in ((1.0, 5), (0.3, 17), (40.0, 23)):
                points, fibers = sample_bundle_points(sf, p, r, 6, seed)
                rng = np.random.default_rng(seed + 1)
                k = len(index_basis(sf.dim, p))
                for w, z, xi in zip(sample_chart_points(sf, 6, seed), points, fibers):
                    raw = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                    base, fiber = bundle_point(sf, p, r, w, raw)
                    assert np.array_equal(z, base), f"{sf} p={p}"
                    assert np.abs(xi - fiber).max() <= 1e-15 * np.abs(fiber).max(), f"{sf} p={p}"
    assert [a.shape for a in sample_bundle_points(ball(2), 1, 1.0, 0, 3)] == [(0, 2), (0, 2)]
    with pytest.raises(PreconditionError, match="definite"):
        sample_bundle_points(ball(2, sig=1), 1, 1.0, 3, 3)
    with pytest.raises(PreconditionError, match="bundle radius must be positive"):
        sample_bundle_points(ball(2), 1, 0.0, 3, 3)


def test_tangent_basis_annihilates_gradient():
    # 500 random trials across kinds, degrees, and chart points
    rng = np.random.default_rng(4)
    for trial in range(500):
        sf = SPACES[trial % len(SPACES)]
        p = int(rng.integers(1, min(sf.dim, 2) + 1))
        z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)))[0]
        xi = _random_fiber(rng, sf, p)
        cols = tangent_basis(sf, p, z, xi)
        n_fiber = len(index_basis(sf.dim, p))
        assert cols.shape == (sf.dim + n_fiber, sf.dim + n_fiber - 1)
        d_z, d_xi = rho_gradient(sf, p, z, xi)
        grad = np.concatenate([d_z, d_xi])
        pairings = np.abs(grad @ cols)
        assert float(pairings.max()) < 1e-11


def test_tangent_basis_center_structure():
    # top degree: base directions only, zero fiber rows
    cols = tangent_basis(projective(2), 2, [0, 0], [1])
    assert cols.shape == (3, 2)
    assert_allclose(cols[:2, :], np.eye(2))
    assert_allclose(cols[2, :], 0)
    # single-component fiber below top degree: block structure with zero b row
    cols = tangent_basis(ball(2), 1, [0, 0], [1, 0])
    assert_allclose(cols[:2, :2], np.eye(2))
    assert_allclose(cols[2:, :2], 0)
    assert_allclose(cols[:, 2], [0, 0, 0, 1])
    with pytest.raises(DegenerateSampleError):
        tangent_basis(ball(2), 1, [0, 0], [0, 0])


def test_levi_form_projective_top_degree_negative_definite():
    for m in (1, 2, 3):
        rep = levi_form(projective(m), m, 1.0, np.zeros(m), [1.0])
        assert sign_counts(rep) == (m, 0, 0)
        assert len(rep) == m
        assert_allclose(rep, -(m + 1.0) * np.ones(m), atol=1e-12)


def test_levi_form_projective_mixed_signature():
    rep = levi_form(projective(2), 1, 1.0, [0, 0], [1, 0])
    assert sign_counts(rep) == (2, 0, 1)
    assert len(rep) == 3
    assert_allclose(rep, [-2.0, -1.0, 1.0], atol=1e-12)
    rep = levi_form(projective(3), 2, 1.0, [0, 0, 0], [1, 0, 0])
    assert sign_counts(rep) == (3, 0, 2)
    assert len(rep) == 5


def test_levi_form_ball_strictly_pseudoconvex():
    rng = np.random.default_rng(5)
    for sf in (ball(1), ball(2), ball(3)):
        for p in range(1, min(sf.dim, 2) + 1):
            z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)))[0]
            rep = levi_form(sf, p, 1.0, z, _random_fiber(rng, sf, p))
            neg, zero, pos = sign_counts(rep)
            assert neg == 0 and zero == 0
            assert pos == len(rep)


def test_levi_form_flat_base_directions_are_null():
    rep = levi_form(euclidean(2), 1, 1.0, [0.3, -0.1], [0.5, 1.0])
    assert sign_counts(rep) == (0, 2, 1)


def test_levi_signature_constant_over_points_and_phases():
    rng = np.random.default_rng(6)
    for sf, p in ((projective(2), 1), (ball(2), 1), (projective(3), 2)):
        xi = _random_fiber(rng, sf, p)
        base_rep = levi_form(sf, p, 1.0, np.zeros(sf.dim), xi)
        # phase rotation leaves the whole spectrum unchanged
        rot = levi_form(sf, p, 1.0, np.zeros(sf.dim), np.exp(0.7j) * xi)
        assert_allclose(rot, base_rep, atol=1e-10)
        # other representatives on S_r carry the same signature
        for seed in (21, 22):
            z = sample_chart_points(sf, 1, seed=seed)[0]
            rep = levi_form(sf, p, 1.0, z, _random_fiber(rng, sf, p))
            assert sign_counts(rep) == sign_counts(base_rep)


def test_levi_form_matches_finite_differences_at_center():
    rng = np.random.default_rng(7)
    cases = [
        (euclidean(2), 1),
        (euclidean(3), 2),
        (ball(2), 1),
        (ball(3), 2),
        (projective(2), 1),
        (projective(3), 2),
    ]
    for sf, p in cases:
        xi = _random_fiber(rng, sf, p)
        center = np.zeros(sf.dim)
        rep = levi_form(sf, p, 1.0, center, xi)
        fd = levi_form_fd(sf, p, 1.0, center, xi)
        assert_allclose(fd, rep, atol=1e-5)
        assert sign_counts(fd, 1e-6) == sign_counts(rep)


def test_levi_form_fd_signature_off_center():
    rng = np.random.default_rng(8)
    for sf, p in ((ball(2), 1), (projective(2), 1)):
        z = sample_chart_points(sf, 1, seed=31)[0]
        xi = _random_fiber(rng, sf, p)
        rep = levi_form(sf, p, 1.0, z, xi)
        fd = levi_form_fd(sf, p, 1.0, z, xi)
        assert sign_counts(fd, 1e-6) == sign_counts(rep)


def test_projective_positive_count_and_cr_signature_bound():
    # below top degree: m negative directions from the base block, |A|-1
    # positive from the fiber; the CR signature min(nNeg, nPos) respects
    # half the hypersurface dimension
    rng = np.random.default_rng(9)
    for m, p in ((2, 1), (3, 1), (3, 2), (4, 2)):
        sf = projective(m)
        n_fiber = len(index_basis(m, p))
        neg, zero, pos = sign_counts(levi_form(sf, p, 1.0, np.zeros(m), _random_fiber(rng, sf, p)))
        assert (neg, zero, pos) == (m, 0, n_fiber - 1)
        assert min(neg, pos) <= 0.5 * (m + n_fiber - 1)


def test_levi_signature_sweep():
    # B^n: positive definite; P^n: the base block negative, the fiber positive
    for n in range(1, 6):
        for p in range(1, n + 1):
            fiber = math.comb(n, p)
            for sf, expect in ((ball(n), (0, 0, n + fiber - 1)), (projective(n), (n, 0, fiber - 1))):
                sigs, _ = levi_signatures(sf, p, 1.0, 2, seed=10 * n + p)
                assert sigs == (expect,), f"{sf} p={p}"


def test_levi_signatures_hold_from_the_level_floor_to_1e12():
    # the curved base eigenvalues are at least p r in size, so every level
    # from levi_level_floor(p) up keeps the closed-form signatures, on both
    # the levi-mode route and the center pass
    for n in (2, 3):
        for p in range(1, n + 1):
            fiber = math.comb(n, p)
            floor = levi_level_floor(p)
            assert p * floor == pytest.approx(2 * kform.linalg.DEFAULT_ZERO_TOL)
            for sf, expect in (
                (ball(n), (0, 0, n + fiber - 1)),
                (projective(n), (n, 0, fiber - 1)),
                (euclidean(n), (0, n, fiber - 1)),
            ):
                for r in [floor] + [10.0**e for e in range(-8, 13, 2)]:
                    sigs, low = levi_signatures(sf, p, r, 2, seed=7 * n + p)
                    assert sigs == (expect,), f"{sf} p={p} r={r}"
                    spectra = levi_spectra(sf, p, r, *sample_bundle_points(sf, p, r, 2, seed=3))
                    assert spectrum_signatures(spectra)[0] == (expect,), f"{sf} p={p} r={r}"
                    if sf.curv:  # the base eigenvalues, and the fiber's 1s below top degree
                        assert low >= min(p * r, 1.0) * (1 - 1e-12), f"{sf} p={p} r={r}"


def test_levi_spectra_at_the_level_ceiling():
    # at levi_level_ceiling the center pass keeps the unit level's signatures
    # without a numpy warning: on C^3 at p = 3 it once formed the bracket
    # p |xi|^2 I + conj(V) V^T before multiplying by -c = 0, and overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3):
            for p in range(1, n + 1):
                for sf in (ball(n), projective(n), euclidean(n)):
                    r = levi_level_ceiling(sf, p, default_radius(sf))
                    unit, top = (levi_spectra(sf, p, x, *sample_bundle_points(sf, p, x, 20, seed=3)) for x in (1.0, r))
                    assert spectrum_signatures(top)[0] == spectrum_signatures(unit)[0], f"{sf} p={p}"


def test_empty_levi_sample_is_refused():
    # no rows have no smallest |eigenvalue|: the sample is refused by name
    for spectra in ([], np.zeros((0, 3))):
        with pytest.raises(DegenerateSampleError, match="need at least one sample point"):
            spectrum_signatures(spectra)
    with pytest.raises(DegenerateSampleError, match="need at least one sample point"):
        levi_signatures(ball(2), 1, 1.0, 0, 1)


def test_spectrum_signatures_rule():
    # distinct sign counts in the order first seen, ties kept once, and
    # entries within the zero tolerance counted as zero on either side
    rows = np.array(
        [
            [-2.0, 0.5, 1.0],
            [-1.0, 1e-10, 3.0],
            [-2.0, 0.5, 1.0],
            [-5e-10, 0.0, 2.0],
            [-1.0, -1e-9, 4.0],
            [-3.0, -2.0, 1.0],
        ]
    )
    sigs, low = spectrum_signatures(rows)
    assert sigs == ((1, 0, 2), (1, 1, 1), (0, 2, 1), (2, 0, 1))
    assert low == 0.0
    assert spectrum_signatures(rows[[5, 0, 5]]) == (((2, 0, 1), (1, 0, 2)), 0.5)
    # a list of rows reads as their stack, as levi_signatures passes them
    assert spectrum_signatures([np.array([-0.25, 2.0]), np.array([3.0, 4.0])]) == (
        ((1, 0, 1), (0, 0, 2)),
        0.25,
    )


def test_levi_spectrum_at_p1_is_closed_form():
    # against the induced metric, the p = 1 spectrum on S_r is -c r (n - 1
    # times) and -2 c r over the base, and 1 (n - 1 times) over the fiber,
    # at every point and fiber vector
    rng = np.random.default_rng(13)
    for make, c in ((ball, -1.0), (projective, 1.0)):
        for n in (2, 3, 4):
            sf = make(n)
            for z, xi in zip(*sample_bundle_points(sf, 1, 1.5, 2, seed=int(rng.integers(1 << 30)))):
                expect = np.sort([-c * 1.5] * (n - 1) + [-2 * c * 1.5] + [1.0] * (n - 1))
                assert_allclose(levi_form(sf, 1, 1.5, z, xi), expect, atol=1e-12)


def test_levi_spectra_ignore_the_centering_frame(monkeypatch):
    # U @ dphi is as good a centering frame as dphi for any unitary U: the
    # metric-relative Levi spectrum and the probe's values must not move
    real = kform.levi.center_automorphism
    rng = np.random.default_rng(12)

    def rotated(sf, w):
        return random_unitary(rng, sf.dim) @ real(sf, w)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    for sf, p in ((ball(2), 1), (ball(3), 2), (projective(3), 1), (projective(3), 2), (euclidean(2), 1)):
        z = sample_chart_points(sf, 1, seed=int(rng.integers(1 << 30)))[0]
        xi = _random_fiber(rng, sf, p)
        monkeypatch.setattr(kform.levi, "center_automorphism", real)
        base = levi_form(sf, p, 1.0, z, xi)
        monkeypatch.setattr(kform.levi, "center_automorphism", rotated)
        for _ in range(3):
            rep = levi_form(sf, p, 1.0, z, xi)
            assert sign_counts(rep) == sign_counts(base)
            assert close(rep, base), f"{sf} p={p}"

    F = parse_map(["0.4*z1+0.1*z2^2", "0.3*z2-0.2*z1*z2", "0.1*z1"], 2)
    for src in (euclidean(2), ball(2), projective(2)):
        for p in (1, 2):
            w = sample_chart_points(src, 1, seed=int(rng.integers(1 << 30)), radius=0.5)[0]
            xi = _random_fiber(rng, src, p)
            monkeypatch.setattr(kform.levi, "center_automorphism", real)
            base = obstruction_probe(src, ball(3), F, p, w, xi)
            monkeypatch.setattr(kform.levi, "center_automorphism", rotated)
            for _ in range(3):
                res = obstruction_probe(src, ball(3), F, p, w, xi)
                assert close(res.lhs, base.lhs) and close(res.rhs, base.rhs), f"{src} p={p}"


def test_center_block_is_the_block_sum_in_closed_form():
    # -c (p |xi|^2 I + conj(V) V^T), V = S @ xi, against the sum of one
    # wedge_curvature_block per (I, J) pair; flat forms give exact zeros
    rng = np.random.default_rng(31)
    cases = [(n, p) for n in range(1, 7) for p in range(1, n + 1)]
    cases += [(n, p) for n in (7, 8) for p in (1, 2, n)]
    for n, p in cases:
        xi = _random_fiber(rng, euclidean(n), p)
        for sf in (ball(n), projective(n)):
            block = kform.levi._center_block(sf, p, xi)
            route = kform.levi._wedge_hessian_block(sf, np.zeros(n), p, xi)
            assert np.abs(block - route).max() <= 1e-14 * np.abs(route).max(), f"{sf} p={p}"
        assert not kform.levi._center_block(euclidean(n), p, xi).any()
        signs = _contraction_signs(n, p)
        assert signs is _contraction_signs(n, p) and not signs.flags.writeable


def _spectra_stacks(rng):
    # B^n, P^n and C^n for n <= 5 and every p, and n = 6 at p = 1, 2, 6, at
    # r = 0.7 and 1.5; stacks of two points off the center up to n = 4, one above
    cases = [(n, p) for n in range(1, 6) for p in range(1, n + 1)] + [(6, 1), (6, 2), (6, 6)]
    for n, p in cases:
        for sf in (ball(n), projective(n), euclidean(n)):
            for r in (0.7, 1.5):
                points = sample_chart_points(sf, 2 if n <= 4 else 1, seed=int(rng.integers(1 << 30)))
                yield sf, p, r, points, np.array([_random_fiber(rng, sf, p) for _ in points])


def test_levi_spectra_rows_are_the_one_point_levi_forms():
    # the closed-form center pass against levi_form's pair sums and general
    # tangent basis, row by row
    for sf, p, r, points, fibers in _spectra_stacks(np.random.default_rng(37)):
        spectra = levi_spectra(sf, p, r, points, fibers)
        assert spectra.shape == (len(points), sf.dim + len(index_basis(sf.dim, p)) - 1)
        for k, (w, xi) in enumerate(zip(points, fibers)):
            rep = levi_form(sf, p, r, w, xi)
            scale = max(1.0, float(np.abs(rep).max()))
            assert np.abs(spectra[k] - rep).max() <= 1e-13 * scale, f"{sf} p={p} r={r}"
            assert sign_counts(spectra[k]) == sign_counts(rep), f"{sf} p={p} r={r}"


def test_levi_spectra_errors_name_the_stack_index():
    points = np.array([[0.1, 0.2], [0.3, -0.1j], [0.2, 0.1]])
    fibers = np.ones((3, 2))
    with pytest.raises(DegenerateSampleError, match="^zero fiber vector at stack index 2$"):
        levi_spectra(ball(2), 1, 1.0, points, [[1, 0], [0, 1], [0, 0]])
    far = np.array([[0.1, 0.0], [3e3, 0.0], [0.2, 0.1]])
    with pytest.raises(DomainError, match="^chart point at stack index 1 with 1 \\+ \\|w\\|\\^2 = 9e\\+06"):
        levi_spectra(projective(2), 2, 1.0, far, np.ones((3, 1)))
    with pytest.raises(DomainError, match="^point at stack index 1 outside the ball chart domain$"):
        levi_spectra(ball(2), 1, 1.0, [[0.1, 0.0], [1.2, 0.0]], np.ones((2, 2)))
    with pytest.raises(PreconditionError, match="definite"):
        levi_spectra(ball(2, sig=1), 1, 1.0, points, fibers)
    for r in (0.0, -1.0):
        with pytest.raises(PreconditionError, match="bundle radius must be positive"):
            levi_spectra(ball(2), 1, r, points, fibers)
    with pytest.raises(DimensionError, match="fibers"):
        levi_spectra(ball(2), 1, 1.0, points, np.ones((2, 2)))
    with pytest.raises(DimensionError, match="fibers"):
        levi_spectra(ball(2), 1, 1.0, points[0], fibers[0])


def _random_map(rng, m, scale):
    # m variables, m + 1 components: a complex linear part, a quadratic term
    # and a pole at z1 = -3
    comps = []
    for _ in range(m + 1):
        a = (scale * rng.standard_normal((m + 2, 2))).tolist()
        linear = "+".join(f"(({re!r})+({im!r})*i)*z{k + 1}" for k, (re, im) in enumerate(a[:m]))
        comps.append(f"{linear}+({a[m][0]!r})*z1*z{m}+({a[m + 1][0]!r})/(3+z1)")
    return parse_map(comps, m)


def _probe_set(rng):
    # B^m, P^m and C^m into B^{m+1}, m <= 3, every p, eight probes each
    for make in (ball, projective, euclidean):
        for m in (1, 2, 3):
            src, tgt = make(m), ball(m + 1)
            for p in range(1, m + 1):
                for _ in range(8):
                    F = _random_map(rng, m, 0.2)
                    w = sample_chart_points(src, 1, seed=int(rng.integers(1 << 30)), radius=0.5)[0]
                    yield src, tgt, F, p, w, _random_fiber(rng, src, p)


def test_probe_closed_form_matches_the_block_sum_route(monkeypatch):
    real = kform.levi._center_block

    def block_sum(sf, p, xi):  # the probe passes a stack of fibers
        blocks = [kform.levi._wedge_hessian_block(sf, np.zeros(sf.dim), p, x) for x in xi]
        return np.array(blocks).reshape(xi.shape[:-1] + (sf.dim, sf.dim))

    conflicts = 0
    for src, tgt, F, p, w, xi in _probe_set(np.random.default_rng(29)):
        monkeypatch.setattr(kform.levi, "_center_block", block_sum)
        route = obstruction_probe(src, tgt, F, p, w, xi)
        monkeypatch.setattr(kform.levi, "_center_block", real)
        res = obstruction_probe(src, tgt, F, p, w, xi)
        assert (res.conflict, res.inconclusive) == (route.conflict, route.inconclusive)
        assert abs(res.lhs - route.lhs) <= 1e-12 * abs(route.lhs), f"{src} p={p}"
        assert abs(res.rhs - route.rhs) <= 1e-12 * abs(route.rhs), f"{src} p={p}"
        conflicts += res.conflict
    assert 0 < conflicts < 144


def _assert_rows_are_lone_probes(src, tgt, F, p, points, fibers, rows=None):
    stack = obstruction_probes(src, tgt, F, p, points, fibers)
    for k in range(len(points)) if rows is None else rows:
        lone = obstruction_probe(src, tgt, F, p, points[k], fibers[k])
        assert (stack.conflict[k], stack.inconclusive[k]) == (lone.conflict, lone.inconclusive)
        assert abs(stack.lhs[k] - lone.lhs) <= 1e-12 * abs(lone.lhs), f"{src} p={p} row {k}"
        assert abs(stack.rhs[k] - lone.rhs) <= 1e-12 * abs(lone.rhs), f"{src} p={p} row {k}"
    return stack


def test_probe_stack_rows_are_the_one_point_probes():
    # c06's 140 probes, one stack per map as the battery runs them
    seed = 42
    families = (
        (euclidean(2), ball(3), kform.suite._FLAT_TO_BALL_MAPS, seed + 60),
        (projective(1), ball(2), kform.suite._PROJ_TO_BALL_MAPS, seed + 61),
        (ball(1), ball(2), (("z1", "0"),), seed + 62),
    )
    conclusive = 0
    for src, tgt, maps, family_seed in families:
        rng = np.random.default_rng(family_seed)
        for k, comps in enumerate(maps):
            F = parse_map(list(comps), src.dim)
            points = sample_chart_points(src, 20, family_seed + k)
            fibers = draw_fibers(rng, len(points), src.dim)
            res = _assert_rows_are_lone_probes(src, tgt, F, 1, points, fibers)
            conclusive += int(np.sum(~res.inconclusive))
    assert conclusive == 140

    # the 144 probes of _probe_set, each in a stack with the other seven
    # probes of its (source, p) under its own map, so rows of different
    # spectra and fibers share every stacked solve
    probes = list(_probe_set(np.random.default_rng(29)))
    for start in range(0, len(probes), 8):
        group = probes[start : start + 8]
        points = np.array([w for *_, w, _ in group])
        fibers = np.array([xi for *_, xi in group])
        for j, (src, tgt, F, p, _, _) in enumerate(group):
            _assert_rows_are_lone_probes(src, tgt, F, p, points, fibers, rows=[j])

    # 0.5*z from B^3: the top singular value of the differential is triple at
    # the centre and double elsewhere, so the tie rule runs once per size
    F = parse_map(["0.5*z1", "0.5*z2", "0.5*z3", "0"], 3)
    points = np.array([[0.1, 0.2j, -0.1], np.zeros(3), [0.3, 0.1, 0.2j], np.zeros(3)])
    rng = np.random.default_rng(5)
    for p in (1, 2):
        fibers = np.array([_random_fiber(rng, ball(3), p) for _ in points])
        _assert_rows_are_lone_probes(ball(3), ball(4), F, p, points, fibers)


def test_probe_stack_errors_name_the_stack_index():
    F = parse_map(["3*z1", "0"], 1)
    points = np.array([[0.1], [0.2], [0.5], [0.1]])
    fibers = np.ones((4, 1))
    # F(w) = 1.5 at point 2 leaves the target ball
    with pytest.raises(DomainError, match="point at stack index 2 outside the ball chart domain"):
        obstruction_probes(euclidean(1), ball(2), F, 1, points, fibers)
    with pytest.raises(DomainError, match="point at stack index 1 outside the ball chart domain"):
        obstruction_probes(ball(1), ball(2), parse_map(["0.1*z1", "0"], 1), 1, [[0.1], [1.2]], [[1], [1]])
    with pytest.raises(DegenerateSampleError, match="zero fiber vector at stack index 3"):
        obstruction_probes(euclidean(1), ball(2), parse_map(["0.1*z1", "0"], 1), 1, points, [[1], [1], [1], [0]])
    # a projective point too far out for the top-degree wedge norm
    far = np.array([[0.1, 0.0], [3e3, 0.0], [0.2, 0.1]])
    with pytest.raises(DomainError, match="chart point at stack index 1 with 1 \\+ \\|w\\|\\^2 = 9e\\+06"):
        obstruction_probes(projective(2), ball(3), parse_map(["0", "0", "0"], 2), 2, far, np.ones((3, 1)))
    # a lone point's errors carry no index
    with pytest.raises(DomainError, match="^point outside the ball chart domain$"):
        obstruction_probe(euclidean(1), ball(2), F, 1, [0.5], [1.0])
    with pytest.raises(DimensionError, match="fibers have shape"):
        obstruction_probes(euclidean(1), ball(2), F, 1, points, np.ones((3, 1)))


def test_probe_flat_source_into_ball_conflicts():
    F = parse_map(["0.2*z1", "0.2*z2", "0.1"], 2)
    rng = np.random.default_rng(10)
    src, tgt = euclidean(2), ball(3)
    for _ in range(5):
        w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        xi = _random_fiber(rng, src, 1)
        res = obstruction_probe(src, tgt, F, 1, w, xi)
        assert not res.inconclusive
        assert abs(res.lhs) <= 1e-10
        assert res.rhs > 1e-10
        assert res.conflict


def test_probe_projective_source_into_ball_conflicts():
    F = parse_map(["0.3*z1", "0.1"], 1)
    src, tgt = projective(1), ball(2)
    for w in ([-0.4], [0.0], [0.55]):
        res = obstruction_probe(src, tgt, F, 1, w, [1.0])
        assert res.conflict
        assert res.lhs < -1e-6
        assert res.rhs > 1e-10


def test_probe_ball_source_control_case():
    F = parse_map(["z1", "0"], 1)
    res = obstruction_probe(ball(1), ball(2), F, 1, [0.3], [1.0])
    assert res.lhs > 1e-6
    assert not res.conflict
    assert not res.inconclusive


def test_probe_constant_map_is_inconclusive():
    F = parse_map(["0.1", "0.2"], 2)
    res = obstruction_probe(euclidean(2), ball(2), F, 1, [0.0, 0.0], [1.0, 0.0])
    assert res.inconclusive
    assert not res.conflict


def test_probe_signs_match_finite_difference_hessians():
    # center-based case where the conjugating automorphisms are identities
    # and the top singular direction of the differential is unique
    F = parse_map(["0.2*z1", "0.1*z2", "0"], 2)
    src, tgt = euclidean(2), ball(3)
    xi = np.array([0.7 + 0.2j, -0.3j])
    res = obstruction_probe(src, tgt, F, 1, [0, 0], xi)

    w1 = wedge_power_coeffs(metric(src, [0, 0]), 1)
    xi_n = xi / np.sqrt(np.real(xi @ w1 @ np.conj(xi)))
    jg = np.vstack([np.diag([0.2, 0.1]), np.zeros((1, 2))])
    eta = np.array([1.0, 0.0])  # top singular vector, up to phase
    lhs_fd = fd_directional_hessian(
        lambda z: rho(src, 1, 1.0, z, xi_n), np.zeros(2), eta
    )
    assert abs(res.lhs - np.real(lhs_fd)) < 1e-6

    pushed_xi = jg @ xi_n
    pushed_xi /= np.linalg.norm(pushed_xi)
    pushed_eta = jg @ eta
    scale = np.linalg.norm(pushed_eta) ** 2
    rhs_fd = scale * fd_directional_hessian(
        lambda z: rho(tgt, 1, 1.0, z, pushed_xi),
        np.zeros(3),
        pushed_eta / np.linalg.norm(pushed_eta),
    )
    assert abs(res.rhs - np.real(rhs_fd)) < 1e-6


def test_probe_differential_is_the_chain_rule(monkeypatch):
    # second route: the Jacobian at the center of the composed expression
    # trees, with the oracle's Mobius maps as the centering isometries
    pushed = []
    real = kform.levi.compound_matrix
    monkeypatch.setattr(kform.levi, "compound_matrix", lambda a, p: pushed.append(a) or real(a, p))
    rng = np.random.default_rng(43)
    for make in (ball, projective, euclidean):
        for m in (1, 2, 3):
            src, tgt = make(m), ball(m + 1)
            F = _random_map(rng, m, 0.15)
            w = 0.5 * rng.uniform() * _random_fiber(rng, euclidean(m), 1) / np.sqrt(2 * m)
            pushed.clear()
            obstruction_probe(src, tgt, F, 1, w, _random_fiber(rng, src, 1))
            (_, psi_inverse), (chi, _) = mobius_map(src, w), mobius_map(tgt, evaluate_map(F, w))
            route = jacobian(compose(chi, compose(F, psi_inverse)), np.zeros(m))
            assert_allclose(pushed[-1].reshape(route.shape), route, atol=1e-10)


def test_probe_direction_ignores_the_eigen_solver_basis(monkeypatch):
    # 0.5*z from B^3 into B^4 at this w: the top singular value of the
    # differential is repeated (0.4884, 0.4884, 0.4772), so any unit vector of
    # its eigenspace is a dominant direction
    F = parse_map(["0.5*z1", "0.5*z2", "0.5*z3", "0"], 3)
    w = np.array([0.1, 0.2j, -0.1])
    real = kform.levi.hermitian_eigen
    rng = np.random.default_rng(7)

    def rotated_top(h):  # the probe solves stacks of matrices
        vals, vecs = real(h)
        vecs = vecs.copy()
        for row, frame in zip(vals.reshape(-1, vals.shape[-1]), vecs.reshape(-1, *vecs.shape[-2:])):
            top = row >= row[-1] - 1e-10 * abs(row[-1])
            k = int(top.sum())
            u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            frame[:, top] = frame[:, top] @ u
        return vals, vecs

    for p in (1, 2):
        xi = _random_fiber(rng, ball(3), p)
        monkeypatch.setattr(kform.levi, "hermitian_eigen", real)
        base = obstruction_probe(ball(3), ball(4), F, p, w, xi)
        monkeypatch.setattr(kform.levi, "hermitian_eigen", rotated_top)
        for _ in range(5):
            res = obstruction_probe(ball(3), ball(4), F, p, w, xi)
            assert abs(res.lhs - base.lhs) <= 1e-12 * max(1.0, abs(base.lhs))
            assert abs(res.rhs - base.rhs) <= 1e-12 * max(1.0, abs(base.rhs))


def test_probe_validates_inputs():
    F = parse_map(["0.2*z1", "0.2*z2"], 2)
    with pytest.raises(PreconditionError):
        obstruction_probe(euclidean(2), projective(2), F, 1, [0, 0], [1, 0])
    with pytest.raises(PreconditionError):
        obstruction_probe(euclidean(2), ball(2, sig=1), F, 1, [0, 0], [1, 0])
    with pytest.raises(PreconditionError):
        obstruction_probe(euclidean(2, sig=1), ball(2), F, 1, [0, 0], [1, 0])
    with pytest.raises(DegenerateSampleError):
        obstruction_probe(euclidean(2), ball(2), F, 1, [0, 0], [0, 0])
    with pytest.raises(DimensionError):
        obstruction_probe(euclidean(3), ball(2), F, 1, [0, 0, 0], [1, 0, 0])
