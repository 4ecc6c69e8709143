import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kform.ppforms as ppforms
from kform.errors import (
    DefinitenessError,
    DegenerateSampleError,
    DimensionError,
    DomainError,
    EvaluationLimitError,
    PreconditionError,
)
from kform.expressions import compose, map_jet, parse_map
from kform.linalg import generalized_eigenvalues
from kform.ppforms import pooled_fit, proportionality_test, pullback_pp, wedge_power_coeffs
from kform.rigidity import (
    conclude_isometry_factor,
    eigen_products_check,
    product_rule,
    profile_from_pullback,
    profiles_from_pullback,
    ricci_pullback_check,
)
from kform.scenarios import run_scenario
from kform.spaceforms import ball, euclidean, metric, projective, sample_chart_points
from oracles import (
    identity_map,
    mobius_components,
    random_ball_point,
    random_posdef,
    random_unitary,
    ricci_pullback_reference,
)

VERONESE = ["1.4142135623730951*z1", "z1^2"]
FLAT_EXAMPLE_2 = ["z1+1/(1-z2)", "z2"]
# an automorphism of B^2 moving 0.3 e_1 to 0, followed by B^2 -> B^3
BALL_AUT_INTO_B3 = ["(z1-0.3)/(1-0.3*z1)", "0.9539392014169456*z2/(1-0.3*z1)", "0"]


def test_rows_are_sorted_and_validated():
    # an unsorted row gets the verdicts of the sorted row
    for row in ([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]):
        assert eigen_products_check(row, 1, 2.0, 0.5)
        assert not eigen_products_check(row, 1, 2.0)
        assert not eigen_products_check(row, 2, 3.0, 0.5)
        assert eigen_products_check(row, 2, 3.0, 1.0)
        assert conclude_isometry_factor(row, 1, 2.0, 0.5) == 2.0
        assert conclude_isometry_factor(row, 1, 2.0) is None
    for tol, ok, factor in ((0.1, False, np.nan), (1.0, True, 2.0)):
        products, factors = product_rule([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]], 2, [3.0, 3.0], tol)
        assert products.tolist() == [ok, ok]
        np.testing.assert_array_equal(factors, [factor, factor])
    # an empty row has no degree in range, and a non-finite row is refused
    with pytest.raises(PreconditionError, match="out of range 1..0"):
        eigen_products_check([], 1, 1.0)
    with pytest.raises(PreconditionError):
        conclude_isometry_factor([], 1, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            eigen_products_check([1.0, bad], 1, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            conclude_isometry_factor([1.0, bad], 1, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            product_rule([[1.0, 1.0], [1.0, bad]], 1, [1.0, 1.0])


def test_products_check_constant_row_passes():
    assert eigen_products_check([2.0, 2.0, 2.0], 2, 4.0)
    assert conclude_isometry_factor([2.0, 2.0, 2.0], 2, 4.0) == pytest.approx(2.0, rel=1e-12)


def test_products_check_mixed_row_fails():
    # pairwise products 2, 4, 8 cannot all match one constant
    assert not eigen_products_check([1.0, 2.0, 4.0], 2, 4.0)
    assert conclude_isometry_factor([1.0, 2.0, 4.0], 2, 4.0) is None


def test_top_degree_witness_passes_products_but_refuses_conclusion():
    # (1/2, 2*lam) preserves the top product without being conformal
    lam = 3.7
    row = [0.5, 2.0 * lam]
    assert eigen_products_check(row, 2, lam)
    with pytest.raises(PreconditionError):
        conclude_isometry_factor(row, 2, lam)


def test_degree_out_of_range_rejected():
    with pytest.raises(PreconditionError):
        eigen_products_check([1.0, 1.0], 3, 1.0)


def _products_verdict_by_np_prod(lams, p, lam, tol):
    subsets = combinations(np.sort(lams), p)
    return all(abs(float(np.prod(s)) - lam) <= tol * abs(lam) for s in subsets)


def test_products_check_matches_the_numpy_product_loop():
    # the worst product is placed exactly at the bound (tol = its deviation
    # from lambda = 1) and one ulp past it, so a product rounded in another
    # order or a non-strict comparison changes a verdict
    rng = np.random.default_rng(61)
    verdicts = []
    for k in range(1000):
        m = int(rng.integers(1, 7))
        p = int(rng.integers(1, m + 1))
        lams = np.exp(rng.normal(scale=10.0 ** rng.uniform(-9, 0), size=m))
        if k % 2:
            target = 1.0
            worst = max(abs(float(np.prod(s)) - 1.0) for s in combinations(np.sort(lams), p))
            tols = [worst, np.nextafter(worst, 0.0)]
        else:
            target = float(np.prod(rng.choice(lams, size=p, replace=False)))
            tols = [10.0 ** rng.uniform(-16, -1)]
        for tol in tols:
            want = _products_verdict_by_np_prod(lams, p, target, tol)
            assert eigen_products_check(lams, p, target, tol) == want
            verdicts.append(want)
    assert 300 < sum(verdicts) < len(verdicts) - 300


def test_product_rule_is_the_one_row_checks():
    # one stack per (m, p) gives each row's products verdict and factor,
    # over concluded and product-refused rows
    rng = np.random.default_rng(19)
    seen = set()
    for m in range(2, 7):
        for p in range(1, m + 1):
            base = rng.uniform(0.5, 2.0, size=(30, 1))
            lams = base * (1.0 + 10.0 ** rng.uniform(-13, -1, size=(30, 1)) * rng.uniform(-1, 1, size=(30, m)))
            targets = base[:, 0] ** p
            products, factors = product_rule(lams, p, targets, tol=1e-8)
            for row, target, ok, factor in zip(lams, targets, products, factors):
                assert bool(ok) == eigen_products_check(row, p, target, tol=1e-8)
                if p < m:
                    want = conclude_isometry_factor(row, p, target, tol=1e-8)
                    assert (np.isnan(factor) and want is None) or factor == want
                    seen.add((bool(ok), want is None))
    assert seen == {(True, False), (False, True)}
    # the degree must lie in 1..m, on the array rule and on its one-row views
    for p in (0, 3, -1):
        with pytest.raises(PreconditionError, match="out of range 1..2"):
            product_rule(np.ones((4, 2)), p, np.ones(4))
    with pytest.raises(PreconditionError, match="out of range 1..2"):
        eigen_products_check([1.0, 1.0], 3, 1.0)
    # one target per row of an (S, m) array: other shapes name both shapes
    for targets in (np.ones((3, 2)), [1.0, 1.0], 1.0):
        with pytest.raises(DimensionError, match=r"got \(3, 2\) and \("):
            product_rule(np.ones((3, 2)), 1, targets)
    with pytest.raises(DimensionError, match=r"got \(3,\) and \(3,\)"):
        product_rule(np.ones(3), 1, np.ones(3))


def test_random_nonconstant_rows_fail():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        lams = rng.uniform(0.5, 2.0, size=m)
        lams[int(rng.integers(m))] *= 1.05
        target = float(np.prod(np.sort(lams)[:p]))
        assert not eigen_products_check(lams, p, target)


def test_passing_rows_are_constant():
    # below top degree the product constraint pins every eigenvalue
    rng = np.random.default_rng(11)
    tol = 1e-8
    for _ in range(400):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        base = float(rng.uniform(0.3, 3.0))
        scale = 10.0 ** rng.uniform(-12, -3)
        lams = base * (1.0 + scale * rng.uniform(-1, 1, size=m))
        if eigen_products_check(lams, p, float(base**p), tol):
            spread = float(lams.max() - lams.min())
            assert spread <= 10.0 * tol * float(lams.mean())


def test_construct_then_recover_factor():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(1, m))
        lam = float(rng.uniform(0.5, 4.0))
        mu = lam ** (1.0 / p)
        g = random_posdef(rng, m)
        h = mu * g
        got = conclude_isometry_factor(generalized_eigenvalues(h, g), p, lam)
        assert got is not None
        assert got == pytest.approx(mu, rel=1e-8)


def test_profile_from_identity_pullback():
    sf = ball(2)
    for w in sample_chart_points(sf, 5, seed=3):
        lams, target = profile_from_pullback(identity_map(2), sf, sf, 2, w)
        assert_allclose(lams, [1.0, 1.0], atol=1e-10)
        assert target == pytest.approx(1.0, abs=1e-10)
        assert conclude_isometry_factor(lams, 1, 1.0) is not None


def test_profile_from_scaled_flat_map():
    a = 0.7
    F = parse_map([f"{a}*z1", f"{a}*z2", "0"], 2)
    src, tgt = euclidean(2), euclidean(3)
    lams, target = profile_from_pullback(F, src, tgt, 2, [0.4, -0.2])
    assert_allclose(lams, [a**2, a**2], atol=1e-12)
    assert target == pytest.approx(a**4, abs=1e-12)


def test_profile_veronese_matches_factor_two():
    F = parse_map(VERONESE, 1)
    lams, target = profile_from_pullback(F, projective(1), projective(2), 1, [0.3])
    assert_allclose(lams, [2.0], atol=1e-10)
    assert target == pytest.approx(2.0, abs=1e-10)
    assert eigen_products_check(lams, 1, target)


def test_profile_requires_definite_source():
    sf = euclidean(2, sig=1)
    with pytest.raises(DefinitenessError):
        profile_from_pullback(identity_map(2), sf, sf, 1, [0.1, 0.2])


def test_isometries_pull_omega_back_to_a_pinned_multiple():
    # F*omega_N = factor * omega_M is the p = 1 proportionality with lambdaHat pinned
    for sf in (euclidean(2), ball(2), projective(3)):
        pts = sample_chart_points(sf, 20, seed=5)
        res = proportionality_test(identity_map(sf.dim), sf, sf, 1, pts, tol=1e-8)
        assert res.passed and res.maxResidual < 1e-12
        assert res.lambdaHat == pytest.approx(1.0, abs=1e-12)
    pts = sample_chart_points(projective(1), 20, seed=6)
    res = proportionality_test(parse_map(VERONESE, 1), projective(1), projective(2), 1, pts, tol=1e-8)
    assert res.passed and res.maxResidual < 1e-10
    assert res.lambdaHat == pytest.approx(2.0, abs=1e-10)


def test_flat_example_is_no_isometry():
    F = parse_map(FLAT_EXAMPLE_2, 2)
    pts = [[0.1, 0.2], [0.05, -0.1], [0.0, 0.3]]
    res = proportionality_test(F, euclidean(2), euclidean(2), 1, pts, tol=1e-8)
    assert not res.passed and res.maxResidual > 1e-2
    with pytest.raises(DegenerateSampleError):
        proportionality_test(F, euclidean(2), euclidean(2), 1, [], tol=1e-8)


def test_ricci_check_moebius_disc_automorphism():
    F = parse_map(["(z1-0.3)/(1-0.3*z1)"], 1)
    sf = ball(1)
    pts = sample_chart_points(sf, 15, seed=9)
    ok, resid, skipped = ricci_pullback_check(F, sf, sf, pts)
    assert ok and skipped == 0
    assert resid < 1e-10


def test_ricci_check_flat_example_passes_while_isometry_fails():
    F = parse_map(FLAT_EXAMPLE_2, 2)
    pts = [[0.1, 0.2], [0.05, -0.1]]
    ok, resid, skipped = ricci_pullback_check(F, euclidean(2), euclidean(2), pts)
    assert ok and resid == 0.0 and skipped == 0
    assert not proportionality_test(F, euclidean(2), euclidean(2), 1, pts, tol=1e-8).passed


def _linear_map(u):
    """z -> u z as a parsed map."""
    n = len(u)
    comps = ["+".join(f"({c.real!r}+({c.imag!r})*i)*z{k + 1}" for k, c in enumerate(row)) for row in u.tolist()]
    return parse_map(comps, n)


@pytest.mark.parametrize(
    "space, radius", [(ball, 0.999), (ball, 0.99999), (projective, 20.0), (projective, 1e3)]
)
def test_ricci_check_holds_at_every_scale(space, radius):
    # Ricci entries grow like u^-2 toward the ball's edge and decay far out in
    # the projective chart.  An absolute residual failed the Moebius
    # automorphism of B^3 at radius 0.999 (3.7e-7 against 1e-8), and an
    # absolute |det J| < 1e-12 skipped 1 to 4 of the 5 points of P^4..P^8 at
    # radius 1e3 (all of them at P^5)
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        sf = space(n)
        pts = sample_chart_points(sf, 5, seed=n, radius=radius)
        u = random_unitary(rng, n)
        comps = mobius_components(sf, random_ball_point(rng, n, 0.5))
        mobius = parse_map(comps, n)
        for aut in (mobius, _linear_map(u), compose(_linear_map(u), mobius)):
            ok, resid, skipped = ricci_pullback_check(aut, sf, sf, pts)
            assert ok and skipped == 0, (n, resid)
        bent = parse_map([comps[0] + "+1e-6*z1^2", *comps[1:]], n)
        for false in (bent, _linear_map(0.7 * u)):
            ok, resid, _ = ricci_pullback_check(false, sf, sf, pts)
            assert not ok, (n, resid)
        # flat to flat both sides vanish; flat to curved the residual is 1
        flat = sample_chart_points(euclidean(n), 5, seed=n)
        assert ricci_pullback_check(_linear_map(u), euclidean(n), euclidean(n), flat) == (True, 0.0, 0)
        small = _linear_map(0.3 * u)
        assert ricci_pullback_check(small, euclidean(n), sf, flat) == (False, 1.0, 0)


def _sweep(space, radius):
    """The maps of ``test_ricci_check_holds_at_every_scale`` on space(n), n = 1..8.

    Yields (sf, points, maps): the Moebius, unitary and composed automorphisms,
    the bent and shrunk false maps, and z1 -> z1^2, whose Jacobian is singular
    at the extra point with w1 = 0 put last.
    """
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        sf = space(n)
        pts = sample_chart_points(sf, 5, seed=n, radius=radius)
        u = random_unitary(rng, n)
        comps = mobius_components(sf, random_ball_point(rng, n, 0.5))
        mobius = parse_map(comps, n)
        bent = parse_map([comps[0] + "+1e-6*z1^2", *comps[1:]], n)
        square = parse_map(["z1^2", *(f"z{k}" for k in range(2, n + 1))], n)
        maps = (mobius, _linear_map(u), compose(_linear_map(u), mobius), bent, _linear_map(0.7 * u), square)
        yield sf, np.vstack([pts, np.r_[0.0, pts[0, 1:]]]), maps


def _log_range(*arrays) -> float:
    """The largest |ln x| over the nonzero magnitudes x of the entries of the arrays."""
    mags = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    return float(np.abs(np.log(mags[mags > 0.0])).max())


U = 2.0**-53  # the unit roundoff


@pytest.mark.parametrize(
    "space, radius", [(ball, 0.999), (ball, 0.99999), (projective, 20.0), (projective, 1e3)]
)
def test_ricci_check_is_the_pointwise_reference(space, radius):
    # the fixed-ratio view k_tgt Theta1 against k_src g gives the pointwise
    # reference's verdict and skipped count, and its residual to roundoff.  Per
    # point both routes form the same J^T (k g_tgt) conj(J) and k g_src from
    # the same J and metrics: the stacks round each of the 2n terms of an
    # entry, the 1 x 1 determinants of C_1(J) and C_1(g) (numpy takes a
    # determinant through its logarithm, off by up to |ln x| + 8 ulps), k and
    # hermitize; the reference rounds the 2n terms and k.  So the entries of
    # the two sides move by at most (4n + 3l + 28) u k |J|^T |g_tgt| |J| and
    # (l + 10) u |k g_src|, l the widest |ln| of an entry; a move e in both
    # sides moves max|P - O| / max(|P|, |O|) by at most (1 + r) e / scale.
    # The factor 2 covers the second-order terms; observed moves stay under 8%
    # of the bound
    for sf, pts, maps in _sweep(space, radius):
        k, n = sf.ricci_factor, sf.dim
        for F in maps:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                ok, resid, skipped = ricci_pullback_check(F, sf, sf, pts)
                want_ok, want, want_skipped = ricci_pullback_reference(F, sf, sf, pts)
            assert (ok, skipped) == (want_ok, want_skipped)
            assert len(seen) == 2 * skipped and skipped == (F is maps[-1])
            bound = 0.0
            for w in pts[: len(pts) - skipped]:
                fw, jf = jet = map_jet(F, w)
                g_tgt, g_src = metric(sf, fw), metric(sf, w)
                l = _log_range(*jet, g_tgt, g_src)
                pulled = abs(k) * np.abs(jf).T @ np.abs(g_tgt) @ np.abs(jf)
                scale = max(np.abs(k * jf.T @ g_tgt @ np.conj(jf)).max(), abs(k) * np.abs(g_src).max()) or 1.0
                move = (4 * n + 3 * l + 28) * pulled.max() + (l + 10) * abs(k) * np.abs(g_src).max()
                bound = max(bound, 2.0 * (1.0 + want) * U * move / scale)
            assert abs(resid - want) <= bound, (n, resid, want, bound)
        # flat to flat, flat to curved, and a Jacobian singular at every point
        flat = sample_chart_points(euclidean(n), 5, seed=n)
        pairs = ((maps[1], euclidean(n), (True, 0.0, 0)), (_linear_map(0.3 * np.eye(n)), sf, (False, 1.0, 0)))
        for F, tgt, want in pairs:
            assert ricci_pullback_check(F, euclidean(n), tgt, flat) == want
            assert ricci_pullback_reference(F, euclidean(n), tgt, flat) == want
        null = _linear_map(np.diag(np.r_[np.ones(n - 1), 0.0]))
        for check in (ricci_pullback_check, ricci_pullback_reference):
            with pytest.warns(UserWarning), pytest.raises(DegenerateSampleError, match="all samples"):
                check(null, sf, sf, pts)


@pytest.mark.parametrize("space, radius", [(ball, 0.99999), (projective, 20.0)])
def test_cauchy_binet_targets_are_the_pp_pullback_fits(space, radius):
    # the target at degree p is <B, X> / |B|^2 with B = C_p(g_src) and
    # X = C_p(Theta1) on the stacks, against the one-point pooled fit of
    # pullback_pp's C_p(J)^T C_p(g_tgt) conj C_p(J), the same X by
    # Cauchy-Binet.  First order in u, with M = (|J|_2^2 |g_tgt|_2)^p >= |X|_2
    # and l the widest |ln| of an entry or p-minor: an entry of Theta1 carries
    # the 2n rounded terms and three 1 x 1 determinants (l + 8 each, numpy
    # going through the logarithm), a p-minor multiplies p of them and adds
    # its own LU and logarithm (p + l + 8), so 2p(2n + l + 8) u M bounds an
    # entry of the stacks' X; the product C_p(J)^T W conj C_p(J) sums K^2
    # terms whose magnitudes total at most sqrt(K) M, each rounded 2K times and
    # carrying three p-minors' errors, so (2K + 3(p + l + 8)) sqrt(K) u M; the
    # inner products round K^2 terms of t's scale, at most K M / |B|_F
    # (Cauchy-Schwarz), and |X - X'|_F <= K max|X - X'|.  Observed moves stay
    # under 2% of the bound.  The ball's edge is sampled at its harsher radius
    # only; not at P^n radius 1e3, where the metric's smallest eigenvalue is
    # below the pencil's 1e-10 floor
    for sf, pts, maps in _sweep(space, radius):
        n = sf.dim
        for F in (maps[2], maps[5]):
            jets = [map_jet(F, w) for w in pts]
            g_tgt = [metric(sf, fw) for fw, _ in jets]
            for p in range(2, n + 1):
                K = math.comb(n, p)
                targets = profiles_from_pullback(F, sf, sf, p, pts)[1]
                for w, target, (_, jf), g in zip(pts, targets.tolist(), jets, g_tgt):
                    base = wedge_power_coeffs(metric(sf, w), p)
                    theta = pullback_pp(F, sf, sf, p, w)
                    want = pooled_fit(base[None], theta[None]).lambdaHat
                    l = _log_range(jf, g, metric(sf, w), theta, base)
                    size = (np.linalg.norm(jf, 2) ** 2 * np.linalg.norm(g, 2)) ** p
                    per_entry = 2 * p * (2 * n + l + 8) + (2 * K + 3 * (p + l + 8)) * math.sqrt(K) + 2 * K * K
                    bound = per_entry * U * K * size / np.linalg.norm(base)
                    assert abs(target - want) <= bound, (n, p, target, want, bound)


def test_ricci_check_skips_singular_jacobians():
    F = parse_map(["z1^2", "z2"], 2)
    pts = [[0.0, 0.3], [0.2, 0.1]]
    with pytest.warns(UserWarning):
        ok, _, skipped = ricci_pullback_check(F, euclidean(2), euclidean(2), pts)
    assert ok and skipped == 1
    # a Jacobian singular on its own scale skips; one with tiny entries does not
    tiny = parse_map(["z1+z2", "1e-20*z1"], 2)
    assert ricci_pullback_check(tiny, euclidean(2), euclidean(2), pts) == (True, 0.0, 0)
    for rows in (["1e-20*z1", "1e-20*z1"], ["z1+z2", "0*z1"]):
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateSampleError):
                ricci_pullback_check(parse_map(rows, 2), euclidean(2), euclidean(2), pts)
    constant = parse_map(["0.1", "0.2"], 2)
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateSampleError):
            ricci_pullback_check(constant, euclidean(2), euclidean(2), pts)


def _flat_rigidity(comps, p: int) -> dict:
    return {"mode": "rigidity", "source": {"kind": "euclidean", "dim": 2}, "target": {"kind": "euclidean", "dim": 2},
            "map": comps, "p": p, "sampling": {"count": 5, "seed": 1}}


def test_default_rigidity_tol_is_pinned_from_both_sides():
    # F = (z1, sqrt(1 + d) z2) has the pencil row (1, 1 + d) at every point and
    # the p = 1 target 1 + d/2, so each product is off by (d/2) / (1 + d/2):
    # 5e-9 passes and 2e-8 fails the default 1e-8
    for d, verdict in ((1e-8, "PASS"), (4e-8, "FAIL")):
        report = run_scenario(_flat_rigidity(["z1", f"{math.sqrt(1 + d)!r}*z2"], 1))
        verdicts = {rec.name: rec.verdict for rec in report.checks}
        assert verdicts == {"eigen_products": verdict, "isometry_factor": verdict, "ricci_pullback": "PASS"}, d


def test_singular_jacobian_bound_is_pinned_from_both_sides():
    # J = [[1, 1], [1, 1 + e]] scales to [[1/2, 1/2], [1/2, (1 + e)/2]], whose
    # determinant is e/4: 2.5e-13 is below 1e-12 and skips every sample, 4e-12 keeps them
    pts = sample_chart_points(euclidean(2), 5, seed=1)
    inside = parse_map(["z1+z2", f"z1+{1 + 1e-12!r}*z2"], 2)
    with pytest.warns(UserWarning, match="singular Jacobian"):
        with pytest.raises(DegenerateSampleError, match="all samples had singular Jacobians"):
            ricci_pullback_check(inside, euclidean(2), euclidean(2), pts)
    outside = parse_map(["z1+z2", f"z1+{1 + 1.6e-11!r}*z2"], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ricci_pullback_check(outside, euclidean(2), euclidean(2), pts) == (True, 0.0, 0)


def test_flat_row_factor_is_pinned_from_both_sides():
    # at top degree one product holds whatever the spread, so the spread bound
    # 10 tol |mean| decides alone: the row (1 - e, 1 + e) spreads 2e around
    # mean 1, and at tol = 1e-6 a spread of 5e-6 is flat while 2e-5 is not
    pts = sample_chart_points(euclidean(2), 5, seed=1)
    for e, flat in ((2.5e-6, True), (1e-5, False)):
        F = parse_map([f"{math.sqrt(1 - e)!r}*z1", f"{math.sqrt(1 + e)!r}*z2"], 2)
        lams, targets = profiles_from_pullback(F, euclidean(2), euclidean(2), 2, pts)
        products, factors = product_rule(lams, 2, targets, 1e-6)
        assert products.all(), e
        assert np.isfinite(factors).all() if flat else np.isnan(factors).all(), e
    # below top degree at a zero target: a rank-one pullback has pencil rows
    # (0, 0, x) and the degree-2 target 0, which every 2-fold product meets
    # exactly at any x, so the flat bound alone refuses the factor x/3, while
    # the zero row keeps the factor 0 of a constant map
    products, factors = product_rule([[0.0, 0.0, 4.0], [0.0, 0.0, 0.0]], 2, [0.0, 0.0])
    assert products.all()
    assert np.isnan(factors[0]) and factors[1] == 0.0


def test_ricci_check_requires_equal_dimensions():
    F = parse_map(["z1", "z2", "0"], 2)
    with pytest.raises(PreconditionError):
        ricci_pullback_check(F, euclidean(2), euclidean(3), [[0.1, 0.2]])
    # an image whose |F(w)|^2 overflows is named as such, with no numpy warning first
    far = parse_map(["1e200*z1"], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="map image lies outside the target chart domain"):
            ricci_pullback_check(far, ball(1), projective(1), [[0.5]])
    # Jacobians whose (1,1) pullback J^T g conj(J) overflows at an image in the chart
    for n in (1, 2):
        steep = parse_map([f"1e200*z{k}" for k in range(1, n + 1)], n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationLimitError, match=r"the \(1,1\) pullback overflows"):
                ricci_pullback_check(steep, projective(n), projective(n), [[0.0] * n])


def test_rigidity_rows_take_one_11_pullback_per_point(monkeypatch):
    # at p = 2 as at p = 1: the degree-p targets are compounds of the (1,1) stack
    calls = []

    def counting(*args):
        calls.append(args[3])
        return pullback_pp(*args)

    monkeypatch.setattr(ppforms, "pullback_pp", counting)
    for p in (1, 2):
        scenario = {
            "mode": "rigidity",
            "source": {"kind": "ball", "dim": 2},
            "target": {"kind": "ball", "dim": 3},
            "map": BALL_AUT_INTO_B3,
            "p": p,
            "sampling": {"count": 10, "seed": 5},
        }
        calls.clear()
        assert run_scenario(scenario).overall == "PASS"
        assert calls == [1] * 10
    monkeypatch.undo()
    # lambda is bit for bit the one-point pooled fit of a separate (1,1) pullback;
    # the stacked targets sum each point's entries in another order, so they
    # agree with it to a few ulps of the 4-term sums
    src, tgt, F = ball(2), ball(3), parse_map(BALL_AUT_INTO_B3, 2)
    pts = sample_chart_points(src, 10, seed=5)
    targets = profiles_from_pullback(F, src, tgt, 1, pts)[1]
    for w, target in zip(pts, targets.tolist()):
        bp = wedge_power_coeffs(metric(src, w), 1)
        separate = pooled_fit(bp[None], pullback_pp(F, src, tgt, 1, w)[None]).lambdaHat
        assert profile_from_pullback(F, src, tgt, 1, w)[1] == separate
        assert target == pytest.approx(separate, rel=1e-15, abs=0.0)
