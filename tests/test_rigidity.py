import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kform.rigidity as rigidity
from kform.errors import DefinitenessError, DegenerateSampleError, DomainError, PreconditionError
from kform.expressions import parse_map
from kform.linalg import generalized_eigenvalues
from kform.ppforms import _pooled_ratio, proportionality_test, pullback_pp, wedge_power_coeffs
from kform.rigidity import (
    EigenProfile,
    conclude_isometry_factor,
    eigen_products_check,
    profile_from_pullback,
    ricci_pullback_check,
)
from kform.scenarios import run_scenario
from kform.spaceforms import ball, euclidean, metric, projective, sample_chart_points
from oracles import identity_map, random_posdef

VERONESE = ["1.4142135623730951*z1", "z1^2"]
FLAT_EXAMPLE_2 = ["z1+1/(1-z2)", "z2"]
# an automorphism of B^2 moving 0.3 e_1 to 0, followed by B^2 -> B^3
BALL_AUT_INTO_B3 = ["(z1-0.3)/(1-0.3*z1)", "0.9539392014169456*z2/(1-0.3*z1)", "0"]


def test_profile_sorts_and_validates():
    prof = EigenProfile(lambdas=[3.0, 1.0, 2.0], p=1, lambdaTarget=2.0)
    assert_allclose(prof.lambdas, [1.0, 2.0, 3.0])
    assert prof.m == 3
    with pytest.raises(ValueError):
        EigenProfile(lambdas=[], p=1, lambdaTarget=1.0)
    with pytest.raises(ValueError):
        EigenProfile(lambdas=[np.nan], p=1, lambdaTarget=1.0)


def test_products_check_constant_profile_passes():
    prof = EigenProfile(lambdas=[2.0, 2.0, 2.0], p=2, lambdaTarget=4.0)
    assert eigen_products_check(prof)
    assert conclude_isometry_factor(prof) == pytest.approx(2.0, rel=1e-12)


def test_products_check_mixed_profile_fails():
    # pairwise products 2, 4, 8 cannot all match one constant
    prof = EigenProfile(lambdas=[1.0, 2.0, 4.0], p=2, lambdaTarget=4.0)
    assert not eigen_products_check(prof)
    assert conclude_isometry_factor(prof) is None


def test_top_degree_witness_passes_products_but_refuses_conclusion():
    # (1/2, 2*lam) preserves the top product without being conformal
    lam = 3.7
    prof = EigenProfile(lambdas=[0.5, 2.0 * lam], p=2, lambdaTarget=lam)
    assert eigen_products_check(prof)
    with pytest.raises(PreconditionError):
        conclude_isometry_factor(prof)


def test_degree_out_of_range_rejected():
    prof = EigenProfile(lambdas=[1.0, 1.0], p=3, lambdaTarget=1.0)
    with pytest.raises(PreconditionError):
        eigen_products_check(prof)


def _products_verdict_by_np_prod(profile, tol):
    lam = profile.lambdaTarget
    subsets = combinations(profile.lambdas, profile.p)
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
            prof = EigenProfile(lambdas=lams, p=p, lambdaTarget=1.0)
            worst = max(abs(float(np.prod(s)) - 1.0) for s in combinations(prof.lambdas, p))
            tols = [worst, np.nextafter(worst, 0.0)]
        else:
            target = float(np.prod(rng.choice(lams, size=p, replace=False)))
            prof = EigenProfile(lambdas=lams, p=p, lambdaTarget=target)
            tols = [10.0 ** rng.uniform(-16, -1)]
        for tol in tols:
            want = _products_verdict_by_np_prod(prof, tol)
            assert eigen_products_check(prof, tol) == want
            verdicts.append(want)
    assert 300 < sum(verdicts) < len(verdicts) - 300


def test_random_nonconstant_profiles_fail():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        lams = rng.uniform(0.5, 2.0, size=m)
        lams[int(rng.integers(m))] *= 1.05
        target = float(np.prod(np.sort(lams)[:p]))
        prof = EigenProfile(lambdas=lams, p=p, lambdaTarget=target)
        assert not eigen_products_check(prof)


def test_passing_profiles_are_constant():
    # below top degree the product constraint pins every eigenvalue
    rng = np.random.default_rng(11)
    tol = 1e-8
    for _ in range(400):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        base = float(rng.uniform(0.3, 3.0))
        scale = 10.0 ** rng.uniform(-12, -3)
        lams = base * (1.0 + scale * rng.uniform(-1, 1, size=m))
        prof = EigenProfile(lambdas=lams, p=p, lambdaTarget=float(base**p))
        if eigen_products_check(prof, tol):
            spread = float(prof.lambdas.max() - prof.lambdas.min())
            assert spread <= 10.0 * tol * float(prof.lambdas.mean())


def test_construct_then_recover_factor():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(1, m))
        lam = float(rng.uniform(0.5, 4.0))
        mu = lam ** (1.0 / p)
        g = random_posdef(rng, m)
        h = mu * g
        prof = EigenProfile(
            lambdas=generalized_eigenvalues(h, g), p=p, lambdaTarget=lam
        )
        got = conclude_isometry_factor(prof)
        assert got is not None
        assert got == pytest.approx(mu, rel=1e-8)


def test_profile_from_identity_pullback():
    sf = ball(2)
    for w in sample_chart_points(sf, 5, seed=3):
        prof = profile_from_pullback(identity_map(2), sf, sf, 2, w)
        assert_allclose(prof.lambdas, [1.0, 1.0], atol=1e-10)
        assert prof.lambdaTarget == pytest.approx(1.0, abs=1e-10)
        assert conclude_isometry_factor(EigenProfile(prof.lambdas, 1, 1.0)) is not None


def test_profile_from_scaled_flat_map():
    a = 0.7
    F = parse_map([f"{a}*z1", f"{a}*z2", "0"], 2)
    src, tgt = euclidean(2), euclidean(3)
    prof = profile_from_pullback(F, src, tgt, 2, [0.4, -0.2])
    assert_allclose(prof.lambdas, [a**2, a**2], atol=1e-12)
    assert prof.lambdaTarget == pytest.approx(a**4, abs=1e-12)


def test_profile_veronese_matches_factor_two():
    F = parse_map(VERONESE, 1)
    prof = profile_from_pullback(F, projective(1), projective(2), 1, [0.3])
    assert_allclose(prof.lambdas, [2.0], atol=1e-10)
    assert prof.lambdaTarget == pytest.approx(2.0, abs=1e-10)
    assert eigen_products_check(prof)


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


def test_ricci_check_skips_singular_jacobians():
    F = parse_map(["z1^2", "z2"], 2)
    pts = [[0.0, 0.3], [0.2, 0.1]]
    with pytest.warns(UserWarning):
        ok, _, skipped = ricci_pullback_check(F, euclidean(2), euclidean(2), pts)
    assert ok and skipped == 1
    constant = parse_map(["0.1", "0.2"], 2)
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateSampleError):
            ricci_pullback_check(constant, euclidean(2), euclidean(2), pts)


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


def test_profile_pulls_back_once_per_point_at_p1(monkeypatch):
    calls = []

    def counting(*args):
        if sys._getframe(1).f_code is profile_from_pullback.__code__:
            calls.append(args[3])
        return pullback_pp(*args)

    monkeypatch.setattr(rigidity, "pullback_pp", counting)
    scenario = {
        "mode": "rigidity",
        "source": {"kind": "ball", "dim": 2},
        "target": {"kind": "ball", "dim": 3},
        "map": BALL_AUT_INTO_B3,
        "p": 1,
        "sampling": {"count": 10, "seed": 5},
    }
    assert run_scenario(scenario).overall == "PASS"
    assert calls == [1] * 10
    # lambda is bit for bit the pooled ratio of a separate (1,1) pullback
    src, tgt, F = ball(2), ball(3), parse_map(BALL_AUT_INTO_B3, 2)
    for w in sample_chart_points(src, 10, seed=5):
        bp = wedge_power_coeffs(metric(src, w), 1)
        separate = _pooled_ratio([(bp, pullback_pp(F, src, tgt, 1, w))])
        assert profile_from_pullback(F, src, tgt, 1, w).lambdaTarget == separate
