"""Acceptance battery: ten stated criteria, one printed verdict line each.

Run with -s to see the lines; each test also asserts its criterion so the
battery gates the build.  Tolerances here are the contract values, not the
library defaults.
"""

import math

import numpy as np

from kform.expressions import parse_map
from kform.levi import levi_form, obstruction_probe, sample_bundle_points
from kform.linalg import generalized_eigenvalues, hermitize, sign_counts
from kform.numdiff import wirtinger_hessian
from kform.ppforms import (
    index_basis,
    proportionality_test,
    pullback_pp,
    relatives_test,
    wedge_power_coeffs,
)
from kform.rigidity import EigenProfile, conclude_isometry_factor, eigen_products_check
from kform.scenarios import report_to_json
from kform.spaceforms import (
    ball,
    euclidean,
    metric,
    projective,
    ricci,
    sample_chart_points,
)
from kform.suite import run_paper_suite
from kform.umehara import ball_slice, bi_series, coeff_rank, proj_slice, psi, series_eval

SEED = 42


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_eigen_product_rigidity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        lam = float(np.exp(rng.uniform(-2.0, 2.0)))
        b = np.eye(m) + 0.3 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        g = b.conj().T @ b
        q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        base = q.conj().T @ g @ q
        h = lam ** (1.0 / p) * base
        factor = conclude_isometry_factor(
            EigenProfile(generalized_eigenvalues(h, base), p, lam), tol=1e-8
        )
        if factor is None:
            ok = False
            continue
        worst = max(worst, abs(factor - lam ** (1.0 / p)) / lam ** (1.0 / p))
    ok = ok and worst <= 1e-8

    rejected = 0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        p = int(rng.integers(1, m))
        lams = np.full(m, float(np.exp(rng.uniform(-1.0, 1.0))))
        lams[int(rng.integers(0, m))] *= 1.05
        target = float(np.prod(np.sort(lams)[:p]))
        if not eigen_products_check(EigenProfile(lams, p, target), tol=1e-8):
            rejected += 1
    ok = ok and rejected == 1000
    _report(1, ok, f"worst recovery {worst:.2e}, {rejected}/1000 non-constant rejected")


def test_criterion_02_top_degree_example():
    src, tgt = euclidean(2), euclidean(4)
    F = parse_map(["z1+1/(1-z2)", "z2", "0", "0"], 2)
    points = sample_chart_points(src, 100, SEED + 2, radius=0.5)
    worst = max(
        float(np.abs(pullback_pp(F, src, tgt, 2, w)[0, 0] - 1.0)) for w in points
    )
    res1 = proportionality_test(F, src, tgt, 1, points, tol=1e-8)
    ok = worst <= 1e-12 and (not res1.passed) and res1.maxResidual > 1e-2
    _report(2, ok, f"p=2 max |Theta-1| {worst:.2e}, p=1 residual {res1.maxResidual:.2e}")


def test_criterion_03_veronese_isometry():
    F = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
    points = sample_chart_points(projective(1), 50, SEED + 3)
    res = proportionality_test(F, projective(1), projective(2), 1, points, tol=1e-10)
    ok = res.passed and abs(res.lambdaHat - 2.0) <= 1e-10 and res.lambdaHat >= 1.0
    _report(3, ok, f"lambdaHat {res.lambdaHat:.12f}")


def test_criterion_04_ricci_identities():
    worst = 0.0
    for n in (1, 2, 3):
        for sf, sign in ((ball(n), -1.0), (projective(n), 1.0)):
            for w in sample_chart_points(sf, 200, SEED + 4 + n):
                dev = np.abs(ricci(sf, w) - sign * (n + 1) * metric(sf, w)).max()
                worst = max(worst, float(dev))
    worst_fd = 0.0
    for n in (1, 2):
        for sf in (ball(n), projective(n)):
            for w in sample_chart_points(sf, 3, SEED + 44 + n):

                def logdet(z, sf=sf):
                    return float(np.log(np.linalg.det(metric(sf, z)).real))

                worst_fd = max(
                    worst_fd, float(np.abs(ricci(sf, w) + wirtinger_hessian(logdet, w)).max())
                )
    ok = worst <= 1e-9 and worst_fd <= 1e-5
    _report(4, ok, f"analytic residual {worst:.2e}, finite-difference {worst_fd:.2e}")


def test_criterion_05_levi_signatures():
    cases = [(projective(m), m, (m, 0, 0), False) for m in (1, 2, 3)]
    # the positive-count bound applies to the mixed-signature cases only
    cases += [(projective(2), 1, (2, 0, 1), True), (projective(3), 2, (3, 0, 2), True)]
    for n in (1, 2, 3):
        for p in (1, 2):
            if p <= n:
                cases.append((ball(n), p, (0, 0, n + math.comb(n, p) - 1), False))
    ok = True
    min_eig = np.inf
    for k, (sf, p, expected, bounded) in enumerate(cases):
        for pt in sample_bundle_points(sf, p, 1.0, 20, SEED + 50 + k):
            rep = levi_form(sf, p, 1.0, pt.base, pt.fiber)
            ok = ok and (rep.nNeg, rep.nZero, rep.nPos) == expected
            min_eig = min(min_eig, float(np.abs(rep.eigenvalues).min()))
        if bounded:
            total_dim = sf.dim + math.comb(sf.dim, p)
            ok = ok and expected[2] <= (total_dim - 1) / 2
    ok = ok and min_eig > 1e-8
    _report(5, ok, f"{len(cases)} bundle cases, min |eigenvalue| {min_eig:.2e}")


def test_criterion_06_obstruction_probes():
    families = [
        (euclidean(2), ball(3), [
            ["0.2*z1", "0.2*z2", "0.1"],
            ["0.1*z1+0.1*z2^2", "0.05*z2", "0.2"],
            ["0.15*z2", "0.15*z1", "0.1*z1*z2"],
        ]),
        (projective(1), ball(2), [
            ["0.3*z1", "0.1"],
            ["0.1*z1^2", "0.2*z1"],
            ["0.2*z1+0.05", "0.1*z1^2-0.1"],
        ]),
    ]
    ok = True
    conclusive = 0
    for j, (src, tgt, maps) in enumerate(families):
        rng = np.random.default_rng(SEED + 60 + j)
        for k, comps in enumerate(maps):
            F = parse_map(comps, src.dim)
            for w in sample_chart_points(src, 20, SEED + 60 + 10 * j + k):
                xi = rng.normal(size=src.dim) + 1j * rng.normal(size=src.dim)
                res = obstruction_probe(src, tgt, F, 1, w, xi)
                if res.inconclusive:
                    continue
                conclusive += 1
                ok = ok and res.conflict
    ok = ok and conclusive > 0

    rng = np.random.default_rng(SEED + 69)
    F = parse_map(["z1", "0"], 1)
    control_clean = True
    for w in sample_chart_points(ball(1), 20, SEED + 69):
        xi = rng.normal(size=1) + 1j * rng.normal(size=1)
        res = obstruction_probe(ball(1), ball(2), F, 1, w, xi)
        control_clean = control_clean and not res.conflict
    ok = ok and control_clean
    _report(6, ok, f"{conclusive} conclusive probes all conflicting, control clean")


def test_criterion_07_coefficient_ranks():
    ok = all(
        coeff_rank(ball_slice(p, n)) == n + 1 for p in (1, 2, 3) for n in range(11)
    )
    rng = np.random.default_rng(SEED + 7)
    for _ in range(200):
        tf = rng.normal(size=7) + 1j * rng.normal(size=7)
        tg = rng.normal(size=7) + 1j * rng.normal(size=7)
        c = np.outer(tf, np.conj(tg)) + np.outer(tg, np.conj(tf))
        ok = ok and coeff_rank(bi_series(c)) <= 2
    ranks = [coeff_rank(psi(1, parse_map(["z1"], 1), n)) for n in (2, 4, 6, 8, 10)]
    ok = ok and all(b > a for a, b in zip(ranks, ranks[1:]))
    worst = 0.0
    for p in (1, 2, 3):
        bs, ps = ball_slice(p, 30), proj_slice(p, 30)
        for _ in range(20):
            zeta = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
            x = abs(zeta) ** 2
            worst = max(worst, abs(series_eval(bs, zeta) - (1 - x) ** (-(p + 1))))
            worst = max(worst, abs(series_eval(ps, zeta) - (1 + x) ** (-(p + 1))))
    ok = ok and worst <= 1e-10
    _report(7, ok, f"psi ranks {ranks}, slice identity residual {worst:.2e}")


def test_criterion_08_indefinite_metrics():
    ok = True
    for n, s in ((2, 0), (2, 1), (3, 1), (3, 2)):
        flat = euclidean(n, s)
        eps = np.diag(flat.eps).astype(np.complex128)
        for w in sample_chart_points(flat, 5, SEED + 80 + n + s):
            ok = ok and np.array_equal(metric(flat, w), eps)
        for sf in (ball(n, s), projective(n, s)):
            g0 = metric(sf, np.zeros(n))
            ok = ok and np.array_equal(g0, np.diag(sf.eps).astype(np.complex128))
            counts = sign_counts(np.linalg.eigvalsh(hermitize(g0)))
            ok = ok and (counts[0], counts[2]) == (n - s, s)
            for w in sample_chart_points(sf, 5, SEED + 81 + n + s):
                g = metric(sf, w)
                ok = ok and float(np.abs(g - g.conj().T).max()) <= 1e-13

    worst = 0.0
    spaces = [euclidean(3, 2), ball(3), ball(3, 2), projective(3), projective(3, 1)]
    for i, sf in enumerate(spaces):
        for w in sample_chart_points(sf, 20, SEED + 85 + i):
            g = metric(sf, w)
            for p in (1, 2):
                basis = index_basis(3, p)
                entries = wedge_power_coeffs(g, p)
                for a, row in enumerate(basis):
                    for b, col in enumerate(basis):
                        brute = np.linalg.det(
                            g[np.ix_([i - 1 for i in row], [j - 1 for j in col])]
                        )
                        worst = max(
                            worst, float(abs(entries[a, b] - brute) / (1.0 + abs(brute)))
                        )
    ok = ok and worst <= 1e-10
    _report(8, ok, f"patterns exact, minor residual {worst:.2e}")


def test_criterion_09_relatives():
    veronese = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
    ident = parse_map(["z1"], 1)
    points = sample_chart_points(euclidean(1), 50, SEED + 9, radius=0.8)
    res = relatives_test(
        veronese, ident, projective(2), projective(1), 1, 1, points, tol=1e-8
    )
    ok = res.passed and abs(res.lambdaHat - 2.0) <= 1e-8

    res2 = relatives_test(ident, ident, ball(1), projective(1), 1, 1, points, tol=1e-8)
    ratios = [
        float(
            (
                pullback_pp(ident, euclidean(1), ball(1), 1, w)[0, 0]
                / pullback_pp(ident, euclidean(1), projective(1), 1, w)[0, 0]
            ).real
        )
        for w in points
    ]
    spread = max(ratios) - min(ratios)
    ok = ok and (not res2.passed) and spread > 1e-2
    _report(9, ok, f"veronese lambdaHat {res.lambdaHat:.9f}, ratio spread {spread:.2e}")


def test_criterion_10_suite_determinism():
    report = run_paper_suite()
    # every check is timed, and no timing reaches the canonical form
    assert all(math.isfinite(r.seconds) and r.seconds > 0 for r in report.checks)
    first = report_to_json(report)
    assert '"seconds"' not in first
    second = report_to_json(run_paper_suite())
    ok = first == second and '"overall": "PASS"' in first
    _report(10, ok, f"{len(first)} canonical bytes, suite overall PASS")
