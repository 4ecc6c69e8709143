"""Canned verification battery: ten numbered check families, fixed seed 42.

Each family c01..c09 exercises one headline identity or obstruction at desk
scale; c10 reruns the whole battery in a fresh interpreter, started alongside
the first run, and byte-compares the canonical JSON, so a PASS certifies
determinism of everything else.  The rerun decides how long the suite
takes, so it exits as soon as its report is flushed, without the
interpreter's teardown.  A family is a generator that yields one
``(name, ok, fields)`` triple per check, and ``scenarios.run_checks`` turns
the triples into CheckRecords; the wall-clock time it puts on each record
never reaches the serialized form.

The families that only the battery runs are array passes.  c05 samples
each case with ``levi.sample_bundle_points``, makes one
``levi.levi_spectra`` call on the stack and decides with
``levi.spectrum_signatures``, the rule levi mode decides with; only the
rows differ, since levi mode takes ``levi_form`` point by point and
``tests/test_levi.py`` checks the two row by row.  c06 makes one
``levi.obstruction_probes`` call per map (``map_jet`` still runs per point
inside it), on fibers from ``levi.draw_fibers``, the draw that
``sample_bundle_points`` makes.  c01 draws m, p and lam once each for
all 1,000 pencils, then each size's normals as one array in ascending m;
it takes one QR, one pencil solve and one ``rigidity.product_rule``, the
rule rigidity mode takes, per (m, p) group.  The
routes shared with the scenario modes (c02-c04, c07, c09) take one point
at a time, their points from ``spaceforms.sample_chart_points``, which
normalizes a whole sample in one array pass; c02 and c09 compute each
pullback once, as the
(S, K, K) stacks of ``ppforms.proportionality_stacks`` and
``ppforms.relatives_stacks``, and read the theta[:, 0, 0] entries and
pointwise ratios of the same stacks that ``ppforms.pooled_fit`` decides on.

Every check compares the route under test with a second route that shares
no code with it, most often a value known in closed form:

    check                             under test          against
    c01_eigen_product_recovery        pencil eigenvalues, the factor lam^(1/p)
                                      product_rule        the pencils carry
    c01_eigen_product_nonconstant     product_rule        rows 5% off: refused
    c02_flat_example_p2               (2,2) pooled_fit    theta[:, 0, 0] = |det J|^2 = 1
    c02_flat_example_p1_fail          (1,1) pooled_fit    residual > 1e-2
    c03_veronese_isometry             (1,1) pullbacks     factor 2
    c04_ricci_identity                spaceforms.ricci    closed form in u, z
    c04_ricci_logdet_fd               spaceforms.ricci    FD Hessian of log det
    c05_levi_projective_top           levi_spectra        (m, 0, 0)
    c05_levi_projective_mixed         levi_spectra        (n, 0, C(n,p)-1), CR
    c05_levi_ball                     levi_spectra        (0, 0, n + C(n,p)-1)
    c06_probe_flat_to_ball            obstruction_probes  a conflict wherever
    c06_probe_projective_to_ball      obstruction_probes  conclusive
    c06_probe_ball_control            obstruction_probes  no conflict, lhs > 0
    c07_rank_ball_slice               coeff_rank          n + 1
    c07_rank_pair_bound               coeff_rank          <= 2 for f g* + g f*
    c07_rank_psi_growth               rank_growth         strictly growing
    c07_slice_identities              series_eval         (1-+|zeta|^2)^-(p+1)
    c08_indefinite_patterns           spaceforms.metric   diag(eps), signs
    c08_wedge_minor_consistency       wedge_power_coeffs  ``_minor_oracle``
    c09_relatives_veronese            relatives_test      factor 2
    c09_relatives_ball_vs_projective  (1,1) pooled_fit    pointwise theta / base
    c10_determinism                   the battery here    a fresh interpreter

c04_ricci_identity's closed form is -d dbar log det g = (n+1) c (u I -
c conj(z) z^T) / u^2, computed from u and z alone.  CR is the CR bound:
the positives are at most half the hypersurface's tangent dimension.
c08's ``wedge_power_coeffs`` takes its minors as LAPACK determinants, and
``_minor_oracle`` writes the 1 x 1 minors as the entries and the 2 x 2
minors as a d - b c.  c10 compares the canonical JSON byte for byte.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .expressions import parse_map
from .levi import draw_fibers, levi_spectra, obstruction_probes, sample_bundle_points, spectrum_signatures
from .linalg import _adjoint, generalized_eigenvalues, hermitize, sign_counts
from .numdiff import wirtinger_hessian
from .ppforms import (
    index_basis,
    pooled_fit,
    proportionality_stacks,
    proportionality_test,
    relatives_stacks,
    relatives_test,
    wedge_power_coeffs,
)
from .rigidity import product_rule
from .scenarios import DEFAULT_SEED, Report, _assemble, parse_scenario, report_to_json, run_checks
from .spaceforms import ball, euclidean, metric, projective, ricci, sample_chart_points
from .umehara import BiSeries, ball_slice, coeff_rank, proj_slice, rank_growth, series_eval

__all__ = ["run_paper_suite"]


def _pencils(rng, count: int):
    """c01's ``count`` pencils, drawn from ``rng``: (p, lam, root, eigenvalue rows) per (m, p) group.

    m, p and lam are each drawn once for all pencils; then each size m, in
    ascending order, draws the normals of its k pencils as one (k, 4, m, m)
    array.  A pencil is (root q^H g q, q^H g q): g = b^H b with
    b = I + 0.3 (raw[0] + i raw[1]), q the unitary factor of
    raw[2] + i raw[3], root = lam^(1/p).  One QR and one pencil solve per
    (m, p) group, not per size: on a 2-core x86-64 host, solving a whole
    size at once took about 4 ms less but raised the suite's peak RSS by
    about 1 MB.
    """
    m = rng.integers(2, 7, size=count)
    p = rng.integers(1, m)
    lam = np.exp(rng.uniform(-2.0, 2.0, size=count))
    for size in np.unique(m):
        at = m == size
        normals = rng.normal(size=(int(at.sum()), 4, size, size))
        for degree in np.unique(p[at]):
            of = p[at] == degree
            raw = normals[of]
            b = np.eye(size) + 0.3 * (raw[:, 0] + 1j * raw[:, 1])
            q = np.linalg.qr(raw[:, 2] + 1j * raw[:, 3])[0]
            base = _adjoint(q) @ (_adjoint(b) @ b) @ q
            root = lam[at][of] ** (1.0 / degree)
            lams = generalized_eigenvalues(root[:, None, None] * base, base)
            yield int(degree), lam[at][of], root, lams


def _c01(seed: int):
    # each (m, p) group is one product-and-spread rule, the rule rigidity
    # mode takes, on the eigenvalue rows of its pencils
    rng = np.random.default_rng(seed + 1)
    worst, recovered = 0.0, True
    for p, lam, root, lams in _pencils(rng, 1000):
        factors = product_rule(lams, p, lam, tol=1e-8)[1]
        recovered = recovered and not np.isnan(factors).any()
        worst = max(worst, float(np.nanmax(np.abs(factors - root) / root, initial=0.0)))
    yield "c01_eigen_product_recovery", recovered and worst <= 1e-8, {"residual": worst}

    # rows of one value with one entry 5% off, drawn as the pencils are:
    # m, p, the value and the bumped entry, each once for all rows
    m = rng.integers(2, 7, size=1000)
    p = rng.integers(1, m)
    value = np.exp(rng.uniform(-1.0, 1.0, size=1000))
    bumped = rng.integers(0, m)
    false_accepts = 0
    for size, degree in np.unique(np.stack([m, p], axis=1), axis=0).tolist():
        at = (m == size) & (p == degree)
        lams = np.repeat(value[at, None], size, axis=1)
        lams[np.arange(len(lams)), bumped[at]] *= 1.05
        target = np.sort(lams, axis=-1)[:, :degree].prod(axis=-1)
        false_accepts += int(product_rule(lams, degree, target, tol=1e-8)[0].sum())
    yield "c01_eigen_product_nonconstant", false_accepts == 0, {"residual": float(false_accepts)}


def _c02(seed: int):
    src, tgt = euclidean(2), euclidean(4)
    F = parse_map(["z1+1/(1-z2)", "z2", "0", "0"], 2)
    points = sample_chart_points(src, 100, seed + 2, radius=0.5)

    base, theta = proportionality_stacks(F, src, tgt, 2, points)
    worst = float(np.abs(theta[:, 0, 0] - 1.0).max())
    res2 = pooled_fit(base, theta, tol=1e-12)
    ok2 = res2.passed and abs(res2.lambdaHat - 1.0) <= 1e-12 and worst <= 1e-12
    yield "c02_flat_example_p2", ok2, {"lambdaHat": res2.lambdaHat, "residual": worst}

    res1 = proportionality_test(F, src, tgt, 1, points, tol=1e-8)
    ok1 = (not res1.passed) and res1.maxResidual > 1e-2
    yield "c02_flat_example_p1_fail", ok1, {"lambdaHat": res1.lambdaHat, "residual": res1.maxResidual}


def _c03(seed: int):
    F = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
    points = sample_chart_points(projective(1), 50, seed + 3)
    res = proportionality_test(F, projective(1), projective(2), 1, points, tol=1e-10)
    ok = res.passed and abs(res.lambdaHat - 2.0) <= 1e-10 and res.lambdaHat >= 1.0
    yield "c03_veronese_isometry", ok, {"lambdaHat": res.lambdaHat, "residual": abs(res.lambdaHat - 2.0)}


def _c04(seed: int):
    # against -d dbar log det g with det g = u^-(n+1), u = 1 + c |z|^2:
    # (n + 1) c (u I - c conj(z) z^T) / u^2, from u and z alone
    worst = 0.0
    for n in (1, 2, 3):
        for sf, c in ((ball(n), -1.0), (projective(n), 1.0)):
            z = sample_chart_points(sf, 200, seed + 4 + n)
            u = (1.0 + c * np.sum(np.abs(z) ** 2, axis=-1))[:, None, None]
            pair = np.conj(z)[:, :, None] * z[:, None, :]
            closed = (n + 1) * c * (u * np.eye(n) - c * pair) / u**2
            worst = max(worst, float(np.abs(ricci(sf, z) - closed).max()))
    yield "c04_ricci_identity", worst <= 1e-9, {"residual": worst}

    worst_fd = 0.0
    for n in (1, 2):
        for sf in (ball(n), projective(n)):
            for w in sample_chart_points(sf, 3, seed + 44 + n):
                h = wirtinger_hessian(lambda z, sf=sf: float(np.log(np.linalg.det(metric(sf, z)).real)), w)
                worst_fd = max(worst_fd, float(np.abs(ricci(sf, w) + h).max()))
    yield "c04_ricci_logdet_fd", worst_fd <= 1e-5, {"residual": worst_fd}


def _levi_cases(cases):
    """Check (space, p, expected signature, seed) cases on 20 bundle points each.

    Each case's points go through one ``levi_spectra`` pass.  Returns whether
    every case shows only its expected signature with every |eigenvalue| >
    1e-8, the smallest |eigenvalue| over all cases, and the signature to
    report: the first one seen off its case's expectation, else the last
    case's.
    """
    ok, margin, off, last = True, np.inf, None, None
    for sf, p, expected, seed in cases:
        points, fibers = sample_bundle_points(sf, p, 1.0, 20, seed)
        signatures, low = spectrum_signatures(levi_spectra(sf, p, 1.0, points, fibers))
        ok = ok and signatures == (expected,) and low > 1e-8
        margin = min(margin, low)
        off = off or next((s for s in signatures if s != expected), None)
        last = signatures[-1]
    return ok, margin, off or last


def _c05(seed: int):
    cases = ((projective(m), m, (m, 0, 0), seed + 50 + m) for m in (1, 2, 3))
    ok, margin, shown = _levi_cases(cases)
    yield "c05_levi_projective_top", ok, {"signature": shown, "residual": margin}

    mixed = ((projective(2), 1, (2, 0, 1)), (projective(3), 2, (3, 0, 2)))
    ok, margin, shown = _levi_cases((sf, p, e, seed + 55 + p) for sf, p, e in mixed)
    # CR bound: positives cannot exceed half the hypersurface tangent dim
    ok = ok and all(e[2] <= (sf.dim + math.comb(sf.dim, p) - 1) / 2 for sf, p, e in mixed)
    yield "c05_levi_projective_mixed", ok, {"signature": shown, "residual": margin}

    ok, margin, shown = _levi_cases(
        (ball(n), p, (0, 0, n + math.comb(n, p) - 1), seed + 58 + 2 * n + p)
        for n in (1, 2, 3)
        for p in (1, 2)
        if p <= n
    )
    yield "c05_levi_ball", ok, {"signature": shown, "residual": margin}


_FLAT_TO_BALL_MAPS = (
    ("0.2*z1", "0.2*z2", "0.1"),
    ("0.1*z1+0.1*z2^2", "0.05*z2", "0.2"),
    ("0.15*z2", "0.15*z1", "0.1*z1*z2"),
)
_PROJ_TO_BALL_MAPS = (
    ("0.3*z1", "0.1"),
    ("0.1*z1^2", "0.2*z1"),
    ("0.2*z1+0.05", "0.1*z1^2-0.1"),
)


def _probe_family(src, tgt, maps, seed):
    rng = np.random.default_rng(seed)
    conclusive = 0
    all_conflict = True
    for k, comps in enumerate(maps):
        F = parse_map(list(comps), src.dim)
        points = sample_chart_points(src, 20, seed + k)
        res = obstruction_probes(src, tgt, F, 1, points, draw_fibers(rng, len(points), src.dim))
        conclusive += int(np.sum(~res.inconclusive))
        all_conflict = all_conflict and bool(res.conflict[~res.inconclusive].all())
    return all_conflict and conclusive > 0


def _c06(seed: int):
    ok_flat = _probe_family(euclidean(2), ball(3), _FLAT_TO_BALL_MAPS, seed + 60)
    yield "c06_probe_flat_to_ball", ok_flat, {}

    ok_proj = _probe_family(projective(1), ball(2), _PROJ_TO_BALL_MAPS, seed + 61)
    yield "c06_probe_projective_to_ball", ok_proj, {}

    rng = np.random.default_rng(seed + 62)
    F = parse_map(["z1", "0"], 1)
    points = sample_chart_points(ball(1), 20, seed + 62)
    res = obstruction_probes(ball(1), ball(2), F, 1, points, draw_fibers(rng, len(points), 1))
    clean = not (res.conflict.any() or res.inconclusive.any())
    min_lhs = float(res.lhs.min())
    yield "c06_probe_ball_control", clean and min_lhs > 1e-10, {"residual": min_lhs}


def _c07(seed: int):
    ok_rank = all(coeff_rank(ball_slice(p, n)) == n + 1 for p in (1, 2, 3) for n in range(11))
    yield "c07_rank_ball_slice", ok_rank, {}

    rng = np.random.default_rng(seed + 7)
    ok_pairs = True
    for _ in range(200):
        tf = rng.normal(size=7) + 1j * rng.normal(size=7)
        tg = rng.normal(size=7) + 1j * rng.normal(size=7)
        c = np.outer(tf, np.conj(tg)) + np.outer(tg, np.conj(tf))
        ok_pairs = ok_pairs and coeff_rank(BiSeries(c)) <= 2
    yield "c07_rank_pair_bound", ok_pairs, {}

    table, verdict = rank_growth("psi", {"p": 1, "map": ["z1"]}, (2, 4, 6, 8, 10))
    ranks = [r for _, r in table]
    ok_psi = verdict == "growing" and all(b > a for a, b in zip(ranks, ranks[1:]))
    yield "c07_rank_psi_growth", ok_psi, {"rankTable": tuple(table)}

    rng = np.random.default_rng(seed + 77)
    worst = 0.0
    for p in (1, 2, 3):
        bs, ps = ball_slice(p, 30), proj_slice(p, 30)
        for _ in range(20):
            zeta = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
            x = abs(zeta) ** 2
            worst = max(worst, abs(series_eval(bs, zeta) - (1 - x) ** (-(p + 1))))
            worst = max(worst, abs(series_eval(ps, zeta) - (1 + x) ** (-(p + 1))))
    yield "c07_slice_identities", worst <= 1e-10, {"residual": worst}


def _minor_oracle(g: np.ndarray, p: int) -> np.ndarray:
    """det g[I, J] for every pair of p-subsets of an (N, n, n) stack, p = 1 or 2, written out.

    The 1 x 1 minors are the entries and the 2 x 2 minors a d - b c, so no
    determinant kernel is shared with ``wedge_power_coeffs``; the result is
    (N, C(n,p), C(n,p)).
    """
    index = np.subtract(index_basis(g.shape[-1], p), 1)
    # (point, I, row, J, column): row s of I against column t of J
    sub = g[:, index][..., index]
    if p == 1:
        return sub[:, :, 0, :, 0]
    return sub[:, :, 0, :, 0] * sub[:, :, 1, :, 1] - sub[:, :, 0, :, 1] * sub[:, :, 1, :, 0]


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| entrywise, rounded as abs() rounds one complex scalar (hypot).

    numpy's vectorized abs of a complex array may differ in the last bit.
    """
    return np.hypot(z.real, z.imag)


def _c08(seed: int):
    ok_pat = True
    for n, s in ((2, 0), (2, 1), (3, 1), (3, 2)):
        flat = euclidean(n, s)
        eps = np.diag(flat.eps).astype(np.complex128)
        for w in sample_chart_points(flat, 5, seed + 80 + n + s):
            ok_pat = ok_pat and np.array_equal(metric(flat, w), eps)
        for sf in (ball(n, s), projective(n, s)):
            g0 = metric(sf, np.zeros(n))
            ok_pat = ok_pat and np.array_equal(g0, np.diag(sf.eps).astype(np.complex128))
            counts = sign_counts(np.linalg.eigvalsh(hermitize(g0)))
            ok_pat = ok_pat and counts[::2] == (n - s, s)
            for w in sample_chart_points(sf, 5, seed + 81 + n + s):
                g = metric(sf, w)
                ok_pat = ok_pat and float(np.abs(g - g.conj().T).max()) <= 1e-13
    yield "c08_indefinite_patterns", ok_pat, {}

    worst = 0.0
    spaces = [euclidean(3, 2), ball(3), ball(3, 2), projective(3), projective(3, 1)]
    for i, sf in enumerate(spaces):
        g = metric(sf, sample_chart_points(sf, 20, seed + 85 + i))
        for p in (1, 2):
            brute = _minor_oracle(g, p)
            dev = _cabs(wedge_power_coeffs(g, p) - brute) / (1.0 + _cabs(brute))
            worst = max(worst, float(dev.max()))
    yield "c08_wedge_minor_consistency", worst <= 1e-10, {"residual": worst}


def _c09(seed: int):
    veronese = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
    ident = parse_map(["z1"], 1)
    points = sample_chart_points(euclidean(1), 50, seed + 9, radius=0.8)

    res = relatives_test(veronese, ident, projective(2), projective(1), 1, points, tol=1e-8)
    ok = res.passed and abs(res.lambdaHat - 2.0) <= 1e-8
    yield "c09_relatives_veronese", ok, {"lambdaHat": res.lambdaHat, "residual": res.maxResidual}

    base, theta = relatives_stacks(ident, ident, ball(1), projective(1), 1, points)
    res2 = pooled_fit(base, theta, tol=1e-8)
    ratios = (theta[:, 0, 0] / base[:, 0, 0]).real
    spread = float(ratios.max() - ratios.min())
    ok2 = (not res2.passed) and spread > 1e-2
    yield "c09_relatives_ball_vs_projective", ok2, {"lambdaHat": res2.lambdaHat, "residual": spread}


_ECHO = parse_scenario({"mode": "suite"}).echo


def _battery() -> list:
    families = (_c01, _c02, _c03, _c04, _c05, _c06, _c07, _c08, _c09)
    return run_checks(family(DEFAULT_SEED) for family in families)


def _rerun_argv() -> list:
    """The command that reruns the battery and prints its canonical JSON.

    A fresh interpreter with this interpreter's warning filters; this
    package's root goes first on its ``sys.path``, so no environment
    variable or isolation flag can make it import another kform.  Once the
    report is written and flushed it leaves through ``os._exit(0)``, so c10
    does not wait for the interpreter's teardown; an exception before the
    write still exits nonzero.
    """
    code = "\n".join([
        "import os, sys",
        f"sys.path.insert(0, {str(Path(__file__).parents[1])!r})",
        "from kform.suite import _ECHO, _assemble, _battery, report_to_json",
        "sys.stdout.write(report_to_json(_assemble(_ECHO, _battery())))",
        "sys.stdout.flush()",
        "os._exit(0)",
    ])
    return [sys.executable, *("-W" + w for w in sys.warnoptions), "-c", code]


def _c10(first: list, rerun):
    out, _ = rerun.communicate()
    identical = rerun.returncode == 0 and out == report_to_json(_assemble(_ECHO, first))
    yield "c10_determinism", identical, {}


def run_paper_suite() -> Report:
    """Run the full battery, and again in a fresh interpreter for c10.

    The rerun starts before the first run, so on two cores the two run at
    once: about 0.8 s more CPU time and one more process of about 39 MB
    than running the battery twice here, for about a third less wall time
    (on one core the wall time rises instead).  The child is killed and
    reaped if the first run raises; a rerun that fails or prints no report
    fails c10, and its stderr is dropped.
    """
    import subprocess  # here, not at module level: the CLI imports this module on every run

    with subprocess.Popen(
        _rerun_argv(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as rerun:
        try:
            first = _battery()
            return _assemble(_ECHO, first + run_checks([_c10(first, rerun)]))
        finally:
            rerun.kill()
            rerun.wait()
