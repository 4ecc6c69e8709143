import functools
import importlib
import math
import os
import pkgutil
import signal
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import kform
from kform import ppforms, suite
from kform.cli import main
from kform.levi import levi_spectra
from kform.ppforms import index_basis
from kform.rigidity import product_rule
from kform.scenarios import DEFAULT_SEED, report_to_json, run_checks
from kform.spaceforms import ball, euclidean, metric, projective, sample_chart_points


def test_c05_records_show_the_observed_signatures(monkeypatch):
    def skewed(sf, p, r, points, fibers):
        eigs = levi_spectra(sf, p, r, points, fibers)
        if sf == projective(2) and p == 2:
            # the expected (2, 0, 0), then one wrong signature at the last point
            eigs[-1, -1] = abs(eigs[-1, -1])
        return eigs

    monkeypatch.setattr(suite, "levi_spectra", skewed)
    records = {rec.name: rec for rec in run_checks([suite._c05(DEFAULT_SEED)])}
    top = records["c05_levi_projective_top"]
    # the first signature off its expectation, not the family's last case
    assert top.verdict == "FAIL" and top.signature == (1, 0, 1)
    # passing families show their last case's signature
    mixed, ball = records["c05_levi_projective_mixed"], records["c05_levi_ball"]
    assert mixed.verdict == "PASS" and mixed.signature == (3, 0, 2)
    assert ball.verdict == "PASS" and ball.signature == (0, 0, 5)


def test_c08_minor_oracle_is_the_per_minor_loop():
    # the written-out minors over c08's 100 metrics equal one np.ix_ minor
    # determinant at a time, to roundoff
    spaces = [euclidean(3, 2), ball(3), ball(3, 2), projective(3), projective(3, 1)]
    for i, sf in enumerate(spaces):
        g = metric(sf, sample_chart_points(sf, 20, DEFAULT_SEED + 85 + i))
        for p in (1, 2):
            oracle = suite._minor_oracle(g, p)
            basis = [np.subtract(I, 1) for I in index_basis(3, p)]
            loop = np.array([[[np.linalg.det(gk[np.ix_(I, J)]) for J in basis] for I in basis] for gk in g])
            assert oracle.shape == loop.shape
            assert np.abs(oracle - loop).max() <= 1e-15 * (1.0 + np.abs(loop).max()), f"{sf} p={p}"


def _rule_by_loop(lams, p, target, tol):
    # the per-profile rule as a plain loop: math.prod over ascending subsets,
    # then the mean and the spread of the row
    lams = sorted(lams)
    products = all(abs(math.prod(s) - target) <= tol * abs(target) for s in combinations(lams, p))
    mean = float(np.mean(lams))
    flat = max(lams) - min(lams) <= 10.0 * tol * max(abs(mean), 1e-300)
    return products, mean if products and flat else None


def test_c01_rule_is_the_per_sample_loop():
    # c01's pencils, drawn and grouped by (m, p) as c01 draws them, a spread
    # of them that the products refuse, and top-degree rows whose spread is
    # refused, against the loop on each sample: the same flags and factors,
    # bit for bit
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    cases = []
    for p, lam, _, lams in suite._pencils(rng, 300):
        cases += [(lams, p, lam), (lams * np.linspace(1.0, 1.05, lams.shape[-1]), p, lam)]
    top = rng.uniform(0.5, 2.0, size=(50, 3))
    cases.append((top, 3, np.prod(top, axis=-1)))
    seen = {"factor": 0, "spread": 0, "products": 0}
    for lams, p, target in cases:
        products, factors = product_rule(lams, p, target, 1e-8)
        for k, row in enumerate(lams.tolist()):
            ok, factor = _rule_by_loop(row, p, float(target[k]), 1e-8)
            assert bool(products[k]) == ok
            assert (factor is None and np.isnan(factors[k])) or factor == factors[k]
            seen["factor" if factor is not None else "spread" if ok else "products"] += 1
    assert seen == {"factor": 300, "spread": 50, "products": 300}


def _stub_battery():
    return run_checks([iter([("c01_stub", True, {"residual": 1e-12})])])


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_first_battery_error_kills_and_reaps_the_rerun(monkeypatch, error):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def broken(seed):
        raise error("first battery broke")
        yield

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(suite, "_rerun_argv", lambda: [sys.executable, "-c", "import time; time.sleep(60)"])
    monkeypatch.setattr(suite, "_c03", broken)
    with pytest.raises(error):
        suite.run_paper_suite()
    (rerun,) = started
    assert rerun.returncode == -signal.SIGKILL
    with pytest.raises(ChildProcessError):  # reaped: no zombie left either
        os.waitpid(rerun.pid, os.WNOHANG)


@pytest.mark.parametrize("code", ["import sys; sys.exit(3)", "raise RuntimeError('rerun broke')", "pass"])
def test_failed_rerun_fails_c10_without_a_traceback(monkeypatch, capfd, code):
    monkeypatch.setattr(suite, "_battery", _stub_battery)
    monkeypatch.setattr(suite, "_rerun_argv", lambda: [sys.executable, "-c", code])
    assert main(["suite"]) == 1
    out, err = capfd.readouterr()
    assert "c01_stub: PASS" in out and "c10_determinism: FAIL" in out and "overall: FAIL" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "residual, status, verdict",
    [("1e-12", 0, "PASS"), ("2e-12", 0, "FAIL"), ("1e-12", 3, "FAIL")],
)
def test_c10_compares_the_rerun_report(monkeypatch, residual, status, verdict):
    """The rerun's report must match byte for byte, and the rerun exit 0."""
    text = report_to_json(suite._assemble(suite._ECHO, _stub_battery()))
    assert '"residual": 1e-12' in text
    printed = text.replace('"residual": 1e-12', f'"residual": {residual}')
    code = f"import sys; sys.stdout.write(sys.argv[1]); sys.exit({status})"
    monkeypatch.setattr(suite, "_battery", _stub_battery)
    monkeypatch.setattr(suite, "_rerun_argv", lambda: [sys.executable, "-c", code, printed])
    report = suite.run_paper_suite()
    verdicts = {rec.name: rec.verdict for rec in report.checks}
    assert verdicts == {"c01_stub": "PASS", "c10_determinism": verdict} and report.overall == verdict


def test_rerun_runs_under_this_interpreters_warning_filters(monkeypatch):
    monkeypatch.setattr(sys, "warnoptions", ["error::RuntimeWarning", "ignore::DeprecationWarning"])
    argv = suite._rerun_argv()
    assert argv[:4] == [sys.executable, "-Werror::RuntimeWarning", "-Wignore::DeprecationWarning", "-c"]
    assert len(argv) == 5


def test_rerun_imports_this_kform_whatever_the_environment(tmp_path):
    decoy = tmp_path / "kform"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("raise ImportError('decoy kform')\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    rerun = subprocess.run(suite._rerun_argv(), env=env, capture_output=True, text=True, timeout=120)
    assert rerun.returncode == 0, rerun.stderr
    assert '"overall": "PASS"' in rerun.stdout


def test_memoized_arrays_are_read_only():
    """Warm state cannot change a later battery: every memo in kform is
    listed here, and every array one returns is read-only."""
    modules = [importlib.import_module(f"kform.{m.name}") for m in pkgutil.iter_modules(kform.__path__)]
    memos = {
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
    }
    properties = {
        f"{mod.__name__}.{cls}.{name}"
        for mod in modules
        for cls, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
        for name, attr in vars(obj).items()
        if isinstance(attr, functools.cached_property)
    }
    assert memos == {"kform.ppforms._index_basis", "kform.ppforms._offsets", "kform.ppforms._contraction_signs"}
    assert properties == {"kform.spaceforms.SpaceForm.eps"}
    for n in range(1, 7):
        for p in range(1, n + 1):
            assert isinstance(ppforms._index_basis(n, p), tuple)
            assert not ppforms._offsets(ppforms._index_basis(n, p)).flags.writeable
            assert not ppforms._contraction_signs(n, p).flags.writeable
        for sf in (euclidean(n), ball(n), projective(n, n // 2)):
            assert not sf.eps.flags.writeable
