import functools
import importlib
import os
import pkgutil
import signal
import subprocess
import sys

import pytest

import kform
from kform import ppforms, suite
from kform.cli import main
from kform.levi import levi_signatures
from kform.scenarios import DEFAULT_SEED, report_to_json, run_checks
from kform.spaceforms import ball, euclidean, projective


def test_c05_records_show_the_observed_signatures(monkeypatch):
    def skewed(sf, p, r, count, seed, radius=None):
        signatures, low = levi_signatures(sf, p, r, count, seed, radius)
        if sf == projective(2) and p == 2:
            # the expected (2, 0, 0), then one wrong signature
            return signatures + ((1, 0, 1),), low
        return signatures, low

    monkeypatch.setattr(suite, "levi_signatures", skewed)
    records = {rec.name: rec for rec in run_checks([suite._c05(DEFAULT_SEED)])}
    top = records["c05_levi_projective_top"]
    # the first signature off its expectation, not the family's last case
    assert top.verdict == "FAIL" and top.signature == (1, 0, 1)
    # passing families show their last case's signature
    mixed, ball = records["c05_levi_projective_mixed"], records["c05_levi_ball"]
    assert mixed.verdict == "PASS" and mixed.signature == (3, 0, 2)
    assert ball.verdict == "PASS" and ball.signature == (0, 0, 5)


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
