"""One digest of what ``kform`` prints and reports for the benchmark's scenario ops.

Generates the ``pullback``, ``levi`` and ``ranks`` ops of seeds 1-5 with
``perfbench/workloads.generate`` (which it only reads), runs each op and then
``kform suite --json`` in this process through ``kform.cli.main``, and prints
the exit-code counts, one SHA-256 per workload and one for the suite over
the same fields of their own runs, and one SHA-256 over (op id, exit code,
stdout, canonical JSON report) of every run.  Two trees that print the
same digest gave the same verdicts, numbers and printed lines on every op;
stderr is not part of it.  The per-workload lines show which part moved, so
a change to the battery alone can show that the scenario ops did not.

Last, it checks every op's run against the op's labelled expectation with
``check_report`` from ``perfbench/worker.py`` (also only read), prints one
line per miss (op id, seed, reason), the known defects' misses apart, and
lists the known defects that met their expectation on every seed, which
``perfbench/workloads.KNOWN_DEFECTS`` can then drop.  It exits 1 when an op
that is not a known defect misses, else 0.  Run from anywhere:

    python tools/report_digest.py

The ``kform`` package is imported from this checkout's ``src``.  ``run_list``
and ``run_all`` import no ``kform`` themselves, so another checkout's
package can run the same list (``tools/compare_reports.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

from worker import check_report  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = ("pullback", "levi", "ranks")
SEEDS = range(1, 6)


def _ops():
    """(workload, seed, op) for every op, in the order ``run_list`` runs them."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in generate(workload, seed):
                yield workload, seed, op


def run_list() -> list:
    """Every run as (workload, op id, CLI argv, scenario or None): the ops, then the suite.

    ``tools/compare_reports.py`` runs the same list.
    """
    runs = [(workload, op["id"], op["argv"], op["scenario"]) for workload, _, op in _ops()]
    runs.append(("suite", "suite", ["suite"], None))
    return runs


def run_all(kform_main, runs):
    """Run each of ``runs`` through the CLI entry ``kform_main``, in this process.

    Yields (workload, op id, exit code, stdout, JSON report or "") per run;
    a scenario goes to the CLI as a file, and stderr is dropped.
    """
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        scenario_path, report = work / "scenario.json", work / "report.json"
        for workload, op_id, argv, scenario in runs:
            if scenario is not None:
                scenario_path.write_text(json.dumps(scenario, sort_keys=True), encoding="utf-8")
                argv = argv + [str(scenario_path)]
            report.unlink(missing_ok=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = kform_main(argv + ["--json", str(report)])
            text = report.read_text(encoding="utf-8") if report.exists() else ""
            yield workload, op_id, code, out.getvalue(), text


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kform.cli import main as kform_main

    digest = hashlib.sha256()
    parts = {name: hashlib.sha256() for name in (*WORKLOADS, "suite")}
    codes = Counter()
    ops = [(seed, op) for _, seed, op in _ops()]
    misses, defects = [], {}
    for k, (workload, op_id, code, out, text) in enumerate(run_all(kform_main, run_list())):
        codes[code] += 1
        for part in (op_id, str(code), out, text):
            data = part.encode("utf-8") + b"\0"
            digest.update(data)
            parts[workload].update(data)
        if k < len(ops):  # the battery's run has no labelled expectation
            seed, op = ops[k]
            why = check_report(op, code, text)
            if why is not None:
                misses.append((op["known_defect"], op_id, seed, why))
            if op["known_defect"]:
                defects[op_id] = defects.get(op_id, True) and why is None
    print(f"runs: {sum(codes.values())}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    for name, part in parts.items():
        print(f"{name}: {part.hexdigest()}")
    print(f"sha256: {digest.hexdigest()}")
    unexpected = [miss for miss in misses if not miss[0]]
    print(f"expectation misses: {len(unexpected)}, known defects: {len(misses) - len(unexpected)}")
    for known, op_id, seed, why in sorted(misses):
        print(f"{'known defect' if known else 'miss'}: {op_id} seed {seed}: {why}")
    met = sorted(op_id for op_id, ok in defects.items() if ok)
    print(f"known defects meeting their expectation: {', '.join(met) or 'none'}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
