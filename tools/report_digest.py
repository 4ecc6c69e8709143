"""One digest of what ``kform`` prints and reports for the benchmark's scenario ops.

Generates the ``pullback``, ``levi`` and ``ranks`` ops of seeds 1-5 with
``perfbench/workloads.generate`` (which it only reads), runs each op and then
``kform suite --json`` in this process through ``kform.cli.main``, and prints
the exit-code counts and one SHA-256 over (op id, exit code, stdout,
canonical JSON report) of every run.  Two trees that print the same digest
gave the same verdicts, numbers and printed lines on every op; stderr is not
part of it.  Run from anywhere:

    python tools/report_digest.py

The ``kform`` package is imported from this checkout's ``src``.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kform.cli import main as kform_main  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = ("pullback", "levi", "ranks")
SEEDS = range(1, 6)


def _run(argv: list, report: Path) -> tuple[int, str, str]:
    """Exit code, stdout and the JSON report (empty if none) of one CLI call."""
    report.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = kform_main(argv + ["--json", str(report)])
    text = report.read_text(encoding="utf-8") if report.exists() else ""
    return code, out.getvalue(), text


def main() -> int:
    digest = hashlib.sha256()
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [
            (op["id"], op["argv"], op["scenario"])
            for workload in WORKLOADS
            for seed in SEEDS
            for op in generate(workload, seed)
        ]
        runs.append(("suite", ["suite"], None))
        for op_id, argv, scenario in runs:
            if scenario is not None:
                path = work / "scenario.json"
                path.write_text(json.dumps(scenario, sort_keys=True), encoding="utf-8")
                argv = argv + [str(path)]
            code, out, text = _run(argv, work / "report.json")
            codes[code] += 1
            for part in (op_id, str(code), out, text):
                digest.update(part.encode("utf-8") + b"\0")
    print(f"runs: {sum(codes.values())}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
