"""Compare what two checkouts of ``kform`` report, field by field, on the same runs.

Runs the list ``tools/report_digest.py`` hashes (the benchmark's pullback,
levi and ranks ops of seeds 1-5, then ``kform suite``) once against this
checkout's ``src`` and once against OTHER_CHECKOUT's, each in its own child
interpreter, the two at once.  Then it prints, for every report field that
moved in any run (``<check>.<field>``, plus ``overall``, the scenario echo
and stdout), how many runs it moved in and, for floats, the largest relative
move |a - b| / max(|a|, |b|) with the run it came from.  It exits 1 if any
exit code, verdict, signature, rankTable or other non-float field differs,
or a check is missing on one side, and lists those runs; float moves alone
exit 0.  Run from anywhere:

    python tools/compare_reports.py OTHER_CHECKOUT

OTHER_CHECKOUT is a directory holding another tree's ``src/kform``, for
example a ``git archive`` of the parent commit unpacked under a scratch
directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from report_digest import ROOT, run_list  # noqa: E402

# the child: import kform from the given src only, run the list, write the results
_CHILD = """
import json, sys
src, tools, runs_path, out_path = sys.argv[1:]
sys.path[:0] = [src, tools]
import kform
from kform.cli import main
from report_digest import run_all
assert kform.__file__.startswith(src), kform.__file__
with open(runs_path, encoding="utf-8") as fh:
    runs = json.load(fh)
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump([list(row) for row in run_all(main, runs)], fh)
"""


def _fields(text: str) -> dict:
    """The fields of one canonical JSON report: overall, the echo, and ``<check>.<field>``."""
    if not text:
        return {}
    report = json.loads(text)
    out = {"overall": report["overall"], "scenario": report["scenario"]}
    for check in report["checks"]:
        out.update((f"{check['name']}.{key}", value) for key, value in check.items() if key != "name")
    return out


def _run_both(trees: list, runs: list) -> list:
    """The run_all rows of each tree, from one child interpreter per tree started together."""
    with tempfile.TemporaryDirectory() as tmp:
        runs_path = Path(tmp) / "runs.json"
        runs_path.write_text(json.dumps(runs), encoding="utf-8")
        outs = [Path(tmp) / f"rows-{k}.json" for k in range(len(trees))]
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(tree / "src"), str(TOOLS), str(runs_path), str(out)]
            )
            for tree, out in zip(trees, outs)
        ]
        for tree, child in zip(trees, children):
            if child.wait() != 0:
                raise SystemExit(f"the run against {tree} failed with exit code {child.returncode}")
        return [json.loads(out.read_text(encoding="utf-8")) for out in outs]


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/compare_reports.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "kform").is_dir():
        print(f"{other} holds no src/kform", file=sys.stderr)
        return 2
    runs = run_list()
    ours, theirs = _run_both([ROOT, other], runs)
    moved = defaultdict(int)  # field -> runs it moved in
    largest = {}  # float field -> (relative move, run)
    hard = []
    for k, (a, b) in enumerate(zip(theirs, ours)):
        (_, op_id, code_a, out_a, text_a), (_, _, code_b, out_b, text_b) = a, b
        run = f"{op_id} (run {k})"
        if code_a != code_b:
            hard.append(f"{run}: exit code {code_a} -> {code_b}")
        moved["stdout"] += out_a != out_b
        fa, fb = _fields(text_a), _fields(text_b)
        for key in sorted(fa.keys() | fb.keys()):
            va, vb = fa.get(key), fb.get(key)
            if va == vb:
                continue
            moved[key] += 1
            if isinstance(va, float) and isinstance(vb, float):
                rel = abs(va - vb) / max(abs(va), abs(vb))
                if rel > largest.get(key, (-1.0,))[0]:
                    largest[key] = (rel, run)
            else:
                hard.append(f"{run}: {key} {va!r} -> {vb!r}")
    print(f"runs: {len(runs)}, {other} against {ROOT}")
    for key in sorted(k for k in moved if moved[k]):
        line = f"{key}: moved in {moved[key]} runs"
        if key in largest:
            rel, run = largest[key]
            line += f", largest relative move {rel:.3g} ({run})"
        print(line)
    if not any(moved.values()):
        print("no field moved")
    print(f"hard differences: {len(hard)}")
    for line in hard[:50]:
        print(f"  {line}")
    return 1 if hard else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
