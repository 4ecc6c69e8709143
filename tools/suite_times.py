"""Wall time of each check of the ``kform suite`` battery, and of the whole suite.

Runs the battery (families c01-c09, without the c10 rerun) three times in
this process and prints, for each check, the minimum of its
``CheckRecord.seconds`` over the three runs, then the sum of those minima.
A check's time runs from the previous check's yield to its own, so a
family's set-up counts towards its first check.  Last it prints the best of
three wall times of ``run_paper_suite()``, c10's fresh-interpreter rerun
included: the number ``kform suite`` waits for, which the sum of the checks
cannot show, since the rerun runs alongside them.  Run from anywhere:

    python tools/suite_times.py

The ``kform`` package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kform.suite import _battery, run_paper_suite  # noqa: E402

RUNS = 3


def main() -> int:
    runs = [_battery() for _ in range(RUNS)]
    best = {rec.name: min(run[k].seconds for run in runs) for k, rec in enumerate(runs[0])}
    width = max(map(len, best))
    for name, seconds in best.items():
        print(f"{name:<{width}}  {1e3 * seconds:9.1f} ms")
    print(f"{'total':<{width}}  {1e3 * sum(best.values()):9.1f} ms")
    walls = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run_paper_suite()
        walls.append(time.perf_counter() - start)
    print(f"{'run_paper_suite, c10 included':<{width}}  {1e3 * min(walls):9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
