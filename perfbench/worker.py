"""One benchmark process: set up a workload, then time it and check its outputs.

Started by ``run.py`` in a fresh interpreter, one at a time:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --workdir DIR [--setup-only]

Set-up imports kform from the checkout's ``src``, generates the op list,
writes every scenario file and parses it with ``kform.scenarios``, then
prints ``READY``, then times the reference loop.  The timed phase runs
the op list in passes through ``kform.cli.main`` (closed loop: each op
starts when the previous one returns), times the reference loop again
every REFERENCE_EVERY_S from a timer signal, and prints one JSON line of
raw measurements.  With ``--trace 1`` it runs untraced passes for half the
time and traced passes for the other half.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, leftover_spans
from workloads import LAMBDA_RTOL, generate

SRC = Path(__file__).resolve().parent.parent / "src"
# Seconds between reference samples in the timed phase.
REFERENCE_EVERY_S = 0.2
_REFERENCE_MATRIX = np.eye(5, dtype=np.complex128) + 0.01j


def reference_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` runs of a fixed loop that runs no kform code.

    The loop mixes interpreter arithmetic with small complex determinants,
    as kform's own work does, so its time follows the host's speed alone.
    The host this benchmark was written on changes a process's speed by up
    to a factor of two, in phases of seconds to minutes; ``run.py`` scales
    each set-up and op time by the reference times taken next to it.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for k in range(10000):
            acc += (k * 0.5) % 7.0
        for _ in range(150):
            acc += abs(np.linalg.det(_REFERENCE_MATRIX))
        best = min(best, time.perf_counter() - start)
    return best


def _import_kform():
    sys.path.insert(0, str(SRC))
    import kform.cli
    import kform.scenarios

    if Path(kform.__file__).resolve().parent != (SRC / "kform").resolve():
        raise RuntimeError(f"kform imported from {kform.__file__}, not from {SRC}")
    return kform


def set_up(kform, workload: str, seed: int, workdir: Path) -> list:
    """Generate, write and parse the workload's inputs; return the op list."""
    ops = generate(workload, seed)
    (workdir / "ops").mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(ops):
        path = workdir / "ops" / f"{k:03d}.json"
        path.write_text(json.dumps(op["scenario"], sort_keys=True), encoding="utf-8")
        kform.scenarios.parse_scenario(json.loads(path.read_text(encoding="utf-8")))
        op["out"] = str(workdir / "ops" / f"{k:03d}.report.json")
        files = [str(path)] if op["argv"] == ["run"] else []
        op["argv"] = op["argv"] + files + ["--json", op["out"]]
    return ops


def check_report(op: dict, code, text) -> str | None:
    """None when the op's exit code and report meet its expectation, else why not."""
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    try:
        report = json.loads(text)
    except (TypeError, json.JSONDecodeError):
        return "no readable JSON report"
    checks = {c["name"]: c for c in report.get("checks", [])}
    if not expect["checks"]:
        bad = sorted(name for name, c in checks.items() if c["verdict"] != "PASS")
        if not checks or bad or report.get("overall") != "PASS":
            return f"expected every check PASS, failing: {bad or report.get('overall')}"
        return None
    if set(checks) != set(expect["checks"]):
        return f"checks {sorted(checks)}, expected {sorted(expect['checks'])}"
    for name, want in expect["checks"].items():
        got = checks[name]
        if got["verdict"] != want["verdict"]:
            return f"{name} {got['verdict']}, expected {want['verdict']} (residual {got.get('residual')})"
        if "lambdaHat" in want:
            lam = got.get("lambdaHat")
            if lam is None or abs(lam - want["lambdaHat"]) > LAMBDA_RTOL * abs(want["lambdaHat"]):
                return f"{name} lambdaHat {lam}, expected {want['lambdaHat']}"
        for field in ("signature", "rankTable"):
            if field in want and got.get(field) != want[field]:
                return f"{name} {field} {got.get(field)}, expected {want[field]}"
    return None


class ReferenceSampler:
    """Times the reference loop every REFERENCE_EVERY_S from a SIGALRM handler.

    The handler runs between bytecodes of whatever is running, kform ops
    included, so the samples also cover ops that take seconds.  ``paused``
    is the total time spent in the handler, which op timings leave out.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, reference_s()))
        self.paused += time.perf_counter() - start

    def take(self) -> list:
        """The (time, reference seconds) samples since the last take()."""
        samples, self.samples = self.samples, []
        return samples

    def __enter__(self):
        self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(signal.SIGALRM, None)


def run_op(kform, op: dict, sampler: ReferenceSampler):
    """One closed-loop op: ((start, end), seconds, exit code or None, report
    text or error); ``seconds`` leaves out the sampler's pauses."""
    if os.path.exists(op["out"]):
        os.remove(op["out"])
    sink = io.StringIO()
    paused = sampler.paused
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = kform.cli.main(op["argv"])
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        end = time.perf_counter()
        return (start, end), end - start - (sampler.paused - paused), None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    elapsed = end - start - (sampler.paused - paused)
    try:
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        text = None
    return (start, end), elapsed, code, text


def run_passes(kform, ops: list, budget: float, outcomes: dict) -> list:
    """Run whole passes over ``ops`` for about ``budget`` seconds.

    The pass count is round(budget / first pass), at least one, so the
    measured work does not depend on where a deadline happens to fall.
    Returns one record per pass: wall (sum of op latencies), per-op
    (start, end) spans and latencies, the digest of the concatenated
    canonical reports, and the (time, reference seconds) samples taken
    during the pass; the first pass also holds one taken before it, the
    last one taken after it.
    """
    passes = []
    target = None
    with ReferenceSampler() as sampler:
        while target is None or len(passes) < target:
            passes.append(run_pass(kform, ops, outcomes, sampler))
            passes[-1]["references"] = sampler.take()
            if target is None:
                target = max(1, round(budget / max(passes[0]["wall"], 1e-9)))
    passes[-1]["references"] += sampler.take()
    return passes


def run_pass(kform, ops: list, outcomes: dict, sampler: ReferenceSampler) -> dict:
    digest = hashlib.sha256()
    spans, latencies = [], []
    for op in ops:
        span, seconds, code, text = run_op(kform, op, sampler)
        spans.append(span)
        latencies.append(seconds)
        digest.update((text or "").encode("utf-8"))
        problem = check_report(op, code, text)
        if problem is None:
            outcomes["ok"] += 1
        elif op["known_defect"]:
            outcomes["known_defect"] += 1
            outcomes["defects"].setdefault(op["id"], problem)
        else:
            outcomes["failed"] += 1
            outcomes["problems"].setdefault(op["id"], problem)
    return {
        "wall": sum(latencies),
        "spans": spans,
        "latencies": latencies,
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kform = _import_kform()
    ops = set_up(kform, args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    setup_reference = reference_s()
    if args.setup_only:
        print(json.dumps({"setup_reference": setup_reference}), flush=True)
        return 0
    ready_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import scipy

    outcomes = {"ok": 0, "failed": 0, "known_defect": 0, "problems": {}, "defects": {}}
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(kform, ops, budget, outcomes)
    result = {"untraced": untraced}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(kform, ops, budget, outcomes)
        finally:
            tracer.restore()
        result["traced"] = traced
        result["layers"] = tracer.metrics(len(traced))
        result["leftover_spans"] = leftover_spans()
    result.update(
        setup_reference=setup_reference,
        outcomes=outcomes,
        op_ids=[op["id"] for op in ops],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        ready_maxrss_kb=ready_maxrss_kb,
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
