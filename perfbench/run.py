"""kform benchmark: closed-loop verification workloads through the public CLI.

    python3 perfbench/run.py --workload suite|pullback|levi|ranks \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; kform is imported from ``src``.
Set-up is timed four times in fresh interpreters (three set-up-only workers
and the measuring worker), then one worker runs the timed phase.  Only one
worker runs at a time, with BLAS pinned to one thread.

Every worker also times a fixed reference loop that runs no kform code (see
``worker.reference_s``): after set-up, and every 0.2 s of the timed phase.
Each set-up and each op execution is scaled by REFERENCE_S over the
reference times taken next to it, so reported times read as seconds on a
host where the reference loop takes REFERENCE_S, and changes in the host's
speed cancel out.  The unscaled times are on the record line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the environment, the pass and op counts, the
tail percentile, the error rate and every op that missed its expectation.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 4
# Fastest reference loop on the host the baseline was recorded on.
REFERENCE_S = 0.0016
# Every worker is stopped by then, so a run ends within 180 s.
DEADLINE_S = 170
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:  # one BLAS thread: never more than nproc
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, workdir: Path, env: dict, setup_only: bool):
    """Spawn a worker; return (process, seconds from spawn to READY)."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Unbuffered: readline() then takes no byte past READY, and
    # communicate(), which reads the pipe itself, gets all the rest.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {DEADLINE_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.decode("utf-8")


def _reference_scale(passes: list):
    """(start, end) of an op execution -> REFERENCE_S over the mean of the
    reference times taken during it and just before and after it."""
    refs = sorted(tuple(r) for p in passes for r in p["references"])
    times = [t for t, _ in refs]

    def scale(span: list) -> float:
        first = max(bisect.bisect_right(times, span[0]) - 1, 0)
        last = min(bisect.bisect_left(times, span[1]), len(refs) - 1)
        return REFERENCE_S / statistics.fmean(ref for _, ref in refs[first : last + 1])

    return scale


def op_latencies(passes: list, scaled: bool = True) -> list:
    """Each op's latency in ms, ascending: the median over the passes of its
    executions, each scaled to the reference host unless ``scaled`` is false.
    """
    scale = _reference_scale(passes) if scaled else (lambda span: 1.0)
    per_op = zip(*([s * scale(span) for span, s in zip(p["spans"], p["latencies"])] for p in passes))
    return sorted(1000.0 * statistics.median(lat) for lat in per_op)


def tail(values: list):
    """Highest percentile with at least ten ops beyond it: (value, percentile).

    With ten ops or fewer no percentile qualifies; the maximum is reported
    as the 100th percentile.
    """
    k = len(values)
    if k <= 10:
        return values[-1], 100.0
    return values[k - 11], 100.0 * (k - 10) / k


def timings(setup: list, passes: list, scaled: bool) -> dict:
    """Set-up (the fastest of the samples) and op times of a run."""
    lat = op_latencies(passes, scaled)
    return {
        "setup_s": min(ready * (REFERENCE_S / ref if scaled else 1.0) for ready, ref in setup),
        "wall_s": sum(lat) / 1000.0,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail(lat)[0],
    }


def end_to_end(setup: list, result: dict) -> dict:
    return {
        **timings(setup, result["untraced"], scaled=True),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def per_layer(result: dict, error_rate: float) -> dict:
    untraced = sum(op_latencies(result["untraced"]))
    traced = sum(op_latencies(result["traced"]))
    return {
        **result["layers"],
        "trace_overhead": traced / untraced - 1.0,
        "ops.error_rate": error_rate,
        "ops.known_defect_misses": len(result["outcomes"]["defects"]),
    }


def with_units(values: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order, with its units."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def last_json(out: str) -> dict:
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError("worker printed no result") from None


def measure(args, workdir: Path) -> tuple:
    """Run the workers; return ([(set-up seconds, reference seconds)], result, env)."""
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(args, workdir, env, setup_only=True)
            out = finish_worker(proc, deadline - time.monotonic())
            setup.append((ready, last_json(out)["setup_reference"]))
    proc, ready = start_worker(args, workdir, env, setup_only=False)
    result = last_json(finish_worker(proc, deadline - time.monotonic()))
    setup.append((ready, result["setup_reference"]))
    return setup, result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kform benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kform" / "__init__.py").is_file():
        print(f"perfbench: no kform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setup, result, env = measure(args, workdir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    outcomes = result["outcomes"]
    attempted = outcomes["ok"] + outcomes["failed"] + outcomes["known_defect"]
    error_rate = (outcomes["failed"] + outcomes["known_defect"]) / attempted
    passes = result["untraced"] + result.get("traced", [])
    digests = {p["digest"] for p in passes}
    leftovers = result.get("leftover_spans", [])
    correct = outcomes["failed"] == 0 and len(digests) == 1 and not leftovers

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": _nproc(),
            **result["versions"],
            **{var: env[var] for var in BLAS_VARS},
        },
        "passes": len(result["untraced"]),
        "traced_passes": len(result.get("traced", [])),
        "ops_per_pass": len(result["op_ids"]),
        "op_tail_percentile": tail(op_latencies(result["untraced"]))[1],
        "setup_samples_s": [ready for ready, _ in setup],
        "setup_references_s": [ref for _, ref in setup],
        "pass_fastest_references_s": [min(ref for _, ref in p["references"]) for p in passes],
        "unscaled": timings(setup, result["untraced"], scaled=False),
        "rss_growth_mb": (result["maxrss_kb"] - result["ready_maxrss_kb"]) / 1024.0,
        "pass_walls_s": [p["wall"] for p in passes],
        "error_rate": error_rate,
        "report_digests_equal": len(digests) == 1,
        "leftover_spans": leftovers,
        "missed_expectations": outcomes["problems"],
        "known_defects_missed": outcomes["defects"],
    }
    print(json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = with_units(per_layer(result, error_rate), "per_layer")
    else:
        metrics = with_units(end_to_end(setup, result), "end_to_end")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": outcomes["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
