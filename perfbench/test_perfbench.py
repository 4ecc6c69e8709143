"""Tests of the benchmark's own machinery: generation, spans and output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kform  # noqa: E402
import kform.cli  # noqa: E402
from tracer import LAYERS, Tracer, leftover_spans, metric_names  # noqa: E402
from worker import ReferenceSampler, check_report, run_op, set_up  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, generate  # noqa: E402

PULLBACK = {
    "mode": "pullback",
    "source": {"kind": "ball", "dim": 2},
    "target": {"kind": "ball", "dim": 3},
    "map": ["z1", "z2", "0"],
    "p": 2,
    "sampling": {"count": 5, "seed": 3},
}
RIGIDITY = {
    "mode": "rigidity",
    "source": {"kind": "ball", "dim": 2},
    "target": {"kind": "ball", "dim": 2},
    "map": ["z2", "z1"],
    "p": 1,
    "sampling": {"count": 4, "seed": 5},
}
LEVI = {
    "mode": "levi",
    "source": {"kind": "projective", "dim": 2},
    "p": 1,
    "sampling": {"count": 3, "seed": 1},
    "expect": {"signature": [2, 0, 1]},
}


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "kform" or name.startswith("kform."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def _run(tmp_path, scenario, tag) -> tuple:
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / f"{tag}.report.json"
    code = kform.cli.main(["run", str(path), "--json", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_a_function_of_the_seed(workload):
    first = generate(workload, 7)
    assert first == generate(workload, 7)
    other = generate(workload, 8)
    assert [op["id"] for op in other] == [op["id"] for op in first]
    if workload != "suite":
        assert other != first
    assert len({op["id"] for op in first}) == len(first)


def test_known_defects_are_generated_and_marked():
    ops = {op["id"]: op for op in generate("pullback", 1)}
    for op_id in KNOWN_DEFECTS:
        assert ops[op_id]["known_defect"]
        assert ops[op_id]["expect"]["exit"] == 0
    assert sum(op["known_defect"] for op in ops.values()) == len(KNOWN_DEFECTS)


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert "kform.rigidity.det" in leftover_spans()
        assert kform.cli.main is not before[("kform.cli", "main")]
        _run(tmp_path, PULLBACK, "pullback")
    finally:
        tracer.restore()
    assert not leftover_spans()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_after_an_exception_in_a_wrapped_function():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(kform.DefinitenessError):
            kform.linalg.generalized_eigenvalues([[1.0]], [[-1.0]])
    finally:
        tracer.restore()
    assert not leftover_spans()
    assert tracer.errors["linalg"] == 1
    assert tracer.calls["linalg.hermitian_eigen"] == 1


def test_self_times_are_nonnegative_and_bounded_by_wall_time(tmp_path):
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        for tag, scenario in (("pullback", PULLBACK), ("rigidity", RIGIDITY), ("levi", LEVI)):
            _run(tmp_path, scenario, tag)
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    metrics = tracer.metrics(passes=1)
    fn_self = [metrics[f"{layer}.{fn}.self_s"] for layer, fns in LAYERS.items() for fn in fns]
    assert all(value >= 0.0 for value in fn_self)
    assert sum(fn_self) <= wall
    for layer, fns in LAYERS.items():
        assert metrics[f"{layer}.self_s"] == pytest.approx(
            sum(metrics[f"{layer}.{fn}.self_s"] for fn in fns)
        )
    assert metrics["cli.main.calls"] == 3
    assert metrics["levi.levi_form.calls"] == 3
    assert metrics["rigidity.ricci_pullback_check.calls"] == 1
    assert metrics["rigidity.ricci_pullback_check.skipped"] == 0.0
    assert list(metrics) == metric_names()


def test_work_counts_follow_argument_shapes(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _run(tmp_path, PULLBACK, "work")
        kform.linalg.generalized_eigenvalues(3 * np.eye(3), np.eye(3))
    finally:
        tracer.restore()
    # per point: C(2,2)^2 base + C(3,2)^2 target + C(3,2)C(2,2) Jacobian at p=2,
    # then 2^2 + 3^2 + 3*2 at p=1
    assert tracer.work["ppforms.minor_entries"] == 5 * (1 + 9 + 3) + 5 * (4 + 9 + 6)
    # the two nested hermitian_eigen calls are part of the one 3x3 solve
    assert tracer.work["linalg.eigen_n3"] == 27
    assert tracer.calls["linalg.hermitian_eigen"] == 2


def test_traced_and_untraced_reports_are_identical(tmp_path):
    plain = [_run(tmp_path, sc, f"plain{k}") for k, sc in enumerate((PULLBACK, RIGIDITY, LEVI))]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run(tmp_path, sc, f"traced{k}") for k, sc in enumerate((PULLBACK, RIGIDITY, LEVI))]
    finally:
        tracer.restore()
    assert traced == plain


def test_check_report_compares_verdicts_lambdas_and_tables(tmp_path):
    op = {
        "expect": {
            "exit": 0,
            "checks": {"pullback_p2": {"verdict": "PASS", "lambdaHat": 1.0}, "pullback_p1": {"verdict": "PASS"}},
        }
    }
    code, text = _run(tmp_path, PULLBACK, "check")
    assert check_report(op, code, text) is None
    assert "exit code" in check_report(op, 1, text)
    op["expect"]["checks"]["pullback_p2"]["lambdaHat"] = 2.0
    assert "lambdaHat" in check_report(op, code, text)
    op["expect"]["checks"]["pullback_p2"] = {"verdict": "FAIL"}
    assert "expected FAIL" in check_report(op, code, text)
    assert check_report(op, code, None) == "no readable JSON report"


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    assert names == metric_names() + ["trace_overhead", "ops.error_rate", "ops.known_defect_misses"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ["pullback", "levi", "ranks"])
def test_sampled_generated_ops_meet_their_closed_forms(tmp_path, workload):
    ops = [op for op in set_up(kform, workload, 3, tmp_path) if not op["known_defect"]]
    for op in ops[:: len(ops) // 4][:4]:
        with ReferenceSampler() as sampler:
            _, _, code, text = run_op(kform, op, sampler)
        assert check_report(op, code, text) is None, op["id"]
