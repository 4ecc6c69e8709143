import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from kform import cli, suite, umehara
from kform.cli import main
from kform.errors import ScenarioError
from kform.levi import levi_level_ceiling, levi_level_floor, levi_radius_fits
from kform.scenarios import CheckRecord, Report, parse_scenario, report_to_json, run_checks, run_scenario
from kform.spaceforms import SpaceForm, default_radius, radius_fits
from child import run_python


def _identity_flat():
    return {
        "mode": "pullback",
        "source": {"kind": "euclidean", "dim": 2},
        "target": {"kind": "euclidean", "dim": 2},
        "map": ["z1", "z2"],
        "p": 1,
        "sampling": {"count": 20, "seed": 5},
    }


def _projective_identity():
    return dict(
        _identity_flat(),
        source={"kind": "projective", "dim": 2},
        target={"kind": "projective", "dim": 2},
    )


def _flat_embedding_example():
    return {
        "mode": "pullback",
        "source": {"kind": "euclidean", "dim": 2},
        "target": {"kind": "euclidean", "dim": 4},
        "map": ["z1+1/(1-z2)", "z2", "0", "0"],
        "p": 2,
        "sampling": {"count": 30, "seed": 11, "radius": 0.5},
    }


def test_identity_pullback_scenario_passes():
    report = run_scenario(_identity_flat())
    assert report.overall == "PASS"
    (rec,) = report.checks
    assert rec.name == "pullback_p1"
    assert rec.verdict == "PASS"
    assert abs(rec.lambdaHat - 1.0) < 1e-12


def test_top_degree_scenario_shows_companion_failure():
    report = run_scenario(_flat_embedding_example())
    by_name = {rec.name: rec for rec in report.checks}
    assert set(by_name) == {"pullback_p1", "pullback_p2"}
    assert by_name["pullback_p2"].verdict == "PASS"
    assert abs(by_name["pullback_p2"].lambdaHat - 1.0) < 1e-10
    assert by_name["pullback_p1"].verdict == "FAIL"
    assert by_name["pullback_p1"].residual > 1e-2
    assert report.overall == "FAIL"


def test_levi_scenario_far_out_in_the_projective_chart():
    # below top degree the wedge metric holds its precision to the chart's
    # largest radius; at top degree up to about 2.1e3
    for p, radius, signature in ((1, 1e13, (2, 0, 1)), (1, 1e40, (2, 0, 1)), (2, 1e3, (2, 0, 0))):
        scenario = {
            "mode": "levi",
            "source": {"kind": "projective", "dim": 2},
            "p": p,
            "sampling": {"count": 10, "seed": 3, "radius": radius},
            "expect": {"signature": list(signature)},
        }
        (rec,) = run_scenario(scenario).checks
        assert rec.verdict == "PASS", (p, radius)
        assert tuple(rec.signature) == signature


def test_levi_scenario_projective_top_degree():
    scenario = {
        "mode": "levi",
        "source": {"kind": "projective", "dim": 3},
        "p": 3,
        "sampling": {"count": 10, "seed": 3},
        "expect": {"signature": [3, 0, 0]},
    }
    report = run_scenario(scenario)
    (rec,) = report.checks
    assert rec.verdict == "PASS"
    assert tuple(rec.signature) == (3, 0, 0)

    scenario["expect"] = {"signature": [2, 0, 1]}
    report = run_scenario(scenario)
    assert report.overall == "FAIL"


def test_rigidity_scenario_scaled_embedding():
    scenario = {
        "mode": "rigidity",
        "source": {"kind": "euclidean", "dim": 2},
        "target": {"kind": "euclidean", "dim": 3},
        "map": ["0.7*z1", "0.7*z2", "0"],
        "p": 1,
        "sampling": {"count": 15, "seed": 2},
    }
    report = run_scenario(scenario)
    by_name = {rec.name: rec for rec in report.checks}
    assert by_name["eigen_products"].verdict == "PASS"
    assert by_name["isometry_factor"].verdict == "PASS"
    assert abs(by_name["isometry_factor"].lambdaHat - 0.49) < 1e-10
    assert "ricci_pullback" not in by_name
    assert report.overall == "PASS"


def test_rigidity_scenario_equidimensional_adds_ricci():
    scenario = {
        "mode": "rigidity",
        "source": {"kind": "ball", "dim": 1},
        "target": {"kind": "ball", "dim": 1},
        "map": ["(z1-0.3)/(1-0.3*z1)"],
        "p": 1,
        "sampling": {"count": 10, "seed": 4},
    }
    report = run_scenario(scenario)
    by_name = {rec.name: rec for rec in report.checks}
    assert by_name["ricci_pullback"].verdict == "PASS"
    assert report.overall == "PASS"


def test_umehara_scenario_rank_growth():
    scenario = {
        "mode": "umehara",
        "series": {"name": "psi", "params": {"p": 1, "map": ["z1"]}},
        "orders": [2, 4, 6],
        "expect": {"verdict": "growing"},
    }
    report = run_scenario(scenario)
    (rec,) = report.checks
    assert rec.verdict == "PASS"
    assert [list(row) for row in rec.rankTable] == [[2, 3], [4, 5], [6, 7]]

    scenario["expect"] = {"verdict": "bounded"}
    assert run_scenario(scenario).overall == "FAIL"


def test_relatives_scenario_veronese_vs_identity():
    scenario = {
        "mode": "relatives",
        "source": {"kind": "euclidean", "dim": 1},
        "targets": [
            {"kind": "projective", "dim": 2},
            {"kind": "projective", "dim": 1},
        ],
        "maps": [["1.4142135623730951*z1", "z1^2"], ["z1"]],
        "p": 1,
        "sampling": {"count": 25, "seed": 6},
        "expect": {"lambdaHat": 2},
    }
    report = run_scenario(scenario)
    by_name = {rec.name: rec for rec in report.checks}
    assert by_name["relatives_p1"].verdict == "PASS"
    assert by_name["lambda_matches"].verdict == "PASS"
    assert report.overall == "PASS"


def _verdicts(scenario) -> dict:
    return {rec.name: rec.verdict for rec in run_scenario(scenario).checks}


def _space(kind: str, dim: int) -> dict:
    return {"kind": kind, "dim": dim}


def _pullback(source, target, comps, p: int) -> dict:
    return {"mode": "pullback", "source": source, "target": target, "map": comps, "p": p,
            "sampling": {"count": 10, "seed": 3}}


def _flat_relatives(F, G) -> dict:
    """Relatives at p = 1 of F and G, both into flat targets, from C^len(G)."""
    return {"mode": "relatives", "source": _space("euclidean", len(G)),
            "targets": [_space("euclidean", len(F)), _space("euclidean", len(G))],
            "maps": [F, G], "p": 1, "sampling": {"count": 10, "seed": 3}}


def _scaled(scenario, s: float) -> dict:
    """The scenario with its map F replaced by s*F."""
    def scale(comps):
        return [f"{s!r}*({c})" for c in comps]

    if scenario["mode"] == "pullback":
        return dict(scenario, map=scale(scenario["map"]))
    F, G = scenario["maps"]
    return dict(scenario, maps=[scale(F), G])


def test_pp_verdicts_are_relative_to_lambda():
    # a small pullback is not a proportional one: residual / lambdaHat is the
    # same at every scale of these maps, which an absolute floor would pass
    B2, C2 = _space("ball", 2), _space("euclidean", 2)
    for source, comps in [
        (B2, ["1e-3*z1", "1e-3*z2"]),
        (B2, ["1e-5*z1", "1e-5*z2"]),
        (B2, ["1e-5*(z1+z1^2)", "1e-5*z2"]),
        (C2, ["1e-6*(z1+z2^2)", "1e-6*z2"]),
    ]:
        assert _verdicts(_pullback(source, source, comps, 1)) == {"pullback_p1": "FAIL"}, comps
    # a large lambdaHat (1e6, residual about 3.5e-10) and a constant map (0 <= 0) pass
    assert _verdicts(_pullback(C2, C2, ["1000*z1", "1000*z2"], 1)) == {"pullback_p1": "PASS"}
    report = run_scenario(_pullback(C2, C2, ["0.1", "0.2"], 1))
    assert [(r.name, r.verdict, r.lambdaHat, r.residual) for r in report.checks] == [("pullback_p1", "PASS", 0.0, 0.0)]
    # lambda_matches is relative to the expected factor: 1e-10 is not 3e-10
    pair = dict(_flat_relatives(["1e-5*z1"], ["z1"]), expect={"lambdaHat": 3e-10})
    assert _verdicts(pair) == {"relatives_p1": "PASS", "lambda_matches": "FAIL"}


_C2 = _space("euclidean", 2)
_PASS_P2_FAIL_P1 = {"pullback_p2": "PASS", "pullback_p1": "FAIL"}


@pytest.mark.parametrize(
    "scenario, expected",
    [
        (_pullback(_C2, _C2, ["z1", "z2"], 1), {"pullback_p1": "PASS"}),
        (_pullback(_C2, _C2, ["(0.6+0.8i)*z1", "0.5*z2-z1"], 2), _PASS_P2_FAIL_P1),
        (_pullback(_C2, _space("euclidean", 4), ["z1+1/(1-z2)", "z2", "0", "0"], 2), _PASS_P2_FAIL_P1),
        (_pullback(_space("euclidean", 3), _space("euclidean", 3), ["2*z1", "0.5*z2", "z3"], 3),
         {"pullback_p3": "PASS", "pullback_p1": "FAIL"}),
        (_pullback(_C2, _space("euclidean", 3), ["z1", "z2", "0.5*z1*z2"], 1), {"pullback_p1": "FAIL"}),
        (_pullback(_space("ball", 2), _C2, ["z1", "z2"], 1), {"pullback_p1": "FAIL"}),
        (_pullback(_space("projective", 1), _space("euclidean", 1), ["z1"], 1), {"pullback_p1": "FAIL"}),
        (_flat_relatives(["z1", "0"], ["z1"]), {"relatives_p1": "PASS"}),
        (_flat_relatives(["2*z1+z2", "z1-2*z2"], ["z1", "z2"]), {"relatives_p1": "PASS"}),
        (_flat_relatives(["1.4142135623730951*z1", "z1^2"], ["z1"]), {"relatives_p1": "FAIL"}),
        (_flat_relatives(["z1^2", "z2"], ["z1", "z2"]), {"relatives_p1": "FAIL"}),
    ],
)
def test_flat_target_verdicts_do_not_move_with_the_maps_scale(scenario, expected):
    # on a flat target s*F multiplies every (p,p) coefficient by |s|^(2p),
    # so no verdict may depend on s; an absolute floor turns the paper's flat
    # example at p = 1 from FAIL to PASS at s = 1e-6
    for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        assert _verdicts(_scaled(scenario, s)) == expected, s


def test_relatives_sample_inside_indefinite_projective_charts():
    # with no radius given, relatives sample at the smallest default radius of
    # their targets, 0.9 on P^n_s with s < n, whose chart ends at |z|_s^2 = -1;
    # a fixed 2.0 put the points outside the target chart
    for n in (1, 2, 3):
        identity = [f"z{k}" for k in range(1, n + 1)]
        for s in range(n):
            target = {"kind": "projective", "dim": n, "sig": s}
            for p in range(1, n + 1):
                scenario = {
                    "mode": "relatives",
                    "source": {"kind": "euclidean", "dim": n},
                    "targets": [target, target],
                    "maps": [identity, identity],
                    "p": p,
                    "expect": {"lambdaHat": 1.0},
                }
                report = run_scenario(scenario)
                assert report.overall == "PASS", (n, s, p)
                assert all(rec.lambdaHat == pytest.approx(1.0, rel=1e-12) for rec in report.checks)


def test_run_checks_times_each_check_from_the_previous_yield():
    def slow():
        time.sleep(0.05)
        yield "first", True, {}
        time.sleep(0.1)
        yield "second", False, {"residual": 2.5}

    def quick():
        yield "third", 1, {"skipped": 3}

    records = run_checks([slow(), quick()])
    assert [(r.name, r.verdict) for r in records] == [
        ("first", "PASS"),
        ("second", "FAIL"),
        ("third", "PASS"),
    ]
    assert records[0].seconds >= 0.05
    assert records[1].seconds >= 0.1
    assert records[1].residual == 2.5 and records[2].skipped == 3


def test_every_mode_times_its_checks_without_serializing_them():
    scenarios = [
        _flat_embedding_example(),
        _umehara({"p": 1, "map": ["z1"]}),
        dict(_relatives({"kind": "euclidean", "dim": 1}), expect={"lambdaHat": 1}),
        dict(_identity_flat(), mode="rigidity", map=["0.7*z1", "0.7*z2"]),
        {"mode": "levi", "source": {"kind": "ball", "dim": 2}, "p": 1, "sampling": {"count": 5}},
    ]
    for scenario in scenarios:
        report = run_scenario(scenario)
        assert report.checks
        assert all(math.isfinite(r.seconds) and r.seconds > 0 for r in report.checks)
        assert "seconds" not in report_to_json(report)


def test_reports_are_deterministic():
    first = report_to_json(run_scenario(_flat_embedding_example()))
    second = report_to_json(run_scenario(_flat_embedding_example()))
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"scenario", "checks", "overall"}
    for rec in payload["checks"]:
        assert "seconds" not in rec and "timings" not in rec


def test_overrides_update_echo():
    report = run_scenario(_identity_flat(), seed=7, samples=12)
    assert report.scenario["sampling"]["seed"] == 7
    assert report.scenario["sampling"]["count"] == 12


def _umehara(params, name="psi"):
    return {
        "mode": "umehara",
        "series": {"name": name, "params": params},
        "orders": [2, 4, 6],
        "expect": {"verdict": "growing"},
    }


def _relatives(source):
    return {
        "mode": "relatives",
        "source": source,
        "targets": [{"kind": "projective", "dim": 1}, {"kind": "projective", "dim": 1}],
        "maps": [["z1"], ["z1"]],
        "p": 1,
    }


def _overflowing_pullbacks():
    """Scenarios whose (p,p) pullback overflows the float range, each with that p."""
    flat, disc = {"kind": "euclidean", "dim": 1}, {"kind": "ball", "dim": 1}
    pair = dict(_relatives(flat), targets=[flat, flat])
    return [
        (dict(_identity_flat(), source=flat, target=flat, map=["1e200*z1^3"]), 1),
        (dict(_identity_flat(), source=disc, target=flat, map=["1e160*z1"]), 1),
        (dict(_identity_flat(), mode="rigidity", source=disc, target=flat, map=["1e160*z1"]), 1),
        (dict(pair, maps=[["1e160*z1"], ["z1"]]), 1),
        (dict(pair, maps=[["z1"], ["1e160*z1"]]), 1),
        (dict(_identity_flat(), map=["1e100*z1", "1e100*z2"], p=2), 2),
    ]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(mode="nope"), "mode"),
        (lambda d: d.update(source={"kind": "torus", "dim": 2}), "source.kind"),
        (lambda d: d.update(source={"kind": "ball", "dim": 0}), "source.dim"),
        (lambda d: d.update(map=["z1"]), "map"),
        (lambda d: d.update(map=["z1", "z3"]), "map"),
        (lambda d: d.update(p=5), "p"),
        (lambda d: d.update(sampling={"count": 0}), "sampling.count"),
        (lambda d: d.update(sampling={"seed": -1}), "sampling.seed must be a non-negative integer"),
        (lambda d: d.update(sampling={"seed": 1.5}), "sampling.seed"),
        (lambda d: d.pop("map"), "map"),
        (lambda d: d.update(tolerances={"proportionality": "tight"}), "tolerances.proportionality"),
        (lambda d: d.update(sampling={"radius": "wide"}), "sampling.radius"),
        (lambda d: d.update(mode="levi", r="big"), "r"),
        (lambda d: d.update(mode="levi", expect={"signature": [0, "a", 3]}), "expect.signature"),
        (lambda d: d.update(_umehara({"map": ["z1"]})), "series.params.p"),
        (lambda d: d.update(_umehara({"p": 1.5, "map": ["z1"]})), "series.params.p"),
        (lambda d: d.update(_umehara({"p": 1, "map": "z1"})), "series.params.map"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1^"]})), "series.params.map"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"], "tol": 0})), "series.params.tol must be positive"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"], "tol": -1e-10})), "series.params.tol must be positive"),
        (lambda d: d.update(mode="levi", source={"kind": "ball", "dim": 2, "sig": 1}), "source.sig must equal source.dim (a definite metric) for levi"),
        (lambda d: d.update(mode="rigidity", source={"kind": "euclidean", "dim": 2, "sig": 0}), "source.sig must equal source.dim (a definite metric) for rigidity"),
        (lambda d: d.update(source={"kind": "ball", "dim": 2}, sampling={"radius": 1.5}), "sampling.radius must be at most 1 on a ball source of signature 2"),
        (lambda d: d.update(source={"kind": "ball", "dim": 2, "sig": 1}, sampling={"radius": 1.5}), "sampling.radius must be at most 1 on a ball source of signature 1"),
        (lambda d: d.update(source={"kind": "projective", "dim": 2, "sig": 1}, sampling={"radius": 2}), "sampling.radius must be at most 1 on a projective source of signature 1"),
        (lambda d: d.update(mode="levi", source={"kind": "ball", "dim": 3}, sampling={"radius": 1.5}), "sampling.radius must be at most 1 on a ball source of signature 3"),
        (lambda d: d.update(sampling={"count": 10**8}), "sampling.count must be at most 10000"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"]}), orders=[5]), "orders must be a list of at least three"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"]}), orders=[2, 4]), "orders"),
        (lambda d: d.update(tolerances={"proportionalty": 1e-8}), "tolerances.proportionalty"),
        (lambda d: d.update(mode="levi", tolerances={"proportionality": 1e-8}), "tolerances.proportionality is not read by levi mode"),
        (lambda d: d.update(_relatives({"kind": "ball", "dim": 1})), "source.kind must be euclidean for relatives mode"),
        (lambda d: d.update(_relatives({"kind": "projective", "dim": 1})), "source.kind must be euclidean for relatives mode"),
        (lambda d: d.update(_relatives({"kind": "euclidean", "dim": 1, "sig": 0})), "source.sig must equal source.dim (a definite metric) for relatives"),
        # a curved source whose chart factor 1 + radius^2 overflows when squared
        (lambda d: d.update(source={"kind": "projective", "dim": 2}, target={"kind": "projective", "dim": 2}, sampling={"radius": 1e100}), "sampling.radius 1e+100 is too large for a projective source"),
        (lambda d: d.update(source={"kind": "projective", "dim": 2}, target={"kind": "projective", "dim": 2}, sampling={"radius": 1e200}), "sampling.radius 1e+200 is too large for a projective source"),
        (lambda d: d.update(mode="levi", source={"kind": "projective", "dim": 2}, sampling={"radius": 1e100}), "sampling.radius 1e+100 is too large for a projective source"),
        (lambda d: d.update(source={"kind": "ball", "dim": 2, "sig": 0}, sampling={"radius": 1e78}), "sampling.radius 1e+78 is too large for a ball source"),
        # a bool is not an integer, in any integer field
        (lambda d: d.update(sampling={"count": True}), "sampling.count must be a positive integer, got True"),
        (lambda d: d.update(sampling={"seed": False}), "sampling.seed must be a non-negative integer, got False"),
        (lambda d: d.update(p=True), "p must be a positive integer, got True"),
        (lambda d: d.update(source={"kind": "euclidean", "dim": True}), "source.dim must be a positive integer, got True"),
        (lambda d: d.update(target={"kind": "euclidean", "dim": 2, "sig": False}), "target.sig must be a non-negative integer, got False"),
        (lambda d: d.update(_umehara({"p": True, "map": ["z1"]})), "series.params.p must be a non-negative integer, got True"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"]}), orders=[2, True, 6]), "orders[1] must be a non-negative integer, got True"),
        (lambda d: d.update(mode="levi", expect={"signature": [2, 0, False]}), "expect.signature[2] must be a non-negative integer, got False"),
        # an expect key the mode does not read is an error, as a tolerance key is
        (lambda d: d.update(expect={"lambdaHat": 3}), "expect.lambdaHat is not read by pullback mode (it reads: none)"),
        (lambda d: d.update(mode="levi", expect={"verdict": "bounded"}), "expect.verdict is not read by levi mode (it reads: signature)"),
        (lambda d: d.update(_umehara({"p": 1}, name="ball_slice"), expect={"verdict": "bounded", "lambdaHat": 1}), "expect.lambdaHat is not read by umehara mode (it reads: verdict)"),
        # tolerances are positive, like series.params.tol
        (lambda d: d.update(tolerances={"proportionality": 0}), "tolerances.proportionality must be positive, got 0"),
        (lambda d: d.update(mode="rigidity", tolerances={"ricci": -1e-8}), "tolerances.ricci must be positive, got -1e-08"),
        # the umehara inputs rank_growth would refuse are refused here, naming the field
        (lambda d: d.update(_umehara({"p": 1}, name="nope")), "series.name must be one of abs_square, ball_slice, proj_slice, psi; got 'nope'"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"]}), orders=[2, 6, 4]), "orders must be strictly ascending, got [2, 6, 4]"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"]}), orders=[2, 2, 4]), "orders must be strictly ascending"),
        # a key the mode does not read is an error at every level, a misspelt one too
        (lambda d: d.update(sampeling={"count": 5}), "sampeling is not read by pullback mode (it reads: mode, sampling, tolerances, expect, source, target, map, p)"),
        (lambda d: d.update(targets=[{"kind": "ball", "dim": 2}]), "targets is not read by pullback mode"),
        (lambda d: d.update(mode="rigidity", r=1.0), "r is not read by rigidity mode"),
        (lambda d: d.update(sampling={"count": 5, "cuont": 3}), "sampling.cuont is not read by pullback mode (it reads: count, seed, radius)"),
        (lambda d: d.update(source={"kind": "euclidean", "dim": 2, "sgi": 1}), "source.sgi is not read by a space form (it reads: kind, dim, sig)"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"], "tool": 0}, name="ball_slice")), "series.params.map is not read by the ball_slice series (it reads: p, tol)"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"], "tool": 0})), "series.params.tool is not read by the psi series (it reads: p, map, tol)"),
        (lambda d: d.update(_umehara({"p": 1}, name="ball_slice"), series={"name": "ball_slice", "parms": {"p": 1}}), "series.parms is not read by umehara mode (it reads: name, params)"),
        # a number is a JSON number, not a numeric string
        (lambda d: d.update(tolerances={"proportionality": "1e-8"}), "tolerances.proportionality must be a finite number, got '1e-8'"),
        (lambda d: d.update(sampling={"radius": "0.5"}), "sampling.radius must be a finite number, got '0.5'"),
        (lambda d: d.update(_umehara({"p": 1, "map": ["z1"], "tol": "1e-9"})), "series.params.tol must be a finite number, got '1e-9'"),
        (lambda d: d.update(mode="levi", r="1.5"), "r must be a finite number, got '1.5'"),
        # a level whose Levi eigenvalues, about p*r in size, would near the zero tolerance
        (lambda d: d.update(mode="levi", r=1e-10), "r must be at least 2e-09 for levi mode at p=1, got 1e-10"),
        (lambda d: d.update(mode="levi", r=1e-26), "r must be at least 2e-09 for levi mode at p=1, got 1e-26"),
        (lambda d: d.update(mode="levi", source={"kind": "projective", "dim": 3}, p=3, r=6e-10), "r must be at least 6.67e-10 for levi mode at p=3, got 6e-10"),
        # a level whose scaled fibers and Levi forms would overflow the float range
        (lambda d: d.update(mode="levi", source={"kind": "ball", "dim": 3}, p=1, r=1e308), "r must be at most 8.99e+306 for levi mode at p=1 on this ball source, got 1e+308"),
        (lambda d: d.update(mode="levi", source={"kind": "projective", "dim": 3}, p=3, r=1e306), "r must be at most 7.15e+304 for levi mode at p=3 on this projective source, got 1e+306"),
    ],
)
def test_scenario_validation_names_the_field(mutate, fragment):
    data = _identity_flat()
    mutate(data)
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(data)
    assert fragment in str(excinfo.value)


def test_levi_level_floor_is_kept_and_pins_the_signatures():
    # at the floor itself, and where the absolute zero tolerance used to
    # count curved base eigenvalues as zero
    cases = (("ball", 2, 1, (0, 0, 3)), ("projective", 2, 1, (2, 0, 1)), ("projective", 3, 3, (3, 0, 0)))
    for kind, n, p, signature in cases:
        for r in (levi_level_floor(p), 1e-8):
            source = {"kind": kind, "dim": n}
            scenario = {"mode": "levi", "source": source, "p": p, "r": r, "sampling": {"count": 3}}
            (rec,) = run_scenario(scenario).checks
            assert rec.verdict == "PASS" and tuple(rec.signature) == signature, (kind, p, r)


def _largest_levi_radius(sf, p):
    """The largest sampling radius a levi scenario accepts on sf at degree p, to 1e-12 relative."""
    fits = lambda radius: radius_fits(sf, radius) and levi_radius_fits(sf, p, radius)
    if fits(sys.float_info.max):
        return sys.float_info.max
    lo, hi = 1.0, 1e78
    while hi - lo > 1e-12 * lo:
        mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def test_levi_level_ceiling_runs_without_warnings():
    # at the ceiling, at the default radius and at the largest one levi mode
    # accepts, every space form keeps the signature of the unit level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, n in itertools.product(("ball", "projective", "euclidean"), (2, 3)):
            for p in range(1, n + 1):
                sf = SpaceForm(kind, n, n)
                scenario = {"mode": "levi", "source": {"kind": kind, "dim": n}, "p": p}
                (unit,) = run_scenario(scenario).checks
                for radius in (None, _largest_levi_radius(sf, p)):
                    r = levi_level_ceiling(sf, p, default_radius(sf) if radius is None else radius)
                    assert r >= 1.0
                    sampling = {"radius": radius}
                    (rec,) = run_scenario(dict(scenario, r=r, sampling=sampling)).checks
                    assert rec.verdict == "PASS", (kind, n, p, radius)
                    assert rec.signature == unit.signature, (kind, n, p, radius)
                    with pytest.raises(ScenarioError, match="^r must be at most"):
                        parse_scenario(dict(scenario, r=r * 1.001, sampling=sampling))
    # the extreme levels kept at the default radius
    for kind, n, p, r in (("projective", 3, 1, 1e300), ("projective", 3, 2, 1e300), ("ball", 3, 3, 1e306)):
        scenario = {"mode": "levi", "source": {"kind": kind, "dim": n}, "p": p, "r": r}
        assert run_scenario(scenario).overall == "PASS"


def test_radius_past_one_is_kept_where_the_chart_holds_it():
    for source in (
        {"kind": "euclidean", "dim": 2, "sig": 1},
        {"kind": "projective", "dim": 2},
        {"kind": "ball", "dim": 2, "sig": 0},
    ):
        data = dict(_identity_flat(), source=source, sampling={"radius": 1.5, "count": 5})
        assert parse_scenario(data).radius == 1.5
    # the chart factor 1 + radius^2 squares to a finite float up to about 1.16e77
    assert parse_scenario(dict(_projective_identity(), sampling={"radius": 1e77})).radius == 1e77
    data = dict(_identity_flat(), sampling={"count": 10_000}, tolerances={"proportionality": 1e-9})
    assert parse_scenario(data).count == 10_000


def test_umehara_parses_the_series_map_once(monkeypatch):
    # rank_growth gets the MapExpr the parser built; the echo keeps the strings
    calls = []
    parse = umehara.parse_map
    monkeypatch.setattr(umehara, "parse_map", lambda *args: calls.append(args) or parse(*args))
    report = run_scenario(_umehara({"p": 1, "map": ["z1"]}))
    assert report.overall == "PASS" and len(calls) == 1
    assert report.scenario["series"] == {"name": "psi", "params": {"p": 1, "map": ["z1"]}}


def test_relatives_validation():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(
            {
                "mode": "relatives",
                "source": {"kind": "euclidean", "dim": 1},
                "targets": [{"kind": "ball", "dim": 1}],
                "maps": [["z1"], ["z1"]],
                "p": 1,
            }
        )
    assert "targets" in str(excinfo.value)


def test_umehara_requires_expected_verdict():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(
            {
                "mode": "umehara",
                "series": {"name": "ball_slice", "params": {"p": 1}},
                "orders": [2, 4, 6],
            }
        )
    assert "expect.verdict" in str(excinfo.value)


def test_cli_run_pass_and_json_output(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(_identity_flat()))
    out_path = tmp_path / "report.json"
    code = main(["run", str(path), "--json", str(out_path)])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert out_path.read_text() == report_to_json(run_scenario(_identity_flat()))


def test_cli_run_fail_exit_code(tmp_path):
    path = tmp_path / "topdegree.json"
    path.write_text(json.dumps(_flat_embedding_example()))
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("scenario, verdict", [(_identity_flat, 0), (_flat_embedding_example, 1)])
def test_cli_closed_stdout_keeps_the_report_and_the_verdict(tmp_path, monkeypatch, unbuffered, scenario, verdict):
    # a reader that is gone before the first line (kform ... | head -1 at its
    # limit): the report is written, the exit code is the verdict's, no traceback
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    path, out_path = tmp_path / "scenario.json", tmp_path / "report.json"
    path.write_text(json.dumps(scenario()))
    read, write = os.pipe()
    os.close(read)
    try:
        script = "import sys\nfrom kform.cli import main\nsys.exit(main(sys.argv[1:]))"
        done = run_python(script, "run", str(path), "--json", str(out_path), stdout=write)
    finally:
        os.close(write)
    assert done.returncode == verdict, done.stderr
    assert done.stderr == ""
    assert out_path.read_text() == report_to_json(run_scenario(scenario()))


def test_cli_unwritable_report_exits_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(_identity_flat()))
    dest = tmp_path / "missing" / "report.json"
    assert main(["run", str(path), "--json", str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"cannot write report: [Errno 2] No such file or directory: {str(dest)!r}\n"
    assert not (tmp_path / "missing").exists()

    # the destination is checked before the battery starts, and a file where
    # the directory should be fails as open() would
    monkeypatch.setattr(cli, "run_paper_suite", lambda: pytest.fail("the battery ran"))
    assert main(["suite", "--json", str(dest)]) == 2
    assert capsys.readouterr() == ("", err)
    dest = path / "report.json"
    assert main(["suite", "--json", str(dest)]) == 2
    assert capsys.readouterr().err == f"cannot write report: [Errno 20] Not a directory: {str(dest)!r}\n"

    # a directory standing at the path passes the early check; the write after
    # the run fails, and nothing is printed
    assert main(["run", str(path), "--json", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"cannot write report: [Errno 21] Is a directory: {str(tmp_path)!r}\n")

    # with no --json no directory is looked up: "./" may not be searchable
    monkeypatch.setattr(os, "stat", lambda *args, **kwargs: pytest.fail("a directory was looked up"))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")


def test_check_fields_serialize_and_print_byte_for_byte(capsys):
    full = CheckRecord(
        name="full",
        verdict="FAIL",
        lambdaHat=np.float64(1 / 3),
        residual=np.float64(3.5e-10),
        signature=(np.int64(2), 1, 0),
        rankTable=((np.int64(2), 3), (4, np.int64(5))),
        skipped=np.int64(3),
        seconds=1.5,
    )
    zero = CheckRecord(name="zero", verdict="PASS", lambdaHat=0.0, skipped=0)
    assert full.to_json_dict() == {
        "name": "full",
        "verdict": "FAIL",
        "lambdaHat": 1 / 3,
        "residual": 3.5e-10,
        "signature": [2, 1, 0],
        "rankTable": [[2, 3], [4, 5]],
        "skipped": 3,
    }
    assert zero.to_json_dict() == {"name": "zero", "verdict": "PASS", "lambdaHat": 0.0}
    for fields in (full.to_json_dict(), zero.to_json_dict()):
        assert [type(v) for v in fields.values()] == [type(json.loads(json.dumps(v))) for v in fields.values()]
    report = Report(scenario={"mode": "suite"}, checks=(full, zero), overall="FAIL")
    assert report_to_json(report) == (
        '{\n  "checks": [\n    {\n      "lambdaHat": 0.3333333333333333,\n      "name": "full",\n'
        '      "rankTable": [\n        [\n          2,\n          3\n        ],\n        [\n'
        '          4,\n          5\n        ]\n      ],\n      "residual": 3.5e-10,\n'
        '      "signature": [\n        2,\n        1,\n        0\n      ],\n      "skipped": 3,\n'
        '      "verdict": "FAIL"\n    },\n    {\n      "lambdaHat": 0.0,\n      "name": "zero",\n'
        '      "verdict": "PASS"\n    }\n  ],\n  "overall": "FAIL",\n  "scenario": {\n'
        '    "mode": "suite"\n  }\n}\n'
    )
    cli._print_report(report)
    assert capsys.readouterr().out == (
        "full: FAIL  lambdaHat=0.333333333333  residual=3.500e-10  signature=(2, 1, 0)  ranks=2:3,4:5  skipped=3\n"
        "zero: PASS  lambdaHat=0\n"
        "overall: FAIL\n"
    )


def test_cli_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "JSON" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"mode": "nope"}))
    assert main(["run", str(wrong)]) == 2
    assert "mode" in capsys.readouterr().err


def test_cli_unreadable_files_exit_two(tmp_path):
    # bytes that are not UTF-8, and arrays nested past the recursion limit
    script = "import sys\nfrom kform.cli import main\nsys.exit(main(['run', sys.argv[1]]))"
    path = tmp_path / "unreadable.json"
    for content in (b'{"mode": "\xff"}', b"[" * 200_000 + b"]" * 200_000):
        path.write_bytes(content)
        done = run_python(script, str(path))
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("scenario error: scenario file is not valid JSON: ")


def test_cli_malformed_scenario_fields_exit_two(tmp_path, capsys):
    for data, fragment in [
        (dict(_identity_flat(), map=["z1^1e999", "z2"]), "position 3"),
        (dict(_identity_flat(), tolerances={"ricci": None}), "tolerances.ricci"),
        (_umehara({"map": ["z1"]}), "series.params.p"),
        (dict(_identity_flat(), map=["9^999*z1", "z2"]), "overflows"),
        (_umehara({"map": ["1e200*z1+1e200*z1^2"]}, name="abs_square"), "series coefficients overflow"),
        (_relatives({"kind": "ball", "dim": 1}), "source.kind"),
        (_relatives({"kind": "projective", "dim": 1}), "source.kind"),
        (_relatives({"kind": "euclidean", "dim": 1, "sig": 0}), "source.sig"),
        # chart factors that overflow: the sampling radius on a curved source, the image on a curved target
        (dict(_projective_identity(), sampling={"radius": 1e100}), "sampling.radius"),
        (dict(_projective_identity(), sampling={"radius": 1e200}), "sampling.radius"),
        (dict(mode="levi", source={"kind": "projective", "dim": 2}, p=1, sampling={"radius": 1e100}), "sampling.radius"),
        # at top degree the wedge metric's one coefficient loses its precision far out
        (dict(mode="levi", source={"kind": "projective", "dim": 2}, p=2, sampling={"radius": 1e13}), "sampling.radius 10000000000000.0 is too large for levi mode at p=2"),
        (dict(mode="levi", source={"kind": "projective", "dim": 2}, p=2, sampling={"radius": 1e40}), "sampling.radius 1e+40 is too large for levi mode at p=2"),
        # levels whose fibers and Levi forms would overflow the float range
        (dict(mode="levi", source={"kind": "ball", "dim": 3}, p=1, r=1e308), "r must be at most 8.99e+306"),
        (dict(mode="levi", source={"kind": "projective", "dim": 3}, p=3, r=1e306), "r must be at most 7.15e+304"),
        (dict(_projective_identity(), source={"kind": "euclidean", "dim": 2}, sampling={"radius": 1e200}), "outside the target chart"),
        # numpy overflows in a map's jet are errors of the run, not warnings
        (dict(_identity_flat(), map=["z1^2", "z2"], sampling={"count": 2, "radius": 1e200}), "expression overflows"),
        # and so are overflows in the pullback that the jet feeds
        *((data, f"the ({p},{p}) pullback overflows") for data, p in _overflowing_pullbacks()),
        # and slice binomials past the float range, also inside psi
        (_umehara({"p": 10**400}, name="ball_slice"), "series coefficients overflow"),
        (_umehara({"p": 10**400, "map": ["z1"]}), "series coefficients overflow"),
        # sizes past the parser's limits
        (dict(_identity_flat(), source={"kind": "euclidean", "dim": 71}), "source.dim must be at most 70"),
        (dict(_identity_flat(), target={"kind": "euclidean", "dim": 10**6}), "target.dim must be at most 70"),
    ]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2
        assert fragment in capsys.readouterr().err
    # sizes that would not fit in memory, run in a child whose address space
    # is capped 1 GiB above what it holds after import, so that a missing
    # limit ends there in a MemoryError instead of filling the host
    script = (
        "import resource, sys\n"
        "from kform.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "sys.exit(main(['run', sys.argv[1]]))"
    )
    flat26 = {"kind": "euclidean", "dim": 26}
    for data, fragment in [
        (dict(_identity_flat(), source=flat26, target=flat26, map=[f"z{k}" for k in range(1, 27)], p=13),
         "p=13 gives 10400600 multi-indices"),
        ({"mode": "levi", "source": {"kind": "ball", "dim": 26}, "p": 13}, "p=13 gives 10400600 multi-indices"),
        (dict(_umehara({"p": 1}, name="ball_slice"), orders=[1, 2, 20000]), "orders[2] must be at most 240"),
    ]:
        path.write_text(json.dumps(data))
        done = run_python(script, str(path))
        assert done.returncode == 2, done.stderr
        assert done.stderr.count("\n") == 1 and fragment in done.stderr
    # a negative seed, in the file or from the --seed override, names the field
    path.write_text(json.dumps(dict(_identity_flat(), sampling={"seed": -1})))
    assert main(["run", str(path)]) == 2
    assert "sampling.seed must be a non-negative integer, got -1" in capsys.readouterr().err
    path.write_text(json.dumps(_identity_flat()))
    assert main(["run", str(path), "--seed", "-5"]) == 2
    assert "sampling.seed must be a non-negative integer, got -5" in capsys.readouterr().err
    # the overrides are checked in suite mode too, before the battery runs
    path.write_text(json.dumps({"mode": "suite"}))
    for flag, value, message in (
        ("--seed", "-5", "sampling.seed must be a non-negative integer, got -5"),
        ("--samples", "0", "sampling.count must be a positive integer, got 0"),
    ):
        assert main(["run", str(path), flag, value]) == 2
        assert message in capsys.readouterr().err


def test_cli_runs_a_10000_term_component(tmp_path, capsys):
    # the evaluator has no depth limit: a long sum is one pass over its program,
    # and the parser none either: 600-deep parentheses are one loop over their tokens
    path = tmp_path / "long.json"
    long = "+".join(["0.0001*z1"] * 10_000)
    for comps in ([long, "z2"], ["(" * 600 + "z1" + ")" * 600, "z2"]):
        path.write_text(json.dumps(dict(_identity_flat(), map=comps)))
        assert main(["run", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out


def test_cli_overflow_prints_only_the_error(tmp_path, capsys):
    # the error line is all of stderr: numpy does not warn of the overflow first
    path = tmp_path / "overflow.json"
    script = "import sys\nfrom kform.cli import main\nsys.exit(main(['run', sys.argv[1]]))"
    path.write_text(json.dumps(_umehara({"map": ["1e200*z1+1e200*z1^2"]}, name="abs_square")))
    done = run_python(script, str(path))
    assert done.returncode == 2
    assert done.stderr == "error: series coefficients overflow\n"
    # numpy words the overflow itself, so only the part kform writes is pinned
    path.write_text(json.dumps(dict(_identity_flat(), map=["z1^2", "z2"], sampling={"count": 2, "radius": 1e200})))
    done = run_python(script, str(path))
    assert done.returncode == 2
    assert done.stderr.startswith("error: expression overflows") and done.stderr.count("\n") == 1
    # a pullback that overflows: one error line and exit 2, with no numpy warning first
    for data, p in _overflowing_pullbacks():
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path)]) == 2
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == f"error: the ({p},{p}) pullback overflows the float range\n"


def test_cli_reports_skipped_ricci_samples(tmp_path, capsys):
    # the 1x1 Jacobian 1000 z^999 of z1^1000 underflows to exactly 0 near the
    # center of the disc.  (z1^40's 40 z^39 is tiny there, but not singular on
    # its own scale, and skips nothing.)
    data = dict(
        _identity_flat(),
        mode="rigidity",
        source={"kind": "ball", "dim": 1},
        target={"kind": "ball", "dim": 1},
        map=["z1^1000"],
        sampling={"count": 50, "seed": 42},
    )
    path, out_path = tmp_path / "ricci.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="point skipped"):
        main(["run", str(path), "--json", str(out_path)])
    assert "skipped=14" in capsys.readouterr().out
    (ricci,) = [c for c in json.loads(out_path.read_text())["checks"] if c["name"] == "ricci_pullback"]
    assert ricci["skipped"] == 14 and ricci["verdict"] == "FAIL"
    # a check that skipped nothing serializes no count: the disc's identity,
    # and the homothety 1e-5 z of C^3, whose det J = 1e-15 is not singular
    flat3 = {"kind": "euclidean", "dim": 3}
    homothety = dict(data, source=flat3, target=flat3, map=["1e-5*z1", "1e-5*z2", "1e-5*z3"])
    for scenario in (dict(data, map=["z1"]), homothety):
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--json", str(out_path)]) == 0
        assert all("skipped" not in c for c in json.loads(out_path.read_text())["checks"])


def test_cli_umehara_huge_power_returns(tmp_path, capsys):
    # the slice Taylor power squares over the exponent's bits, without recursion
    path = tmp_path / "power.json"
    data = _umehara({"map": ["z1^100000000000", "z1^1e300"]}, name="abs_square")
    data["expect"] = {"verdict": "bounded"}
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 0
    assert "ranks=2:0,4:0,6:0" in capsys.readouterr().out


def test_cli_umehara_huge_psi_power_returns(tmp_path, capsys):
    # psi raises to the power 2p by squaring, some forty products for p = 10^6
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(_umehara({"p": 10**6, "map": ["z1"]})))
    assert main(["run", str(path)]) in (0, 1)
    assert "rank_growth" in capsys.readouterr().out


def test_cli_umehara_huge_psi_power_grows(tmp_path, capsys):
    # psi's coefficients span 1 to 1e36 at p = 10^6; the ranks are those of
    # p = 1, and exit 0 means the scenario's expected verdict "growing" held
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(_umehara({"p": 10**6, "map": ["z1"]})))
    assert main(["run", str(path)]) == 0
    assert "rank_growth: PASS  ranks=2:3,4:5,6:7" in capsys.readouterr().out


def test_cli_umehara_negative_tol_exits_two(tmp_path):
    # a nonpositive tolerance used to keep the elimination running forever
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(_umehara({"p": 1, "tol": -1}, name="ball_slice")))
    done = run_python("import sys\nfrom kform.cli import main\nsys.exit(main(['run', sys.argv[1]]))", str(path))
    assert done.returncode == 2, done.stderr
    assert "series.params.tol must be positive, got -1" in done.stderr


def test_cli_umehara_tiny_tol_ranks_stay_within_the_block(tmp_path, capsys):
    # at tol = 1e-300 pivot roundoff used to count as rank: 8, 13, 18 here
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(_umehara({"p": 1, "map": ["0.3*z1+0.2*z1^2"], "tol": 1e-300}), orders=[4, 6, 8])))
    assert main(["run", str(path)]) == 0
    assert "ranks=4:5,6:7,8:9" in capsys.readouterr().out


def test_cli_runs_without_scipy(tmp_path):
    fresh = run_python("import sys, kform.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "[]"
    # the suite's c10 rerun: a whole battery in a fresh interpreter, imported as it imports it
    argv = suite._rerun_argv()
    # the probe goes before the rerun's os._exit, which would skip it, and flushes its own write
    probe = "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('scipy'))))\nsys.stderr.flush()"
    head, exit_line = argv[-1].rsplit("\n", 1)
    assert exit_line == "os._exit(0)"
    argv[-1] = f"{head}\n{probe}\n{exit_line}"
    rerun = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert rerun.returncode == 0 and '"overall": "PASS"' in rerun.stdout, rerun.stderr
    assert rerun.stderr == "[]"
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(_umehara({"p": 1, "map": ["z1"]})))
    blocked = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from kform.cli import main\n"
        "assert [m for m in sys.modules if m.startswith('scipy')] == ['scipy']\n"
        "sys.exit(main(['run', sys.argv[1]]))\n",
        str(path),
    )
    assert blocked.returncode == 0, blocked.stderr
    assert "rank_growth: PASS" in blocked.stdout


def test_cli_usage_error_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
