import json
import math
import subprocess
import time

import pytest

from kform import suite
from kform.cli import main
from kform.errors import ScenarioError
from kform.scenarios import parse_scenario, report_to_json, run_checks, run_scenario
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
    ],
)
def test_scenario_validation_names_the_field(mutate, fragment):
    data = _identity_flat()
    mutate(data)
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(data)
    assert fragment in str(excinfo.value)


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


def test_cli_malformed_scenario_fields_exit_two(tmp_path, capsys):
    for data, fragment in [
        (dict(_identity_flat(), map=["z1^1e999", "z2"]), "position 3"),
        (dict(_identity_flat(), tolerances={"ricci": None}), "tolerances.ricci"),
        (_umehara({"map": ["z1"]}), "series.params.p"),
        (dict(_identity_flat(), map=["(" * 600 + "z1" + ")" * 600, "z2"]), "map: expression nests too deeply"),
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
        (dict(_projective_identity(), source={"kind": "euclidean", "dim": 2}, sampling={"radius": 1e200}), "outside the target chart"),
        # numpy overflows in a map's jet are errors of the run, not warnings
        (dict(_identity_flat(), map=["z1^2", "z2"], sampling={"count": 2, "radius": 1e200}), "expression overflows"),
    ]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2
        assert fragment in capsys.readouterr().err
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
    # the evaluator has no depth limit: a long sum is one pass over its program
    path = tmp_path / "long.json"
    long = "+".join(["0.0001*z1"] * 10_000)
    path.write_text(json.dumps(dict(_identity_flat(), map=[long, "z2"])))
    assert main(["run", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_overflow_prints_only_the_error(tmp_path):
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


def test_cli_reports_skipped_ricci_samples(tmp_path, capsys):
    # z1^40 has a numerically singular Jacobian near the center of the disc
    data = dict(
        _identity_flat(),
        mode="rigidity",
        source={"kind": "ball", "dim": 1},
        target={"kind": "ball", "dim": 1},
        map=["z1^40"],
        sampling={"count": 50, "seed": 42},
    )
    path, out_path = tmp_path / "ricci.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="point skipped"):
        main(["run", str(path), "--json", str(out_path)])
    assert "skipped=13" in capsys.readouterr().out
    (ricci,) = [c for c in json.loads(out_path.read_text())["checks"] if c["name"] == "ricci_pullback"]
    assert ricci["skipped"] == 13
    # a check that skipped nothing serializes no count
    path.write_text(json.dumps(dict(data, map=["z1"])))
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
    argv[-1] += "\nsys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('scipy'))))"
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
