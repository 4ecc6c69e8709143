"""Scenario fuzz: any small scenario dict exits 0, 1 or 2 through the CLI and never raises.

Each drawn scenario holds the fields its mode reads (now and then one is
dropped, or a field of another mode joins), so most draws get past the
parser and run.  Every field's vocabulary mixes valid values, listed
several times so that they are drawn most often, with values of the wrong
type (bools, floats and strings where integers belong) and out of range:
negative seeds, radii whose chart factor overflows (1e100, 1e200), unknown
tolerance keys, malformed series and maps.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kform.suite
from kform.cli import main
from kform.scenarios import MODES, Report


def _vocab(valid, invalid):
    """Values drawn from ``valid`` four times as often as from ``invalid``."""
    return st.sampled_from(4 * list(valid) + list(invalid))


# wrong types and out-of-range values for integer fields
_BAD_INT = [-1, 0, True, 1.5, 2.0, "2", None]
_DIM = _vocab([2, 2, 1, 3], _BAD_INT)
_COUNT = _vocab([1, 2, 3, 5], _BAD_INT)
_SEED = _vocab([0, 1, 3], [-1, -3, True, 0.5, "1"])
_REAL = _vocab(
    [1e-8, 1e-6, 0.5, 1.0, 2], [0.0, -1.0, 1e200, float("inf"), float("nan"), "wide", True, None]
)
# radii past about 1.16e77 make a curved chart factor overflow when squared
_RADIUS = _vocab([1e100, 1e200, None, 0.5, 1.5, 1e77], [0.0, -1.0, float("nan"), "wide", False])
_MAP = _vocab(
    [["z1", "z2"], ["z1", "z2"], ["z1"], ["z1", "z2", "0"], ["0.5*z1", "z1^2"],
     ["(z1-0.3)/(1-0.3*z1)"], ["z1*z2", "1/(2+z1)"]],
    [["1/z1"], ["1e200*z1", "z2"], ["z3", "z1"], ["z1+"], [3], "z1", None, []],
)
_JUNK = [None, "x", [], 1]


def _mostly(valid, invalid):
    """``valid`` three draws in four, else ``invalid``.

    ``st.one_of`` would pick its branches about evenly, whatever their sizes.
    """
    return st.tuples(st.sampled_from([True, True, True, False]), valid, invalid).map(
        lambda t: t[1] if t[0] else t[2]
    )


def _object(required, optional=()):
    """An object with the ``required`` fields and any of the ``optional`` ones, or junk."""
    return _mostly(st.fixed_dictionaries(required, optional=dict(optional)), st.sampled_from(_JUNK))


def _pairs(item):
    """Lists of two items, three draws in four, else of one to three."""
    return _mostly(st.lists(item, min_size=2, max_size=2), st.lists(item, min_size=1, max_size=3))


_SPACE = _object(
    {"kind": _vocab(["projective", "ball", "euclidean"], ["torus", 1]), "dim": _DIM}, {"sig": _DIM}
)
_FIELDS = {
    "source": _SPACE,
    "target": _SPACE,
    "targets": _pairs(_SPACE),
    "map": _MAP,
    "maps": _pairs(_MAP),
    "p": _COUNT,
    "r": _REAL,
    "series": _object(
        {"name": _vocab(["ball_slice", "proj_slice", "psi", "abs_square"], ["nope", 1])},
        {"params": _object({}, {"p": _COUNT, "map": _MAP, "tol": _REAL})},
    ),
    "orders": _vocab(
        [[2, 4, 6], [0, 5, 10], [1, 2, 3, 4]], [[2, 4], [-1, 2, 3], [1.5, 2, 3], "246"]
    ),
    "sampling": _object({"count": _COUNT, "radius": _RADIUS}, {"seed": _SEED}),
    "tolerances": st.dictionaries(
        _vocab(["proportionality", "rigidity", "factorSpread", "ricci", "lambdaMatch"], ["bogus"]),
        _REAL,
        max_size=1,
    ),
    "expect": st.dictionaries(
        _vocab(["signature", "verdict", "lambdaHat"], ["other"]),
        _vocab(
            [[2, 0, 1], [0, 0, 3], "growing", "bounded", 2.0], [[1, 2], ["a", 0, 1], "maybe", None]
        ),
        max_size=1,
    ),
}
_READS = {
    "pullback": ("source", "target", "map", "p", "sampling", "tolerances", "expect"),
    "rigidity": ("source", "target", "map", "p", "sampling", "tolerances", "expect"),
    "levi": ("source", "p", "r", "sampling", "expect"),
    "relatives": ("source", "targets", "maps", "p", "sampling", "tolerances", "expect"),
    "umehara": ("series", "orders", "expect"),
}


@st.composite
def _scenarios(draw):
    """At most eight keys: the mode, what it reads (each but sampling dropped one time
    in eight, since a scenario without it samples 50 points), and one stray."""
    mode = draw(_vocab(MODES, ["nope"]))
    data = {"mode": mode}
    for key in _READS.get(mode, ()):
        if key == "sampling" or draw(st.integers(0, 7)) < 7:
            data[key] = draw(_FIELDS[key])
    stray = draw(st.sampled_from([None, *_FIELDS]))
    if stray is not None and len(data) < 8:
        data[stray] = draw(_FIELDS[stray])
    return data


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    """Where each drawn scenario is written.  Suite mode runs the canned battery,
    which test_suite covers; here the battery is a stub."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kform.suite, "run_paper_suite", lambda: Report({"mode": "suite"}, (), "PASS"))
        yield tmp_path_factory.mktemp("fuzz") / "scenario.json"


@pytest.mark.filterwarnings("ignore:singular Jacobian")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_scenarios())
def test_any_small_scenario_exits_0_1_or_2(scenario_file, data):
    scenario_file.write_text(json.dumps(data))
    assert main(["run", str(scenario_file)]) in (0, 1, 2)
