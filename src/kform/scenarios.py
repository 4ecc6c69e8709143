"""Scenario files: JSON descriptions of verification runs, and their reports.

A scenario selects one mode (pullback, rigidity, levi, umehara, relatives,
suite), the space forms and maps involved, and sampling and tolerance
controls.  Running one produces a Report whose canonical JSON form is
deterministic for a fixed seed.  Each mode's handler, like each family of the
canned battery in ``suite``, is a generator that yields one
``(name, ok, fields)`` triple per check; ``run_checks`` is the one runner
that turns the triples into CheckRecords.  It sets each record's
``seconds``, the check's wall time, which is never serialized.

Scenario schema (all keys lowercase unless noted):

    {
      "mode": "pullback",
      "source": {"kind": "ball" | "projective" | "euclidean", "dim": 2, "sig": 2},
      "target": {...},                     # "targets": [t1, t2] for relatives
      "map": ["z1", "z2^2"],              # "maps": [[...], [...]] for relatives
      "p": 1,
      "r": 1.0,                            # levi mode only: bundle level set
      "series": {"name": "psi", "params": {"p": 1, "map": ["z1"]}},  # umehara
      "orders": [2, 4, 6],                 # umehara: at least three, each <= 240
      "sampling": {"count": 50, "seed": 42, "radius": null},  # count <= 10000
      "tolerances": {"proportionality": 1e-8, ...},  # positive; only keys the mode reads
      "expect": {"verdict": "growing"}     # only keys the mode reads, see below
    }

One table, ``_MODES``, holds each mode's row: the top-level keys it reads,
the parser of its inputs, its handler, the tolerances it reads with their
defaults, and the ``expect`` keys it reads (levi ``signature``, relatives
``lambdaHat``, umehara ``verdict``, which it requires).  A key that nothing
reads is an error wherever it stands: at the top level, in ``sampling``,
``tolerances``, ``expect``, a space form, ``series`` or ``series.params``
(which reads the named series' params and ``tol``).  So is a bool where an
integer belongs, and anything but a JSON number where a real one does.
Umehara orders must ascend strictly and the series name must be a built-in
one.

A dim, and C(dim, p) on every space form of the scenario, must be at most
``MAX_WIDTH`` (70), and an umehara order at most ``MAX_ORDER`` (240), so
that no scenario asks for more memory than a host has.

"sig" defaults to dim (definite), and levi, rigidity and relatives need it
definite; the relatives source is the maps' flat coordinate domain, so its
kind must be euclidean.  A sampling radius above 1 is rejected where the
ball of that radius can leave the source chart, and on a curved source
wherever the chart factor 1 + radius^2 overflows when squared; levi mode
also rejects a radius at which the wedge metric loses its precision
(``levi.levi_radius_fits``: past about 2.1e3 on projective space at top
degree), a level r below ``levi.levi_level_floor(p)``, 2e-9 / p, where
the curved Levi eigenvalues, about p r in size, near the zero tolerance,
and a level above ``levi.levi_level_ceiling`` at the sampling radius, where
the scaled fibers and Levi forms overflow.
Every such error is a ScenarioError, as is a scenario file that is not
UTF-8 JSON or nests too deeply to decode; the CLI exits 2 on each.
Report checks are sorted by name and overall is the conjunction of the
per-check verdicts.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import KformError, ScenarioError
from .expressions import MapExpr, parse_map
from .levi import levi_level_ceiling, levi_level_floor, levi_radius_fits, levi_signatures
from .ppforms import DEFAULT_TOL, proportionality_test, relatives_test
from .rigidity import DEFAULT_TOL as RIGIDITY_TOL, product_rule, profiles_from_pullback, ricci_pullback_check
from .spaceforms import SpaceForm, default_radius, radius_fits, sample_chart_points
from .umehara import SERIES, as_map, rank_growth

__all__ = [
    "MODES",
    "CheckRecord",
    "Report",
    "Scenario",
    "parse_scenario",
    "run_checks",
    "run_scenario",
    "report_to_json",
]

DEFAULT_SEED = 42
DEFAULT_COUNT = 50
MAX_COUNT = 10_000
# the largest dim of a space form and the largest C(dim, p), the side of the (p,p)
# coefficient matrices: each sample point holds a few matrices of these sides, and at
# 70 = C(8, 4), the widest degree at n <= 8, a stack of MAX_COUNT of them is 784 MB
MAX_WIDTH = 70
# the largest umehara order N: a series holds (N+1)^2 coefficients and one product
# costs about N^4 / 2 multiply-adds, so psi takes about a second at twice the
# benchmark's largest order, 120
MAX_ORDER = 240


# a check's optional fields, in print order: the key, the JSON form of a value
# that is not None (a JSON form of None leaves the field out) and the printed
# form of the JSON form
CHECK_FIELDS = (
    ("lambdaHat", float, lambda v: f"lambdaHat={v:.12g}"),
    ("residual", float, lambda v: f"residual={v:.3e}"),
    ("signature", lambda v: [int(c) for c in v], lambda v: f"signature={tuple(v)}"),
    ("rankTable", lambda v: [[int(n), int(r)] for n, r in v],
     lambda v: "ranks=" + ",".join(f"{n}:{r}" for n, r in v)),
    ("skipped", lambda v: int(v) or None, lambda v: f"skipped={v}"),
)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check: verdict plus whichever numbers it produced.

    ``seconds`` is the check's wall time, set by ``run_checks``; it is kept
    for tracing and never serialized.
    """

    name: str
    verdict: str
    lambdaHat: float | None = None
    residual: float | None = None
    signature: tuple | None = None
    rankTable: tuple | None = None
    skipped: int = 0
    seconds: float = 0.0

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict}
        for key, to_json, _ in CHECK_FIELDS:
            value = getattr(self, key)
            if value is not None and (value := to_json(value)) is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class Report:
    """Outcome of one scenario: echoed inputs, sorted checks, conjunction."""

    scenario: dict
    checks: tuple
    overall: str


def _assemble(echo: dict, records) -> Report:
    checks = tuple(sorted(records, key=lambda r: r.name))
    overall = "PASS" if all(r.verdict == "PASS" for r in checks) else "FAIL"
    return Report(scenario=echo, checks=checks, overall=overall)


def report_to_json(report: Report) -> str:
    """Canonical JSON: sorted keys, two-space indent, no timing data."""
    payload = {
        "scenario": report.scenario,
        "checks": [r.to_json_dict() for r in report.checks],
        "overall": report.overall,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{field} must be a JSON object")
    return value


def _integer(value, field: str, lo: int, hi: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) from ``lo``, 0 or 1, up to ``hi``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        kind = "positive" if lo else "non-negative"
        raise ScenarioError(f"{field} must be a {kind} integer, got {value!r}")
    if hi is not None and value > hi:
        raise ScenarioError(f"{field} must be at most {hi}, got {value}")
    return value


def _real(value, field: str, positive: bool = False) -> float:
    """``value`` as a float if it is a finite int or float (not a bool or a string)."""
    try:
        out = float(value) if isinstance(value, (int, float)) else math.nan
    except OverflowError:  # an int past the float range
        out = math.nan
    if isinstance(value, bool) or not math.isfinite(out):
        raise ScenarioError(f"{field} must be a finite number, got {value!r}")
    if positive and not out > 0:
        raise ScenarioError(f"{field} must be positive, got {value!r}")
    return out


def _reads(obj, where: str, reader: str, reads) -> dict:
    """The object ``obj`` at ``where`` ("" for the root); it may hold only keys ``reader`` reads."""
    obj = _object(obj, where or "scenario root")
    for name in obj:
        if name not in reads:
            listed = ", ".join(reads) or "none"
            key = f"{where}.{name}" if where else name
            raise ScenarioError(f"{key} is not read by {reader} (it reads: {listed})")
    return obj


def _space(obj, where: str, echo: dict) -> SpaceForm:
    """The space form ``obj``; its echo entry goes to ``echo[where]``."""
    obj = _reads(obj, where, "a space form", ("kind", "dim", "sig"))
    kind = obj.get("kind")
    if kind not in ("euclidean", "ball", "projective"):
        raise ScenarioError(
            f"{where}.kind must be one of euclidean, ball, projective; got {kind!r}"
        )
    dim = _integer(obj.get("dim"), f"{where}.dim", 1, MAX_WIDTH)
    sig = _integer(obj.get("sig", dim), f"{where}.sig", 0, dim)
    echo[where] = {"kind": kind, "dim": dim, "sig": sig}
    return SpaceForm(kind, dim, sig)


def _source(data: dict, echo: dict, radius, definite_for: str | None = None) -> SpaceForm:
    """The source space form, whose chart must hold the sampling ball;
    ``definite_for`` names the mode, if any, that needs its metric definite."""
    source = _space(data.get("source"), "source", echo)
    if definite_for and not source.is_definite:
        raise ScenarioError(
            f"source.sig must equal source.dim (a definite metric) for {definite_for} mode"
        )
    if radius is not None and not radius_fits(source, radius):
        if -source.curv in source.eps:
            raise ScenarioError(
                f"sampling.radius must be at most 1 on a {source.kind} source of signature "
                f"{source.sig}, got {radius}"
            )
        raise ScenarioError(
            f"sampling.radius {radius} is too large for a {source.kind} source: "
            "the chart factor 1 + radius^2 overflows when squared"
        )
    return source


def _map(obj, where: str, arity: int | None = None, codim: int | None = None) -> MapExpr:
    """Component strings as a map in ``arity`` variables (by default the
    largest index they name), with ``codim`` components if that is given."""
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise ScenarioError(f"{where} must be a list of expression strings")
    if codim is not None and len(obj) != codim:
        raise ScenarioError(
            f"{where} must have exactly {codim} components (the target dimension), got {len(obj)}"
        )
    try:
        return as_map(obj) if arity is None else parse_map(obj, arity)
    except (KformError, IndexError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _series(obj, echo: dict) -> tuple:
    """The series name and params, with the map parsed; the echo keeps its strings."""
    obj = _reads(obj, "series", "umehara mode", ("name", "params"))
    name = obj.get("name")
    if not isinstance(name, str) or name not in SERIES:
        raise ScenarioError(f"series.name must be one of {', '.join(SERIES)}; got {name!r}")
    reads = SERIES[name][0]
    params = _reads(obj.get("params", {}), "series.params", f"the {name} series", reads + ("tol",))
    echo["series"] = {"name": name, "params": params}
    parsed = dict(params)
    if "p" in reads:
        _integer(params.get("p"), "series.params.p", 0)
    if "map" in reads:
        parsed["map"] = _map(params.get("map"), "series.params.map")
    if "tol" in params:
        _real(params["tol"], "series.params.tol", positive=True)
    return name, parsed


def _degree(data, echo: dict, *spaces) -> int:
    """The degree p, from 1 to the smallest dim of ``spaces``, where no C(dim, p) exceeds MAX_WIDTH."""
    p = echo["p"] = _integer(data.get("p"), "p", 1, min(sf.dim for sf in spaces))
    width = max(math.comb(sf.dim, p) for sf in spaces)
    if width > MAX_WIDTH:
        raise ScenarioError(f"p={p} gives {width} multi-indices C(dim, p), more than {MAX_WIDTH}")
    return p


def _pullback_inputs(data, expect, radius, echo, definite_for=None) -> tuple:
    source = _source(data, echo, radius, definite_for)
    target = _space(data.get("target"), "target", echo)
    p = _degree(data, echo, source, target)
    F = _map(data.get("map"), "map", source.dim, target.dim)
    echo["map"] = list(data["map"])
    return source, target, F, p


def _levi_inputs(data, expect, radius, echo) -> tuple:
    source = _source(data, echo, radius, "levi")
    p = _degree(data, echo, source)
    r = echo["r"] = _real(data.get("r", 1.0), "r", positive=True)
    if r < levi_level_floor(p):
        raise ScenarioError(
            f"r must be at least {levi_level_floor(p):.3g} for levi mode at p={p}, got {r!r}: "
            "below it the Levi eigenvalues of a curved source, about p*r in size, near the zero tolerance"
        )
    if radius is not None and not levi_radius_fits(source, p, radius):
        raise ScenarioError(
            f"sampling.radius {radius} is too large for levi mode at p={p} on a {source.kind} "
            "source: the wedge metric there is not representable to the Levi zero tolerance"
        )
    ceiling = levi_level_ceiling(source, p, default_radius(source) if radius is None else radius)
    if r > ceiling:
        raise ScenarioError(
            f"r must be at most {ceiling:.3g} for levi mode at p={p} on this {source.kind} "
            f"source, got {r!r}: above it the fibers and Levi forms overflow"
        )
    signature = expect.get("signature")
    if signature is not None:
        if not isinstance(signature, list) or len(signature) != 3:
            raise ScenarioError(f"expect.signature must list three integers, got {signature!r}")
        for i, count in enumerate(signature):
            _integer(count, f"expect.signature[{i}]", 0)
    return source, p, r


def _relatives_inputs(data, expect, radius, echo) -> tuple:
    source = _source(data, echo, radius, "relatives")
    if source.kind != "euclidean":  # both maps pull back from plain coordinates
        raise ScenarioError(f"source.kind must be euclidean for relatives mode, got {source.kind!r}")
    raw_targets, raw_maps = data.get("targets"), data.get("maps")
    if not isinstance(raw_targets, list) or len(raw_targets) != 2:
        raise ScenarioError("targets must be a list of exactly two space forms")
    if not isinstance(raw_maps, list) or len(raw_maps) != 2:
        raise ScenarioError("maps must be a list of exactly two component lists")
    slots: dict = {}
    targets = [_space(t, f"targets[{i}]", slots) for i, t in enumerate(raw_targets)]
    maps = [_map(m, f"maps[{i}]", source.dim, targets[i].dim) for i, m in enumerate(raw_maps)]
    if expect.get("lambdaHat") is not None:
        _real(expect["lambdaHat"], "expect.lambdaHat")
    p = _degree(data, echo, source, *targets)
    echo.update(targets=list(slots.values()), maps=[list(m) for m in raw_maps])
    return source, targets, maps, p


def _umehara_inputs(data, expect, radius, echo) -> tuple:
    name, params = _series(data.get("series"), echo)
    orders = data.get("orders")
    if not isinstance(orders, list) or len(orders) < 3:
        # the verdict compares the last three ranks
        raise ScenarioError("orders must be a list of at least three nonnegative integers")
    for i, n in enumerate(orders):
        _integer(n, f"orders[{i}]", 0, MAX_ORDER)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ScenarioError(f"orders must be strictly ascending, got {orders}")
    if expect.get("verdict") not in ("bounded", "growing"):
        raise ScenarioError("expect.verdict must be 'bounded' or 'growing' for umehara mode")
    echo["orders"] = list(orders)
    return name, params, tuple(orders)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: sampling, tolerances, the handler's inputs, and the echo."""

    mode: str
    count: int
    seed: int
    radius: float | None
    tolerances: dict  # the mode's defaults, overridden by the scenario's
    expect: dict
    inputs: tuple  # the mode handler's positional arguments after the scenario
    echo: dict


def parse_scenario(data) -> Scenario:
    data = _object(data, "scenario root")
    mode = data.get("mode")
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    row = _MODES[mode]

    reads = ("count", "seed", "radius")
    sampling = _reads(data.get("sampling", {}), "sampling", f"{mode} mode", reads)
    count = _integer(sampling.get("count", DEFAULT_COUNT), "sampling.count", 1, MAX_COUNT)
    seed = _integer(sampling.get("seed", DEFAULT_SEED), "sampling.seed", 0)
    radius = sampling.get("radius")
    if radius is not None:
        radius = _real(radius, "sampling.radius", positive=True)
    echo: dict = {"mode": mode, "sampling": {"count": count, "seed": seed, "radius": radius}}

    given = _reads(data.get("tolerances", {}), "tolerances", f"{mode} mode", row.tolerances)
    tolerances = {
        key: _real(value, f"tolerances.{key}", positive=True) for key, value in given.items()
    }
    expect = _reads(data.get("expect", {}), "expect", f"{mode} mode", row.expect)
    if tolerances:
        echo["tolerances"] = tolerances
    if expect:
        echo["expect"] = dict(expect)
    inputs = row.inputs(data, expect, radius, echo)
    # last, so that an error in a field the mode reads is the one reported
    _reads(data, "", f"{mode} mode", _COMMON + row.keys)
    tolerances = {**row.tolerances, **tolerances}
    return Scenario(mode, count, seed, radius, tolerances, expect, inputs, echo)


# ---------------------------------------------------------------------------
# mode handlers


def run_checks(families) -> list:
    """Run check families and record each check they yield, in order.

    A family is an iterable of ``(name, ok, fields)`` triples, usually a
    generator: ``ok`` decides the verdict and ``fields`` holds the record's
    optional numbers.  This is the one place that builds CheckRecords and
    times checks: each record's ``seconds`` is the wall time from the
    previous yield (or from the start) to its own.
    """
    records = []
    start = time.perf_counter()
    for name, ok, fields in itertools.chain.from_iterable(families):
        now = time.perf_counter()
        verdict = "PASS" if ok else "FAIL"
        records.append(CheckRecord(name=name, verdict=verdict, seconds=now - start, **fields))
        start = now
    return records


def _run_pullback(sc: Scenario, src, tgt, F, p):
    points = sample_chart_points(src, sc.count, sc.seed, sc.radius)
    for deg in [p] if p == 1 else [p, 1]:
        res = proportionality_test(F, src, tgt, deg, points, tol=sc.tolerances["proportionality"])
        fit = {"lambdaHat": res.lambdaHat, "residual": res.maxResidual}
        yield f"pullback_p{deg}", res.passed, fit


def _run_rigidity(sc: Scenario, src, tgt, F, p):
    tol = sc.tolerances["rigidity"]
    points = sample_chart_points(src, sc.count, sc.seed, sc.radius)
    lams, targets = profiles_from_pullback(F, src, tgt, p, points)
    products, factors = product_rule(lams, p, targets, tol)
    yield "eigen_products", bool(products.all()), {}

    if p < src.dim:
        if np.isnan(factors).any():
            yield "isometry_factor", False, {}
        else:
            mean = float(np.mean(factors))
            spread = float(factors.max() - factors.min())
            ok = spread <= sc.tolerances["factorSpread"] * max(abs(mean), 1e-300)
            yield "isometry_factor", ok, {"lambdaHat": mean, "residual": spread}

    if src.dim == tgt.dim:
        ok, worst, skipped = ricci_pullback_check(F, src, tgt, points, tol=sc.tolerances["ricci"])
        yield "ricci_pullback", ok, {"residual": worst, "skipped": skipped}


def _run_levi(sc: Scenario, source, p, r):
    sigs, min_eig = levi_signatures(source, p, r, sc.count, sc.seed, sc.radius)
    expected = sc.expect.get("signature")
    ok = len(sigs) == 1 and (expected is None or sigs[0] == tuple(expected))
    yield "levi_signature", ok, {"signature": sigs[0], "residual": min_eig}


def _run_umehara(sc: Scenario, name, params, orders):
    table, verdict = rank_growth(name, params, orders)
    yield "rank_growth", verdict == sc.expect["verdict"], {"rankTable": tuple(table)}


def _run_relatives(sc: Scenario, source, targets, maps, p):
    # by default, the smallest chart radius of the targets (the flat source's is the largest)
    radius = min(map(default_radius, targets)) if sc.radius is None else sc.radius
    points = sample_chart_points(source, sc.count, sc.seed, radius)
    tol = sc.tolerances["proportionality"]
    res = relatives_test(*maps, *targets, p, points, tol=tol)
    fit = {"lambdaHat": res.lambdaHat, "residual": res.maxResidual}
    yield f"relatives_p{p}", res.passed, fit
    expected = sc.expect.get("lambdaHat")
    if expected is not None:
        dev = abs(res.lambdaHat - float(expected))
        ok = dev <= sc.tolerances["lambdaMatch"] * abs(float(expected))
        yield "lambda_matches", ok, {"lambdaHat": res.lambdaHat, "residual": dev}


class _Mode(NamedTuple):
    """One mode: the top-level keys it reads besides ``_COMMON``, the parser
    of its inputs, the handler they go to (none for suite, which runs the
    canned battery), the tolerances it reads with their defaults, and the
    ``expect`` keys it reads.  No other key is accepted."""

    keys: tuple
    inputs: Callable  # (data, expect, radius, echo) -> the handler's inputs; writes their echo
    handler: Callable | None
    tolerances: dict
    expect: tuple


# the top-level keys every mode reads
_COMMON = ("mode", "sampling", "tolerances", "expect")

_MODES = {
    "levi": _Mode(("source", "p", "r"), _levi_inputs, _run_levi, {}, ("signature",)),
    "pullback": _Mode(
        ("source", "target", "map", "p"),
        _pullback_inputs,
        _run_pullback,
        {"proportionality": DEFAULT_TOL},
        (),
    ),
    "relatives": _Mode(
        ("source", "targets", "maps", "p"),
        _relatives_inputs,
        _run_relatives,
        {"proportionality": DEFAULT_TOL, "lambdaMatch": 1e-8},
        ("lambdaHat",),
    ),
    "rigidity": _Mode(
        ("source", "target", "map", "p"),
        lambda *args: _pullback_inputs(*args, definite_for="rigidity"),
        _run_rigidity,
        {"rigidity": RIGIDITY_TOL, "factorSpread": 1e-6, "ricci": RIGIDITY_TOL},
        (),
    ),
    "suite": _Mode((), lambda *args: (), None, {}, ()),
    "umehara": _Mode(("series", "orders"), _umehara_inputs, _run_umehara, {}, ("verdict",)),
}
MODES = tuple(_MODES)


def run_scenario(source, seed: int | None = None, samples: int | None = None) -> Report:
    """Run a scenario given as a file path or an already-parsed dict.

    seed and samples override the scenario's sampling block before it is
    parsed, so an override is checked like the field it replaces (suite mode
    then ignores both: it is pinned to its own defaults for reproducibility).
    A file that is not UTF-8 JSON, or nests too deeply to decode, is a
    ScenarioError.
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
                raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    overrides = {key: int(v) for key, v in (("seed", seed), ("count", samples)) if v is not None}
    if overrides and isinstance(data, dict) and isinstance(data.get("sampling", {}), dict):
        data = dict(data, sampling=dict(data.get("sampling", {}), **overrides))
    sc = parse_scenario(data)
    handler = _MODES[sc.mode].handler
    if handler is None:
        from .suite import run_paper_suite

        return run_paper_suite()
    return _assemble(sc.echo, run_checks([handler(sc, *sc.inputs)]))
