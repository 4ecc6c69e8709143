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
      "orders": [2, 4, 6],                 # umehara: at least three
      "sampling": {"count": 50, "seed": 42, "radius": null},  # count <= 10000
      "tolerances": {"proportionality": 1e-8, ...},  # only keys the mode reads
      "expect": {"signature": [3, 0, 0], "verdict": "growing", "lambdaHat": 2}
    }

"sig" defaults to dim (definite), and levi, rigidity and relatives need it
definite; the relatives source is the maps' flat coordinate domain, so its
kind must be euclidean.  A sampling radius above 1 is rejected where the
ball of that radius can leave the source chart, and on a curved source
wherever the chart factor 1 + radius^2 overflows when squared; levi mode
also rejects a radius at which the wedge metric loses its precision
(``levi.levi_radius_fits``: past about 2.1e3 on projective space at top
degree).  Report checks are sorted by name and overall is the conjunction
of the per-check verdicts.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import KformError, ScenarioError
from .expressions import MapExpr, parse_map
from .levi import levi_radius_fits, levi_signatures
from .ppforms import DEFAULT_TOL, proportionality_test, relatives_test
from .rigidity import (
    conclude_isometry_factor,
    eigen_products_check,
    profile_from_pullback,
    ricci_pullback_check,
)
from .spaceforms import SpaceForm, radius_fits, sample_chart_points

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

MODES = ("levi", "pullback", "relatives", "rigidity", "suite", "umehara")

DEFAULT_SEED = 42
DEFAULT_COUNT = 50
MAX_COUNT = 10_000

# the tolerances each mode reads, with their defaults; any other key is an error
_TOLERANCES = {
    "pullback": {"proportionality": DEFAULT_TOL},
    "rigidity": {"rigidity": 1e-8, "factorSpread": 1e-6, "ricci": 1e-8},
    "relatives": {"proportionality": DEFAULT_TOL, "lambdaMatch": 1e-8},
}


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
        if self.lambdaHat is not None:
            out["lambdaHat"] = float(self.lambdaHat)
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.signature is not None:
            out["signature"] = [int(v) for v in self.signature]
        if self.rankTable is not None:
            out["rankTable"] = [[int(n), int(r)] for n, r in self.rankTable]
        if self.skipped:
            out["skipped"] = int(self.skipped)
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


def _space_from_json(obj, where: str) -> SpaceForm:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object with kind and dim")
    kind = obj.get("kind")
    if kind not in ("euclidean", "ball", "projective"):
        raise ScenarioError(
            f"{where}.kind must be one of euclidean, ball, projective; got {kind!r}"
        )
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ScenarioError(f"{where}.dim must be a positive integer, got {dim!r}")
    sig = obj.get("sig", dim)
    if not isinstance(sig, int) or isinstance(sig, bool) or not 0 <= sig <= dim:
        raise ScenarioError(f"{where}.sig must be an integer in [0, dim], got {sig!r}")
    return SpaceForm(kind, dim, sig)


def _space_echo(sf: SpaceForm) -> dict:
    return {"kind": sf.kind, "dim": sf.dim, "sig": sf.sig}


def _map_from_json(obj, arity: int, codim: int, where: str) -> MapExpr:
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise ScenarioError(f"{where} must be a list of expression strings")
    if len(obj) != codim:
        raise ScenarioError(
            f"{where} must have exactly {codim} components (the target dimension), got {len(obj)}"
        )
    try:
        return parse_map(obj, arity)
    except (KformError, IndexError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _real(value, field: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if isinstance(value, bool) or not math.isfinite(out):
        raise ScenarioError(f"{field} must be a finite number, got {value!r}")
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _series_from_json(raw) -> dict:
    if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
        raise ScenarioError("series must be an object with a name and params")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("series.params must be an object")
    if raw["name"] in ("ball_slice", "proj_slice", "psi"):
        p = params.get("p")
        if not _is_int(p) or p < 0:
            raise ScenarioError(f"series.params.p must be a nonnegative integer, got {p!r}")
    if raw["name"] in ("psi", "abs_square"):
        comps = params.get("map")
        if not isinstance(comps, list) or not all(isinstance(c, str) for c in comps):
            raise ScenarioError("series.params.map must be a list of expression strings")
        from .umehara import as_map

        try:
            as_map(comps)
        except (KformError, IndexError) as exc:
            raise ScenarioError(f"series.params.map: {exc}") from exc
    if "tol" in params and not _real(params["tol"], "series.params.tol") > 0:
        raise ScenarioError(f"series.params.tol must be positive, got {params['tol']!r}")
    return {"name": raw["name"], "params": params}


def _int_field(data: dict, key: str, lo: int, hi: int | None = None) -> int:
    value = data.get(key)
    if not _is_int(value) or value < lo:
        raise ScenarioError(f"{key} must be an integer >= {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise ScenarioError(f"{key} must be at most {hi}, got {value}")
    return value


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: normalized fields plus the canonical echo dict."""

    mode: str
    source: SpaceForm | None
    targets: tuple
    maps: tuple
    p: int | None
    r: float
    series: dict | None
    orders: tuple
    count: int
    seed: int
    radius: float | None
    tolerances: dict  # the mode's defaults, overridden by the scenario's
    expect: dict
    echo: dict


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    mode = data.get("mode")
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")

    sampling = data.get("sampling", {})
    if not isinstance(sampling, dict):
        raise ScenarioError("sampling must be an object")
    count = sampling.get("count", DEFAULT_COUNT)
    if not _is_int(count) or count < 1:
        raise ScenarioError(f"sampling.count must be a positive integer, got {count!r}")
    if count > MAX_COUNT:
        raise ScenarioError(f"sampling.count must be at most {MAX_COUNT}, got {count}")
    seed = sampling.get("seed", DEFAULT_SEED)
    if not _is_int(seed) or seed < 0:
        raise ScenarioError(f"sampling.seed must be a non-negative integer, got {seed!r}")
    radius = sampling.get("radius")
    if radius is not None:
        radius = _real(radius, "sampling.radius")
        if not radius > 0:
            raise ScenarioError(f"sampling.radius must be positive, got {radius}")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances must be an object of named floats")
    tolerances = {str(k): _real(v, f"tolerances.{k}") for k, v in tolerances.items()}
    known = _TOLERANCES.get(mode, {})
    for key in tolerances:
        if key not in known:
            reads = ", ".join(known) or "none"
            raise ScenarioError(f"tolerances.{key} is not read by {mode} mode (it reads: {reads})")
    expect = data.get("expect", {})
    if not isinstance(expect, dict):
        raise ScenarioError("expect must be an object")
    signature = expect.get("signature")
    if signature is not None and (
        not isinstance(signature, list) or len(signature) != 3 or not all(map(_is_int, signature))
    ):
        raise ScenarioError(f"expect.signature must be a list of three integers, got {signature!r}")
    if expect.get("lambdaHat") is not None:
        _real(expect["lambdaHat"], "expect.lambdaHat")

    source = None
    targets: tuple = ()
    maps: tuple = ()
    p = None
    r = 1.0
    series = None
    orders: tuple = ()

    echo: dict = {"mode": mode, "sampling": {"count": count, "seed": seed, "radius": radius}}
    if tolerances:
        echo["tolerances"] = dict(sorted(tolerances.items()))
    if expect:
        echo["expect"] = {k: expect[k] for k in sorted(expect)}

    if mode in ("pullback", "rigidity"):
        source = _space_from_json(data.get("source"), "source")
        target = _space_from_json(data.get("target"), "target")
        targets = (target,)
        p = _int_field(data, "p", 1, min(source.dim, target.dim))
        maps = (_map_from_json(data.get("map"), source.dim, target.dim, "map"),)
        echo.update(
            source=_space_echo(source),
            target=_space_echo(target),
            map=list(data["map"]),
            p=p,
        )
    elif mode == "levi":
        source = _space_from_json(data.get("source"), "source")
        p = _int_field(data, "p", 1, source.dim)
        r = _real(data.get("r", 1.0), "r")
        if not r > 0:
            raise ScenarioError(f"r must be positive, got {r}")
        echo.update(source=_space_echo(source), p=p, r=r)
    elif mode == "relatives":
        source = _space_from_json(data.get("source"), "source")
        if source.kind != "euclidean":  # both maps pull back from plain coordinates
            raise ScenarioError(
                f"source.kind must be euclidean for relatives mode, got {source.kind!r}"
            )
        raw_targets = data.get("targets")
        if not isinstance(raw_targets, list) or len(raw_targets) != 2:
            raise ScenarioError("targets must be a list of exactly two space forms")
        targets = tuple(
            _space_from_json(t, f"targets[{i}]") for i, t in enumerate(raw_targets)
        )
        raw_maps = data.get("maps")
        if not isinstance(raw_maps, list) or len(raw_maps) != 2:
            raise ScenarioError("maps must be a list of exactly two component lists")
        maps = tuple(
            _map_from_json(mlist, source.dim, targets[i].dim, f"maps[{i}]")
            for i, mlist in enumerate(raw_maps)
        )
        p = _int_field(data, "p", 1, min(source.dim, targets[0].dim, targets[1].dim))
        echo.update(
            source=_space_echo(source),
            targets=[_space_echo(t) for t in targets],
            maps=[list(m) for m in raw_maps],
            p=p,
        )
    elif mode == "umehara":
        series = _series_from_json(data.get("series"))
        raw_orders = data.get("orders")
        if (
            not isinstance(raw_orders, list)
            or len(raw_orders) < 3
            or not all(_is_int(n) and n >= 0 for n in raw_orders)
        ):
            # the verdict compares the last three ranks
            raise ScenarioError("orders must be a list of at least three nonnegative integers")
        orders = tuple(raw_orders)
        verdict = expect.get("verdict")
        if verdict not in ("bounded", "growing"):
            raise ScenarioError(
                "expect.verdict must be 'bounded' or 'growing' for umehara mode"
            )
        echo.update(series=series, orders=list(orders))
    # suite mode carries no further fields

    if mode in ("levi", "rigidity", "relatives") and not source.is_definite:
        raise ScenarioError(f"source.sig must equal source.dim (a definite metric) for {mode} mode")
    if mode in ("pullback", "rigidity", "levi") and radius is not None and not radius_fits(source, radius):
        if -source.curv in source.eps:
            raise ScenarioError(
                f"sampling.radius must be at most 1 on a {source.kind} source of signature "
                f"{source.sig}, got {radius}"
            )
        raise ScenarioError(
            f"sampling.radius {radius} is too large for a {source.kind} source: "
            "the chart factor 1 + radius^2 overflows when squared"
        )
    if mode == "levi" and radius is not None and not levi_radius_fits(source, p, radius):
        raise ScenarioError(
            f"sampling.radius {radius} is too large for levi mode at p={p} on a {source.kind} "
            "source: the wedge metric there is not representable to the Levi zero tolerance"
        )

    return Scenario(
        mode=mode,
        source=source,
        targets=targets,
        maps=maps,
        p=p,
        r=r,
        series=series,
        orders=orders,
        count=count,
        seed=seed,
        radius=radius,
        tolerances={**known, **tolerances},
        expect=expect,
        echo=echo,
    )


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


def _run_pullback(sc: Scenario):
    src, tgt, F = sc.source, sc.targets[0], sc.maps[0]
    points = sample_chart_points(src, sc.count, sc.seed, sc.radius)
    for deg in [sc.p] if sc.p == 1 else [sc.p, 1]:
        res = proportionality_test(F, src, tgt, deg, points, tol=sc.tolerances["proportionality"])
        fit = {"lambdaHat": res.lambdaHat, "residual": res.maxResidual}
        yield f"pullback_p{deg}", res.passed, fit


def _run_rigidity(sc: Scenario):
    src, tgt, F = sc.source, sc.targets[0], sc.maps[0]
    tol = sc.tolerances["rigidity"]
    points = sample_chart_points(src, sc.count, sc.seed, sc.radius)
    profiles = [profile_from_pullback(F, src, tgt, sc.p, w) for w in points]
    yield "eigen_products", all(eigen_products_check(prof, tol=tol) for prof in profiles), {}

    if sc.p < src.dim:
        factors = [conclude_isometry_factor(prof, tol=tol) for prof in profiles]
        if any(f is None for f in factors):
            yield "isometry_factor", False, {}
        else:
            mean = float(np.mean(factors))
            spread = float(max(factors) - min(factors))
            ok = spread <= sc.tolerances["factorSpread"] * max(abs(mean), 1e-300)
            yield "isometry_factor", ok, {"lambdaHat": mean, "residual": spread}

    if src.dim == tgt.dim:
        ok, worst, skipped = ricci_pullback_check(F, src, tgt, points, tol=sc.tolerances["ricci"])
        yield "ricci_pullback", ok, {"residual": worst, "skipped": skipped}


def _run_levi(sc: Scenario):
    sigs, min_eig = levi_signatures(sc.source, sc.p, sc.r, sc.count, sc.seed, sc.radius)
    expected = sc.expect.get("signature")
    ok = len(sigs) == 1 and (expected is None or sigs[0] == tuple(expected))
    yield "levi_signature", ok, {"signature": sigs[0], "residual": min_eig}


def _run_umehara(sc: Scenario):
    from .umehara import rank_growth

    table, verdict = rank_growth(sc.series["name"], sc.series["params"], sc.orders)
    yield "rank_growth", verdict == sc.expect["verdict"], {"rankTable": tuple(table)}


def _run_relatives(sc: Scenario):
    t1, t2 = sc.targets
    radius = sc.radius
    if radius is None:
        radius = 0.9 if "ball" in (t1.kind, t2.kind) else 2.0
    points = sample_chart_points(sc.source, sc.count, sc.seed, radius)
    tol = sc.tolerances["proportionality"]
    res = relatives_test(sc.maps[0], sc.maps[1], t1, t2, sc.source.dim, sc.p, points, tol=tol)
    fit = {"lambdaHat": res.lambdaHat, "residual": res.maxResidual}
    yield f"relatives_p{sc.p}", res.passed, fit
    expected = sc.expect.get("lambdaHat")
    if expected is not None:
        dev = abs(res.lambdaHat - float(expected))
        ok = dev <= sc.tolerances["lambdaMatch"] * max(1.0, abs(float(expected)))
        yield "lambda_matches", ok, {"lambdaHat": res.lambdaHat, "residual": dev}


_HANDLERS = {
    "pullback": _run_pullback,
    "rigidity": _run_rigidity,
    "levi": _run_levi,
    "umehara": _run_umehara,
    "relatives": _run_relatives,
}


def run_scenario(source, seed: int | None = None, samples: int | None = None) -> Report:
    """Run a scenario given as a file path or an already-parsed dict.

    seed and samples override the scenario's sampling block before it is
    parsed, so an override is checked like the field it replaces (suite mode
    then ignores both: it is pinned to its own defaults for reproducibility).
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    overrides = {key: int(v) for key, v in (("seed", seed), ("count", samples)) if v is not None}
    if overrides and isinstance(data, dict) and isinstance(data.get("sampling", {}), dict):
        data = dict(data, sampling=dict(data.get("sampling", {}), **overrides))
    sc = parse_scenario(data)
    if sc.mode == "suite":
        from .suite import run_paper_suite

        return run_paper_suite()
    return _assemble(sc.echo, run_checks([_HANDLERS[sc.mode](sc)]))
