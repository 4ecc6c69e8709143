"""Per-layer spans for a traced benchmark pass, recorded from outside kform.

``Tracer.install`` replaces every binding of the listed public functions in
every loaded ``kform`` module (including re-exports such as ``det`` inside
``kform.rigidity``) by a wrapper that records calls, self time, exceptions
and work counts derived from argument shapes.  ``Tracer.restore`` puts the
original objects back.  A function's self time is its span minus the spans
of wrapped functions it called; time in unwrapped helpers stays with the
caller.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from math import comb

import numpy as np

LAYERS = {
    "cli": ("main",),
    "scenarios": ("parse_scenario", "run_scenario", "report_to_json"),
    "suite": ("run_paper_suite",),
    "expressions": ("parse_map", "evaluate_map", "jacobian", "compose"),
    "numdiff": ("wirtinger_hessian",),
    "spaceforms": (
        "metric",
        "metric_dz",
        "ricci",
        "wedge_curvature_block",
        "center_automorphism",
        "sample_chart_points",
    ),
    "linalg": ("det", "hermitian_eigen", "generalized_eigenvalues"),
    "ppforms": (
        "wedge_power_coeffs",
        "compound_matrix",
        "pullback_pp",
        "proportionality_test",
        "relatives_test",
    ),
    "rigidity": (
        "profile_from_pullback",
        "eigen_products_check",
        "conclude_isometry_factor",
        "ricci_pullback_check",
    ),
    "levi": ("bundle_point", "rho_gradient", "tangent_basis", "levi_form", "obstruction_probe"),
    "umehara": ("builtin_series", "multiply", "coeff_rank", "rank_growth"),
}

PACKAGE = "kform"
_MARK = "__perfbench_span__"


def _minor_entries(args):
    m, p = np.shape(args[0]), int(args[1])
    return comb(m[0], p) * comb(m[1], p)


def _eigen_n3(args):
    return np.shape(args[0])[0] ** 3


def _series_cells(args):
    return (args[0].order + 1) ** 2


# Work counts from argument shapes: counter name and amount per call.  A call
# nested inside another call of the same counter is not counted again, so
# re-expressing one public kernel through another leaves the count unchanged.
WORK = {
    "ppforms.wedge_power_coeffs": ("ppforms.minor_entries", _minor_entries),
    "ppforms.compound_matrix": ("ppforms.minor_entries", _minor_entries),
    "linalg.hermitian_eigen": ("linalg.eigen_n3", _eigen_n3),
    "linalg.generalized_eigenvalues": ("linalg.eigen_n3", _eigen_n3),
    "umehara.multiply": ("umehara.series_cells", _series_cells),
    "umehara.coeff_rank": ("umehara.series_cells", _series_cells),
}


def metric_names() -> list:
    """Names of the per-layer metrics, in report order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
        names += [f"{layer}.self_s", f"{layer}.errors"]
    names += sorted({counter for counter, _ in WORK.values()})
    names += ["levi.obstruction_probe.conclusive_frac", "rigidity.ricci_pullback_check.skipped"]
    return names


class Tracer:
    """Records spans of the LAYERS functions between install() and restore()."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.work = Counter()
        self.probes = Counter()
        self.ricci_samples = Counter()
        self._child = []
        self._active = Counter()
        self._patches = []

    def _wrap(self, key: str, layer: str, fn):
        work = WORK.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            counting = work is not None and self._active[work[0]] == 0
            if counting:
                self.work[work[0]] += work[1](args)
            if work is not None:
                self._active[work[0]] += 1
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[key] += elapsed - self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                self.calls[key] += 1
                if work is not None:
                    self._active[work[0]] -= 1
            if key == "levi.obstruction_probe":
                self.probes["conclusive" if not result.inconclusive else "inconclusive"] += 1
            elif key == "rigidity.ricci_pullback_check":
                self.ricci_samples["skipped"] += result[2]
                self.ricci_samples["total"] += len(args[3])
            return result

        setattr(span, _MARK, fn)
        return span

    def install(self) -> None:
        modules = _package_modules()
        for layer, fns in LAYERS.items():
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in fns:
                original = getattr(owner, name)
                span = self._wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, span)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, counts and times per pass."""
        out = {}
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.calls[key] / passes
                out[f"{key}.self_s"] = self.self_s[key] / passes
                layer_self += self.self_s[key]
            out[f"{layer}.self_s"] = layer_self / passes
            out[f"{layer}.errors"] = self.errors[layer] / passes
        for counter in sorted({c for c, _ in WORK.values()}):
            out[counter] = self.work[counter] / passes
        probes = self.probes["conclusive"] + self.probes["inconclusive"]
        out["levi.obstruction_probe.conclusive_frac"] = self.probes["conclusive"] / probes if probes else 0.0
        total = self.ricci_samples["total"]
        out["rigidity.ricci_pullback_check.skipped"] = self.ricci_samples["skipped"] / total if total else 0.0
        return out


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_spans() -> list:
    """Bindings in loaded kform modules that still hold a span wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
