"""The benchmark's traced run wraps kform functions by name; keep them there."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constant(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


def test_every_traced_function_resolves():
    package = _tracer_constant("PACKAGE")
    missing = []
    for layer, names in _tracer_constant("LAYERS").items():
        module = importlib.import_module(f"{package}.{layer}")
        missing += [
            f"{package}.{layer}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing, f"perfbench/tracer.py wraps functions that are gone: {missing}"
