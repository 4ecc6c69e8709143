"""The benchmark's traced run wraps kform functions by name; keep them there."""

import ast
import importlib
from pathlib import Path

from child import run_python

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


def test_importing_the_cli_loads_every_traced_layer():
    # what the benchmark's worker imports before it installs the tracer
    done = run_python(
        "import sys, kform.cli\n"
        "print(' '.join(name for name in sys.modules if name.startswith('kform.')))"
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    package = _tracer_constant("PACKAGE")
    missing = [f"{package}.{layer}" for layer in _tracer_constant("LAYERS") if f"{package}.{layer}" not in loaded]
    assert not missing, (
        f"import kform.cli does not load {missing}. Tracer.install snapshots the loaded kform "
        "modules before it imports each layer and wraps its functions, so a layer first "
        "imported during install binds the spans of the layers wrapped before it, and "
        "Tracer.restore, which knows only the snapshot, leaves those spans in place "
        "(perfbench/tracer.py); a traced run then reports leftover spans and fails"
    )
