"""Run Python code in a fresh interpreter that imports kform from this checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(script, *args, timeout: float = 60):
    """``python -c script args`` with ``src`` on the path; a run longer than
    ``timeout`` seconds raises ``subprocess.TimeoutExpired``, so a hang fails
    the calling test instead of stalling the suite."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
