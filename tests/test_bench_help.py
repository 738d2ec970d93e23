"""Every benchmark script answers ``--help``.

argparse only renders help text when asked, so a broken help string (say,
a bare ``%`` left by an f-string's ``:.0%``) stays hidden until someone
runs ``--help`` and gets a traceback.  This runs each script the way its
docstring says to: from the repository root with ``PYTHONPATH=src:.``.
(Scripts that are pytest modules only ignore the flag and exit 0.)
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_benchmark_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_help_exits_cleanly(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(("src", "."))}
    completed = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
