"""The runtime needs numpy only: graph work lives on ``Topology``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_runtime_imports_do_not_load_networkx():
    code = (
        "import sys\n"
        "import repro.cli, repro.exp, repro.harness, repro.routing,"
        " repro.topology\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    ).stdout
    assert out.strip() == "False"
