"""Start-up cost: every process that imports simloc pays for what the
import loads, so the package must not pull in scipy.optimize."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_optimize():
    code = (
        "import sys, simloc, simloc.cli, simloc.sweep\n"
        "assert 'scipy.optimize' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy.optimize'))[:5]\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
