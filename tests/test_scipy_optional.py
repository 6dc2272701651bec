"""SciPy is needed only by the §6.1 ARIMA(1,1,1) fit.

Each check runs the CLI in a fresh interpreter, so no import made by an
earlier test can hide a module-level ``import scipy``.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _python(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        timeout=300,
    )


def test_matrix_runs_with_scipy_blocked():
    done = _python(
        "import sys\n"
        "sys.modules['scipy'] = None  # every scipy import now fails\n"
        "from repro.__main__ import main\n"
        "sys.exit(main(['matrix', '--quick', '--no-cache', '--policy', 'mds',"
        " '--scenario', 'constant', '--trials', '1']))\n"
    )
    assert done.returncode == 0, done.stderr


def test_every_module_and_a_stream_run_leave_scipy_unloaded():
    done = _python(
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "from repro.__main__ import main\n"
        "code = main(['stream', '--policy', 'timeout-repair', '--scenario',"
        " 'bursty', '--quick', '--trials', '2', '--no-cache'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
