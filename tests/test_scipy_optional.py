"""No ``repro`` command loads SciPy.

The §6.1 ARIMA(1,1,1) fit runs the in-repo Nelder–Mead and the graph
Laplacian is built in NumPy, so SciPy is a test-time need only (networkx's
``pagerank``, used by the app tests and the PageRank example, imports it).
Each check runs in a fresh interpreter, so no import made by an earlier
test can hide a module-level ``import scipy``.
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


def test_sec61_runs_with_scipy_blocked():
    # sec61 fits the ARIMA(1,1,1) baseline, once SciPy's only user.
    done = _python(
        "import sys\n"
        "sys.modules['scipy'] = None  # every scipy import now fails\n"
        "from repro.__main__ import main\n"
        "sys.exit(main(['experiments', 'sec61', '--quick', '--no-cache']))\n"
    )
    assert done.returncode == 0, done.stderr
    assert "arima-1-1-1" in done.stdout


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
        "from repro.apps import make_graph_laplacian\n"
        "make_graph_laplacian(40, seed=0)\n"
        "from repro.__main__ import main\n"
        "code = main(['stream', '--policy', 'timeout-repair', '--scenario',"
        " 'bursty', '--quick', '--trials', '2', '--no-cache'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
