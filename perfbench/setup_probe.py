"""Time one fresh interpreter's set-up: ``setup_probe.py SRC_DIR CLI_ARGS...``.

Prints the wall seconds from this file's first statement until the
command's first ``compile_plan`` returns — imports, registries, argument
parsing and plan compilation — and stops there, before any cell runs.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import repro.__main__ as cli  # noqa: E402
import repro.engine.runner as runner  # noqa: E402


class _Planned(Exception):
    """Raised once the first plan is compiled: set-up is over."""


def _stop_after(compile_plan):
    def stop(*args, **kwargs):
        compile_plan(*args, **kwargs)
        raise _Planned

    return stop


runner.compile_plan = _stop_after(runner.compile_plan)
try:
    cli.main(sys.argv[2:])
except _Planned:
    print(time.perf_counter() - START)
else:
    sys.exit("error: the command finished without compiling a plan")
