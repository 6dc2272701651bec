"""CI guard: closed-backend sweeps build no per-trial plan objects.

Every built-in scheduler plans a round as one
:class:`~repro.scheduling.base.PlanBatch`, and the batched kernel reads
its arrays directly: rows per worker, each trial's plan shape and the
§4.3 repair's holder mask.  A :class:`~repro.scheduling.base.CodedWorkPlan`
is built only when a caller asks for one (``batch[t]``, or a one-trial
``run``).  Plan construction is patched to raise, then a matrix slice over
the coded policies runs — a cell that fell back to per-trial plan objects
fails here.
"""

import pytest

from repro.experiments.matrix import run_matrix
from repro.scheduling.base import CodedWorkPlan


@pytest.fixture(autouse=True)
def plan_objects_forbidden(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"a sweep built a per-trial {type(self).__name__}")

    monkeypatch.setattr(CodedWorkPlan, "__post_init__", forbidden)


def test_matrix_coded_cells_build_no_plan_objects():
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("mds", "s2c2-basic", "s2c2-general", "timeout-repair"),
        scenarios=("bursty", "netslow"),
    )
    assert result.summary.rows
