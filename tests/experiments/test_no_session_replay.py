"""CI guard: no production sweep replays a per-trial numeric session.

Every built-in policy family runs on the batched latency engine
(``repro.runtime.batch``); the numeric sessions of ``repro.runtime.session``
are one-trial views of it for the apps and examples, never a sweep's code
path.  Each session round
entry is patched to raise, then the figures that compare S2C2 with
uncoded replication and a matrix slice over the uncoded baselines run —
a cell that quietly fell back to per-trial sessions fails here.
"""

import pytest

from repro.experiments import fig01_motivation, fig06_lr, fig07_pagerank
from repro.experiments.matrix import run_matrix
from repro.runtime.session import (
    CodedSession,
    OverDecompositionSession,
    ReplicationSession,
)


@pytest.fixture(autouse=True)
def sessions_forbidden(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"a sweep replayed a {type(self).__name__} round")

    for cls in (CodedSession, ReplicationSession, OverDecompositionSession):
        monkeypatch.setattr(cls, "matvec", forbidden)
    monkeypatch.setattr(CodedSession, "bilinear", forbidden)


@pytest.mark.parametrize(
    "figure", [fig01_motivation, fig06_lr, fig07_pagerank], ids=lambda m: m.__name__
)
def test_replication_figures_run_batched(figure):
    result = figure.run(quick=True, trials=2)
    assert result.rows


def test_matrix_uncoded_baselines_run_batched():
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("uncoded", "replication", "overdecomp"),
        scenarios=("bursty",),
    )
    assert result.summary.rows
