"""CI guard: no uncoded sweep cell takes a per-trial path.

Replication's speculation resolves every trial of a ``run_batch`` call in
one array pass, and over-decomposition plans every trial of a round in one
:func:`~repro.scheduling.overdecomposition.plan_assignment_batch` call
over the runner's holder table.  The one-trial entries — the scalar
``plan_assignment`` (wherever ``repro`` imports it) and both uncoded
simulators' ``run`` — are patched to raise, then the figures built on the
uncoded baselines and a matrix slice over them run: a cell that fell back
to per-trial planning or simulation fails here.
"""

import sys

import pytest

from repro.cluster.simulator import (
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.experiments import (
    fig01_motivation,
    fig06_lr,
    fig07_pagerank,
    fig08_cloud_low,
)
from repro.experiments.matrix import run_matrix
from repro.scheduling import overdecomposition


@pytest.fixture(autouse=True)
def per_trial_paths_forbidden(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep took a per-trial uncoded path")

    scalar = overdecomposition.plan_assignment
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "plan_assignment", None) is scalar:
            monkeypatch.setattr(module, "plan_assignment", forbidden)
    for cls in (ReplicationIterationSim, OverDecompositionIterationSim):
        monkeypatch.setattr(cls, "run", forbidden)


@pytest.mark.parametrize(
    "figure",
    [fig01_motivation, fig06_lr, fig07_pagerank, fig08_cloud_low],
    ids=lambda m: m.__name__,
)
def test_uncoded_figures_take_the_array_rounds(figure):
    result = figure.run(quick=True, trials=2)
    assert result.rows


def test_matrix_uncoded_cells_take_the_array_rounds():
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("uncoded", "replication", "overdecomp", "adaptive-overdecomp"),
        scenarios=("bursty",),
    )
    assert result.summary.rows
