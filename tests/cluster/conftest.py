"""Fixtures shared by the cluster suites."""

import pytest

from repro.scheduling.base import ChunkAssignment, CodedWorkPlan
from uncoded_reference import reference_overdecomposition_run


@pytest.fixture
def general_plan() -> CodedWorkPlan:
    """A plan of neither full nor exact coverage (4 workers, coverage 2).

    Workers 0 and 3 compute all four chunks, worker 1 chunks [0, 2) and
    worker 2 chunks [2, 4), so every chunk is covered three times.
    """
    ranges = (((0, 4),), ((0, 2),), ((2, 4),), ((0, 4),))
    return CodedWorkPlan(
        n_workers=4,
        num_chunks=4,
        coverage=2,
        assignments=tuple(
            ChunkAssignment(worker=w, ranges=r) for w, r in enumerate(ranges)
        ),
    )


@pytest.fixture
def overdecomposition_reference():
    """A frozen scalar over-decomposition timeline, the oracle of both entries.

    ``reference(sim, plan, speeds, failed_workers)`` walks each worker's
    partitions in a plain loop — migration fetches summed left to right,
    then compute and reply — independently of the stacked timeline that
    ``OverDecompositionIterationSim.run_batch`` evaluates and ``run``
    reads one row of.  Both entry points are pinned against it.
    """
    return reference_overdecomposition_run
