"""Fixtures shared by the cluster suites."""

import numpy as np
import pytest

from repro.cluster.simulator import (
    UncodedIterationOutcome,
    WorkerIterationStats,
    _check_owners,
    _checked_speeds,
)
from repro.scheduling.base import ChunkAssignment, CodedWorkPlan
from repro.scheduling.overdecomposition import OverDecompositionPlan


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


def _reference_overdecomposition_run(
    self,
    plan: OverDecompositionPlan,
    speeds: np.ndarray,
    failed_workers: frozenset[int] = frozenset(),
) -> UncodedIterationOutcome:
    """Simulate one iteration of the over-decomposition strategy."""
    speeds = _checked_speeds(speeds, None, batch=False)
    n = speeds.size
    _check_owners(plan, n)
    if failed_workers & set(np.unique(plan.owner).tolist()):
        raise RuntimeError(
            "a failed worker owns partitions; over-decomposition has no "
            "repair path within an iteration"
        )
    rows = self.rows_per_partition
    broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
    partition_bytes = rows * self.cost.row_bytes(self.width)
    stats = [WorkerIterationStats(worker=w) for w in range(n)]
    owner: dict[int, int] = {}
    completion = 0.0
    data_moved = 0.0
    for w in range(n):
        mine = plan.partitions_of(w)
        if mine.size == 0:
            continue
        migrations = int(plan.migrated[mine].sum())
        fetch = sum(
            self.network.transfer_time(partition_bytes)
            for _ in range(migrations)
        )
        data_moved += migrations * partition_bytes
        total_rows = int(rows * mine.size)
        stats[w].assigned_rows = total_rows
        compute = self.cost.compute_time(total_rows, self.width, speeds[w])
        reply = self.network.transfer_time(
            total_rows * self.cost.row_bytes(self.width_out)
        )
        arrival = broadcast + fetch + compute + reply
        stats[w].computed_rows = float(total_rows)
        stats[w].used_rows = total_rows
        stats[w].response_time = arrival
        completion = max(completion, arrival)
        for p in mine:
            owner[int(p)] = w
    return UncodedIterationOutcome(
        completion_time=completion,
        broadcast_time=broadcast,
        workers=stats,
        partition_owner=owner,
        data_moved_bytes=data_moved,
        migrations=int(plan.migrated.sum()),
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
    return _reference_overdecomposition_run
