"""Charm++-style over-decomposition baseline with prediction-driven balancing.

The paper's cloud baseline (§7.2): the data is split into ``factor × n``
uncoded partitions; each worker home-owns ``factor`` of them, and the data
is additionally replicated by ``replication`` (1.42 in the paper, mirroring
the (10,7) code's redundancy) with the extra copies placed round-robin.
Each iteration, the master uses predicted speeds to assign every partition
to exactly one worker, preferring workers that hold a copy; partitions
assigned to a worker without a copy must be *migrated*, which costs network
time and is the reason this baseline loses to S2C2 under churn (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import check_positive_int, largest_remainder_round

__all__ = [
    "OverDecompositionPlacement",
    "OverDecompositionPlan",
    "holder_table",
    "plan_assignment",
    "plan_assignment_batch",
]


def holder_table(holders: Sequence[Sequence[int]]) -> np.ndarray:
    """``holders[p]`` as one ``(partitions, slots)`` int row each, -1 padded."""
    table = np.full((len(holders), max(map(len, holders), default=0)), -1)
    for partition, row in enumerate(holders):
        table[partition, : len(row)] = row
    return table


def plan_assignment(
    holders: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
    speeds: np.ndarray,
    n_workers: int,
) -> "OverDecompositionPlan":
    """Assign every partition to one worker, load ∝ predicted speed.

    ``holders[p]`` lists the workers currently storing partition ``p``
    (the home copy plus any replicas or previously-migrated copies).  One
    row of :func:`plan_assignment_batch`.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (n_workers,):
        raise ValueError(
            f"speeds must have shape ({n_workers},), got {speeds.shape}"
        )
    plan = plan_assignment_batch(holder_table(holders)[None], speeds[None])
    return OverDecompositionPlan(plan.owner[0], plan.migrated[0])


def plan_assignment_batch(
    holders: np.ndarray, speeds: np.ndarray
) -> "OverDecompositionPlan":
    """Plan every trial of a round at once; ``(trials, …)`` rows throughout.

    Row ``holders[t, p]`` lists partition ``p``'s holders in trial ``t`` in
    preference order (home, replicas, then migrated copies), -1 padded.
    Workers get partition quotas by largest-remainder apportionment of
    their (clipped at 0) ``speeds``; pass 1 gives each partition in turn
    its first holder with spare quota, pass 2 migrates the rest in turn
    to the first worker with the most spare quota.
    """
    speeds, holders = np.asarray(speeds, dtype=np.float64), np.asarray(holders)
    if speeds.ndim != 2 or holders.ndim != 3 or len(holders) != len(speeds):
        raise ValueError(
            "speeds must be (trials, workers) and holders (trials, partitions, "
            f"slots), got {speeds.shape} and {holders.shape}"
        )
    if not np.all(np.isfinite(speeds)):
        raise ValueError("speeds must be finite (no NaN or inf)")
    if np.any(np.all(speeds <= 0, axis=1)):
        raise ValueError("at least one worker must have positive speed")
    trials, partitions, _ = holders.shape
    quota = largest_remainder_round(np.clip(speeds, 0.0, None), partitions)
    # Spare quota flat (entry t·n + worker), plus a last, always-0 entry
    # that the padding slots point at.
    spare = np.append(quota, 0)
    rows = np.arange(trials)
    base = speeds.shape[1] * rows
    index = np.where(holders >= 0, holders + base[:, None, None], spare.size - 1)
    owner = np.full((trials, partitions), -1)  # flat entries until pass 2
    for partition in range(partitions):
        ok = spare[index[:, partition]] > 0
        slot = ok.argmax(axis=1)
        hit = ok[rows, slot]
        pick = index[rows, partition, slot][hit]
        spare[pick] -= 1
        owner[hit, partition] = pick
    migrated = owner < 0
    owner -= np.where(migrated, 0, base[:, None])
    remaining = spare[:-1].reshape(speeds.shape)
    # Quotas sum to the partition count, so a worker always has spare.
    for partition in np.flatnonzero(migrated.any(axis=0)):
        need = np.flatnonzero(migrated[:, partition])
        worker = remaining[need].argmax(axis=1)
        owner[need, partition] = worker
        remaining[need, worker] -= 1
    return OverDecompositionPlan(owner, migrated)


@dataclass(frozen=True)
class OverDecompositionPlan:
    """One iteration's partition→worker map plus the required migrations.

    :func:`plan_assignment_batch` returns one plan stacked over trials,
    both arrays shaped ``(trials, num_partitions)``; :meth:`partitions_of`
    and :meth:`migration_count` read a one-trial plan.

    Attributes
    ----------
    owner:
        ``(num_partitions,)`` int array; ``owner[p]`` computes partition
        ``p`` this iteration.
    migrated:
        Boolean array marking partitions whose assigned worker does not
        hold a copy — these move over the network before computing.
    """

    owner: np.ndarray
    migrated: np.ndarray

    def partitions_of(self, worker: int) -> np.ndarray:
        """Partitions assigned to ``worker`` this iteration."""
        return np.flatnonzero(self.owner == worker)

    def migration_count(self) -> int:
        """Number of partitions that must move before computation."""
        return int(self.migrated.sum())


@dataclass(frozen=True)
class OverDecompositionPlacement:
    """Static placement of ``factor × n`` partitions with replication.

    Parameters
    ----------
    n_workers:
        Cluster size.
    factor:
        Over-decomposition factor (paper: 4 → 40 partitions on 10 workers).
    replication:
        Storage blow-up ≥ 1; copies beyond the home copy are placed
        round-robin over the other workers (paper: 1.42 ≈ 10/7).
    """

    n_workers: int
    factor: int = 4
    replication: float = 1.42
    holders: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        check_positive_int(self.factor, "factor")
        if self.replication < 1.0:
            raise ValueError("replication must be >= 1")
        num_partitions = self.n_workers * self.factor
        extra_copies = int(round((self.replication - 1.0) * num_partitions))
        if extra_copies > (self.n_workers - 1) * num_partitions:
            raise ValueError(
                f"replication {self.replication} needs more copies of a "
                f"partition than n_workers {self.n_workers} can hold"
            )
        table: list[list[int]] = []
        for partition in range(num_partitions):
            table.append([partition // self.factor])  # home worker
        for copy_idx in range(extra_copies):
            partition = copy_idx % num_partitions
            home = table[partition][0]
            # Round-robin the extra copy across non-holding workers.
            offset = 1 + copy_idx // num_partitions
            candidate = (home + offset) % self.n_workers
            while candidate in table[partition]:
                candidate = (candidate + 1) % self.n_workers
            table[partition].append(candidate)
        object.__setattr__(self, "holders", tuple(tuple(h) for h in table))

    @property
    def num_partitions(self) -> int:
        """Total uncoded partitions (``factor × n_workers``)."""
        return self.n_workers * self.factor

    def has_copy(self, worker: int, partition: int) -> bool:
        """True when ``worker`` currently stores ``partition``."""
        return worker in self.holders[partition]

    def storage_fraction_per_node(self) -> float:
        """Average fraction of the data stored per worker."""
        total_copies = sum(len(h) for h in self.holders)
        return total_copies / self.num_partitions / self.n_workers

    def plan(self, speeds: np.ndarray) -> OverDecompositionPlan:
        """Plan from the *static* placement (see :func:`plan_assignment`).

        Long-running runs should instead track the holders as copies
        migrate (as
        :class:`~repro.runtime.batch.BatchOverDecompositionRunner` does in
        its holder table) — migrated partitions stay resident on their new
        worker, so a stable skew only pays the migration once.
        """
        return plan_assignment(self.holders, speeds, self.n_workers)
