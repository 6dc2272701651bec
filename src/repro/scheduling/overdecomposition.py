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

import numpy as np

from repro._util import check_positive_int, largest_remainder_round

__all__ = [
    "OverDecompositionPlacement",
    "OverDecompositionPlan",
    "plan_assignment",
]


def plan_assignment(
    holders: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
    speeds: np.ndarray,
    n_workers: int,
) -> "OverDecompositionPlan":
    """Assign every partition to one worker, load ∝ predicted speed.

    ``holders[p]`` lists the workers currently storing partition ``p``
    (the home copy plus any replicas or previously-migrated copies).
    Workers get integer partition quotas via largest-remainder
    apportionment of ``speeds``; partitions are matched to quota slots
    preferring copy-holders (no movement), and the leftovers migrate.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (n_workers,):
        raise ValueError(
            f"speeds must have shape ({n_workers},), got {speeds.shape}"
        )
    if np.all(speeds <= 0):
        raise ValueError("at least one worker must have positive speed")
    num_partitions = len(holders)
    quota = largest_remainder_round(np.clip(speeds, 0.0, None), num_partitions)
    owner = np.full(num_partitions, -1, dtype=np.int64)
    migrated = np.zeros(num_partitions, dtype=bool)
    remaining = quota.astype(np.int64).copy()
    # Pass 1: place partitions on holders with spare quota (home first).
    for partition in range(num_partitions):
        for worker in holders[partition]:
            if remaining[worker] > 0:
                owner[partition] = worker
                remaining[worker] -= 1
                break
    # Pass 2: remaining partitions migrate to any worker with quota,
    # most-spare-quota first to keep loads level.
    unplaced = np.flatnonzero(owner < 0)
    for partition in unplaced:
        worker = int(np.argmax(remaining))
        if remaining[worker] <= 0:  # pragma: no cover - quota sums match
            raise AssertionError("quota exhausted before placement finished")
        owner[partition] = worker
        remaining[worker] -= 1
        migrated[partition] = True
    return OverDecompositionPlan(owner=owner, migrated=migrated)


@dataclass(frozen=True)
class OverDecompositionPlan:
    """One iteration's partition→worker map plus the required migrations.

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
        :class:`~repro.runtime.batch.BatchOverDecompositionRunner` does per
        trial) — migrated partitions stay resident on their new worker, so
        a stable skew only pays the migration once.
        """
        return plan_assignment(self.holders, speeds, self.n_workers)
