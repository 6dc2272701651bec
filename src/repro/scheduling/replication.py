"""Uncoded r-replication with speculative execution (enhanced-Hadoop baseline).

The paper's first controlled-cluster baseline (§7.1): the data matrix is
split into ``n`` *uncoded* partitions, each replicated on ``r`` workers.
Every worker initially computes its primary partition; once a large fraction
of tasks finish, the master speculatively relaunches the unfinished tasks on
idle workers — preferring workers that already hold a replica, moving the
partition over the network otherwise (LATE-style, up to a budget of
speculative launches).

This module defines the static *placement* and the speculation
configuration; the time-domain behaviour is simulated by
:class:`repro.cluster.simulator.ReplicationIterationSim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = ["ReplicaPlacement", "SpeculationConfig"]


@dataclass(frozen=True)
class SpeculationConfig:
    """Knobs of the speculative-execution baseline.

    Attributes
    ----------
    replication:
        Copies of each partition stored in the cluster (paper: 3).
    max_speculative:
        Total speculative task launches allowed per iteration (paper: 6);
        a non-negative int, 0 meaning no speculation.
    watch_fraction:
        Fraction of tasks that must complete before speculation starts —
        the "reactive" delay the paper criticises (Hadoop-like: 0.75).
    allow_data_movement:
        Whether a speculative task may run on a worker without a replica
        (moving the partition first).  The paper's Fig 1 baseline is the
        classic strict-locality Hadoop (False); its Fig 6 "enhanced
        Hadoop" baseline allows movement (True).
    """

    replication: int = 3
    max_speculative: int = 6
    watch_fraction: float = 0.75
    allow_data_movement: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.replication, "replication")
        if not isinstance(self.max_speculative, (int, np.integer)) or isinstance(
            self.max_speculative, bool
        ):
            raise TypeError(
                "max_speculative must be an int, got "
                f"{type(self.max_speculative).__name__}"
            )
        if self.max_speculative < 0:
            raise ValueError(
                f"max_speculative must be >= 0, got {self.max_speculative}"
            )
        if not 0.0 <= self.watch_fraction < 1.0:
            raise ValueError("watch_fraction must be in [0, 1)")


@dataclass(frozen=True)
class ReplicaPlacement:
    """Replica map for ``n`` uncoded partitions over ``n`` workers.

    Partition ``p``'s primary copy lives on worker ``p``; ``replication-1``
    secondary copies go to distinct other workers chosen uniformly at
    random (matching the paper's "3 randomly selected nodes").
    """

    n_workers: int
    replication: int
    seed: int | None = 0
    replicas: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        check_positive_int(self.replication, "replication")
        if self.replication > self.n_workers:
            raise ValueError(
                f"replication {self.replication} exceeds cluster size "
                f"{self.n_workers}"
            )
        rng = as_rng(self.seed)
        table: list[tuple[int, ...]] = []
        for partition in range(self.n_workers):
            others = [w for w in range(self.n_workers) if w != partition]
            extra = rng.choice(
                len(others), size=self.replication - 1, replace=False
            )
            table.append((partition, *sorted(others[i] for i in extra)))
        object.__setattr__(self, "replicas", tuple(table))

    def holders(self, partition: int) -> tuple[int, ...]:
        """Workers holding a copy of ``partition`` (primary first)."""
        if not 0 <= partition < self.n_workers:
            raise IndexError(f"partition {partition} out of range")
        return self.replicas[partition]

    def has_copy(self, worker: int, partition: int) -> bool:
        """True when ``worker`` stores a replica of ``partition``."""
        return worker in self.holders(partition)

    def storage_fraction_per_node(self) -> float:
        """Average fraction of the full data stored per worker."""
        return self.replication / self.n_workers

    def partitions_of(self, worker: int) -> tuple[int, ...]:
        """All partitions for which ``worker`` stores a copy."""
        if not 0 <= worker < self.n_workers:
            raise IndexError(f"worker {worker} out of range")
        return tuple(
            p for p in range(self.n_workers) if worker in self.replicas[p]
        )

    def coverage_histogram(self) -> np.ndarray:
        """Per-worker count of stored partitions (placement balance check)."""
        counts = np.zeros(self.n_workers, dtype=np.int64)
        for partition in range(self.n_workers):
            for worker in self.replicas[partition]:
                counts[worker] += 1
        return counts
