"""Work-plan data model shared by all coded scheduling strategies.

A *coded work plan* assigns, to each of ``n`` workers, a set of chunk ranges
within that worker's (single) encoded partition.  All workers share the same
chunk index space ``0 … num_chunks-1`` because every encoded partition is a
linear combination of the same row blocks.  A plan is *decodable* when every
chunk is assigned to at least ``coverage`` workers (``k`` for MDS codes,
``a·b`` for polynomial codes) — the property the
:class:`~repro.coding.linear.AnyKRowDecoder` needs to recover every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro._util import ranges_to_indices

__all__ = [
    "ChunkAssignment",
    "CodedWorkPlan",
    "Scheduler",
    "as_speed_matrix",
    "full_plan",
    "plan_batch",
    "plan_unique_rows",
]


@dataclass(frozen=True)
class ChunkAssignment:
    """The chunk ranges one worker must compute in its encoded partition.

    ``ranges`` are half-open, non-overlapping, non-wrapping ``(begin, end)``
    chunk intervals.  A wrap-around arc from the general S2C2 algorithm is
    represented as two ranges.
    """

    worker: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        for begin, end in self.ranges:
            if begin < 0 or end < begin:
                raise ValueError(f"invalid chunk range ({begin}, {end})")
        # Overlap detection on sorted copies (ranges may be given unsorted).
        ordered = sorted(self.ranges)
        for (b1, e1), (b2, _e2) in zip(ordered, ordered[1:]):
            if b2 < e1:
                raise ValueError(f"overlapping chunk ranges near ({b1}, {e1})")

    @property
    def num_chunks(self) -> int:
        """Total chunks assigned to this worker."""
        return sum(end - begin for begin, end in self.ranges)

    def chunk_indices(self) -> np.ndarray:
        """Expand the ranges into a flat, sorted array of chunk indices."""
        idx = ranges_to_indices(self.ranges)
        idx.sort()
        return idx

    def is_empty(self) -> bool:
        """True when the worker is assigned no work this iteration."""
        return self.num_chunks == 0


@dataclass(frozen=True)
class CodedWorkPlan:
    """A full per-iteration assignment over ``n_workers`` workers.

    Attributes
    ----------
    n_workers:
        Cluster size ``n``.
    num_chunks:
        Chunks per encoded partition (the over-decomposition granularity).
    coverage:
        Minimum workers that must compute each chunk for decodability.
    assignments:
        Exactly one :class:`ChunkAssignment` per worker, in worker order.
    """

    n_workers: int
    num_chunks: int
    coverage: int
    assignments: tuple[ChunkAssignment, ...]

    def __post_init__(self) -> None:
        if self.n_workers <= 0 or self.num_chunks <= 0 or self.coverage <= 0:
            raise ValueError("n_workers, num_chunks, coverage must be positive")
        if self.coverage > self.n_workers:
            raise ValueError(
                f"coverage {self.coverage} exceeds n_workers {self.n_workers}"
            )
        if len(self.assignments) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} assignments, got {len(self.assignments)}"
            )
        for idx, assignment in enumerate(self.assignments):
            if assignment.worker != idx:
                raise ValueError(
                    f"assignment {idx} is for worker {assignment.worker}; "
                    "assignments must be in worker order"
                )
            for _begin, end in assignment.ranges:
                if end > self.num_chunks:
                    raise ValueError(
                        f"worker {idx} range ends at {end} > num_chunks "
                        f"{self.num_chunks}"
                    )

    def chunk_coverage(self) -> np.ndarray:
        """Return how many workers compute each chunk (length ``num_chunks``)."""
        coverage = np.zeros(self.num_chunks, dtype=np.int64)
        for assignment in self.assignments:
            for begin, end in assignment.ranges:
                coverage[begin:end] += 1
        return coverage

    def is_decodable(self) -> bool:
        """True when every chunk meets the coverage requirement."""
        return bool(np.all(self.chunk_coverage() >= self.coverage))

    def validate(self, exact: bool = False) -> None:
        """Raise ``ValueError`` unless the plan is decodable.

        With ``exact=True`` additionally require coverage to be *exactly*
        ``coverage`` everywhere — the no-wasted-work invariant of S2C2 plans.
        """
        cov = self.chunk_coverage()
        if np.any(cov < self.coverage):
            deficit = np.flatnonzero(cov < self.coverage)
            raise ValueError(
                f"{deficit.size} chunks below coverage {self.coverage}; "
                f"first few: {deficit[:5].tolist()}"
            )
        if exact and np.any(cov != self.coverage):
            excess = np.flatnonzero(cov != self.coverage)
            raise ValueError(
                f"{excess.size} chunks exceed exact coverage {self.coverage}"
            )

    def chunks_per_worker(self) -> np.ndarray:
        """Return the per-worker assigned chunk counts."""
        return np.array(
            [assignment.num_chunks for assignment in self.assignments],
            dtype=np.int64,
        )

    def total_chunks_assigned(self) -> int:
        """Total chunk-computations across the cluster."""
        return int(self.chunks_per_worker().sum())

    def chunk_mask(self) -> np.ndarray:
        """Return the ``(n_workers, num_chunks)`` mask of who computes what.

        The plan is frozen, so the mask is computed once per plan and
        returned read-only thereafter.
        """
        cached = self.__dict__.get("_chunk_mask")
        if cached is not None:
            return cached
        mask = np.zeros((self.n_workers, self.num_chunks), dtype=bool)
        for worker, assignment in enumerate(self.assignments):
            for begin, end in assignment.ranges:
                mask[worker, begin:end] = True
        mask.setflags(write=False)
        object.__setattr__(self, "_chunk_mask", mask)
        return mask


@runtime_checkable
class Scheduler(Protocol):
    """Strategy protocol: per-iteration speeds → coded work plan."""

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Build a work plan from (predicted) per-worker speeds."""
        ...


def as_speed_matrix(speeds: np.ndarray) -> np.ndarray:
    """Validate and return a ``(trials, workers)`` speed matrix."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 2:
        raise ValueError(f"speeds must be 2-D (trials, workers), got "
                         f"shape {speeds.shape}")
    return speeds


def plan_unique_rows(rows: np.ndarray, plan_fn) -> list[CodedWorkPlan]:
    """Plan each distinct row of ``rows`` once; duplicates share the object.

    Shared plan objects let
    :meth:`~repro.cluster.simulator.CodedIterationSim.run_batch` profile
    each distinct plan a single time.
    """
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()  # numpy 2.0 returns it shaped
    plans = [plan_fn(row) for row in unique]
    return [plans[i] for i in inverse]


def plan_batch(scheduler: Scheduler, speeds: np.ndarray) -> list[CodedWorkPlan]:
    """Build per-trial plans from a ``(trials, workers)`` speed matrix.

    Schedulers exposing their own ``plan_batch`` (e.g. the speed-oblivious
    static scheduler, which shares one plan object across the whole batch,
    or basic S2C2, which deduplicates on its straggler classification)
    are deferred to; otherwise trials with identical speed rows are planned
    once and share the resulting plan object.
    """
    speeds = as_speed_matrix(speeds)
    batcher = getattr(scheduler, "plan_batch", None)
    if batcher is not None:
        return batcher(speeds)
    return plan_unique_rows(speeds, scheduler.plan)


def full_plan(n_workers: int, num_chunks: int, coverage: int) -> CodedWorkPlan:
    """The conventional coded-computation plan: every worker computes all.

    This is what (n, k)-MDS coded computation does regardless of observed
    speeds; it is also S2C2's robustness fallback when fewer than
    ``coverage`` workers are predicted alive (paper §4.4).
    """
    assignments = tuple(
        ChunkAssignment(worker=w, ranges=((0, num_chunks),))
        for w in range(n_workers)
    )
    return CodedWorkPlan(
        n_workers=n_workers,
        num_chunks=num_chunks,
        coverage=coverage,
        assignments=assignments,
    )
