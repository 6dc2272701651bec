"""Work-plan data model shared by all coded scheduling strategies.

A *coded work plan* assigns, to each of ``n`` workers, a set of chunk ranges
within that worker's (single) encoded partition.  All workers share the same
chunk index space ``0 … num_chunks-1`` because every encoded partition is a
linear combination of the same row blocks.  A plan is *decodable* when every
chunk is assigned to at least ``coverage`` workers (``k`` for MDS codes,
``a·b`` for polynomial codes) — the property the
:class:`~repro.coding.linear.AnyKRowDecoder` needs to recover every row.

A Monte-Carlo batch of plans is a :class:`PlanBatch`: ``(trials, n)`` arrays
giving each worker one circular arc of the chunk circle, which the batched
simulators read directly.  :func:`plan_batch` builds one from a ``(trials,
n)`` speed matrix with any scheduler.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro._util import check_positive_int, ranges_to_indices

__all__ = [
    "ChunkAssignment",
    "CodedWorkPlan",
    "PlanBatch",
    "Scheduler",
    "as_plan_batch",
    "as_speed_matrix",
    "full_plan",
    "plan_batch",
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
        """Return the ``(n_workers, num_chunks)`` mask of who computes what."""
        mask = np.zeros((self.n_workers, self.num_chunks), dtype=bool)
        for worker, assignment in enumerate(self.assignments):
            for begin, end in assignment.ranges:
                mask[worker, begin:end] = True
        return mask


def _arc_ranges(begin: int, count: int, num_chunks: int) -> tuple[tuple[int, int], ...]:
    """The ranges of ``count`` chunks from ``begin`` on the circle (two if it wraps)."""
    end = begin + count
    if end <= num_chunks:
        return ((begin, end),) if count else ()
    return ((begin, num_chunks), (0, end - num_chunks))


@dataclass(frozen=True, eq=False)
class PlanBatch:
    """Per-trial coded work plans as ``(trials, n)`` arrays.

    Worker ``w`` of trial ``t`` computes the circular arc of ``count[t, w]``
    chunks starting at chunk ``begin[t, w]`` (wrapping past ``num_chunks``
    back to chunk 0).  Every built-in scheduler emits this form, and the
    batched simulators read it without building a :class:`CodedWorkPlan`
    per trial; ``batch[t]`` builds one on demand.

    ``kept`` holds, per trial, a plan that is not one arc per worker (its
    ``begin`` is 0 and ``count`` its chunks per worker), or ``None``; it is
    empty when every trial is arcs.  Such trials are *general*, as are arc
    trials that are neither full nor exact-coverage.
    """

    begin: np.ndarray
    count: np.ndarray
    coverage: int
    num_chunks: int
    kept: tuple[CodedWorkPlan | None, ...] = ()

    def __post_init__(self) -> None:
        begin, count = (np.asarray(a, dtype=np.int64) for a in (self.begin, self.count))
        object.__setattr__(self, "begin", begin)
        object.__setattr__(self, "count", count)
        if begin.ndim != 2 or begin.shape != count.shape:
            raise ValueError(
                f"begin {begin.shape} and count {count.shape} must share a 2-D shape"
            )
        chunks = check_positive_int(self.num_chunks, "num_chunks")
        if check_positive_int(self.coverage, "coverage") > begin.shape[1]:
            raise ValueError(
                f"coverage {self.coverage} exceeds n_workers {begin.shape[1]}"
            )
        if min(begin.min(initial=0), count.min(initial=0)) < 0 or (
            begin.max(initial=0) >= chunks or count.max(initial=0) > chunks
        ):
            raise ValueError(
                f"arcs must start in [0, {chunks}) and span at most {chunks} chunks"
            )

    @classmethod
    def from_plans(cls, plans: Sequence[CodedWorkPlan]) -> PlanBatch:
        """One batch of per-trial plans (see the class docstring for ``kept``)."""
        shapes = {(p.n_workers, p.num_chunks, p.coverage) for p in plans}
        if len(shapes) != 1:
            raise ValueError(
                "plans: need at least one; all must span the same workers and "
                "share num_chunks and coverage"
            )
        n, num_chunks, coverage = shapes.pop()
        begin, count = np.zeros((2, len(plans), n), dtype=np.int64)
        kept = []
        for t, plan in enumerate(plans):
            ranges = [a.ranges for a in plan.assignments]
            begin[t] = [r[0][0] if r else 0 for r in ranges]
            count[t] = plan.chunks_per_worker()
            arcs = zip(begin[t].tolist(), count[t].tolist(), ranges)
            one_arc = all(_arc_ranges(b, c, num_chunks) == r for b, c, r in arcs)
            kept.append(None if one_arc else plan)
            begin[t] *= one_arc
        return cls(begin, count, coverage, num_chunks, tuple(kept) if any(kept) else ())

    @property
    def n_workers(self) -> int:
        return self.begin.shape[1]

    def __len__(self) -> int:
        return self.begin.shape[0]

    def __getitem__(self, trial: int) -> CodedWorkPlan:
        """Trial ``trial``'s plan; an arc wrapping past the end is two ranges."""
        begins, counts = self.begin[trial].tolist(), self.count[trial].tolist()
        if self.kept and self.kept[trial] is not None:
            return self.kept[trial]
        assignments = tuple(
            ChunkAssignment(w, _arc_ranges(begin, count, self.num_chunks))
            for w, (begin, count) in enumerate(zip(begins, counts))
        )
        return CodedWorkPlan(len(begins), self.num_chunks, self.coverage, assignments)

    def subset(self, trials: np.ndarray) -> PlanBatch:
        """The batch of the given trial indices, in that order."""
        idx = np.asarray(trials, dtype=np.int64)
        kept = tuple(self.kept[t] for t in idx.tolist()) if self.kept else ()
        return replace(self, begin=self.begin[idx], count=self.count[idx], kept=kept)

    @property
    def _kept_trials(self) -> list[int]:
        return [t for t, plan in enumerate(self.kept) if plan is not None]

    @functools.cached_property
    def full(self) -> np.ndarray:
        """``(trials,)`` mask of conventional plans: every worker computes all."""
        full = ((self.begin == 0) & (self.count == self.num_chunks)).all(axis=1)
        full[self._kept_trials] = False
        return full

    @functools.cached_property
    def exact(self) -> np.ndarray:
        """``(trials,)`` mask of non-full plans covering every chunk ``coverage`` times.

        Arcs of total length ``coverage · num_chunks`` cover every chunk
        equally often exactly when they start where they end, as multisets
        (an empty arc starts and ends at ``begin``, so it cancels out).
        """
        ends = (self.begin + self.count) % self.num_chunks
        exact = (
            ~self.full
            & (self.count.sum(axis=1) == self.coverage * self.num_chunks)
            & (np.sort(self.begin, axis=1) == np.sort(ends, axis=1)).all(axis=1)
        )
        exact[self._kept_trials] = False
        return exact

    def rows(self, offsets: np.ndarray) -> np.ndarray:
        """``(trials, n)`` rows per worker, given a grid's chunk offsets."""
        end = self.begin + self.count
        rows = (offsets[np.minimum(end, self.num_chunks)] - offsets[self.begin]) + (
            offsets[np.maximum(end - self.num_chunks, 0)]  # a wrapped arc's tail
        )
        for t in self._kept_trials:
            rows[t] = [
                sum(int(offsets[e] - offsets[b]) for b, e in a.ranges)
                for a in self.kept[t].assignments
            ]
        return rows

    def chunk_mask(self) -> np.ndarray:
        """Return the ``(trials, n, num_chunks)`` mask of who computes what."""
        chunk = np.arange(self.num_chunks)
        end = (self.begin + self.count)[:, :, None]
        mask = chunk >= self.begin[:, :, None]
        mask &= chunk < end
        mask |= chunk < end - self.num_chunks  # a wrapped arc's tail
        for t in self._kept_trials:
            mask[t] = self.kept[t].chunk_mask()
        return mask


@runtime_checkable
class Scheduler(Protocol):
    """Strategy protocol: per-iteration speeds → coded work plan."""

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Build a work plan from (predicted) per-worker speeds."""
        ...


def as_speed_matrix(speeds: np.ndarray) -> np.ndarray:
    """Validate and return a finite ``(trials, workers)`` speed matrix.

    At least one trial is required.  Zero and negative speeds are allowed
    (schedulers give such workers no work); NaN and infinities are not.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 2 or not speeds.shape[0] or not np.all(np.isfinite(speeds)):
        raise ValueError(
            "speeds must be a finite 2-D (trials, workers) matrix with at least "
            f"one trial, got shape {speeds.shape}"
        )
    return speeds


def plan_batch(scheduler: Scheduler, speeds: np.ndarray) -> PlanBatch:
    """Build per-trial plans from a ``(trials, workers)`` speed matrix.

    Schedulers exposing their own ``plan_batch`` (every built-in one, which
    plans the whole matrix in one array pass) are deferred to; otherwise
    each row goes through ``scheduler.plan`` and :meth:`PlanBatch.from_plans`.
    """
    speeds = as_speed_matrix(speeds)
    batcher = getattr(scheduler, "plan_batch", None)
    plans = batcher(speeds) if batcher is not None else [
        scheduler.plan(row) for row in speeds
    ]
    return plans if isinstance(plans, PlanBatch) else PlanBatch.from_plans(plans)


def as_plan_batch(
    plans: PlanBatch | CodedWorkPlan | Sequence[CodedWorkPlan], trials: int, arg="plans"
) -> PlanBatch:
    """``plans`` as a batch of ``trials`` trials (one plan is shared by all)."""
    if isinstance(plans, CodedWorkPlan):
        plans = PlanBatch.from_plans([plans]).subset(np.zeros(trials, dtype=np.int64))
    elif not isinstance(plans, PlanBatch):
        plans = list(plans)
        plans = PlanBatch.from_plans(plans) if plans else plans
    if len(plans) != trials:
        raise ValueError(f"{arg}: got {len(plans)} plans for {trials} trials")
    return plans


def full_plan(n_workers: int, num_chunks: int, coverage: int) -> CodedWorkPlan:
    """The conventional coded-computation plan: every worker computes all.

    This is what (n, k)-MDS coded computation does regardless of observed
    speeds; it is also S2C2's robustness fallback when fewer than
    ``coverage`` workers are predicted alive (paper §4.4).
    """
    full = np.full((1, n_workers), num_chunks)
    return PlanBatch(np.zeros_like(full), full, coverage, num_chunks)[0]
