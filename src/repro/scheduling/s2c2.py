"""S2C2 work allocation: the paper's basic (§4.1) and general (§4.2) forms.

Both strategies take the conservatively-encoded (n, k) data *as stored* and
shrink the amount of each partition actually computed so that every chunk is
covered by **exactly** ``k`` workers — the minimum for decodability — with
per-worker shares proportional to predicted speeds.

The chunk-allocation core is the paper's Algorithm 1:

1. over-decompose each partition into ``C`` chunks;
2. the decodable total is ``k · C`` chunk-computations;
3. walk workers in descending speed order, giving each
   ``round(uᵢ / Σ_{j≥i} uⱼ × remaining)`` chunks capped at ``C`` (a worker
   cannot compute more than its whole partition — the cap's spill-over goes
   to the next workers via the running ``remaining``);
4. lay the shares out consecutively around the ``C``-chunk circle
   (wrap-around), which covers every chunk exactly ``k`` times because every
   share is ≤ ``C``.

Both schedulers run that algorithm over every row of a ``(trials, n)`` speed
matrix in one array pass and return a
:class:`~repro.scheduling.base.PlanBatch` of the arcs; ``plan(speeds)`` is
the one-row batch's plan, and :func:`allocate_chunks` /
:func:`wraparound_plan` are the one-row forms of steps 3 and 4.  NaN and
infinite speeds are rejected; zero and negative ones get no work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.scheduling.base import CodedWorkPlan, PlanBatch, as_speed_matrix

__all__ = [
    "allocate_chunks",
    "wraparound_plan",
    "GeneralS2C2Scheduler",
    "BasicS2C2Scheduler",
]


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``values[mask].sum()``, each row summed as its own 1-D array.

    numpy sums eight or more elements pairwise, so zero-filling the masked
    entries would change the rounding; rows are compacted instead, grouped
    by how many entries they keep.
    """
    if mask.all():
        return values.sum(axis=1)
    kept = mask.sum(axis=1)
    sums = np.zeros(len(kept))
    for size in np.flatnonzero(np.bincount(kept)).tolist():
        rows = np.flatnonzero(kept == size)
        sums[rows] = values[rows][mask[rows]].reshape(rows.size, size).sum(axis=1)
    return sums


def _allocate(
    speeds: np.ndarray, coverage: int, num_chunks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's allocation step over every row of a ``(trials, n)`` matrix.

    Returns the ``(trials, n)`` chunk counts and the ``(trials,)`` mask of
    feasible rows (at least ``coverage`` positive speeds); infeasible rows
    get no counts.
    """
    alive = speeds > 0
    feasible = alive.sum(axis=1) >= coverage
    active = alive & feasible[:, None]
    counts = np.zeros(speeds.shape, dtype=np.int64)
    remaining = np.where(feasible, coverage * num_chunks, 0)
    # Water-fill the per-worker cap: workers whose proportional share
    # exceeds a full partition are pinned at C and their excess re-spreads
    # over the rest (the paper's "re-assigns these extra chunks to next
    # worker" step, order-independently).  A row with nothing left active
    # has a NaN share and pins nobody.
    with np.errstate(invalid="ignore"):
        while True:
            rate = np.where(active, speeds, 0.0)
            share = rate / _row_sums(rate, active)[:, None] * remaining[:, None]
            capped = active & (share >= num_chunks)
            if not capped.any():
                break
            counts[capped] = num_chunks
            active &= ~capped
            remaining -= num_chunks * capped.sum(axis=1)
    # Integerise the proportional shares: floor, then hand out the rounding
    # shortfall one chunk at a time to whichever worker's finish time
    # (count+1)/speed grows least, ties to the lower id.  Plain
    # largest-remainder rounding can give the extra chunk to the *slowest*
    # worker, whose finish time then dominates the whole iteration at
    # coarse granularities.  A worker's finish times grow with its count,
    # so that walk takes the ``shortfall`` smallest of all next finish
    # times in (time, worker) order.  Listing two per worker nearly always
    # suffices; a worker that takes both may want more, and then a row's
    # whole shortfall is listed per worker.
    floors = np.floor(np.where(active, share, 0.0)).astype(np.int64)
    counts = np.where(active, floors, counts)
    shortfall = remaining - floors.sum(axis=1)
    most = int(shortfall.max(initial=0))
    steps = min(most, 2)
    while steps:
        after = counts[:, :, None] + np.arange(1, steps + 1)
        finish = np.full(after.shape, np.inf)
        usable = active[:, :, None] & (after <= num_chunks)
        np.divide(after, speeds[:, :, None], out=finish, where=usable)
        order = finish.reshape(len(counts), -1).argsort(axis=1, kind="stable")
        taken = np.empty(order.shape, dtype=bool)
        first = np.arange(order.shape[1]) < shortfall[:, None]
        taken[np.arange(len(order))[:, None], order] = first
        taken = taken.reshape(after.shape)
        if steps < most and taken[:, :, -1].any():
            steps = most
            continue
        if np.isinf(finish[taken]).any():
            raise AssertionError("allocation failed to converge")  # pragma: no cover
        counts += taken.sum(axis=2)
        break
    return counts, feasible


def _layout(counts: np.ndarray, num_chunks: int) -> np.ndarray:
    """Arc starts laying ``(trials, n)`` counts consecutively around the circle.

    Workers are traversed in descending count order, ties to the lower id
    (matching the allocation walk); each starts where the previous ended,
    modulo ``num_chunks``.
    """
    trials = np.arange(len(counts))[:, None]
    order = np.argsort(-counts, axis=1, kind="stable")
    ordered = counts[trials, order]
    begin = np.empty_like(counts)
    begin[trials, order] = (np.cumsum(ordered, axis=1) - ordered) % num_chunks
    return np.where(counts > 0, begin, 0)


def allocate_chunks(
    speeds: np.ndarray, coverage: int, num_chunks: int
) -> np.ndarray:
    """Algorithm 1's allocation step: per-worker chunk counts.

    Parameters
    ----------
    speeds:
        Predicted per-worker speeds; non-positive entries mark workers to
        skip entirely (dead or full stragglers).  NaN and infinities are
        rejected.
    coverage:
        Required per-chunk coverage ``k``.
    num_chunks:
        Chunks per partition ``C`` (each worker's cap).

    Returns
    -------
    ``(n,)`` int array summing to ``coverage * num_chunks`` with every entry
    in ``[0, num_chunks]``.

    Raises
    ------
    ValueError
        If fewer than ``coverage`` workers have positive speed — the demand
        ``k·C`` cannot be met under the per-worker cap ``C``.  Callers fall
        back to :func:`~repro.scheduling.base.full_plan` (paper §4.4).
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 1:
        raise ValueError("speeds must be 1-D")
    check_positive_int(coverage, "coverage")
    check_positive_int(num_chunks, "num_chunks")
    counts, feasible = _allocate(as_speed_matrix(speeds[None]), coverage, num_chunks)
    if not feasible[0]:
        raise ValueError(
            f"only {int((speeds > 0).sum())} workers have positive speed; "
            f"coverage {coverage} is infeasible under the per-worker cap"
        )
    return counts[0]


def wraparound_plan(
    counts: np.ndarray, coverage: int, num_chunks: int
) -> CodedWorkPlan:
    """Lay out per-worker chunk counts consecutively around the chunk circle.

    Workers are traversed in descending ``counts`` order (matching the
    allocation walk); each receives the next ``counts[w]`` chunks modulo
    ``num_chunks``.  Because ``counts`` sums to ``coverage · num_chunks``
    and every count is ≤ ``num_chunks``, the resulting plan covers every
    chunk exactly ``coverage`` times.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != coverage * num_chunks:
        raise ValueError(
            f"counts sum {counts.sum()} != coverage*num_chunks "
            f"{coverage * num_chunks}"
        )
    if counts.max(initial=0) > num_chunks:
        raise ValueError("a worker count exceeds num_chunks")
    counts = counts[None]
    return PlanBatch(_layout(counts, num_chunks), counts, coverage, num_chunks)[0]


@dataclass(frozen=True)
class GeneralS2C2Scheduler:
    """General S2C2 (paper Algorithm 1): speed-proportional slack squeeze.

    Parameters
    ----------
    coverage:
        The code's recovery threshold (``k`` for MDS, ``a·b`` for
        polynomial codes).
    num_chunks:
        Over-decomposition granularity ``C`` (chunks per partition).  The
        paper sets ``C ≈ Σ uᵢ``; any value ≥ a few × ``n`` works — see the
        chunk-granularity ablation.
    """

    coverage: int
    num_chunks: int = 60

    def __post_init__(self) -> None:
        check_positive_int(self.coverage, "coverage")
        check_positive_int(self.num_chunks, "num_chunks")

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Build the per-iteration plan from predicted speeds.

        Falls back to the conventional full plan when fewer than
        ``coverage`` workers look alive (robustness guarantee, §4.4).
        """
        return self.plan_batch(np.asarray(speeds, dtype=np.float64)[None])[0]

    def plan_batch(self, speeds: np.ndarray) -> PlanBatch:
        """:meth:`plan` for every row of a ``(trials, workers)`` matrix at once."""
        chunks = self.num_chunks
        counts, feasible = _allocate(as_speed_matrix(speeds), self.coverage, chunks)
        counts[~feasible] = chunks
        return PlanBatch(_layout(counts, chunks), counts, self.coverage, chunks)


@dataclass(frozen=True)
class BasicS2C2Scheduler:
    """Basic S2C2 (paper §4.1): binary fast/straggler classification.

    All non-straggler workers are treated as equally fast, so each of the
    ``s`` fast workers computes ``k·C/s`` chunks — the ``D/s`` rows of the
    paper.  A worker is a straggler when its speed is below
    ``straggler_threshold`` × the fastest predicted speed (the paper's
    controlled cluster defines stragglers as ≥5× slower, i.e. a threshold
    of 0.2 with a little margin).
    """

    coverage: int
    num_chunks: int = 60
    straggler_threshold: float = 0.5

    def __post_init__(self) -> None:
        check_positive_int(self.coverage, "coverage")
        check_positive_int(self.num_chunks, "num_chunks")
        if not 0 < self.straggler_threshold <= 1:
            raise ValueError("straggler_threshold must be in (0, 1]")

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Classify stragglers, then split work equally among the fast set."""
        return self.plan_batch(np.asarray(speeds, dtype=np.float64)[None])[0]

    def plan_batch(self, speeds: np.ndarray) -> PlanBatch:
        """:meth:`plan` for every row of a ``(trials, workers)`` matrix at once."""
        speeds = as_speed_matrix(speeds)
        fastest = speeds.max(axis=1, initial=0.0)[:, None]
        binary = np.where(speeds >= self.straggler_threshold * fastest, 1.0, 0.0)
        return GeneralS2C2Scheduler(self.coverage, self.num_chunks).plan_batch(binary)
