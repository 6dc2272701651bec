"""Mis-prediction / failure repair via timeout reassignment (paper §4.3).

S2C2 plans have *exact* coverage, so a single worker dying or drastically
slowing leaves some chunks undecodable.  The paper's mechanism: once the
first ``k`` workers have returned, the master measures their average
response time; if the remaining workers do not respond within
``(1 + slack)`` × that average (slack = 15%, chosen to match the speed
predictor's ~16.7% MAPE), their pending chunks are cancelled and reassigned
among the workers that already finished.

This module holds the *planning* half (which chunks go where); the timing
half (when the timeout fires, how long repairs take) lives in
:mod:`repro.cluster.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scheduling.base import CodedWorkPlan

__all__ = ["TimeoutPolicy", "repair_assignments"]


@dataclass(frozen=True)
class TimeoutPolicy:
    """Configuration of the §4.3 timeout mechanism.

    Attributes
    ----------
    slack:
        Fractional slack over the average completed-response time before
        laggards are declared failed (paper: 0.15).
    min_responses:
        How many full responses must arrive before the timeout arms;
        ``None`` means the code's coverage ``k`` (the paper's choice).
    """

    slack: float = 0.15
    min_responses: int | None = None

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.min_responses is not None and self.min_responses < 1:
            raise ValueError("min_responses must be >= 1 when given")

    def deadline(self, mean_response_time: float) -> float:
        """Absolute response-time deadline for the remaining workers."""
        return (1.0 + self.slack) * mean_response_time


def repair_assignments(
    plan: CodedWorkPlan,
    completed: dict[int, np.ndarray],
    speeds: np.ndarray,
) -> dict[int, np.ndarray]:
    """Reassign undecodable chunks among the workers that finished.

    Parameters
    ----------
    plan:
        The original coded work plan (defines ``coverage``).
    completed:
        Mapping of finished worker → chunk indices it already contributed.
        These are the only workers eligible for extra work, and a worker is
        never asked to recompute a chunk it already sent (its contribution
        for that chunk would be linearly dependent — useless for decoding).
    speeds:
        Observed speeds used to balance the extra load (higher speed →
        proportionally more of the repair work).

    Returns
    -------
    Mapping of worker → extra chunk indices (only workers that receive new
    work appear).  Appending these contributions to ``completed`` makes
    every chunk meet ``plan.coverage``.

    Raises
    ------
    ValueError
        If some chunk cannot reach coverage even using every finished
        worker — the iteration is unrecoverable without the cancelled
        workers (the caller then waits for stragglers instead).
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    coverage = plan.coverage
    have = np.zeros(plan.num_chunks, dtype=np.int64)
    holders: dict[int, set[int]] = {}
    for worker, chunks in completed.items():
        chunk_arr = np.asarray(chunks, dtype=np.int64)
        holders[worker] = set(int(c) for c in chunk_arr)
        np.add.at(have, chunk_arr, 1)
    deficit = coverage - have
    needy = np.flatnonzero(deficit > 0)
    if needy.size == 0:
        return {}
    workers = sorted(completed)
    if not workers:
        raise ValueError("no completed workers to repair with")
    # Feasibility: chunk c can gain at most one contribution per finished
    # worker not already holding it.
    for chunk in needy:
        eligible = sum(1 for w in workers if chunk not in holders[w])
        if eligible < deficit[chunk]:
            raise ValueError(
                f"chunk {int(chunk)} needs {int(deficit[chunk])} more "
                f"contributions but only {eligible} finished workers can help"
            )
    # Greedy balanced assignment: per chunk, pick the eligible workers with
    # the smallest (load + 1) / speed — i.e. keep estimated finish times of
    # the repair work level across workers.
    load = {w: 0.0 for w in workers}
    extra: dict[int, list[int]] = {w: [] for w in workers}
    for chunk in needy:
        eligible = [w for w in workers if chunk not in holders[w]]
        eligible.sort(key=lambda w: ((load[w] + 1.0) / max(speeds[w], 1e-12), w))
        for w in eligible[: int(deficit[chunk])]:
            extra[w].append(int(chunk))
            load[w] += 1.0
    return {
        w: np.asarray(chunks, dtype=np.int64)
        for w, chunks in extra.items()
        if chunks
    }
