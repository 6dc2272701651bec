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

:func:`repair_assignments` has two call forms over one greedy fill:

* ``repair_assignments(plan, {worker: chunks}, speeds)`` — one iteration:
  the chunks each finished worker sent, and a ``(n,)`` speed vector;
  returns ``{worker: extra chunks}``.
* ``repair_assignments(plans, finished, speeds)`` — a batch: a
  :class:`~repro.scheduling.base.PlanBatch`, one plan per trial or one
  shared plan, a ``(trials, n)`` boolean mask of the
  workers that finished — each having sent its whole plan assignment —
  and a ``(trials, n)`` speed matrix; returns the ``(trials, n,
  num_chunks)`` boolean mask of reassigned chunks.

**Feasibility identity.**  A worker never recomputes a chunk it already
sent, so chunk ``c`` can gain one contribution from each of the
``|F| − have(c)`` finished workers not holding it, while it lacks
``k − have(c)``.  Repair is therefore feasible exactly when at least ``k``
workers finished (whatever chunks they hold), or when nothing lacks
coverage — which is how the simulator finds the §4.3 cutoff in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.scheduling.base import CodedWorkPlan, PlanBatch, as_plan_batch

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
    plan: PlanBatch | CodedWorkPlan | Sequence[CodedWorkPlan],
    completed: dict[int, np.ndarray] | np.ndarray,
    speeds: np.ndarray,
) -> dict[int, np.ndarray] | np.ndarray:
    """Reassign undecodable chunks among the workers that finished.

    Parameters
    ----------
    plan:
        The original coded work plan (defines ``coverage``); in the batched
        form, a :class:`~repro.scheduling.base.PlanBatch`, one plan per
        trial, or one plan shared by every trial.
    completed:
        Mapping of finished worker → chunk indices it already contributed;
        in the batched form, a ``(trials, n)`` boolean mask of finished
        workers, each holding its whole plan assignment.  These are the
        only workers eligible for extra work, and a worker is never asked
        to recompute a chunk it already sent (its contribution for that
        chunk would be linearly dependent — useless for decoding).
    speeds:
        Observed speeds used to balance the extra load (higher speed →
        proportionally more of the repair work): ``(n,)``, or ``(trials,
        n)`` in the batched form.  Zero is allowed (such a worker is
        picked last); negative and non-finite speeds are rejected.

    Returns
    -------
    Mapping of worker → extra chunk indices (only workers that receive new
    work appear); in the batched form, the ``(trials, n, num_chunks)``
    boolean mask of extra chunks.  Appending these contributions to
    ``completed`` makes every chunk meet ``plan.coverage``.

    Raises
    ------
    ValueError
        If some chunk cannot reach coverage even using every finished
        worker — the iteration is unrecoverable without the cancelled
        workers (the caller then waits for stragglers instead) — or if an
        argument is degenerate (the message names it).
    """
    if isinstance(completed, dict):
        n = plan.n_workers
        holds, finished = _completed_mask(plan, completed)
        extra = _greedy_fill(
            holds[None],
            finished[None],
            _checked_speeds(speeds, (n,))[None],
            np.array([plan.coverage]),
            batched=False,
        )[0]
        helped = np.flatnonzero(extra.any(axis=1)).tolist()
        return {w: np.flatnonzero(extra[w]) for w in helped}
    finished = np.asarray(completed)
    if finished.dtype != bool or finished.ndim != 2:
        raise ValueError(
            "completed must be a dict or a (trials, workers) boolean mask, "
            f"got {finished.dtype} array of shape {finished.shape}"
        )
    trials, n = finished.shape
    if not trials:
        return np.zeros((0, n, 0), dtype=bool)
    batch = as_plan_batch(plan, trials, "plan")
    if batch.n_workers != n:
        raise ValueError(
            f"plan: plans span {batch.n_workers} workers, the mask {n}"
        )
    holds = batch.chunk_mask()
    holds &= finished[:, :, None]
    return _greedy_fill(
        holds,
        finished,
        _checked_speeds(speeds, finished.shape),
        np.full(trials, batch.coverage),
        batched=True,
    )


def _checked_speeds(speeds: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``speeds`` as float64 of ``shape``, finite and non-negative."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != shape:
        raise ValueError(f"speeds must have shape {shape}, got {speeds.shape}")
    if not np.all(np.isfinite(speeds) & (speeds >= 0)):
        raise ValueError("speeds must be finite and >= 0")
    return speeds


def _completed_mask(
    plan: CodedWorkPlan, completed: dict[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, num_chunks)`` chunks already sent and ``(n,)`` finished mask."""
    n, num_chunks = plan.n_workers, plan.num_chunks
    workers = list(completed)
    for worker in workers:
        if not 0 <= worker < n:
            raise ValueError(f"completed: worker {worker} is outside 0..{n - 1}")
    sent = [np.asarray(completed[w], dtype=np.int64) for w in workers]
    owners = np.repeat(np.array(workers, dtype=np.int64), [c.size for c in sent])
    chunks = np.concatenate([np.empty(0, dtype=np.int64), *sent])
    outside = (chunks < 0) | (chunks >= num_chunks)
    if outside.any():
        raise ValueError(
            f"completed: worker {owners[outside][0]} lists a chunk outside "
            f"0..{num_chunks - 1}"
        )
    holds = np.zeros((n, num_chunks), dtype=bool)
    holds[owners, chunks] = True
    if np.count_nonzero(holds) != chunks.size:
        for worker, chunk_arr in zip(workers, sent):
            repeated = np.flatnonzero(np.bincount(chunk_arr) > 1)
            if repeated.size:
                raise ValueError(
                    f"completed: worker {worker} lists chunk {repeated[0]} twice"
                )
    finished = np.zeros(n, dtype=bool)
    finished[workers] = True
    return holds, finished


def _greedy_fill(
    holds: np.ndarray,
    finished: np.ndarray,
    speeds: np.ndarray,
    coverage: np.ndarray,
    batched: bool,
) -> np.ndarray:
    """The greedy balanced fill behind both forms of :func:`repair_assignments`.

    ``holds`` is the ``(trials, n, chunks)`` mask of chunks already sent,
    ``finished`` the ``(trials, n)`` helpers and ``coverage`` the ``(trials,)``
    ``k``.  Needy chunks are filled in ascending order; each goes to its
    ``deficit`` eligible helpers with the smallest ``(load + 1) / speed`` —
    i.e. keep estimated finish times of the repair work level across
    workers — ties to the lower worker id.  Returns the extra-chunk mask.
    """
    have = holds.sum(axis=1)
    deficit = coverage[:, None] - have
    needy = deficit > 0
    helpers = finished.sum(axis=1)
    short = needy.any(axis=1) & (helpers < coverage)  # the feasibility identity
    if short.any():
        t = int(np.flatnonzero(short)[0])
        chunk = int(np.flatnonzero(needy[t])[0])
        raise ValueError(
            (f"trial {t}: " if batched else "")
            + f"chunk {chunk} needs {deficit[t, chunk]} more contributions "
            f"but only {helpers[t] - have[t, chunk]} finished workers can help"
        )
    extra = np.zeros(holds.shape, dtype=bool)
    cols = np.flatnonzero(needy.any(axis=0))
    if not cols.size:
        return extra
    # Per needy column: who may not take it, and how many helpers it wants.
    blocked = (holds[:, :, cols] | ~finished[:, :, None]).transpose(2, 0, 1)
    wanted = deficit[:, cols].T[:, :, None]
    rate = np.maximum(speeds, 1e-12)
    load_next = np.ones(speeds.shape)  # load + 1.0, kept exact
    picked = np.empty(blocked.shape, dtype=bool)
    for j in range(cols.size):
        key = load_next / rate
        key[blocked[j]] = np.inf
        # Stable ranks: ties in ``key`` go to the lower worker id.
        rank = key.argsort(axis=1, kind="stable").argsort(axis=1, kind="stable")
        np.less(rank, wanted[j], out=picked[j])
        load_next += picked[j]
    extra[:, :, cols] = picked.transpose(1, 2, 0)
    return extra
