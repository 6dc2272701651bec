"""Per-iteration cluster simulators for coded and uncoded strategies.

Because worker speeds are constant within an iteration (the measurement
granularity of the paper, §6.2), one iteration's timeline is a deterministic
function of the work plan, the actual speeds, and the cost models — so each
simulator computes the exact event times in closed form instead of running a
generic event loop.  Mid-iteration control decisions (speculative execution
in the replication baseline, §4.3 timeout repair in S2C2) are points on that
timeline and are resolved exactly.

Three simulators, one per strategy family:

* :class:`CodedIterationSim` — conventional coded computation *and* S2C2
  (the plan encodes the difference), with optional timeout repair and
  worker-failure injection.
* :class:`ReplicationIterationSim` — uncoded r-replication with LATE-style
  speculative re-execution.
* :class:`OverDecompositionIterationSim` — Charm++-like over-decomposition
  with partition migration.

Every simulator returns an outcome carrying the iteration latency breakdown,
per-worker computed/used row counts (the wasted-computation accounting of
Figs 9/11), the bytes moved for load balancing, and the *contributions* the
master actually uses — which the runtime layer then executes numerically.
Every entry point rejects non-positive and non-finite speeds the same way.

One coded-iteration kernel
--------------------------
:class:`CodedIterationSim` holds the coded iteration's rules once, in its
batched kernel: coverage completion, the §4.3 deadline (mean of the first
``k`` responses), the cutoff that reassigns the laggards' chunks, the
opportunistic acceptance of a repair, and the computed/used accounting.
:meth:`CodedIterationSim.run_batch` simulates a whole ``(trials,
workers)`` speed matrix in one call, and :meth:`CodedIterationSim.run` is
a one-trial view of it.  The event backend
(:mod:`repro.cluster.events.sim`) feeds the same kernel and only supplies
when each worker's task starts and how its reply travels.

The kernel reads the plans as a :class:`~repro.scheduling.base.PlanBatch`
— one arc of the chunk circle per worker, as ``(trials, workers)`` arrays
— so rows per worker, each trial's plan shape and the repair's holder mask
are array expressions, with no per-trial plan object.  The two plan shapes
every scheduler here produces have closed-form completion: on *full* plans
(conventional coded computation: everyone computes everything) the
``k``-th response, on *exact-coverage* plans (S2C2's no-wasted-work
wraparound layout) the last active one.  Any other plan — over-covered
arcs, or a plan that is not one arc per worker — completes by the master's
coverage walk, evaluated as a mask rule over the batch's chunk mask.
Trials that arm the §4.3 timeout are repaired together in one array pass
over the same arrival matrix, whatever their plan's shape: the cutoff
comes in closed form (a reassignment exists iff at least ``k`` helpers
are available — the feasibility identity of
:mod:`repro.scheduling.timeout`), and one batched
:func:`~repro.scheduling.timeout.repair_assignments` call plans every
trial's reassignment.

Both uncoded simulators return the same stacked
:class:`BatchUncodedOutcome`, and each ``run`` is one row of its batch.
:meth:`ReplicationIterationSim.run_batch` resolves every trial's
speculation — a bounded sequence of relaunches on whichever workers are
idle — in one array pass over the ``(trials, workers)`` arrival matrix,
looping only over laggard rank with trial masks;
:meth:`OverDecompositionIterationSim.run_batch` stacks the per-worker chunk
timelines — migration fetches, compute, reply — across all trials at once
from one stacked plan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.profiling import span
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import CodedWorkPlan, PlanBatch, as_plan_batch
from repro.scheduling.overdecomposition import OverDecompositionPlan
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.timeout import TimeoutPolicy, repair_assignments

__all__ = [
    "WorkerIterationStats",
    "CodedIterationOutcome",
    "BatchCodedOutcome",
    "BatchUncodedOutcome",
    "CodedIterationSim",
    "UncodedIterationOutcome",
    "ReplicationIterationSim",
    "OverDecompositionIterationSim",
]


def _checked_speeds(
    speeds: np.ndarray, n_workers: int | None, batch: bool
) -> np.ndarray:
    """``speeds`` as float64, after the one check every simulator entry runs.

    A ``batch`` is a ``(trials, workers)`` matrix, anything else a single
    ``(workers,)`` row; ``n_workers=None`` accepts any width.  Every speed
    must be positive and finite: failures are modelled via
    ``failed_workers``, never with a zero, NaN or infinite speed.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    expected = "workers" if n_workers is None else str(n_workers)
    if speeds.ndim != (2 if batch else 1) or n_workers not in (
        None, speeds.shape[-1]
    ):
        want = f"2-D (trials, {expected})" if batch else f"of shape ({expected},)"
        raise ValueError(f"speeds must be {want}, got shape {speeds.shape}")
    if not np.all(np.isfinite(speeds) & (speeds > 0)):
        raise ValueError("speeds must be positive and finite (model failures "
                         "via failed_workers)")
    return speeds


def _checked_failures(failed: Iterable[frozenset[int]], n_workers: int) -> None:
    """Check that every index in the ``failed_workers`` sets names a worker.

    Every simulator entry runs it next to :func:`_checked_speeds`, so an
    index outside ``[0, n_workers)`` is a typed error on every path instead
    of numpy's wrap-around, a silent no-op or a bare ``IndexError``.
    """
    for failed_set in failed:
        for w in failed_set:
            if not 0 <= w < n_workers:
                raise ValueError(
                    f"failed_workers must index the {n_workers} workers, "
                    f"got {w}"
                )


def _normalise_batch(
    speeds: np.ndarray,
    failed_workers: frozenset[int] | Sequence[frozenset[int]],
    n_workers: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate batch inputs shared by every ``run_batch``.

    Returns the ``(trials, workers)`` speed matrix and the mask of each
    trial's failed workers (a single set fails in every trial).
    """
    speeds = _checked_speeds(speeds, n_workers, batch=True)
    trials = speeds.shape[0]
    if trials == 0:
        raise ValueError(
            f"speeds must hold at least one trial, got shape {speeds.shape}"
        )
    if isinstance(failed_workers, (frozenset, set)):
        failed_list = [frozenset(failed_workers)] * trials
    else:
        failed_list = [frozenset(f) for f in failed_workers]
        if len(failed_list) != trials:
            raise ValueError(
                f"got {len(failed_list)} failure sets for {trials} trials"
            )
    _checked_failures(set(failed_list), speeds.shape[1])
    failed = np.zeros(speeds.shape, dtype=bool)
    for t, workers in enumerate(failed_list):
        if workers:
            failed[t, list(workers)] = True
    return speeds, failed


def _row_counts(
    values: np.ndarray, n: int, where: np.ndarray | None = None
) -> np.ndarray:
    """``(trials, n)`` counts of ``0 … n-1`` per row (of its ``where`` entries)."""
    flat = values + n * np.arange(len(values))[:, None]
    flat = flat.ravel() if where is None else flat[where]
    return np.bincount(flat, minlength=len(values) * n).reshape(-1, n)


@dataclass
class WorkerIterationStats:
    """Per-worker accounting for one iteration.

    ``computed_rows`` includes partial progress of cancelled tasks;
    ``used_rows`` counts only rows whose results entered the decoded (or
    assembled) output.  ``wasted = computed - used`` is the quantity of
    Figs 9 and 11.
    """

    worker: int
    assigned_rows: int = 0
    computed_rows: float = 0.0
    used_rows: int = 0
    response_time: float | None = None
    cancelled: bool = False

    @property
    def wasted_rows(self) -> float:
        """Rows of computation that did not contribute to the result."""
        return max(0.0, self.computed_rows - self.used_rows)

    @property
    def wasted_fraction(self) -> float:
        """Wasted share of this worker's computation (0 when it did nothing)."""
        if self.computed_rows <= 0:
            return 0.0
        return self.wasted_rows / self.computed_rows


@dataclass
class CodedIterationOutcome:
    """Result of simulating one coded iteration."""

    completion_time: float
    broadcast_time: float
    decode_time: float
    workers: list[WorkerIterationStats]
    contributions: dict[int, np.ndarray]
    repaired: bool = False
    timed_out_workers: frozenset[int] = frozenset()
    data_moved_bytes: float = 0.0

    def wasted_fraction_per_worker(self) -> np.ndarray:
        """Fig 9/11 series: per-worker wasted-computation fraction."""
        return np.array([w.wasted_fraction for w in self.workers])

    def total_wasted_rows(self) -> float:
        """Cluster-wide wasted row computations this iteration."""
        return float(sum(w.wasted_rows for w in self.workers))

    def total_computed_rows(self) -> float:
        """Cluster-wide row computations (used + wasted)."""
        return float(sum(w.computed_rows for w in self.workers))


@dataclass
class BatchCodedOutcome:
    """Stacked outcomes of ``trials`` coded iterations (one row per trial).

    ``arrival`` is when each worker's result reaches the master (``inf``:
    never — failed or assigned nothing); ``responded`` marks the results
    the master took.  Which chunks each worker contributed is not
    materialised (latency/waste sweeps never read it):
    :meth:`CodedIterationSim.run` derives it for the one trial it views.
    """

    completion_time: np.ndarray  # (trials,)
    broadcast_time: float
    decode_time: np.ndarray  # (trials,)
    assigned_rows: np.ndarray  # (trials, workers)
    computed_rows: np.ndarray  # (trials, workers)
    used_rows: np.ndarray  # (trials, workers)
    responded: np.ndarray  # (trials, workers) bool
    repaired: np.ndarray  # (trials,) bool
    arrival: np.ndarray  # (trials, workers)

    @property
    def n_trials(self) -> int:
        return self.completion_time.size

    def wasted_rows(self) -> np.ndarray:
        """Per-trial per-worker rows computed but never used."""
        return np.maximum(0.0, self.computed_rows - self.used_rows)


def _useful_chunks(
    holds: np.ndarray, arrivals: np.ndarray, coverage: int
) -> tuple[np.ndarray, np.ndarray]:
    """The master's coverage walk over a batch of plans, as arrays.

    ``holds`` is the ``(trials, workers, chunks)`` mask of who computes
    what and ``arrivals`` when each result reaches the master (``inf``:
    never).  Workers are taken in stable ``(arrival, worker)`` order, and a
    chunk is *useful* to a worker while fewer than ``coverage`` earlier
    arrivals hold it (the master uses the first ``coverage`` results per
    chunk and ignores the rest, §2).  Returns the useful-chunk mask and
    each trial's coverage completion: the arrival that covers its last
    chunk (``inf``: never).
    """
    order = np.argsort(arrivals, axis=1, kind="stable")
    held = np.take_along_axis(
        holds & np.isfinite(arrivals)[:, :, None], order[:, :, None], axis=1
    )
    count = np.cumsum(held, axis=1)  # arrivals so far that hold each chunk
    useful = np.empty_like(held)
    np.put_along_axis(useful, order[:, :, None], held & (count <= coverage), 1)
    covered = count >= coverage
    last = covered.argmax(axis=1).max(axis=1)  # covers the last chunk
    done = np.take_along_axis(arrivals, order, 1)[np.arange(last.size), last]
    return useful, np.where(covered[:, -1].all(axis=1), done, np.inf)


@dataclass(frozen=True)
class CodedIterationSim:
    """Simulate one iteration of coded computation under a work plan.

    Parameters
    ----------
    grid:
        Chunk→row geometry of the encoded partitions.
    width:
        Columns of the encoded matrix (per-row compute/communicate cost).
    width_out:
        Width of each result row (1 for mat-vec).
    network, cost:
        Cost models.
    timeout:
        §4.3 repair policy; ``None`` disables repair (conventional coded
        computation always waits for coverage).
    """

    grid: ChunkGrid
    width: int
    width_out: int = 1
    broadcast_width: int | None = None
    #: Fixed per-task flops paid once by every worker that computes at
    #: least one row, regardless of how many rows it was assigned.  Models
    #: row-count-independent task phases such as the ``diag(x) B̃ᵢ``
    #: scaling pass of the polynomial-coded Hessian (§7.2.3), which is why
    #: S2C2's gains there stay below the n/k bound.
    fixed_task_flops: float = 0.0
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    timeout: TimeoutPolicy | None = None

    @functools.cached_property
    def _broadcast_bytes(self) -> float:
        """Bytes of the broadcast input vector."""
        width = self.broadcast_width if self.broadcast_width is not None else self.width
        return width * self.cost.bytes_per_element

    @functools.cached_property
    def _broadcast_cost(self) -> float:
        """Broadcast transfer time, computed once per simulator instance.

        Every path (closed and event backend) reports the same nominal
        broadcast cost, and it only depends on frozen fields — so it is
        cached on the instance instead of being recomputed per trial.
        (``functools.cached_property`` writes the instance ``__dict__``
        directly, which frozen dataclasses permit.)
        """
        return self.network.transfer_time(self._broadcast_bytes)

    def _progress_batch(
        self,
        denom: np.ndarray,
        start: np.ndarray,
        until: float | np.ndarray,
        cap: np.ndarray,
    ) -> np.ndarray:
        """Rows finished by ``until`` of tasks started at ``start``, at most ``cap``.

        ``denom`` is ``worker_flops × speeds``; the other arguments
        broadcast against it.  A task still in its fixed phase has
        finished no row.
        """
        per_row = (self.width * self.cost.flops_per_element) / denom
        elapsed = (until - start) - self.fixed_task_flops / denom
        done = np.where(elapsed <= 0, 0.0, elapsed / per_row)
        return np.minimum(cap, np.maximum(0.0, done))

    def _decode_time(self, coverage: int, groups: int) -> float:
        """Master decode time from ``groups`` provider groups (at least one)."""
        return self.cost.decode_time(
            rows=self.grid.rows,
            coverage=coverage,
            width_out=self.width_out,
            groups=max(1, groups),
        )

    def run(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> CodedIterationOutcome:
        """Simulate the iteration: one trial of :meth:`run_batch`.

        ``speeds`` are the *actual* speeds (the plan may have been built
        from different, predicted speeds — that gap is what the timeout
        mechanism repairs).  ``failed_workers`` never respond, regardless
        of speed.  The outcome adds what the numeric sessions decode, the
        chunks each worker contributed (see :meth:`contributions`).
        """
        speeds = _checked_speeds(speeds, plan.n_workers, batch=False)
        out = self.run_batch(plan, speeds[None], failed_workers)
        arrival, responded = out.arrival[0], out.responded[0]
        rows = out.assigned_rows[0].tolist()
        repaired = bool(out.repaired[0])
        return CodedIterationOutcome(
            completion_time=float(out.completion_time[0]),
            broadcast_time=out.broadcast_time,
            decode_time=float(out.decode_time[0]),
            workers=[
                WorkerIterationStats(
                    worker=w,
                    assigned_rows=r,
                    computed_rows=float(out.computed_rows[0, w]),
                    used_rows=int(out.used_rows[0, w]),
                    response_time=float(arrival[w]) if responded[w] else None,
                    cancelled=bool(r) and not responded[w],
                )
                for w, r in enumerate(rows)
            ],
            contributions=self.contributions(plan, speeds, failed_workers, out),
            repaired=repaired,
            # An accepted repair cancelled every active worker it did not
            # wait for.
            timed_out_workers=frozenset(
                w for w, r in enumerate(rows) if repaired and r and not responded[w]
            ),
        )

    def contributions(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int],
        out: BatchCodedOutcome,
    ) -> dict[int, np.ndarray]:
        """The chunks each worker contributed in trial 0 of ``out``.

        ``plan``, ``speeds`` and ``failed_workers`` are that trial's
        inputs to :meth:`run_batch`.  On a natural finish these are the
        useful chunks of the coverage walk, in arrival order; on an
        accepted §4.3 repair every helper's own chunks plus its share of
        the reassigned ones — the finished workers in arrival order, then
        the idle ones.
        """
        arrival, responded = out.arrival[0], out.responded[0]
        order = np.argsort(arrival, kind="stable").tolist()
        if not out.repaired[0]:
            useful = _useful_chunks(
                plan.chunk_mask()[None], out.arrival[:1], plan.coverage
            )[0][0]
            return {w: np.flatnonzero(useful[w]) for w in order if useful[w].any()}
        helpers = {
            w: plan.assignments[w].chunk_indices() for w in order if responded[w]
        }
        helpers.update(
            (w, np.empty(0, dtype=np.int64))
            for w, r in enumerate(out.assigned_rows[0].tolist())
            if not r and w not in failed_workers
        )
        extra = repair_assignments(plan, helpers, speeds)
        return {
            w: np.concatenate([chunks, extra[w]]) if w in extra else chunks
            for w, chunks in helpers.items()
        }

    def _batch_inputs(
        self,
        plans: PlanBatch | CodedWorkPlan | Sequence[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]],
    ) -> tuple[PlanBatch, np.ndarray, np.ndarray]:
        """Validated plan batch, speed matrix and failed-worker mask."""
        speeds, failed_mask = _normalise_batch(speeds, failed_workers)
        batch = as_plan_batch(plans, len(speeds))
        if batch.n_workers != speeds.shape[1]:
            raise ValueError("every plan must span the batch's worker count")
        if batch.num_chunks != self.grid.num_chunks:
            raise ValueError(
                f"plans have {batch.num_chunks} chunks, the simulator's grid "
                f"{self.grid.num_chunks}"
            )
        return batch, speeds, failed_mask

    def run_batch(
        self,
        plans: PlanBatch | CodedWorkPlan | Sequence[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchCodedOutcome:
        """Simulate one iteration for a whole batch of trials at once.

        Parameters
        ----------
        plans:
            A :class:`~repro.scheduling.base.PlanBatch` (what every
            built-in scheduler's ``plan_batch`` returns), one plan shared
            by every trial, or one plan per trial (converted to a batch
            once).  Their chunk count must be the grid's.
        speeds:
            ``(trials, workers)`` matrix of actual speeds.
        failed_workers:
            A single frozenset applied to every trial, or one per trial.

        See :meth:`_batch_kernel`.
        """
        batch, speeds, failed_mask = self._batch_inputs(
            plans, speeds, failed_workers
        )
        return self._batch_kernel(
            batch,
            speeds,
            failed_mask,
            recv=self._broadcast_cost,
            bandwidth=self.network.bandwidth,
        )

    def _decode_times(self, coverage: int, groups: np.ndarray) -> np.ndarray:
        """:meth:`_decode_time` per entry of ``groups``, once per distinct value."""
        values, inverse = np.unique(groups, return_inverse=True)
        times = [self._decode_time(coverage, g) for g in values.tolist()]
        return np.array(times)[inverse.ravel()]

    def _repair_batch(
        self,
        out: BatchCodedOutcome,
        native: np.ndarray,
        batch: PlanBatch,
        speeds: np.ndarray,
        failed: np.ndarray,
        recv: np.ndarray,
        bandwidth: np.ndarray,
        arrivals: np.ndarray,
        sorted_arr: np.ndarray,
        deadline: np.ndarray,
        k: np.ndarray,
        done: np.ndarray,
    ) -> None:
        """§4.3 repair of the ``native`` armed trials in one array pass.

        The master cancels the laggards at the deadline and reassigns their
        chunks to the finished and the idle-alive workers (§4.4); when that
        cannot restore coverage it retries at each later arrival.  The
        first feasible cutoff comes in closed form: a cutoff is feasible
        iff at least ``k`` helpers are available (the identity in
        :mod:`repro.scheduling.timeout`, whatever the plan's shape), so it
        is ``max(deadline, (k − #idle)-th arrival)`` — and there is none
        when that arrival never comes, no active worker is still pending,
        or no helper is there at the deadline.  One batched
        :func:`repair_assignments` call plans every trial's reassignment;
        a helper's reassigned task is timed like a natural one, its reply
        riding the helper's reply ``bandwidth``.  Trials whose repair beats
        waiting (opportunistic repair) are written into ``out``; the
        others are left to complete naturally.
        """
        rows = out.assigned_rows[native]
        (
            speeds, failed, recv, bandwidth, arrivals, sorted_arr, deadline,
            k, done,
        ) = (
            a[native]
            for a in (
                speeds, failed, recv, bandwidth, arrivals, sorted_arr,
                deadline, k, done,
            )
        )
        active = rows > 0
        idle = ~active & ~failed  # still hold their partitions (§4.4)
        # The timeout fires once the k-th response (the k that armed the
        # deadline) is in, at the deadline at the earliest.  A worker
        # whose task has not started by then (its broadcast copy still in
        # flight) has no arrival the master can foresee, so the search
        # below treats it as a laggard.
        index = np.arange(native.size)
        fires = np.maximum(deadline, sorted_arr[index, k - 1])
        unseen = recv > fires[:, None]
        if unseen.any():
            arrivals = np.where(unseen, np.inf, arrivals)
            sorted_arr = np.sort(arrivals, axis=1)
        need = batch.coverage - idle.sum(axis=1)
        nth = sorted_arr[index, np.maximum(need, 1) - 1]
        cutoff = np.maximum(deadline, np.where(need > 0, nth, -np.inf))
        finished = arrivals <= cutoff[:, None]  # inactive arrivals are inf
        lagging = active & ~finished
        found = (
            np.isfinite(cutoff)
            & lagging.any(axis=1)
            & ((arrivals <= deadline[:, None]) | idle).any(axis=1)
        )
        if not found.any():
            return
        helpers = (finished | idle)[found]
        extra = repair_assignments(
            batch.subset(native[found]), helpers, speeds[found]
        )
        extra_rows = extra @ self.grid.chunk_sizes()
        reassigned = extra.any(axis=2)
        # The zero-byte reassignment message leaves at the cutoff (behind
        # the broadcast on a helper's downlink), and the reassigned task
        # arrives at ((start + fixed) + compute) + reply, as a natural one.
        cutoff, denom = cutoff[found], self.cost.worker_flops * speeds[found]
        fixed = self.fixed_task_flops / denom
        compute = (extra_rows * self.width * self.cost.flops_per_element) / denom
        reply = self.network.latency + (
            extra_rows * self.cost.row_bytes(self.width_out)
        ) / bandwidth[found]
        dispatch = np.maximum(cutoff[:, None], recv[found]) + self.network.latency
        back = ((dispatch + fixed) + compute) + reply
        finish = np.maximum(
            cutoff, np.where(reassigned, back, -np.inf).max(axis=1)
        )
        win = finish < done[found]
        accepted = found.copy()
        accepted[found] = win
        # Accounting with the master done at ``finish``: the finished
        # workers responded, laggards computed until the deadline (nothing,
        # if failed), and helpers also computed their reassigned rows.
        rows, extra_rows, helpers = rows[accepted], extra_rows[win], helpers[win]
        computed = np.where(
            lagging[accepted] & ~failed[accepted],
            self._progress_batch(
                denom[win], recv[accepted], deadline[accepted, None], rows
            ),
            0.0,
        )
        computed = np.where(finished[accepted], rows, computed)
        trials = native[accepted]
        out.computed_rows[trials] = np.where(
            reassigned[win], rows + extra_rows, computed
        )
        out.responded[trials] = finished[accepted]
        out.used_rows[trials] = np.where(helpers, rows, 0) + extra_rows
        out.repaired[trials] = True
        out.decode_time[trials] = self._decode_times(
            batch.coverage, helpers.sum(axis=1)
        )
        out.completion_time[trials] = finish[win] + out.decode_time[trials]

    def _batch_kernel(
        self,
        batch: PlanBatch,
        speeds: np.ndarray,
        failed_mask: np.ndarray,
        recv: float | np.ndarray,
        bandwidth: float | np.ndarray,
    ) -> BatchCodedOutcome:
        """The coded iteration behind both backends' ``run_batch`` and ``run``.

        ``recv`` is when each worker starts its task (it has received the
        broadcast) and ``bandwidth`` that of its reply link, for natural
        and repair replies alike: scalars, or ``(trials, workers)`` arrays.
        Natural completion is the ``coverage``-th response on full plans,
        the last active response on exact-coverage plans and the coverage
        walk of :func:`_useful_chunks` on general ones; the trials whose
        §4.3 timeout arms are repaired together by :meth:`_repair_batch`.
        """
        trials, n = speeds.shape
        with span("plan"):
            rows_mat = batch.rows(self.grid.chunk_offsets())
            active = batch.count > 0
            full_rows, exact_rows = batch.full, batch.exact
            coverage = batch.coverage

        # Arrivals at the master: ((start + fixed) + compute) + reply.
        with span("broadcast"):
            broadcast = self._broadcast_cost
            recv = np.broadcast_to(recv, (trials, n))
            bandwidth = np.broadcast_to(bandwidth, (trials, n))
        with span("compute"):
            denom = self.cost.worker_flops * speeds
            fixed = self.fixed_task_flops / denom
            compute = (rows_mat * self.width * self.cost.flops_per_element) / denom
        with span("reply"):
            reply = self.network.latency + (
                rows_mat * self.cost.row_bytes(self.width_out)
            ) / bandwidth
            arrivals = ((recv + fixed) + compute) + reply
            arrivals[failed_mask | ~active] = np.inf

            # Natural completion: k-th response for full plans, last active
            # response for exact-coverage plans, the coverage walk for the
            # rest.
            done = np.full(trials, np.inf)
            sorted_arr = np.sort(arrivals, axis=1)
            if np.any(full_rows):
                done[full_rows] = sorted_arr[full_rows, coverage - 1]
            if np.any(exact_rows):
                # Exact coverage needs every active worker; a failed active
                # worker leaves its arrival at inf, which propagates through
                # the max as "never completes naturally".
                masked = np.where(
                    active[exact_rows], arrivals[exact_rows], -np.inf
                )
                done[exact_rows] = masked.max(axis=1)
            general = np.flatnonzero(~full_rows & ~exact_rows)
            if general.size:
                useful, done[general] = _useful_chunks(
                    batch.subset(general).chunk_mask(), arrivals[general],
                    coverage,
                )

        out = BatchCodedOutcome(
            completion_time=np.zeros(trials),
            broadcast_time=broadcast,
            decode_time=np.zeros(trials),
            assigned_rows=rows_mat,
            computed_rows=np.zeros((trials, n)),
            used_rows=np.zeros((trials, n), dtype=np.int64),
            responded=np.zeros((trials, n), dtype=bool),
            repaired=np.zeros(trials, dtype=bool),
            arrival=arrivals,
        )
        computed, used, responded = (
            out.computed_rows, out.used_rows, out.responded
        )
        repaired, decode, completion = (
            out.repaired, out.decode_time, out.completion_time
        )

        with span("repair"):
            deadlines = np.full(trials, np.nan)
            if self.timeout is not None:
                # The §4.3 deadline: (1 + slack) × the mean of the first k
                # responses, k capped at the finite ones (they lead each
                # sorted row); one row-wise mean per distinct k.  A set,
                # not np.unique, which would import numpy.ma.
                ks = np.minimum(
                    self.timeout.min_responses or coverage,
                    np.isfinite(sorted_arr).sum(axis=1),
                )
                for k in set(ks.tolist()) - {0}:
                    rows = np.flatnonzero(ks == k)
                    deadlines[rows] = self.timeout.deadline(
                        sorted_arr[rows, :k].mean(axis=1)
                    )
            armed = ~np.isnan(deadlines) & (done > deadlines)
            native = np.flatnonzero(armed)
            if native.size:
                self._repair_batch(
                    out, native, batch, speeds, failed_mask, recv, bandwidth,
                    arrivals, sorted_arr, deadlines, ks, done,
                )

        natural = ~repaired
        if np.any(np.isinf(done) & natural):
            raise RuntimeError(
                "iteration cannot complete: coverage unsatisfiable with "
                "the surviving workers and no repair possible"
            )
        if np.any(natural):
            with span("decode"):
                resp = active & (arrivals <= done[:, None]) & natural[:, None]
                # Partial progress of cancelled stragglers since their task
                # started.
                progress = self._progress_batch(
                    denom, recv, done[:, None], rows_mat
                )
                computed_natural = np.where(
                    resp,
                    rows_mat.astype(np.float64),
                    np.where(failed_mask, 0.0, progress),
                )
                computed_natural[~active] = 0.0
                computed[natural] = computed_natural[natural]
                responded[natural] = resp[natural]
                # Used rows: every active worker on exact plans; the first
                # ``coverage`` responses (stable arrival order) on full
                # plans; the useful chunks on general ones.  Decode groups:
                # the workers those rows come from.
                exact_natural = exact_rows & natural
                if np.any(exact_natural):
                    used[exact_natural] = np.where(
                        active[exact_natural], rows_mat[exact_natural], 0
                    )
                full_natural = full_rows & natural
                if np.any(full_natural):
                    first = np.argsort(
                        arrivals[full_natural], axis=1, kind="stable"
                    )[:, :coverage]
                    sub = np.zeros((int(full_natural.sum()), n), dtype=np.int64)
                    np.put_along_axis(
                        sub, first,
                        np.take_along_axis(rows_mat[full_natural], first, 1), 1,
                    )
                    used[full_natural] = sub
                groups = np.where(full_rows, coverage, active.sum(axis=1))
                if general.size:
                    kept = natural[general]
                    used[general[kept]] = useful[kept] @ self.grid.chunk_sizes()
                    groups[general] = useful.any(axis=2).sum(axis=1)
                decode[natural] = self._decode_times(coverage, groups[natural])
                completion[natural] = done[natural] + decode[natural]

        return out


@dataclass
class UncodedIterationOutcome:
    """Result of simulating one uncoded (replication / over-decomp) iteration."""

    completion_time: float
    broadcast_time: float
    workers: list[WorkerIterationStats]
    partition_owner: dict[int, int]
    data_moved_bytes: float = 0.0
    speculative_launches: int = 0
    migrations: int = 0

    def wasted_fraction_per_worker(self) -> np.ndarray:
        """Per-worker wasted-computation fraction (duplicated task copies)."""
        return np.array([w.wasted_fraction for w in self.workers])


@dataclass
class BatchUncodedOutcome:
    """Stacked outcomes of ``trials`` uncoded iterations (one row per trial).

    Row ``t`` is what ``run`` returns for that trial's (plan, speeds)
    pair; the partition → owner map and the speculative launch count stay
    internal to the pass (latency/waste sweeps never read them), and
    ``run`` reads them for its one trial.  Replication never migrates, so
    its ``migrations`` are zero.
    """

    completion_time: np.ndarray  # (trials,)
    broadcast_time: float
    assigned_rows: np.ndarray  # (trials, workers)
    computed_rows: np.ndarray  # (trials, workers)
    used_rows: np.ndarray  # (trials, workers)
    responded: np.ndarray  # (trials, workers) bool
    data_moved_bytes: np.ndarray  # (trials,)
    migrations: np.ndarray  # (trials,)

    @property
    def n_trials(self) -> int:
        return self.completion_time.size


def _one_trial_outcome(
    out: BatchUncodedOutcome,
    arrival: np.ndarray,
    owner: np.ndarray,
    cancelled: np.ndarray,
    **counts: int,
) -> UncodedIterationOutcome:
    """Trial 0 of a stacked uncoded outcome, with its per-worker stats."""
    columns = (out.assigned_rows, out.computed_rows, out.used_rows, arrival)
    return UncodedIterationOutcome(
        completion_time=float(out.completion_time[0]),
        broadcast_time=out.broadcast_time,
        workers=[
            WorkerIterationStats(w, assigned, computed, used, at if ok else None, stop)
            for w, (assigned, computed, used, at, ok, stop) in enumerate(
                zip(*(c[0].tolist() for c in (*columns, out.responded, cancelled)))
            )
        ],
        partition_owner=dict(enumerate(owner[0].tolist())),
        data_moved_bytes=float(out.data_moved_bytes[0]),
        **counts,
    )


@dataclass(frozen=True)
class ReplicationIterationSim:
    """Uncoded r-replication with speculative re-execution (§7.1 baseline).

    Every worker computes its primary partition.  When ``watch_fraction``
    of the tasks have completed, the master speculatively relaunches the
    still-running tasks on idle (already finished) workers — preferring
    replica holders, paying a partition transfer otherwise — up to
    ``max_speculative`` launches.  A task finishes when its fastest copy
    does; the other copy's work is wasted.
    """

    placement: ReplicaPlacement
    config: SpeculationConfig
    rows_per_partition: int
    width: int
    width_out: int = 1
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)

    @functools.cached_property
    def _copies(self) -> np.ndarray:
        """``(partitions, workers)`` mask: which workers hold each partition."""
        copies = np.zeros((self.placement.n_workers,) * 2, dtype=bool)
        for partition, holders in enumerate(self.placement.replicas):
            copies[partition, list(holders)] = True
        return copies

    def run(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> UncodedIterationOutcome:
        """Simulate one iteration: one trial of :meth:`run_batch`'s pass."""
        speeds = _checked_speeds(speeds, self.placement.n_workers, batch=False)
        out, arrival, owner, launches = self._speculate(
            *_normalise_batch(speeds[None, :], frozenset(failed_workers))
        )
        return _one_trial_outcome(
            out, arrival, owner, ~out.responded, speculative_launches=int(launches[0])
        )

    def run_batch(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchUncodedOutcome:
        """Simulate a ``(trials, n)`` batch in one array pass (:meth:`_speculate`)."""
        speeds, failed = _normalise_batch(
            speeds, failed_workers, n_workers=self.placement.n_workers
        )
        return self._speculate(speeds, failed)[0]

    def _speculate(
        self, speeds: np.ndarray, failed: np.ndarray
    ) -> tuple[BatchUncodedOutcome, np.ndarray, np.ndarray, np.ndarray]:
        """Speculation and accounting for every trial in one array pass.

        At its watch time (the ``watch_count``-th finite arrival, else the
        last, else the broadcast) a trial relaunches its laggards, slowest
        first, on idle workers, fastest first (stable orders: ties go to
        the lower index).  A copy owns its partition if it arrives first,
        or at the same time on a lower worker index.  Also returns the
        primary arrivals, owners and launch counts that :meth:`run` reads.
        """
        trials, n = speeds.shape
        rows, config, cost = self.rows_per_partition, self.config, self.cost
        tr, workers = np.arange(trials), np.arange(n)
        broadcast = self.network.transfer_time(self.width * cost.bytes_per_element)
        # Compute, reply and rows_computable mirror CostModel and
        # NetworkModel term by term, so every value is bit-identical to
        # the scalar formulas.
        denom = cost.worker_flops * speeds
        compute = (rows * self.width * cost.flops_per_element) / denom
        per_row = (self.width * cost.flops_per_element) / denom
        reply = self.network.transfer_time(rows * cost.row_bytes(self.width_out))
        arrivals = (broadcast + compute) + reply
        arrivals[failed] = np.inf

        finite = np.isfinite(arrivals).sum(axis=1)
        watch_count = max(1, int(np.ceil(config.watch_fraction * n)))
        nth = np.maximum(np.minimum(finite, watch_count) - 1, 0)
        watch = np.where(finite > 0, np.sort(arrivals, axis=1)[tr, nth], broadcast)
        # Laggards are a prefix of the slowest-first order (a failed
        # worker arrives at inf: a laggard, never idle).
        lag_order = np.argsort(-arrivals, axis=1, kind="stable")
        n_lag = (arrivals > watch[:, None]).sum(axis=1)
        idle_order = np.argsort(-speeds, axis=1, kind="stable")
        idle = np.take_along_axis(arrivals <= watch[:, None], idle_order, axis=1)
        holder = np.full((trials, n), n)  # by partition; n: no copy
        start = np.zeros((trials, n))
        spec = np.full((trials, n), np.inf)
        launches = np.zeros(trials, dtype=np.int64)
        data_moved = np.zeros(trials)
        partition_bytes = rows * cost.row_bytes(self.width)
        local_start = watch + self.network.latency
        moved_start = local_start + self.network.transfer_time(partition_bytes)
        for rank in range(n):
            # Budget and idle set only shrink: a stopped trial stays so.
            live = (rank < n_lag) & (launches < config.max_speculative)
            live &= idle.any(axis=1)
            if not live.any():
                break
            part = lag_order[:, rank]
            copy = idle & self._copies[part[:, None], idle_order]
            local = copy.any(axis=1)
            # Without an idle holder the partition moves to the fastest
            # idle worker, or (strict locality) the laggard is skipped.
            launch = live & (local | config.allow_data_movement)
            moved = launch & ~local
            slot = np.where(local, copy.argmax(axis=1), idle.argmax(axis=1))[launch]
            t, p = tr[launch], part[launch]
            holder[t, p] = h = idle_order[t, slot]
            start[t, p] = np.where(moved, moved_start, local_start)[launch]
            spec[t, p] = (start[t, p] + compute[t, h]) + reply
            idle[t, slot] = False
            launches += launch
            data_moved = data_moved + np.where(moved, partition_bytes, 0.0)

        wins = (spec < arrivals) | ((spec == arrivals) & (holder < workers))
        done = np.where(wins, spec, arrivals)
        owner = np.where(wins, holder, workers)
        stuck = np.argwhere(np.isinf(done))
        if stuck.size:
            raise RuntimeError(
                f"partition {stuck[0, 1]} cannot complete: primary failed and "
                "no speculative copy was launched"
            )
        completion = done.max(axis=1)

        # Accounting: a primary or copy computed fully if it arrived by the
        # end, else partially until then (a failed worker computed nothing).
        def computed_by(elapsed: np.ndarray, per_row: np.ndarray) -> np.ndarray:
            rows_done = np.where(elapsed <= 0, 0.0, elapsed / per_row)
            return np.minimum(float(rows), rows_done)

        responded = arrivals <= completion[:, None]
        partial = computed_by(completion[:, None] - broadcast, per_row)
        computed = np.where(responded, float(rows), np.where(failed, 0.0, partial))
        t, p = np.nonzero(holder < n)
        h, end = holder[t, p], completion[t]
        copied = computed_by(end - start[t, p], per_row[t, h])
        computed[t, h] += np.where(spec[t, p] <= end, float(rows), copied)
        out = BatchUncodedOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            assigned_rows=np.full((trials, n), rows),
            computed_rows=computed,
            used_rows=rows * _row_counts(owner, n),
            responded=responded,
            data_moved_bytes=data_moved,
            migrations=np.zeros(trials, dtype=np.int64),
        )
        return out, arrivals, owner, launches


def _stacked_plan(
    plans: OverDecompositionPlan | Sequence[OverDecompositionPlan],
    trials: int,
    n_workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``plans`` as ``(trials, partitions)`` owner and migration tables.

    One plan of 1-D arrays is shared by every trial, a stacked plan has a
    row per trial, and a list of per-trial plans is stacked once.
    """
    if not isinstance(plans, OverDecompositionPlan):
        plans = list(plans)
        if len(plans) != trials:
            raise ValueError(f"got {len(plans)} plans for {trials} trials")
        plans = OverDecompositionPlan(
            np.stack([p.owner for p in plans]), np.stack([p.migrated for p in plans])
        )
    owner, migrated = np.asarray(plans.owner), np.asarray(plans.migrated, dtype=bool)
    if owner.ndim == 1:
        owner = np.broadcast_to(owner, (trials, owner.size))
        migrated = np.broadcast_to(migrated, owner.shape)
    if len(owner) != trials:
        raise ValueError(f"got {len(owner)} plans for {trials} trials")
    if owner.size and (owner.min() < 0 or owner.max() >= n_workers):
        raise ValueError(f"plan owner index out of range for {n_workers} workers")
    return owner, migrated


@dataclass(frozen=True)
class OverDecompositionIterationSim:
    """Charm++-like over-decomposition with migration (§7.2 baseline).

    The per-iteration plan (built by
    :class:`~repro.scheduling.overdecomposition.OverDecompositionPlacement`
    from *predicted* speeds) assigns each partition to one worker; migrated
    partitions are fetched over the worker's link before it starts
    computing.  Completion is the slowest worker's finish — mis-predicted
    speeds directly inflate it, which is why this baseline trails S2C2 in
    the high-churn environment (Fig 10).
    """

    rows_per_partition: int
    width: int
    width_out: int = 1
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)

    def run(
        self,
        plan: OverDecompositionPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> UncodedIterationOutcome:
        """Simulate one iteration: one row of :meth:`run_batch`'s timeline."""
        speeds = _checked_speeds(speeds, None, batch=False)
        speeds, failed = _normalise_batch(speeds[None, :], frozenset(failed_workers))
        owner, migrated = _stacked_plan(plan, 1, speeds.shape[1])
        out, arrival = self._timeline(owner, migrated, speeds, failed)
        kept = np.zeros_like(out.responded)  # nothing is cancelled
        return _one_trial_outcome(
            out, arrival, owner, kept, migrations=int(out.migrations[0])
        )

    def run_batch(
        self,
        plans: OverDecompositionPlan | Sequence[OverDecompositionPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchUncodedOutcome:
        """Simulate a ``(trials, workers)`` batch of over-decomposition trials.

        ``plans`` is one plan shared by every trial, a stacked plan with a
        row per trial (what
        :func:`~repro.scheduling.overdecomposition.plan_assignment_batch`
        returns), or a list of per-trial plans.  The per-worker chunk
        timelines — migration fetches, compute, reply — are evaluated with
        stacked arrays across all trials (see :meth:`_timeline`).
        """
        speeds, failed = _normalise_batch(speeds, failed_workers)
        owner, migrated = _stacked_plan(plans, *speeds.shape)
        return self._timeline(owner, migrated, speeds, failed)[0]

    def _timeline(
        self,
        owner: np.ndarray,
        migrated: np.ndarray,
        speeds: np.ndarray,
        failed: np.ndarray,
    ) -> tuple[BatchUncodedOutcome, np.ndarray]:
        """The stacked outcome and the ``(trials, workers)`` arrival matrix.

        A worker that owns partitions fetches its migrated ones (one
        transfer each, added left to right), computes all of them, and
        replies; the iteration ends at the last reply.  A failed worker
        that owns partitions has no repair path and raises.
        """
        trials, n = speeds.shape
        counts_mat = _row_counts(owner, n)
        if np.any(failed & (counts_mat > 0)):
            raise RuntimeError(
                "a failed worker owns partitions; over-decomposition has "
                "no repair path within an iteration"
            )
        migr_mat = _row_counts(owner, n, migrated)
        active = counts_mat > 0
        rows_mat = self.rows_per_partition * counts_mat

        broadcast = self.network.transfer_time(
            self.width * self.cost.bytes_per_element
        )
        partition_bytes = self.rows_per_partition * self.cost.row_bytes(self.width)
        # Each migration fetch is a separate left-to-right float addition
        # (the order a per-partition loop charges them in); a cumulative
        # table replays that rounding sequence for every migration count.
        max_migr = int(migr_mat.max()) if migr_mat.size else 0
        fetch_table = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    np.full(max_migr, self.network.transfer_time(partition_bytes))
                ),
            ]
        )
        fetch = fetch_table[migr_mat]
        # Compute and reply mirror CostModel.compute_time / transfer_time
        # term by term so batched arrivals are bit-identical.
        compute = (rows_mat * self.width * self.cost.flops_per_element) / (
            self.cost.worker_flops * speeds
        )
        reply = self.network.latency + (
            rows_mat * self.cost.row_bytes(self.width_out)
        ) / self.network.bandwidth
        arrival = ((broadcast + fetch) + compute) + reply

        completion = np.max(arrival, axis=1, initial=0.0, where=active)
        # Per-worker loop order: workers ascending, one addition each.
        data_moved = np.zeros(trials)
        for w in range(n):
            data_moved = data_moved + migr_mat[:, w] * partition_bytes
        migrations = migrated.sum(axis=1)
        out = BatchUncodedOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            assigned_rows=np.where(active, rows_mat, 0),
            computed_rows=np.where(active, rows_mat, 0).astype(np.float64),
            used_rows=np.where(active, rows_mat, 0),
            responded=active,
            data_moved_bytes=data_moved,
            migrations=migrations,
        )
        return out, arrival
