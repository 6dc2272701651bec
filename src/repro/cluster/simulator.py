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
:class:`BatchUncodedOutcome`.  :meth:`ReplicationIterationSim.run_batch`
batches the primary arrivals and resolves each trial's speculation — a
bounded sequence of relaunches on whichever workers are idle — with the
scalar path's own :meth:`~ReplicationIterationSim._complete`;
:meth:`OverDecompositionIterationSim.run_batch` stacks the per-worker chunk
timelines — migration fetches, compute, reply — across all trials at once,
and its :meth:`~OverDecompositionIterationSim.run` is one row of that
timeline.
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
) -> tuple[np.ndarray, int, list[frozenset[int]]]:
    """Validate batch inputs shared by every ``run_batch``.

    Returns the ``(trials, workers)`` speed matrix, the trial count, and
    one failure set per trial (a single set is broadcast to all trials).
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
    return speeds, trials, failed_list


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
    ) -> tuple[PlanBatch, np.ndarray, list[frozenset[int]]]:
        """Validated plan batch, speed matrix and per-trial failure sets."""
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        batch = as_plan_batch(plans, trials)
        if batch.n_workers != speeds.shape[1]:
            raise ValueError("every plan must span the batch's worker count")
        if batch.num_chunks != self.grid.num_chunks:
            raise ValueError(
                f"plans have {batch.num_chunks} chunks, the simulator's grid "
                f"{self.grid.num_chunks}"
            )
        return batch, speeds, failed_list

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
        batch, speeds, failed_list = self._batch_inputs(
            plans, speeds, failed_workers
        )
        return self._batch_kernel(
            batch,
            speeds,
            failed_list,
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
        failed_list: list[frozenset[int]],
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
            failed_mask = np.zeros((trials, n), dtype=bool)
            for t, failed in enumerate(failed_list):
                if failed:
                    failed_mask[t, list(failed)] = True
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

    Per-trial values equal what the scalar ``run`` returns for that trial's
    (plan, speeds) pair; the ``partition_owner`` map and the speculative
    launch count are not materialised (latency/waste sweeps never read
    them — use the scalar path when that detail is needed).  Replication
    never migrates, so its ``migrations`` are zero.
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

    def _arrival(self, rows: int, speed: float, start: float) -> float:
        compute = self.cost.compute_time(rows, self.width, speed)
        reply = self.network.transfer_time(rows * self.cost.row_bytes(self.width_out))
        return start + compute + reply

    def _primary_arrivals(
        self, speeds: np.ndarray, failed: Sequence[frozenset[int]]
    ) -> np.ndarray:
        """Vectorized primary-task arrivals for a ``(trials, n)`` batch.

        Term-by-term mirror of :meth:`_arrival`, so per-trial rows are
        bit-identical to the scalar computation.
        """
        rows = self.rows_per_partition
        broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
        compute = (rows * self.width * self.cost.flops_per_element) / (
            self.cost.worker_flops * speeds
        )
        reply = self.network.transfer_time(rows * self.cost.row_bytes(self.width_out))
        arrivals = (broadcast + compute) + reply
        for t, failed_set in enumerate(failed):
            if failed_set:
                arrivals[t, list(failed_set)] = np.inf
        return arrivals

    def run(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> UncodedIterationOutcome:
        """Simulate one iteration; every partition must produce one result."""
        speeds = _checked_speeds(speeds, self.placement.n_workers, batch=False)
        _checked_failures([failed_workers], speeds.size)
        primary = self._primary_arrivals(speeds[None, :], [failed_workers])[0]
        return self._complete(speeds, primary, failed_workers)

    def run_batch(
        self,
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchUncodedOutcome:
        """Simulate a ``(trials, n)`` batch; one stacked row per trial.

        Arrivals are computed for the whole batch at once; the speculation
        decisions (inherently sequential: a bounded number of relaunches on
        whichever workers happen to be idle) are resolved per trial by
        :meth:`_complete`, the code the scalar path uses, so row ``t``
        equals :meth:`run` on ``speeds[t]`` exactly.
        """
        speeds, trials, failed_list = _normalise_batch(
            speeds, failed_workers, n_workers=self.placement.n_workers
        )
        arrivals = self._primary_arrivals(speeds, failed_list)
        outcomes = [
            self._complete(speeds[t], arrivals[t], failed_list[t])
            for t in range(trials)
        ]
        stats = [o.workers for o in outcomes]
        return BatchUncodedOutcome(
            completion_time=np.array([o.completion_time for o in outcomes]),
            broadcast_time=outcomes[0].broadcast_time,
            assigned_rows=np.array([[s.assigned_rows for s in r] for r in stats]),
            computed_rows=np.array([[s.computed_rows for s in r] for r in stats]),
            used_rows=np.array([[s.used_rows for s in r] for r in stats]),
            responded=np.array(
                [[s.response_time is not None for s in r] for r in stats]
            ),
            data_moved_bytes=np.array([o.data_moved_bytes for o in outcomes]),
            migrations=np.zeros(trials, dtype=np.int64),
        )

    def _complete(
        self,
        speeds: np.ndarray,
        primary_arrival: np.ndarray,
        failed_workers: frozenset[int],
    ) -> UncodedIterationOutcome:
        """Resolve speculation and accounting for one trial."""
        n = self.placement.n_workers
        rows = self.rows_per_partition
        broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
        stats = [WorkerIterationStats(worker=w, assigned_rows=rows) for w in range(n)]
        finite = np.sort(primary_arrival[np.isfinite(primary_arrival)])
        watch_count = max(1, int(np.ceil(self.config.watch_fraction * n)))
        if finite.size >= watch_count:
            watch_time = float(finite[watch_count - 1])
        else:
            watch_time = float(finite[-1]) if finite.size else broadcast

        # Speculation: relaunch the laggard tasks on idle finished workers.
        laggards = [
            p for p in range(n) if primary_arrival[p] > watch_time
        ]
        laggards.sort(key=lambda p: -primary_arrival[p])  # slowest first
        idle = [
            w
            for w in range(n)
            if primary_arrival[w] <= watch_time and w not in failed_workers
        ]
        idle.sort(key=lambda w: -speeds[w])  # fastest first
        spec_tasks: dict[int, tuple[int, float, float]] = {}  # p -> (holder, start, arrival)
        data_moved = 0.0
        launches = 0
        partition_bytes = rows * self.cost.row_bytes(self.width)
        for p in laggards:
            if launches >= self.config.max_speculative or not idle:
                break
            # Prefer an idle replica holder; otherwise move the data (if the
            # policy allows it — strict-locality Hadoop does not).
            holder = next(
                (w for w in idle if self.placement.has_copy(w, p)), None
            )
            start = watch_time + self.network.latency
            if holder is None:
                if not self.config.allow_data_movement:
                    continue
                holder = idle[0]
                start += self.network.transfer_time(partition_bytes)
                data_moved += partition_bytes
            idle.remove(holder)
            spec_tasks[p] = (holder, start, self._arrival(rows, speeds[holder], start))
            launches += 1

        owner: dict[int, int] = {}
        completion = 0.0
        for p in range(n):
            candidates = [(primary_arrival[p], p)]
            if p in spec_tasks:
                holder, _start, t = spec_tasks[p]
                candidates.append((t, holder))
            t_done, who = min(candidates)
            if t_done == np.inf:
                raise RuntimeError(
                    f"partition {p} cannot complete: primary failed and no "
                    "speculative copy was launched"
                )
            owner[p] = who
            completion = max(completion, t_done)

        # Accounting. Primary copies: full if arrived before completion,
        # partial otherwise (cancelled at iteration end).
        for w in range(n):
            if w in failed_workers:
                stats[w].computed_rows = 0.0
                stats[w].cancelled = True
                continue
            if primary_arrival[w] <= completion:
                stats[w].computed_rows = float(rows)
                stats[w].response_time = float(primary_arrival[w])
            else:
                elapsed = completion - broadcast
                stats[w].computed_rows = float(
                    min(rows, self.cost.rows_computable(elapsed, self.width, speeds[w]))
                )
                stats[w].cancelled = True
        for p, (holder, start, arrival) in spec_tasks.items():
            # The speculative copy also computed (fully if it beat the end,
            # partially if it was cancelled when the primary finished first).
            if arrival <= completion:
                done = float(rows)
            else:
                done = min(
                    float(rows),
                    self.cost.rows_computable(
                        completion - start, self.width, speeds[holder]
                    ),
                )
            stats[holder].computed_rows += max(0.0, done)
        for p, w in owner.items():
            stats[w].used_rows += rows
        return UncodedIterationOutcome(
            completion_time=completion,
            broadcast_time=broadcast,
            workers=stats,
            partition_owner=owner,
            data_moved_bytes=data_moved,
            speculative_launches=launches,
        )


def _check_owners(plan: OverDecompositionPlan, n_workers: int) -> np.ndarray:
    """The plan's partition → owner array, every owner one of the workers."""
    owner = np.asarray(plan.owner)
    if owner.size and (owner.min() < 0 or owner.max() >= n_workers):
        raise ValueError(
            f"plan owner index out of range for {n_workers} workers"
        )
    return owner


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
        """Simulate one iteration: one row of :meth:`run_batch`'s timeline.

        Response times and the partition → worker map are read off the
        same arrival matrix and plan the batch path evaluates.
        """
        speeds = _checked_speeds(speeds, None, batch=False)
        _checked_failures([failed_workers], speeds.size)
        out, arrival = self._timeline(
            [plan], speeds[None, :], [frozenset(failed_workers)]
        )
        stats = [
            WorkerIterationStats(
                worker=w,
                assigned_rows=rows,
                computed_rows=float(rows),
                used_rows=rows,
                response_time=float(arrival[0, w]) if responded else None,
            )
            for w, (rows, responded) in enumerate(
                zip(out.assigned_rows[0].tolist(), out.responded[0].tolist())
            )
        ]
        return UncodedIterationOutcome(
            completion_time=float(out.completion_time[0]),
            broadcast_time=out.broadcast_time,
            workers=stats,
            partition_owner=dict(enumerate(np.asarray(plan.owner).tolist())),
            data_moved_bytes=float(out.data_moved_bytes[0]),
            migrations=int(out.migrations[0]),
        )

    def run_batch(
        self,
        plans: OverDecompositionPlan | Sequence[OverDecompositionPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
    ) -> BatchUncodedOutcome:
        """Simulate a ``(trials, workers)`` batch of over-decomposition trials.

        ``plans`` is one plan shared by every trial or one per trial
        (long-running sessions re-plan each iteration as copies migrate,
        so the per-trial form is the common one).  The per-worker chunk
        timelines — migration fetches, compute, reply — are evaluated with
        stacked arrays across all trials (see :meth:`_timeline`).
        """
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        shared = isinstance(plans, OverDecompositionPlan)
        plan_list = [plans] * trials if shared else list(plans)
        if len(plan_list) != trials:
            raise ValueError(f"got {len(plan_list)} plans for {trials} trials")
        return self._timeline(plan_list, speeds, failed_list)[0]

    def _timeline(
        self,
        plan_list: list[OverDecompositionPlan],
        speeds: np.ndarray,
        failed_list: list[frozenset[int]],
    ) -> tuple[BatchUncodedOutcome, np.ndarray]:
        """The stacked outcome and the ``(trials, workers)`` arrival matrix.

        A worker that owns partitions fetches its migrated ones (one
        transfer each, added left to right), computes all of them, and
        replies; the iteration ends at the last reply.  A failed worker
        that owns partitions has no repair path and raises.
        """
        trials, n = speeds.shape

        # Per-distinct-plan constants (duplicate plan objects profiled once):
        # partition and migration counts per worker, plus the owner set for
        # the failure check.
        profiles: dict[int, tuple[np.ndarray, np.ndarray, frozenset[int]]] = {}
        for p in plan_list:
            if id(p) not in profiles:
                owner = _check_owners(p, n)
                counts = np.bincount(owner, minlength=n).astype(np.int64)
                migr = np.bincount(
                    owner[np.asarray(p.migrated, dtype=bool)], minlength=n
                ).astype(np.int64)
                profiles[id(p)] = (counts, migr, frozenset(np.unique(owner).tolist()))
        for t, failed in enumerate(failed_list):
            if failed & profiles[id(plan_list[t])][2]:
                raise RuntimeError(
                    "a failed worker owns partitions; over-decomposition has "
                    "no repair path within an iteration"
                )

        counts_mat = np.stack([profiles[id(p)][0] for p in plan_list])
        migr_mat = np.stack([profiles[id(p)][1] for p in plan_list])
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
        migrations = np.array(
            [int(np.asarray(p.migrated).sum()) for p in plan_list], dtype=np.int64
        )
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
