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
:class:`CodedIterationSim` is the only home of the coded iteration's rules:
coverage completion, the §4.3 deadline (mean of the first ``k`` responses),
the cutoff search that reassigns the laggards' chunks, the opportunistic
acceptance of a repair, and the computed/used accounting.  The event
backend (:mod:`repro.cluster.events.sim`) reuses every one of them and only
supplies when each worker's task starts and how its reply travels.

:meth:`CodedIterationSim.run_batch` simulates a whole ``(trials, workers)``
speed matrix in one call.  It reads the plans as a
:class:`~repro.scheduling.base.PlanBatch` — one arc of the chunk circle per
worker, as ``(trials, workers)`` arrays — so rows per worker, each trial's
plan shape and the repair's holder mask are array expressions, with no
per-trial plan object.  The two plan shapes every scheduler here produces
— *full* plans (conventional coded computation: everyone computes
everything) and *exact-coverage* plans (S2C2's no-wasted-work wraparound
layout) — admit closed-form batch timelines, so arrivals, completion times
and the computed/used accounting are evaluated with stacked numpy arrays
across all trials at once.  Trials that arm the §4.3 timeout are repaired
together in one array pass over the same arrival matrix: the cutoff of the
scalar path's search comes in closed form (a reassignment exists iff at
least ``k`` helpers are available — the feasibility identity of
:mod:`repro.scheduling.timeout`), one batched
:func:`~repro.scheduling.timeout.repair_assignments` call plans every
trial's reassignment, and the repair finish and accounting mirror the
scalar helpers term by term, so they stay bitwise-equal to a per-trial
loop without re-simulating the trial.  Only *general* plans (neither full
nor exact coverage) replay through :meth:`~CodedIterationSim.run`, and
only on this closed backend: the event backend rejects them.

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
from typing import Iterable, NamedTuple, Sequence

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

    Per-trial values equal what :meth:`CodedIterationSim.run` returns for
    that trial's (plan, speeds) pair; ``contributions`` are not materialised
    (latency/waste sweeps never read them — use the scalar path when the
    numeric result is needed).
    """

    completion_time: np.ndarray  # (trials,)
    broadcast_time: float
    decode_time: np.ndarray  # (trials,)
    assigned_rows: np.ndarray  # (trials, workers)
    computed_rows: np.ndarray  # (trials, workers)
    used_rows: np.ndarray  # (trials, workers)
    responded: np.ndarray  # (trials, workers) bool
    repaired: np.ndarray  # (trials,) bool

    @property
    def n_trials(self) -> int:
        return self.completion_time.size

    def wasted_rows(self) -> np.ndarray:
        """Per-trial per-worker rows computed but never used."""
        return np.maximum(0.0, self.computed_rows - self.used_rows)


@dataclass(frozen=True)
class _PlanProfile:
    """Per-plan constants the scalar path reuses across workers."""

    plan: CodedWorkPlan
    rows: np.ndarray  # (n,) assigned rows per worker
    active: tuple[int, ...]  # workers assigned at least one row
    #: Lazily filled worker → sorted chunk-index array cache (the arrays
    #: are read-only inputs).
    chunk_cache: dict = field(default_factory=dict)

    def chunks_of(self, worker: int) -> np.ndarray:
        """Worker's sorted chunk indices (memoised per plan profile)."""
        cached = self.chunk_cache.get(worker)
        if cached is None:
            cached = self.plan.assignments[worker].chunk_indices()
            self.chunk_cache[worker] = cached
        return cached


class _Repair(NamedTuple):
    """A feasible §4.3 reassignment (see :meth:`CodedIterationSim._search_repair`)."""

    finished: dict[int, np.ndarray]  # helper → chunks it sent by the cutoff
    extra: dict[int, np.ndarray]  # helper → chunks reassigned to it
    extra_rows: dict[int, int]  # helper → rows of its reassigned chunks
    laggards: frozenset[int]  # workers cancelled at the cutoff
    cutoff: float  # when the master reassigns


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

        Every path (scalar and batched, closed and event backend) reports
        the same nominal broadcast cost, and it only depends on frozen
        fields — so it is cached on the instance instead of being
        recomputed per trial.  (``functools.cached_property`` writes the
        instance ``__dict__`` directly, which frozen dataclasses permit.)
        """
        return self.network.transfer_time(self._broadcast_bytes)

    def _compute_end(self, rows: int, speed: float, start: float) -> float:
        """When a ``rows``-row task started at ``start`` finishes computing."""
        fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
        return (start + fixed) + self.cost.compute_time(rows, self.width, speed)

    def _arrival(self, rows: int, speed: float, start: float) -> float:
        """Absolute arrival time at the master of a ``rows``-row task."""
        reply = self.network.transfer_time(
            rows * self.cost.row_bytes(self.width_out)
        )
        return self._compute_end(rows, speed, start) + reply

    def _progress_rows(
        self, speed: float, start: float, until: float, cap: int
    ) -> float:
        """Rows finished by ``until`` for a task started at ``start``."""
        fixed = self.fixed_task_flops / (self.cost.worker_flops * speed)
        done = self.cost.rows_computable(until - start - fixed, self.width, speed)
        return float(min(cap, max(0.0, done)))

    def _progress_batch(
        self,
        denom: np.ndarray,
        start: np.ndarray,
        until: float | np.ndarray,
        cap: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_progress_rows` over arrays, term by term.

        ``denom`` is ``worker_flops × speeds``; the other arguments
        broadcast against it.
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

    def _profile(self, plan: CodedWorkPlan) -> _PlanProfile:
        """Precompute a plan's per-worker row counts."""
        rows = PlanBatch.from_plans([plan]).rows(self.grid.chunk_offsets())[0]
        return _PlanProfile(plan, rows, tuple(np.flatnonzero(rows).tolist()))

    # ------------------------------------------------------------------
    # The coded iteration's rules, shared by every path and backend
    # ------------------------------------------------------------------

    def _natural_cover(
        self, profile: _PlanProfile, arrivals: np.ndarray
    ) -> tuple[dict[int, np.ndarray], float]:
        """Walk ``arrivals`` in time order until every chunk is covered.

        Each worker's *useful* chunks are the ones still lacking coverage
        when it arrives (the master uses the first ``coverage`` results per
        chunk and ignores the rest, §2).  Returns those contributions and
        the coverage-completion time (``inf``: never).
        """
        plan = profile.plan
        need = np.full(plan.num_chunks, plan.coverage, dtype=np.int64)
        natural: dict[int, np.ndarray] = {}
        for w in sorted(profile.active, key=lambda w: (arrivals[w], w)):
            if arrivals[w] == np.inf:
                break
            chunks = profile.chunks_of(w)
            useful = chunks[need[chunks] > 0]
            if useful.size:
                natural[w] = useful
                need[useful] -= 1
                if not need.any():
                    return natural, arrivals[w]
        return natural, np.inf

    def _timeout_deadline(
        self, responses: np.ndarray, coverage: int
    ) -> float | None:
        """§4.3: the deadline armed after the first ``k`` responses, or None.

        ``responses`` are every finite response time, ascending.  When
        fewer than ``k`` workers can ever respond (failures among the
        assigned set), the deadline arms from every response that does
        arrive — a real master cannot distinguish "slow" from "dead" and
        must eventually time out either way.
        """
        if self.timeout is None:
            return None
        k = min(self.timeout.min_responses or coverage, len(responses))
        if k == 0:
            return None
        return self.timeout.deadline(float(np.mean(responses[:k])))

    def _search_repair(
        self,
        profile: _PlanProfile,
        speeds: np.ndarray,
        arrivals: np.ndarray,
        deadline: float,
        failed: frozenset[int],
    ) -> _Repair | None:
        """§4.3: cancel the laggards at ``deadline``, reassign their chunks.

        Workers assigned nothing this iteration but alive still hold their
        encoded partitions (§4.4), so the master recruits them as helpers
        alongside the finished workers.  When reassignment among the
        workers finished by the deadline cannot restore coverage (e.g.
        several laggards but a dead worker among them), the master keeps
        collecting responses and retries at each later arrival — so only
        genuinely unreachable coverage makes repair fail.  ``None`` means
        the master waits for the stragglers instead (§4.4).  This walk is
        the semantics of record; :meth:`_repair_batch` takes the same
        cutoff in closed form.
        """
        plan = profile.plan
        order = sorted(profile.active, key=lambda w: (arrivals[w], w))
        idle_alive = [
            w
            for w in range(plan.n_workers)
            if profile.rows[w] == 0 and w not in failed
        ]
        later = sorted(
            arrivals[w] for w in order if deadline < arrivals[w] < np.inf
        )
        sizes = self.grid.chunk_sizes()
        for cutoff in [deadline, *later]:
            finished = {
                w: profile.chunks_of(w) for w in order if arrivals[w] <= cutoff
            }
            for w in idle_alive:
                finished[w] = np.empty(0, dtype=np.int64)
            laggards = frozenset(w for w in order if arrivals[w] > cutoff)
            if not laggards or not finished:
                return None
            try:
                extra = repair_assignments(plan, finished, speeds)
            except ValueError:
                continue  # wait for the next response, then reconsider
            extra_rows = {
                w: int(sizes[chunks].sum()) for w, chunks in extra.items()
            }
            return _Repair(finished, extra, extra_rows, laggards, cutoff)
        return None

    def _repair_finish(self, speeds: np.ndarray, repair: _Repair) -> float:
        """When the reassigned work is back at the master (closed form)."""
        finish = repair.cutoff
        dispatch = repair.cutoff + self.network.latency  # reassignment message
        for w, rows in repair.extra_rows.items():
            finish = max(finish, self._arrival(rows, speeds[w], dispatch))
        return finish

    def _account(
        self,
        profile: _PlanProfile,
        speeds: np.ndarray,
        failed: frozenset[int],
        starts: np.ndarray,
        arrivals: np.ndarray,
        done: float,
        deadline: float | None,
        repair: _Repair | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows each worker computed, and which results the master took.

        The master finishes at ``done``.  A worker whose result arrived by
        then computed its whole task; any other was cancelled having
        computed what it managed since its task started at ``starts[w]``
        (nothing, if it failed) — until the §4.3 ``deadline`` for the
        accepted ``repair``'s laggards, until ``done`` for the rest.
        Repair helpers also computed their reassigned rows.
        """
        rows = profile.rows
        computed = np.zeros(rows.size)
        responded = np.zeros(rows.size, dtype=bool)
        laggards = repair.laggards if repair is not None else frozenset()
        for w in profile.active:
            if w in laggards:
                until = deadline
            elif arrivals[w] <= done:
                computed[w] = rows[w]
                responded[w] = True
                continue
            else:
                until = done
            if w not in failed:
                computed[w] = self._progress_rows(
                    speeds[w], starts[w], until, int(rows[w])
                )
        if repair is not None:
            for w, extra in repair.extra_rows.items():
                computed[w] = rows[w] + extra
        return computed, responded

    def _settle(
        self,
        profile: _PlanProfile,
        speeds: np.ndarray,
        failed: frozenset[int],
        starts: np.ndarray,
        arrivals: np.ndarray,
        natural: dict[int, np.ndarray],
        done: float,
        deadline: float | None,
        repair: _Repair | None,
        finish: float | None,
    ) -> CodedIterationOutcome:
        """One iteration's outcome once its timeline has run.

        ``starts`` and ``arrivals`` are when each worker's task started and
        when its result reached the master (``inf``: never); the
        ``natural`` coverage of those arrivals completes at ``done``.  A
        ``repair`` whose reassigned work is back at ``finish`` replaces it
        only when it finishes first — the master keeps accepting straggler
        results while the reassigned work is in flight (opportunistic
        repair).
        """
        plan = profile.plan
        if repair is not None and finish < done:
            accepted, done = repair, finish
            contributions = {
                w: np.concatenate([chunks, repair.extra[w]])
                if w in repair.extra
                else chunks.copy()
                for w, chunks in repair.finished.items()
            }
        else:
            if done == np.inf:
                raise RuntimeError(
                    "iteration cannot complete: coverage unsatisfiable with "
                    "the surviving workers and no repair possible"
                )
            accepted, contributions = None, natural
        computed, responded = self._account(
            profile, speeds, failed, starts, arrivals, done, deadline, accepted
        )
        # A repair the master found stamps its finished workers' responses,
        # whether or not it then wins.
        probed = repair.finished if repair is not None else {}
        sizes = self.grid.chunk_sizes()
        stats = [
            WorkerIterationStats(
                worker=w,
                assigned_rows=rows,
                computed_rows=float(computed[w]),
                used_rows=(
                    int(sizes[contributions[w]].sum()) if w in contributions else 0
                ),
                response_time=(
                    float(arrivals[w])
                    if responded[w] or (rows and w in probed)
                    else None
                ),
                cancelled=bool(rows) and not responded[w],
            )
            for w, rows in enumerate(profile.rows.tolist())
        ]
        decode = self._decode_time(plan.coverage, len(contributions))
        return CodedIterationOutcome(
            completion_time=float(done + decode),
            broadcast_time=self._broadcast_cost,
            decode_time=decode,
            workers=stats,
            contributions=contributions,
            repaired=accepted is not None,
            timed_out_workers=accepted.laggards if accepted else frozenset(),
        )

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------

    def run(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
    ) -> CodedIterationOutcome:
        """Simulate the iteration and return the outcome.

        ``speeds`` are the *actual* speeds (the plan may have been built
        from different, predicted speeds — that gap is what the timeout
        mechanism repairs).  ``failed_workers`` never respond, regardless
        of speed.
        """
        n = plan.n_workers
        speeds = _checked_speeds(speeds, n, batch=False)
        _checked_failures([failed_workers], n)
        profile = self._profile(plan)
        broadcast = self._broadcast_cost
        arrivals = np.full(n, np.inf)
        for w in profile.active:
            if w not in failed_workers:
                arrivals[w] = self._arrival(
                    int(profile.rows[w]), speeds[w], broadcast
                )
        natural, done = self._natural_cover(profile, arrivals)
        deadline = self._timeout_deadline(
            np.sort(arrivals[np.isfinite(arrivals)]), plan.coverage
        )
        repair = finish = None
        if deadline is not None and done > deadline:
            repair = self._search_repair(
                profile, speeds, arrivals, deadline, failed_workers
            )
            if repair is not None:
                finish = self._repair_finish(speeds, repair)
        return self._settle(
            profile, speeds, failed_workers, np.full(n, broadcast), arrivals,
            natural, done, deadline, repair, finish,
        )

    # ------------------------------------------------------------------
    # Batched Monte-Carlo path
    # ------------------------------------------------------------------

    @staticmethod
    def _batch_inputs(
        plans: PlanBatch | CodedWorkPlan | Sequence[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | Sequence[frozenset[int]],
    ) -> tuple[PlanBatch, np.ndarray, list[frozenset[int]]]:
        """Validated plan batch, speed matrix and per-trial failure sets."""
        speeds, trials, failed_list = _normalise_batch(speeds, failed_workers)
        batch = as_plan_batch(plans, trials)
        if batch.n_workers != speeds.shape[1]:
            raise ValueError("every plan must span the batch's worker count")
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
            once).
        speeds:
            ``(trials, workers)`` matrix of actual speeds.
        failed_workers:
            A single frozenset applied to every trial, or one per trial.

        Returns per-trial results exactly equal to looping
        :meth:`run` — see :meth:`_batch_kernel`.
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

        The cutoff is :meth:`_search_repair`'s in closed form: a cutoff is
        feasible iff at least ``k`` helpers (finished plus idle-alive
        workers) are available (the identity in
        :mod:`repro.scheduling.timeout`), so the walk stops at
        ``max(deadline, (k − #idle)-th arrival)`` — and finds nothing when
        that arrival never comes or no active worker is still pending.
        One batched :func:`repair_assignments` call plans every trial's
        reassignment; the finish time and the accounting mirror
        :meth:`_repair_finish` and :meth:`_account` term by term, the
        repair reply riding each helper's reply ``bandwidth`` as its
        natural reply does.  Trials whose repair beats waiting are written
        into ``out``; the others are left to complete naturally.
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
        extra_rows = extra @ self.grid.chunk_sizes()[: extra.shape[2]]
        reassigned = extra.any(axis=2)
        # _repair_finish: the zero-byte reassignment message leaves at the
        # cutoff (behind the broadcast on a helper's downlink), and each
        # helper's _arrival is ((start + fixed) + compute) + reply.
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
        # _account with the master done at ``finish``: the finished workers
        # responded, laggards computed until the deadline (nothing, if
        # failed), and helpers also computed their reassigned rows.
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
        """The batched coded iteration behind both backends' ``run_batch``.

        ``recv`` is when each worker starts its task (it has received the
        broadcast) and ``bandwidth`` that of its reply link, for natural
        and repair replies alike: scalars, or ``(trials, workers)`` arrays.
        Full and exact-coverage plans take closed-form array timelines;
        the trials whose §4.3 timeout arms are repaired together by
        :meth:`_repair_batch`, bitwise-equal to what :meth:`run` does.
        Trials on general plans replay through :meth:`run`, their
        semantics of record.
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

        # Arrivals, mirroring _arrival()'s float-op order term by term so
        # batched values are bit-identical to the scalar timelines.
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
            # response for exact-coverage plans.
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

        out = BatchCodedOutcome(
            completion_time=np.zeros(trials),
            broadcast_time=broadcast,
            decode_time=np.zeros(trials),
            assigned_rows=rows_mat,
            computed_rows=np.zeros((trials, n)),
            used_rows=np.zeros((trials, n), dtype=np.int64),
            responded=np.zeros((trials, n), dtype=bool),
            repaired=np.zeros(trials, dtype=bool),
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
                # _timeout_deadline per trial, one row-wise mean per
                # distinct k (the finite arrivals lead each sorted row).
                # A set, not np.unique, which would import numpy.ma.
                ks = np.minimum(
                    self.timeout.min_responses or coverage,
                    np.isfinite(sorted_arr).sum(axis=1),
                )
                for k in set(ks.tolist()) - {0}:
                    rows = np.flatnonzero(ks == k)
                    deadlines[rows] = self.timeout.deadline(
                        sorted_arr[rows, :k].mean(axis=1)
                    )
            general = ~full_rows & ~exact_rows
            armed = ~general & ~np.isnan(deadlines) & (done > deadlines)
            native = np.flatnonzero(armed)
            if native.size:
                self._repair_batch(
                    out, native, batch, speeds, failed_mask, recv, bandwidth,
                    arrivals, sorted_arr, deadlines, ks, done,
                )

        fast = ~general & ~repaired
        if np.any(np.isinf(done) & fast):
            raise RuntimeError(
                "iteration cannot complete: coverage unsatisfiable with "
                "the surviving workers and no repair possible"
            )
        if np.any(fast):
            with span("decode"):
                resp = active & (arrivals <= done[:, None]) & fast[:, None]
                # Partial progress of cancelled stragglers since their task
                # started.
                progress = self._progress_batch(
                    denom, recv, done[:, None], rows_mat
                )
                computed_fast = np.where(
                    resp,
                    rows_mat.astype(np.float64),
                    np.where(failed_mask, 0.0, progress),
                )
                computed_fast[~active] = 0.0
                computed[fast] = computed_fast[fast]
                responded[fast] = resp[fast]
                # Used rows: every active worker on exact plans; the first
                # ``coverage`` responses (stable arrival order) on full
                # plans.
                exact_fast = exact_rows & fast
                if np.any(exact_fast):
                    used[exact_fast] = np.where(
                        active[exact_fast], rows_mat[exact_fast], 0
                    )
                full_fast = full_rows & fast
                if np.any(full_fast):
                    first = np.argsort(
                        arrivals[full_fast], axis=1, kind="stable"
                    )[:, :coverage]
                    sub = np.zeros((int(full_fast.sum()), n), dtype=np.int64)
                    np.put_along_axis(
                        sub, first, np.take_along_axis(rows_mat[full_fast], first, 1), 1
                    )
                    used[full_fast] = sub
                # Decode groups: the first k responses on full plans, every
                # active worker on exact plans.
                groups = np.where(full_rows, coverage, active.sum(axis=1))
                decode[fast] = self._decode_times(coverage, groups[fast])
                completion[fast] = done[fast] + decode[fast]

        if np.any(general):
            with span("replay"):
                for t in np.flatnonzero(general):
                    outcome = self.run(batch[t], speeds[t], failed_list[t])
                    completion[t] = outcome.completion_time
                    decode[t] = outcome.decode_time
                    repaired[t] = outcome.repaired
                    stats = outcome.workers
                    computed[t] = [s.computed_rows for s in stats]
                    used[t] = [s.used_rows for s in stats]
                    # A response counts only when the master took it (a
                    # late response stamped by a rejected repair probe
                    # stays a cancellation).
                    responded[t] = [
                        s.response_time is not None and not s.cancelled
                        for s in stats
                    ]

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
