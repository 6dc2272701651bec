"""The per-trial coded-iteration walk: the oracle of the batched kernel.

``CodedIterationSim.run_batch`` evaluates one coded iteration for a whole
``(trials, workers)`` batch as arrays, and ``CodedIterationSim.run`` is a
one-trial view of it.  This module is the scalar walk those arrays replace,
frozen here so the equivalence suites can pin the kernel against it:
coverage completion in ``(arrival, worker)`` order, the §4.3 deadline
(mean of the first ``k`` responses), the cutoff search that reassigns the
laggards' chunks, the opportunistic acceptance of a repair, and the
computed/used accounting.  Each former method is a function of the
simulator ``sim``, whose cost models and fields it reads.

:func:`reference_run` is the scalar ``run`` of record; the discrete-event
loop (``event_oracle.py``) reuses the same rules and only decides when
each event happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cluster.simulator import (
    CodedIterationOutcome,
    WorkerIterationStats,
    _checked_failures,
    _checked_speeds,
)
from repro.scheduling.base import CodedWorkPlan, PlanBatch
from repro.scheduling.timeout import repair_assignments


@dataclass(frozen=True)
class PlanProfile:
    """Per-plan constants the walk reuses across workers."""

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


class Repair(NamedTuple):
    """A feasible §4.3 reassignment (see :func:`search_repair`)."""

    finished: dict[int, np.ndarray]  # helper → chunks it sent by the cutoff
    extra: dict[int, np.ndarray]  # helper → chunks reassigned to it
    extra_rows: dict[int, int]  # helper → rows of its reassigned chunks
    laggards: frozenset[int]  # workers cancelled at the cutoff
    cutoff: float  # when the master reassigns


def compute_end(sim, rows: int, speed: float, start: float) -> float:
    """When a ``rows``-row task started at ``start`` finishes computing."""
    fixed = sim.fixed_task_flops / (sim.cost.worker_flops * speed)
    return (start + fixed) + sim.cost.compute_time(rows, sim.width, speed)


def arrival(sim, rows: int, speed: float, start: float) -> float:
    """Absolute arrival time at the master of a ``rows``-row task."""
    reply = sim.network.transfer_time(rows * sim.cost.row_bytes(sim.width_out))
    return compute_end(sim, rows, speed, start) + reply


def progress_rows(sim, speed: float, start: float, until: float, cap: int) -> float:
    """Rows finished by ``until`` for a task started at ``start``."""
    fixed = sim.fixed_task_flops / (sim.cost.worker_flops * speed)
    done = sim.cost.rows_computable(until - start - fixed, sim.width, speed)
    return float(min(cap, max(0.0, done)))


def profile(sim, plan: CodedWorkPlan) -> PlanProfile:
    """Precompute a plan's per-worker row counts."""
    rows = PlanBatch.from_plans([plan]).rows(sim.grid.chunk_offsets())[0]
    return PlanProfile(plan, rows, tuple(np.flatnonzero(rows).tolist()))


def natural_cover(
    sim, profile: PlanProfile, arrivals: np.ndarray
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


def timeout_deadline(sim, responses: np.ndarray, coverage: int) -> float | None:
    """§4.3: the deadline armed after the first ``k`` responses, or None.

    ``responses`` are every finite response time, ascending.  When
    fewer than ``k`` workers can ever respond (failures among the
    assigned set), the deadline arms from every response that does
    arrive — a real master cannot distinguish "slow" from "dead" and
    must eventually time out either way.
    """
    if sim.timeout is None:
        return None
    k = min(sim.timeout.min_responses or coverage, len(responses))
    if k == 0:
        return None
    return sim.timeout.deadline(float(np.mean(responses[:k])))


def search_repair(
    sim,
    profile: PlanProfile,
    speeds: np.ndarray,
    arrivals: np.ndarray,
    deadline: float,
    failed: frozenset[int],
) -> Repair | None:
    """§4.3: cancel the laggards at ``deadline``, reassign their chunks.

    Workers assigned nothing this iteration but alive still hold their
    encoded partitions (§4.4), so the master recruits them as helpers
    alongside the finished workers.  When reassignment among the
    workers finished by the deadline cannot restore coverage (e.g.
    several laggards but a dead worker among them), the master keeps
    collecting responses and retries at each later arrival — so only
    genuinely unreachable coverage makes repair fail.  ``None`` means
    the master waits for the stragglers instead (§4.4).
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
    sizes = sim.grid.chunk_sizes()
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
        return Repair(finished, extra, extra_rows, laggards, cutoff)
    return None


def repair_finish(sim, speeds: np.ndarray, repair: Repair) -> float:
    """When the reassigned work is back at the master (closed form)."""
    finish = repair.cutoff
    dispatch = repair.cutoff + sim.network.latency  # reassignment message
    for w, rows in repair.extra_rows.items():
        finish = max(finish, arrival(sim, rows, speeds[w], dispatch))
    return finish


def account(
    sim,
    profile: PlanProfile,
    speeds: np.ndarray,
    failed: frozenset[int],
    starts: np.ndarray,
    arrivals: np.ndarray,
    done: float,
    deadline: float | None,
    repair: Repair | None,
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
            computed[w] = progress_rows(sim, speeds[w], starts[w], until, int(rows[w]))
    if repair is not None:
        for w, extra in repair.extra_rows.items():
            computed[w] = rows[w] + extra
    return computed, responded


def settle(
    sim,
    profile: PlanProfile,
    speeds: np.ndarray,
    failed: frozenset[int],
    starts: np.ndarray,
    arrivals: np.ndarray,
    natural: dict[int, np.ndarray],
    done: float,
    deadline: float | None,
    repair: Repair | None,
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
    computed, responded = account(
        sim, profile, speeds, failed, starts, arrivals, done, deadline, accepted
    )
    # A repair the master found stamps its finished workers' responses,
    # whether or not it then wins.
    probed = repair.finished if repair is not None else {}
    sizes = sim.grid.chunk_sizes()
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
    decode = sim._decode_time(plan.coverage, len(contributions))
    return CodedIterationOutcome(
        completion_time=float(done + decode),
        broadcast_time=sim._broadcast_cost,
        decode_time=decode,
        workers=stats,
        contributions=contributions,
        repaired=accepted is not None,
        timed_out_workers=accepted.laggards if accepted else frozenset(),
    )


def reference_run(
    sim,
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
    prof = profile(sim, plan)
    broadcast = sim._broadcast_cost
    arrivals = np.full(n, np.inf)
    for w in prof.active:
        if w not in failed_workers:
            arrivals[w] = arrival(sim, int(prof.rows[w]), speeds[w], broadcast)
    natural, done = natural_cover(sim, prof, arrivals)
    deadline = timeout_deadline(
        sim, np.sort(arrivals[np.isfinite(arrivals)]), plan.coverage
    )
    repair = finish = None
    if deadline is not None and done > deadline:
        repair = search_repair(sim, prof, speeds, arrivals, deadline, failed_workers)
        if repair is not None:
            finish = repair_finish(sim, speeds, repair)
    return settle(
        sim, prof, speeds, failed_workers, np.full(n, broadcast), arrivals,
        natural, done, deadline, repair, finish,
    )
