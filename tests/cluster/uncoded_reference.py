"""The per-trial uncoded walks: the oracles of the baselines' array rounds.

``ReplicationIterationSim`` resolves LATE-style speculation for a whole
``(trials, workers)`` batch in one array pass, and the over-decomposition
planner places every trial's partitions in one call over a ``(trials,
partitions, slots)`` holder table; the one-trial entries
(``ReplicationIterationSim.run``, ``plan_assignment``) are views of those
passes.  This module is the scalar code they replace, frozen here so the
equivalence suites can pin the passes against it:

* :func:`arrival` and :func:`complete` — a speculative copy's arrival, and
  one trial's speculation (laggards slowest first, idle workers fastest
  first, replica holders preferred, a bounded launch budget), owner choice
  and computed/used accounting; :func:`reference_run` is the scalar
  ``run`` of record and :func:`reference_run_batch` stacks it per trial.
* :func:`reference_plan_assignment` — one trial's two-pass placement
  (holders with spare quota first, then the most-spare-quota worker),
  apportioning quotas with the 1-D :func:`largest_remainder_round`.
* :func:`grow_holders` — the holder tuples after a round: each migrated
  partition's new owner appended in migration order.
* :func:`reference_overdecomposition_run` — one over-decomposition
  iteration as a per-worker loop (migration fetches summed left to right,
  then compute and reply), the oracle of the stacked timeline.

Each former method is a function of the simulator ``sim``, whose cost
models and fields it reads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.simulator import (
    BatchUncodedOutcome,
    UncodedIterationOutcome,
    WorkerIterationStats,
    _checked_failures,
    _checked_speeds,
)
from repro.scheduling.overdecomposition import OverDecompositionPlan


def arrival(sim, rows: int, speed: float, start: float) -> float:
    """Absolute arrival time at the master of a ``rows``-row task."""
    compute = sim.cost.compute_time(rows, sim.width, speed)
    reply = sim.network.transfer_time(rows * sim.cost.row_bytes(sim.width_out))
    return start + compute + reply


def primary_arrivals(
    sim, speeds: np.ndarray, failed_workers: frozenset[int]
) -> np.ndarray:
    """Every worker's primary-task arrival (``inf`` for a failed worker)."""
    broadcast = sim.network.transfer_time(sim.width * sim.cost.bytes_per_element)
    return np.array(
        [
            np.inf
            if w in failed_workers
            else arrival(sim, sim.rows_per_partition, speeds[w], broadcast)
            for w in range(speeds.size)
        ]
    )


def complete(
    sim,
    speeds: np.ndarray,
    primary_arrival: np.ndarray,
    failed_workers: frozenset[int],
) -> UncodedIterationOutcome:
    """Resolve speculation and accounting for one trial."""
    n = sim.placement.n_workers
    rows = sim.rows_per_partition
    broadcast = sim.network.transfer_time(sim.width * sim.cost.bytes_per_element)
    stats = [WorkerIterationStats(worker=w, assigned_rows=rows) for w in range(n)]
    finite = np.sort(primary_arrival[np.isfinite(primary_arrival)])
    watch_count = max(1, int(np.ceil(sim.config.watch_fraction * n)))
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
    partition_bytes = rows * sim.cost.row_bytes(sim.width)
    for p in laggards:
        if launches >= sim.config.max_speculative or not idle:
            break
        # Prefer an idle replica holder; otherwise move the data (if the
        # policy allows it — strict-locality Hadoop does not).
        holder = next(
            (w for w in idle if sim.placement.has_copy(w, p)), None
        )
        start = watch_time + sim.network.latency
        if holder is None:
            if not sim.config.allow_data_movement:
                continue
            holder = idle[0]
            start += sim.network.transfer_time(partition_bytes)
            data_moved += partition_bytes
        idle.remove(holder)
        spec_tasks[p] = (holder, start, arrival(sim, rows, speeds[holder], start))
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
                min(rows, sim.cost.rows_computable(elapsed, sim.width, speeds[w]))
            )
            stats[w].cancelled = True
    for p, (holder, start, arrival_time) in spec_tasks.items():
        # The speculative copy also computed (fully if it beat the end,
        # partially if it was cancelled when the primary finished first).
        if arrival_time <= completion:
            done = float(rows)
        else:
            done = min(
                float(rows),
                sim.cost.rows_computable(
                    completion - start, sim.width, speeds[holder]
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


def reference_run(
    sim, speeds: np.ndarray, failed_workers: frozenset[int] = frozenset()
) -> UncodedIterationOutcome:
    """Simulate one iteration; every partition must produce one result."""
    speeds = _checked_speeds(speeds, sim.placement.n_workers, batch=False)
    _checked_failures([failed_workers], speeds.size)
    primary = primary_arrivals(sim, speeds, frozenset(failed_workers))
    return complete(sim, speeds, primary, frozenset(failed_workers))


def reference_run_batch(
    sim,
    speeds: np.ndarray,
    failed_workers: frozenset[int] | Sequence[frozenset[int]] = frozenset(),
) -> BatchUncodedOutcome:
    """:func:`reference_run` per trial, stacked one row per trial."""
    speeds = np.asarray(speeds, dtype=np.float64)
    trials = speeds.shape[0]
    if isinstance(failed_workers, (frozenset, set)):
        failed_list = [frozenset(failed_workers)] * trials
    else:
        failed_list = [frozenset(f) for f in failed_workers]
    outcomes = [reference_run(sim, speeds[t], failed_list[t]) for t in range(trials)]
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


def largest_remainder_round(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to 1-D ``weights``.

    Uses the largest-remainder (Hamilton) method so that the result sums to
    exactly ``total`` and is within one unit of the exact proportional share.
    Zero-weight entries receive zero units.  Ties are broken by index for
    determinism.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be 1-D")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    wsum = weights.sum()
    if total == 0:
        return np.zeros(weights.shape, dtype=np.int64)
    if wsum <= 0:
        raise ValueError("at least one weight must be positive when total > 0")
    exact = weights * (total / wsum)
    base = np.floor(exact).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        remainders = exact - base
        # Stable argsort descending by remainder, then ascending index.
        order = np.lexsort((np.arange(weights.size), -remainders))
        base[order[:short]] += 1
    return base


def reference_plan_assignment(
    holders: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
    speeds: np.ndarray,
    n_workers: int,
) -> OverDecompositionPlan:
    """Assign every partition to one worker, load ∝ predicted speed.

    ``holders[p]`` lists the workers currently storing partition ``p``
    (the home copy plus any replicas or previously-migrated copies).
    Workers get integer partition quotas via largest-remainder
    apportionment of ``speeds``; partitions are matched to quota slots
    preferring copy-holders (no movement), and the leftovers migrate.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (n_workers,):
        raise ValueError(
            f"speeds must have shape ({n_workers},), got {speeds.shape}"
        )
    if np.all(speeds <= 0):
        raise ValueError("at least one worker must have positive speed")
    num_partitions = len(holders)
    quota = largest_remainder_round(np.clip(speeds, 0.0, None), num_partitions)
    owner = np.full(num_partitions, -1, dtype=np.int64)
    migrated = np.zeros(num_partitions, dtype=bool)
    remaining = quota.astype(np.int64).copy()
    # Pass 1: place partitions on holders with spare quota (home first).
    for partition in range(num_partitions):
        for worker in holders[partition]:
            if remaining[worker] > 0:
                owner[partition] = worker
                remaining[worker] -= 1
                break
    # Pass 2: remaining partitions migrate to any worker with quota,
    # most-spare-quota first to keep loads level.
    unplaced = np.flatnonzero(owner < 0)
    for partition in unplaced:
        worker = int(np.argmax(remaining))
        if remaining[worker] <= 0:  # pragma: no cover - quota sums match
            raise AssertionError("quota exhausted before placement finished")
        owner[partition] = worker
        remaining[worker] -= 1
        migrated[partition] = True
    return OverDecompositionPlan(owner=owner, migrated=migrated)


def grow_holders(
    holders: list[tuple[int, ...]], plan: OverDecompositionPlan
) -> None:
    """Migrated copies become resident on their new worker (in place)."""
    for partition in np.flatnonzero(plan.migrated):
        worker = int(plan.owner[partition])
        if worker not in holders[partition]:
            holders[partition] = holders[partition] + (worker,)


def reference_overdecomposition_run(
    self,
    plan: OverDecompositionPlan,
    speeds: np.ndarray,
    failed_workers: frozenset[int] = frozenset(),
) -> UncodedIterationOutcome:
    """Simulate one iteration of the over-decomposition strategy."""
    speeds = _checked_speeds(speeds, None, batch=False)
    n = speeds.size
    owners = np.asarray(plan.owner)
    if owners.size and (owners.min() < 0 or owners.max() >= n):
        raise ValueError(f"plan owner index out of range for {n} workers")
    if failed_workers & set(np.unique(plan.owner).tolist()):
        raise RuntimeError(
            "a failed worker owns partitions; over-decomposition has no "
            "repair path within an iteration"
        )
    rows = self.rows_per_partition
    broadcast = self.network.transfer_time(self.width * self.cost.bytes_per_element)
    partition_bytes = rows * self.cost.row_bytes(self.width)
    stats = [WorkerIterationStats(worker=w) for w in range(n)]
    owner: dict[int, int] = {}
    completion = 0.0
    data_moved = 0.0
    for w in range(n):
        mine = plan.partitions_of(w)
        if mine.size == 0:
            continue
        migrations = int(plan.migrated[mine].sum())
        fetch = sum(
            self.network.transfer_time(partition_bytes)
            for _ in range(migrations)
        )
        data_moved += migrations * partition_bytes
        total_rows = int(rows * mine.size)
        stats[w].assigned_rows = total_rows
        compute = self.cost.compute_time(total_rows, self.width, speeds[w])
        reply = self.network.transfer_time(
            total_rows * self.cost.row_bytes(self.width_out)
        )
        arrival = broadcast + fetch + compute + reply
        stats[w].computed_rows = float(total_rows)
        stats[w].used_rows = total_rows
        stats[w].response_time = arrival
        completion = max(completion, arrival)
        for p in mine:
            owner[int(p)] = w
    return UncodedIterationOutcome(
        completion_time=completion,
        broadcast_time=broadcast,
        workers=stats,
        partition_owner=owner,
        data_moved_bytes=data_moved,
        migrations=int(plan.migrated.sum()),
    )
