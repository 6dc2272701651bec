"""``run`` is a one-trial view of ``run_batch``, pinned against the frozen walk.

``CodedIterationSim.run`` simulates one trial through the batched kernel
and derives from its arrival row what the numeric sessions decode: the
contributions, response times, cancellations and timed-out workers.  The
property here pins it field for field against the frozen scalar walk
(``coded_reference.py``) over every plan shape — full, exact-coverage
(with idle workers), over-covered arcs and plans that are not one arc per
worker — with failures, armed timeouts, ``min_responses`` and
``fixed_task_flops``, on both backends.  ``run_batch`` over
scheduler-built plan batches is pinned against the same walk trial by
trial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import (
    ChunkAssignment,
    CodedWorkPlan,
    PlanBatch,
    full_plan,
    plan_batch,
)
from repro.scheduling.s2c2 import (
    BasicS2C2Scheduler,
    GeneralS2C2Scheduler,
    wraparound_plan,
)
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

from coded_reference import reference_run

BACKENDS = {"closed": CodedIterationSim, "event": EventDrivenIterationSim}
PLAN_KINDS = ("full", "exact", "idle", "over-covered", "non-arc")


def _plan(rng, kind, n, coverage, num_chunks):
    """One plan of ``kind`` (the last two are general plans)."""
    if kind == "full":
        return full_plan(n, num_chunks, coverage)
    if kind == "idle":  # exact coverage on a random subset of the workers
        active = rng.choice(n, size=int(rng.integers(coverage, n + 1)),
                            replace=False)
        counts = np.zeros(n, dtype=np.int64)
        while counts.sum() < coverage * num_chunks:
            room = active[counts[active] < num_chunks]
            counts[rng.choice(room)] += 1
        return wraparound_plan(counts, coverage, num_chunks)
    exact = GeneralS2C2Scheduler(coverage, num_chunks).plan(
        rng.uniform(0.3, 2.0, n)
    )
    if kind == "exact":
        return exact
    if kind == "over-covered":  # some arcs grown past exact coverage
        arcs = PlanBatch.from_plans([exact])
        grow = rng.integers(1, 4, n) * (rng.random(n) < 0.5)
        count = np.minimum(num_chunks, arcs.count + grow)
        return PlanBatch(arcs.begin, count, coverage, num_chunks)[0]
    # Not one arc per worker: every chunk but a punched-out range, split
    # into a head and a tail.
    assignments = []
    for w in range(n):
        a, b = sorted(rng.integers(0, num_chunks + 1, 2).tolist())
        if rng.random() < 0.4:
            a, b = num_chunks, num_chunks
        ranges = tuple(r for r in ((0, a), (b, num_chunks)) if r[1] > r[0])
        assignments.append(ChunkAssignment(w, ranges))
    return CodedWorkPlan(n, num_chunks, coverage, tuple(assignments))


def _case(seed, backend):
    """A simulator, a plan of a random kind, speeds and a failure set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    coverage = int(rng.integers(1, n + 1))
    num_chunks = int(rng.integers(1, 25))
    rows = num_chunks * int(rng.integers(1, 4)) + int(rng.integers(0, num_chunks))
    timeout = None
    if rng.random() < 0.8:
        timeout = TimeoutPolicy(
            slack=float(rng.choice([0.0, 0.05, 0.15])),
            min_responses=(
                None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
            ),
        )
    sim = BACKENDS[backend](
        grid=ChunkGrid(rows, num_chunks),
        width=int(rng.integers(4, 65)),
        fixed_task_flops=float(rng.choice([0.0, 0.0, 3e4])),
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
        timeout=timeout,
    )
    kind = PLAN_KINDS[int(rng.integers(len(PLAN_KINDS)))]
    plan = _plan(rng, kind, n, coverage, num_chunks)
    if rng.random() < 0.3:  # tied speeds
        speeds = rng.choice([0.5, 1.0, 1.0, 2.0], size=n)
    else:
        speeds = np.exp(rng.normal(0.0, 0.5, n))
    speeds = np.where(rng.random(n) < 0.3, speeds / 8.0, speeds)
    failed = frozenset(np.flatnonzero(rng.random(n) < 0.15).tolist())
    return sim, plan, speeds, failed


def assert_run_equals_walk(sim, plan, speeds, failed):
    """``run`` == the frozen walk, field for field; returns the outcome.

    Contributions must match in key order too: the sessions feed them to
    the decoder in that order.  ``None`` when both raise "cannot complete".
    """
    try:
        want = reference_run(sim, plan, speeds, failed)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="cannot complete"):
            sim.run(plan, speeds, failed)
        return None
    got = sim.run(plan, speeds, failed)
    assert got.completion_time == want.completion_time
    assert got.broadcast_time == want.broadcast_time
    assert got.decode_time == want.decode_time
    assert got.repaired == want.repaired
    assert got.timed_out_workers == want.timed_out_workers
    assert list(got.contributions) == list(want.contributions)
    for w, chunks in want.contributions.items():
        assert got.contributions[w].dtype == chunks.dtype, w
        np.testing.assert_array_equal(got.contributions[w], chunks)
    assert got.workers == want.workers  # rows, response times, cancellations
    return want


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_run_equals_the_frozen_walk(backend, seed):
    assert_run_equals_walk(*_case(seed, backend))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fixed_seeds_reach_every_route(backend):
    # The generator must reach what the property is about: general plans
    # finishing naturally and repaired, and repairs that recruit idle
    # workers — one of them with no reassigned chunk, so it contributes
    # an empty array.
    general = repaired_general = idle_recruits = empty_recruits = 0
    for seed in range(300):
        sim, plan, speeds, failed = _case(seed, backend)
        outcome = assert_run_equals_walk(sim, plan, speeds, failed)
        if outcome is None:
            continue
        batch = PlanBatch.from_plans([plan])
        is_general = not (batch.full[0] or batch.exact[0])
        general += is_general
        repaired_general += is_general and outcome.repaired
        if outcome.repaired:
            idle = [w for w, s in enumerate(outcome.workers)
                    if not s.assigned_rows and w in outcome.contributions]
            idle_recruits += bool(idle)
            empty_recruits += any(
                not outcome.contributions[w].size for w in idle
            )
    assert general >= 40
    assert repaired_general >= 10
    assert idle_recruits >= 5
    assert empty_recruits >= 1


def _speed_rows(rng, trials, n, coverage):
    """Speeds over several decades, with dead, tied, capped and sparse rows."""
    speeds = 10.0 ** rng.uniform(-3.0, 3.0, (trials, n))
    if rng.random() < 0.3:  # ties
        speeds = rng.choice([0.5, 1.0, 1.0, 2.0], size=(trials, n))
    if rng.random() < 0.5:  # a few workers fast enough to hit the cap
        speeds = np.where(rng.random((trials, n)) < 0.15, speeds * 1e4, speeds)
    dead = rng.random((trials, n)) < rng.uniform(0.0, 0.4)
    speeds = np.where(dead, rng.choice([0.0, -0.0, -1.0], (trials, n)), speeds)
    if rng.random() < 0.3:  # rows with fewer than ``coverage`` alive
        below = rng.random(trials) < 0.5
        keep = max(coverage - 1, 0)
        for t in np.flatnonzero(below):
            speeds[t, rng.permutation(n)[keep:]] = 0.0
    return speeds


def _sim(backend, rng, num_chunks, timeout):
    rows = num_chunks * int(rng.integers(1, 4)) + int(rng.integers(0, num_chunks))
    return BACKENDS[backend](
        grid=ChunkGrid(rows, num_chunks),
        width=int(rng.integers(8, 65)),
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
        timeout=timeout,
    )


class TestKernelReadsTheBatch:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        coverage=st.integers(1, 12),
        num_chunks=st.integers(1, 120),
        trials=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_batch_equals_looped_walk(
        self, backend, seed, n, coverage, num_chunks, trials
    ):
        rng = np.random.default_rng(seed)
        coverage = min(coverage, n)
        scheduler = [
            GeneralS2C2Scheduler(coverage, num_chunks),
            BasicS2C2Scheduler(coverage, num_chunks),
            StaticCodedScheduler(coverage, num_chunks),
        ][int(rng.integers(3))]
        batch = plan_batch(scheduler, _speed_rows(rng, trials, n, coverage))
        slack = float(rng.choice([0.0, 0.15]))
        timeout = None if rng.random() < 0.3 else TimeoutPolicy(slack=slack)
        sim = _sim(backend, rng, num_chunks, timeout)
        speeds = np.exp(rng.normal(0.0, 0.5, (trials, n)))
        speeds = np.where(rng.random((trials, n)) < 0.3, speeds / 8.0, speeds)
        failed = [
            frozenset(np.flatnonzero(rng.random(n) < 0.1).tolist())
            for _ in range(trials)
        ]
        try:
            looped = [
                reference_run(sim, batch[t], speeds[t], failed[t])
                for t in range(trials)
            ]
        except RuntimeError:
            with pytest.raises(RuntimeError, match="cannot complete"):
                sim.run_batch(batch, speeds, failed)
            return
        out = sim.run_batch(batch, speeds, failed)
        for t, scalar in enumerate(looped):
            assert out.completion_time[t] == scalar.completion_time, t
            assert out.decode_time[t] == scalar.decode_time, t
            assert out.broadcast_time == scalar.broadcast_time
            assert bool(out.repaired[t]) == scalar.repaired, t
            for w, stat in enumerate(scalar.workers):
                assert out.assigned_rows[t, w] == stat.assigned_rows, (t, w)
                assert out.computed_rows[t, w] == stat.computed_rows, (t, w)
                assert out.used_rows[t, w] == stat.used_rows, (t, w)
                assert bool(out.responded[t, w]) == (
                    stat.response_time is not None and not stat.cancelled
                ), (t, w)
