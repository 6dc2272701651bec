"""Fuzzed batched-vs-loop equivalence of the §4.3 repair path, both backends.

``run_batch`` repairs every armed trial of a call in one array pass (the
closed-form cutoff plus one batched ``repair_assignments`` fill); the
frozen scalar walk (``coded_reference.py``) walks the cutoffs per trial,
and on the event backend the discrete-event loop (``event_oracle.py``)
does.  Each trial must come out bitwise equal.  The cases fuzz what the fixed suites hold still: grids
whose rows are not a multiple of the chunk count (uneven chunk sizes, so
the reassigned rows differ per chunk), full and exact plans, idle workers,
failures, tied speeds, ``min_responses`` and ``fixed_task_flops`` — and,
on the event backend, links so degraded that a worker's broadcast copy
can outlive the §4.3 timeout.  Neither backend may replay a single trial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler, wraparound_plan
from repro.scheduling.timeout import TimeoutPolicy

from coded_reference import reference_run
from event_oracle import event_loop_outcome

BACKENDS = {"closed": CodedIterationSim, "event": EventDrivenIterationSim}


def _exact_plan_with_idle(rng, n, coverage, num_chunks):
    """A wraparound exact-coverage plan leaving some workers idle."""
    active = rng.choice(n, size=int(rng.integers(coverage, n + 1)), replace=False)
    counts = np.zeros(n, dtype=np.int64)
    while counts.sum() < coverage * num_chunks:
        room = active[counts[active] < num_chunks]
        counts[rng.choice(room)] += 1
    return wraparound_plan(counts, coverage, num_chunks)


def _random_case(rng, backend):
    """A simulator, per-trial plans, speeds, failure sets and link factors."""
    n = int(rng.integers(3, 11))
    coverage = int(rng.integers(1, n))
    num_chunks = int(rng.integers(2, 31))
    rows = num_chunks * int(rng.integers(1, 5)) + int(rng.integers(1, num_chunks))
    trials = int(rng.integers(2, 10))
    sim = BACKENDS[backend](
        grid=ChunkGrid(rows, num_chunks),
        width=int(rng.integers(8, 65)),
        fixed_task_flops=float(rng.choice([0.0, 0.0, 3e4])),
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
        timeout=TimeoutPolicy(
            slack=float(rng.choice([0.0, 0.05, 0.15, 0.5])),
            min_responses=(
                None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
            ),
        ),
    )
    scheduler = GeneralS2C2Scheduler(coverage=coverage, num_chunks=num_chunks)
    plans = []
    for _ in range(trials):
        kind = rng.choice(["s2c2", "idle", "full"])
        if kind == "s2c2":  # built from stale predictions
            plans.append(scheduler.plan(rng.uniform(0.5, 2.0, n)))
        elif kind == "idle":
            plans.append(_exact_plan_with_idle(rng, n, coverage, num_chunks))
        else:
            plans.append(full_plan(n, num_chunks, coverage))
    if rng.random() < 0.5:  # tied speeds
        speeds = rng.choice([0.5, 1.0, 1.0, 2.0], size=(trials, n))
    else:
        speeds = np.exp(rng.normal(0.0, 0.4, size=(trials, n)))
    stragglers = rng.random((trials, n)) < 0.3
    speeds = np.where(stragglers, speeds / rng.choice([3.0, 10.0]), speeds)
    failed = [
        frozenset(np.flatnonzero(rng.random(n) < 0.1).tolist())
        for _ in range(trials)
    ]
    factors = None
    if backend == "event" and rng.random() < 0.5:
        factors = np.where(
            rng.random((trials, n)) < 0.4,
            rng.choice([1e-3, 0.01, 0.05, 0.25], size=(trials, n)),
            1.0,
        )
    return sim, plans, speeds, failed, factors


def _assert_batch_equals_loop(sim, plans, speeds, failed, factors=None):
    """``run_batch`` == the per-trial reference bitwise, no trial replayed.

    The reference is the frozen walk on the closed backend and the event
    loop over ``factors``-degraded links on the event backend.
    """
    kwargs = {}
    if isinstance(sim, EventDrivenIterationSim):
        kwargs["link_factors"] = factors
        rows = [None] * len(plans) if factors is None else list(factors)
        looped_args = zip(plans, speeds, failed, rows)
        reference = lambda *args: event_loop_outcome(sim, *args)  # noqa: E731
    else:
        looped_args = zip(plans, speeds, failed)
        reference = lambda *args: reference_run(sim, *args)  # noqa: E731
    try:
        looped = [reference(*args) for args in looped_args]
    except RuntimeError:
        looped = None  # some trial cannot complete: the batch must raise too

    def no_replay(*args, **kwargs):
        raise AssertionError("run_batch replayed a trial through run")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(sim), "run", no_replay)
        if looped is None:
            with pytest.raises(RuntimeError, match="cannot complete"):
                sim.run_batch(plans, speeds, failed, **kwargs)
            return None
        batch = sim.run_batch(plans, speeds, failed, **kwargs)
    for t, scalar in enumerate(looped):
        assert batch.completion_time[t] == scalar.completion_time, f"trial {t}"
        assert batch.decode_time[t] == scalar.decode_time, f"trial {t}"
        assert batch.broadcast_time == scalar.broadcast_time
        assert bool(batch.repaired[t]) == scalar.repaired, f"trial {t}"
        for w, stat in enumerate(scalar.workers):
            assert batch.assigned_rows[t, w] == stat.assigned_rows
            assert batch.computed_rows[t, w] == stat.computed_rows, (t, w)
            assert batch.used_rows[t, w] == stat.used_rows, (t, w)
            assert bool(batch.responded[t, w]) == (
                stat.response_time is not None and not stat.cancelled
            ), (t, w)
    return batch


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fuzzed_repair_batch_matches_loop(backend, seed):
    rng = np.random.default_rng(seed)
    _assert_batch_equals_loop(*_random_case(rng, backend))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fixed_seeds_exercise_uneven_repairs(backend):
    # The fuzz generator must actually reach the native repair: across a
    # fixed set of seeds, repairs are accepted and reassign chunks of
    # uneven sizes, so ``extra_rows`` sums unequal chunk sizes.
    repaired = uneven = 0
    for seed in range(40):
        sim, plans, speeds, failed, factors = _random_case(
            np.random.default_rng(seed), backend
        )
        batch = _assert_batch_equals_loop(sim, plans, speeds, failed, factors)
        if batch is None:
            continue
        repaired += int(batch.repaired.sum())
        sizes = sim.grid.chunk_sizes()
        uneven += int(batch.repaired.any() and sizes.min() != sizes.max())
    assert repaired >= 20
    assert uneven >= 10


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_deadline_rounded_below_every_arrival_finds_no_helper(backend):
    # The mean of k equal responses can round below them.  With zero slack
    # the deadline then precedes every arrival: the scalar walk finds no
    # finished helper at its first cutoff and gives up, so the batch must
    # not repair either (although k workers finish soon after).
    sim = BACKENDS[backend](
        grid=ChunkGrid(40, 4),
        width=16,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
        timeout=TimeoutPolicy(slack=0.0),
    )
    plan = wraparound_plan(np.array([3, 3, 3, 3]), 3, 4)
    for speed in np.linspace(0.5, 2.0, 3001):
        speeds = np.array([[speed, speed, speed, speed / 10]])
        arrival = sim.run(plan, speeds[0]).workers[0].response_time
        if np.mean(np.full(3, arrival)) < arrival:
            break
    else:
        pytest.fail("no speed rounds the mean below the arrivals")
    batch = _assert_batch_equals_loop(sim, [plan], speeds, [frozenset()])
    assert not batch.repaired[0]
