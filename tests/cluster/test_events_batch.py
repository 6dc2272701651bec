"""The batched event kernel: bitwise-equal to the per-trial event loop.

:meth:`EventDrivenIterationSim.run_batch` evaluates the event timeline as
``(trials, workers)`` arrays for ``CodedIterationSim``'s batched kernel,
with no per-trial replay.  The suite pins it against the discrete-event
loop kept as the oracle (``event_oracle.py``) — batched output bitwise-equal
to looping the loop — over fuzzed composed scenarios with per-trial
failures, degraded link factors, and repair-armed trials at trials ∈ {1, 7,
64}, on links so degraded that a worker's broadcast copy is still in
flight when the §4.3 timeout fires, and on general (over-covered) plans.
No trial may leave the kernel.
"""

import numpy as np
import pytest

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.fuzz import generate_scenario
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import scenario_batch
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler, wraparound_plan
from repro.scheduling.timeout import TimeoutPolicy

from event_oracle import event_loop_outcome

# Controlled-cluster network (the experiment harness default).
SLOW_NET = NetworkModel(latency=5e-6, bandwidth=2.5e8)
# Network-dominated regime: transfers dwarf compute, so link-degraded
# workers straggle hard enough to arm the §4.3 timeout.
HEAVY_NET = NetworkModel(latency=1e-4, bandwidth=1e6)
COST = CostModel(worker_flops=1e6)

POPULATION_SEED = 23


def make_event_sim(network=SLOW_NET, timeout=None, rows=120, chunks=60,
                   width=10, cost=COST, cls=EventDrivenIterationSim):
    return cls(
        grid=ChunkGrid(rows, chunks),
        width=width,
        network=network,
        cost=cost,
        timeout=timeout,
    )


def assert_batch_equals_loop(sim, plans, speeds, failed_list, factors):
    """The pinned contract: run_batch == looping the event loop, bitwise."""
    trials = speeds.shape[0]
    plan_list = plans if isinstance(plans, list) else [plans] * trials
    factor_rows = (
        [None] * trials if factors is None else [factors[t] for t in range(trials)]
    )
    loop = []
    for t in range(trials):
        try:
            loop.append(
                event_loop_outcome(
                    sim, plan_list[t], speeds[t], failed_list[t], factor_rows[t]
                )
            )
        except RuntimeError:
            # An unsatisfiable trial poisons the whole batch the same way.
            with pytest.raises(RuntimeError, match="cannot complete"):
                sim.run_batch(
                    plans, speeds, failed_workers=failed_list,
                    link_factors=factors,
                )
            return None
    batch = sim.run_batch(
        plans, speeds, failed_workers=failed_list, link_factors=factors
    )
    np.testing.assert_array_equal(
        batch.completion_time, [o.completion_time for o in loop]
    )
    np.testing.assert_array_equal(
        batch.decode_time, [o.decode_time for o in loop]
    )
    np.testing.assert_array_equal(batch.repaired, [o.repaired for o in loop])
    for t, outcome in enumerate(loop):
        assert batch.broadcast_time == outcome.broadcast_time
        for w, stat in enumerate(outcome.workers):
            assert batch.assigned_rows[t, w] == stat.assigned_rows, (t, w)
            assert batch.computed_rows[t, w] == stat.computed_rows, (t, w)
            assert batch.used_rows[t, w] == stat.used_rows, (t, w)
            assert batch.responded[t, w] == (
                stat.response_time is not None and not stat.cancelled
            ), (t, w)
    return batch


def _fuzz_batch_case(case, trials):
    """One seeded draw: composed scenario, plan, timeout, failures, factors."""
    scenario = generate_scenario(POPULATION_SEED, case)
    rng = np.random.default_rng(40_000 + case)
    n = int(rng.integers(6, 11))
    k = int(rng.integers(3, n - 1))
    chunks = int(rng.integers(3 * n, 6 * n))
    if case % 3 == 0:
        plan = full_plan(n, chunks, k)
    else:
        predicted = np.exp(rng.normal(0.0, 0.5, n))
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
            predicted
        )
    timeout = (
        None,
        TimeoutPolicy(slack=0.1),
        TimeoutPolicy(slack=0.01, min_responses=min(3, k)),
    )[case % 3]
    failed_list = [
        frozenset({int(rng.integers(n))}) if rng.random() < 0.25 else frozenset()
        for _ in range(trials)
    ]
    seeds = [1000 * case + t for t in range(trials)]
    model = scenario_batch(scenario, n, seeds)
    speeds = model.speeds_batch(2)
    factors = model.link_factors_batch(2)
    return plan, chunks, timeout, failed_list, speeds, factors


def _mispredicted_plan(k, chunks, predicted):
    """An exact-coverage S2C2 plan built for ``predicted``, not the speeds."""
    return GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(predicted)


def _assert_repairs_ride_degraded_links(batch, factors):
    """Some repaired trial has a helper on a degraded link that took rows."""
    extra = batch.used_rows > batch.assigned_rows
    assert np.any(extra & batch.repaired[:, None] & (factors != 1.0))


class TestBatchedKernelEquivalence:
    @pytest.mark.parametrize("trials", [1, 7, 64])
    @pytest.mark.parametrize("case", range(0, 12))
    def test_fuzzed_scenarios_bitwise_equal(self, case, trials):
        plan, chunks, timeout, failed_list, speeds, factors = _fuzz_batch_case(
            case, trials
        )
        sim = make_event_sim(timeout=timeout, chunks=chunks)
        assert_batch_equals_loop(sim, plan, speeds, failed_list, factors)

    @pytest.mark.parametrize("trials", [1, 7, 64])
    def test_degraded_links_with_armed_repair(self, trials):
        # netslow degrades a persistent subset of links under a
        # mis-predicted exact-coverage plan: armed trials reassign chunks
        # to helpers, whose repair replies carry rows over their links.
        n, k, chunks = 8, 5, 40
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks,
                             network=HEAVY_NET, width=16)
        # Expects the upper half of the workers to run twice as fast.
        plan = _mispredicted_plan(k, chunks, np.repeat([1.0, 2.0], n // 2))
        model = scenario_batch("netslow", n, [17 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        factors = model.link_factors_batch(1)
        assert factors is not None and np.any(factors != 1.0)
        failed_list = [frozenset()] * trials
        batch = assert_batch_equals_loop(sim, plan, speeds, failed_list, factors)
        _assert_repairs_ride_degraded_links(batch, factors)

    def test_per_trial_plans_and_failures(self):
        # Distinct plan objects per trial exercise the per-plan profiling.
        n, k, chunks, trials = 8, 5, 40, 7
        rng = np.random.default_rng(7)
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.1), chunks=chunks)
        plans = [
            GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
                np.exp(rng.normal(0.0, 0.4, n))
            )
            for _ in range(trials)
        ]
        speeds = np.exp(rng.normal(0.0, 0.6, (trials, n)))
        failed_list = [
            frozenset({t % n}) if t % 2 else frozenset() for t in range(trials)
        ]
        assert_batch_equals_loop(sim, plans, speeds, failed_list, None)


class TestExtremeLinkFactors:
    """Links so degraded that a broadcast copy outlives the §4.3 timeout.

    Two orderings follow that unit links never reach: a worker whose task
    has not started when the timeout fires has no arrival the master can
    foresee, so it stays a laggard of the repair; and an idle helper's
    repair request queues behind its broadcast copy.  The kernel must
    still reproduce the event loop bitwise (fuzzed in
    ``test_repair_batch.py``; one case of each here).
    """

    def test_late_broadcast_leaves_a_worker_out_of_the_search(self):
        # Workers 4 and 5 receive their broadcast copies long after the
        # first response armed (k = 1, slack 0) and fired the timeout: the
        # repair search cannot foresee their arrivals, so no cutoff reaches
        # the 5 helpers coverage needs and the master waits instead.
        sim = make_event_sim(
            timeout=TimeoutPolicy(slack=0.0, min_responses=1),
            rows=24, chunks=2, width=16, cost=CostModel(worker_flops=5e7),
        )
        plan = wraparound_plan(np.array([2, 2, 2, 2, 1, 1]), 5, 2)
        factors = np.array([[1.0, 1.0, 1.0, 1.0, 1e-3, 1e-4]])
        batch = assert_batch_equals_loop(
            sim, plan, np.ones((1, 6)), [frozenset()], factors
        )
        assert not batch.repaired[0]

    def test_idle_helper_request_queues_behind_its_broadcast(self):
        # Worker 3 computes nothing and sits on a slow link; recruited as
        # a repair helper, it receives the request only after its
        # broadcast copy, and the repair is timed from there.
        sim = make_event_sim(
            timeout=TimeoutPolicy(slack=0.1, min_responses=1),
            rows=40, chunks=4, width=16, cost=CostModel(worker_flops=5e7),
        )
        plan = wraparound_plan(np.array([4, 4, 4, 0]), 3, 4)
        speeds = np.array([[4.0, 8.0, 0.1, 8.0]])
        factors = np.array([[1.0, 1.0, 1.0, 0.01]])
        batch = assert_batch_equals_loop(
            sim, plan, speeds, [frozenset()], factors
        )
        assert batch.repaired[0]
        assert batch.computed_rows[0, 3] > 0


class TestOneRoute:
    """Every event trial resolves in the kernel, whatever its plan."""

    def _count_scalar_runs(self, monkeypatch, sim, *args, **kwargs):
        calls = []
        original = CodedIterationSim.run

        def counting(self, *a, **k):
            calls.append(1)
            return original(self, *a, **k)

        monkeypatch.setattr(CodedIterationSim, "run", counting)
        batch = sim.run_batch(*args, **kwargs)
        monkeypatch.undo()
        return batch, len(calls)

    def test_rackcongest_contention_resolves_natively(self, monkeypatch):
        # Rack-wide congestion slows whole racks' links, and an armed
        # timeout repairs a mis-predicted exact-coverage plan over them:
        # the kernel prices each repair reply on its link, matches the
        # loop bitwise, and replays nothing.
        n, k, chunks, trials = 8, 5, 40, 32
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks,
                             network=HEAVY_NET, width=16)
        plan = _mispredicted_plan(
            k, chunks, np.exp(np.random.default_rng(45).normal(0.0, 0.5, n))
        )
        expr = ("rackcongest(congest_prob=0.5,n_racks=2,recover_prob=0.2,"
                "slowdown=4.0)")
        model = scenario_batch(expr, n, [11 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        factors = model.link_factors_batch(1)
        failed_list = [frozenset()] * trials
        expected = assert_batch_equals_loop(
            sim, plan, speeds, failed_list, factors
        )
        assert expected is not None
        _assert_repairs_ride_degraded_links(expected, factors)
        _batch, calls = self._count_scalar_runs(
            monkeypatch, sim, plan, speeds,
            failed_workers=failed_list, link_factors=factors,
        )
        assert calls == 0

    def test_armed_unit_link_trials_resolve_natively(self, monkeypatch):
        # bursty speeds + flat links: even repaired trials must never
        # touch the scalar path.
        n, k, chunks, trials = 8, 5, 40, 32
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks)
        # A mis-predicted S2C2 plan under bursty actual speeds: the
        # repair-heavy shape of the bench's repair-path micro-bench.
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
            np.ones(n)
        )
        model = scenario_batch("bursty", n, [13 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        assert model.link_factors_batch(1) is None
        failed_list = [frozenset()] * trials
        expected = assert_batch_equals_loop(
            sim, plan, speeds, failed_list, None
        )
        assert expected is not None
        assert np.any(expected.repaired)  # the repair path was exercised
        batch, calls = self._count_scalar_runs(
            monkeypatch, sim, plan, speeds, failed_workers=failed_list
        )
        assert calls == 0
        np.testing.assert_array_equal(
            batch.completion_time, expected.completion_time
        )

    @pytest.mark.parametrize("slack", [None, 0.05])
    def test_general_plan_takes_the_kernel(
        self, monkeypatch, general_plan, slack
    ):
        # Neither full nor exact coverage: the kernel's coverage walk
        # completes it, armed or not, over degraded links and with
        # failures, bitwise-equal to the event loop and with no call to
        # ``run``; a batch mixing plan shapes takes the same kernel.
        timeout = None if slack is None else TimeoutPolicy(slack=slack)
        sim = make_event_sim(timeout=timeout, chunks=4, network=HEAVY_NET,
                             width=16)
        trials = 64
        rng = np.random.default_rng(5)
        speeds = np.exp(rng.normal(0.0, 0.6, (trials, 4)))
        factors = np.where(
            rng.random((trials, 4)) < 0.3, rng.uniform(0.02, 0.5, (trials, 4)),
            1.0,
        )
        failed_list = [
            frozenset({t % 4}) if t % 5 == 0 else frozenset()
            for t in range(trials)
        ]
        mixed = [general_plan if t % 2 else full_plan(4, 4, 2)
                 for t in range(trials)]
        expected = assert_batch_equals_loop(
            sim, mixed, speeds, failed_list, factors
        )
        if timeout is not None:
            assert expected.repaired[1::2].any()
            assert not expected.repaired[1::2].all()
        batch, calls = self._count_scalar_runs(
            monkeypatch, sim, mixed, speeds,
            failed_workers=failed_list, link_factors=factors,
        )
        assert calls == 0
        np.testing.assert_array_equal(
            batch.completion_time, expected.completion_time
        )


class TestBatchValidation:
    def test_check_factors_stays_an_array(self):
        # The scalar validator must hand back numpy arrays (no per-call
        # list[float] conversion on the hot path).
        assert isinstance(EventDrivenIterationSim._check_factors(None, 4),
                          np.ndarray)
        out = EventDrivenIterationSim._check_factors([0.5, 1.0, 1.0, 1.0], 4)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [0.5, 1.0, 1.0, 1.0])

    def test_batch_factor_shape_is_validated(self):
        sim = make_event_sim()
        plan = full_plan(4, 60, 2)
        speeds = np.ones((3, 4))
        with pytest.raises(ValueError, match=r"\(3, 4\)"):
            sim.run_batch(plan, speeds, link_factors=np.ones((3, 5)))
        with pytest.raises(ValueError, match="positive and finite"):
            sim.run_batch(plan, speeds, link_factors=np.zeros((3, 4)))

    def test_plan_count_and_width_are_validated(self):
        sim = make_event_sim()
        speeds = np.ones((3, 4))
        with pytest.raises(ValueError, match="2 plans for 3 trials"):
            sim.run_batch([full_plan(4, 60, 2)] * 2, speeds)
        with pytest.raises(ValueError, match="worker count"):
            sim.run_batch([full_plan(5, 60, 2)] * 3, speeds)
