"""The batched event kernel: bitwise-equal to the per-trial event loop.

:meth:`EventDrivenIterationSim.run_batch` precomputes the event
timeline's schedules as ``(trials, workers)`` arrays and replays only
provably-diverging trials through the scalar event loop.  The suite pins
the repo's standard contract — batched output bitwise-equal to looping
:meth:`EventDrivenIterationSim.run` — over fuzzed composed scenarios
with per-trial failures, degraded link factors, and repair-armed trials
at trials ∈ {1, 7, 64}, and checks the divergence detector's routing:
contention-heavy scenarios (``rackcongest`` under an armed timeout,
shared-rack topologies) must take the scalar fallback and still match,
while queue-free batches must never touch it.
"""

import numpy as np
import pytest

from repro.cluster.events import (
    EventConfig,
    EventDrivenIterationSim,
    link_factors_batch,
)
from repro.cluster.fuzz import generate_scenario
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import scenario_batch
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

# Controlled-cluster network (the experiment harness default).
SLOW_NET = NetworkModel(latency=5e-6, bandwidth=2.5e8)
# Network-dominated regime: transfers dwarf compute, so link-degraded
# workers straggle hard enough to arm the §4.3 timeout.
HEAVY_NET = NetworkModel(latency=1e-4, bandwidth=1e6)
COST = CostModel(worker_flops=1e6)

POPULATION_SEED = 23


def make_event_sim(network=SLOW_NET, timeout=None, config=None, rows=120,
                   chunks=60, width=10, cost=COST):
    kwargs = dict(
        grid=ChunkGrid(rows, chunks),
        width=width,
        network=network,
        cost=cost,
        timeout=timeout,
    )
    if config is not None:
        kwargs["config"] = config
    return EventDrivenIterationSim(**kwargs)


def assert_batch_equals_loop(sim, plans, speeds, failed_list, factors):
    """The pinned contract: run_batch == looping run, field for field."""
    trials = speeds.shape[0]
    plan_list = plans if isinstance(plans, list) else [plans] * trials
    factor_rows = (
        [None] * trials if factors is None else [factors[t] for t in range(trials)]
    )
    loop = []
    for t in range(trials):
        try:
            loop.append(
                sim.run(plan_list[t], speeds[t], failed_list[t], factor_rows[t])
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
    factors = link_factors_batch(model, 2)
    return plan, chunks, timeout, failed_list, speeds, factors


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
        # netslow degrades a persistent subset of links; an armed trial
        # with non-unit factors must take the fallback and still match.
        n, k, chunks = 8, 5, 40
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks,
                             network=HEAVY_NET, width=16)
        plan = full_plan(n, chunks, k)
        model = scenario_batch("netslow", n, [17 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        factors = link_factors_batch(model, 1)
        assert factors is not None and np.any(factors != 1.0)
        failed_list = [frozenset()] * trials
        assert_batch_equals_loop(sim, plan, speeds, failed_list, factors)

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


class TestDivergenceDetector:
    """The conservative routing: fallback exactly where ordering can diverge."""

    def _count_scalar_runs(self, monkeypatch, sim, *args, **kwargs):
        calls = []
        original = EventDrivenIterationSim.run

        def counting(self, *a, **k):
            calls.append(1)
            return original(self, *a, **k)

        monkeypatch.setattr(EventDrivenIterationSim, "run", counting)
        batch = sim.run_batch(*args, **kwargs)
        monkeypatch.undo()
        return batch, len(calls)

    def test_rackcongest_contention_routes_to_fallback(self, monkeypatch):
        # Rack-wide congestion slows whole racks' links; under an armed
        # timeout those trials are not provably queue-free, so the
        # detector must replay at least one through the scalar loop —
        # and the batch must still match it bitwise.
        n, k, chunks, trials = 8, 5, 40, 32
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks,
                             network=HEAVY_NET, width=16)
        plan = full_plan(n, chunks, k)
        expr = ("rackcongest(congest_prob=0.5,n_racks=2,recover_prob=0.2,"
                "slowdown=4.0)")
        model = scenario_batch(expr, n, [11 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        factors = link_factors_batch(model, 1)
        failed_list = [frozenset()] * trials
        expected = assert_batch_equals_loop(
            sim, plan, speeds, failed_list, factors
        )
        assert expected is not None
        _batch, calls = self._count_scalar_runs(
            monkeypatch, sim, plan, speeds,
            failed_workers=failed_list, link_factors=factors,
        )
        assert calls >= 1  # the contention-heavy trials took the fallback
        assert calls < trials  # ...but the queue-free ones stayed batched

    def test_armed_unit_link_trials_resolve_natively(self, monkeypatch):
        # bursty speeds + flat links: the repair round is queue-free, so
        # even repaired trials must never touch the scalar loop.
        n, k, chunks, trials = 8, 5, 40, 32
        sim = make_event_sim(timeout=TimeoutPolicy(slack=0.05), chunks=chunks)
        # A mis-predicted S2C2 plan under bursty actual speeds: the
        # repair-heavy shape of the bench's repair-path micro-bench.
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
            np.ones(n)
        )
        model = scenario_batch("bursty", n, [13 * t for t in range(trials)])
        speeds = model.speeds_batch(1)
        assert link_factors_batch(model, 1) is None
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

    def test_rack_topology_replays_every_trial(self, monkeypatch):
        # Shared ToR links can queue: nothing is provably safe, so the
        # config-level detector must replay the whole batch.
        n, k, chunks, trials = 8, 5, 40, 5
        sim = make_event_sim(chunks=chunks, config=EventConfig(rack_size=4))
        plan = full_plan(n, chunks, k)
        speeds = np.exp(np.random.default_rng(3).normal(0.0, 0.5, (trials, n)))
        failed_list = [frozenset()] * trials
        assert_batch_equals_loop(sim, plan, speeds, failed_list, None)
        _batch, calls = self._count_scalar_runs(
            monkeypatch, sim, plan, speeds, failed_workers=failed_list
        )
        assert calls == trials

    @pytest.mark.parametrize("slack", [None, 0.05])
    def test_general_plan_replays_each_trial_once(
        self, monkeypatch, general_plan, slack
    ):
        # Neither full nor exact coverage: no analytic completion, so
        # every trial replays through the event loop, armed or not.
        timeout = None if slack is None else TimeoutPolicy(slack=slack)
        sim = make_event_sim(timeout=timeout, chunks=4)
        trials = 64
        speeds = np.exp(np.random.default_rng(5).normal(0.0, 0.6, (trials, 4)))
        failed_list = [frozenset()] * trials
        expected = assert_batch_equals_loop(
            sim, general_plan, speeds, failed_list, None
        )
        if timeout is not None:
            assert expected.repaired.any() and not expected.repaired.all()
        _batch, calls = self._count_scalar_runs(
            monkeypatch, sim, general_plan, speeds, failed_workers=failed_list
        )
        assert calls == trials

    def test_shuffle_output_replays_every_trial(self, monkeypatch):
        n, k, chunks, trials = 6, 4, 30, 3
        sim = make_event_sim(chunks=chunks,
                             config=EventConfig(shuffle_output=True))
        plan = full_plan(n, chunks, k)
        speeds = np.ones((trials, n))
        _batch, calls = self._count_scalar_runs(
            monkeypatch, sim, plan, speeds,
            failed_workers=[frozenset()] * trials,
        )
        assert calls == trials


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
