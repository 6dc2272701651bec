"""Tests for the event backend and the discrete-event loop that pins it.

Three layers of guarantees:

* **event-loop invariants** — the oracle loop (``event_oracle.py``) pops
  in nondecreasing order with deterministic tie-breaks, checked as
  hypothesis properties over arbitrary schedules and over the audit
  history of fuzzed scenario runs;
* **bitwise equivalence** — the loop equals :class:`CodedIterationSim`
  float-for-float on real networks with unit link factors and in the
  zero-network limit for *any* link factors, and
  :meth:`EventDrivenIterationSim.run_batch` equals the loop on every case
  (the engine-level policy × scenario pinning lives in
  ``tests/engine/test_event_equivalence.py``);
* **conservation and ledger properties** — every dispatched task
  terminates exactly once, and every byte a worker sent or received is
  accounted on exactly the links it crossed.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.compose import OPERAND_SEED_STRIDE
from repro.cluster.events import (
    EventDrivenIterationSim,
    available_backends,
    check_backend,
)
from repro.cluster.fuzz import generate_scenario
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import scenario_batch, scenario_speed_model
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

from event_oracle import (
    Event,
    EventLoop,
    Link,
    Topology,
    event_loop_outcome,
    run_event_loop,
)

# Fast network so compute dominates, as on the paper's InfiniBand cluster.
NET = NetworkModel(latency=1e-6, bandwidth=1e12)
# Controlled-cluster network (the experiment harness default).
SLOW_NET = NetworkModel(latency=5e-6, bandwidth=2.5e8)
# The limit where transfers vanish and link factors are irrelevant.
ZERO_NET = NetworkModel(latency=0.0, bandwidth=float("inf"))
COST = CostModel(worker_flops=1e6)


def make_sims(network=NET, timeout=None, rows=120, chunks=60, width=10):
    """A (closed, event) simulator pair sharing every analytic knob."""
    kwargs = dict(
        grid=ChunkGrid(rows, chunks),
        width=width,
        network=network,
        cost=COST,
        timeout=timeout,
    )
    return CodedIterationSim(**kwargs), EventDrivenIterationSim(**kwargs)


def assert_outcomes_bitwise_equal(a, b):
    """Full-outcome equality, float fields compared with ``==`` (bitwise)."""
    assert a.completion_time == b.completion_time
    assert a.broadcast_time == b.broadcast_time
    assert a.decode_time == b.decode_time
    assert a.repaired == b.repaired
    assert a.timed_out_workers == b.timed_out_workers
    assert sorted(a.contributions) == sorted(b.contributions)
    for w in a.contributions:
        np.testing.assert_array_equal(a.contributions[w], b.contributions[w])
    for sa, sb in zip(a.workers, b.workers):
        assert sa.assigned_rows == sb.assigned_rows
        assert sa.computed_rows == sb.computed_rows
        assert sa.used_rows == sb.used_rows
        assert sa.response_time == sb.response_time
        assert sa.cancelled == sb.cancelled


def assert_batch_row_equal(batch, t, outcome):
    """Row ``t`` of a batched outcome equals one scalar outcome, bitwise."""
    assert batch.completion_time[t] == outcome.completion_time
    assert batch.broadcast_time == outcome.broadcast_time
    assert batch.decode_time[t] == outcome.decode_time
    assert bool(batch.repaired[t]) == outcome.repaired
    for w, stat in enumerate(outcome.workers):
        assert batch.assigned_rows[t, w] == stat.assigned_rows, w
        assert batch.computed_rows[t, w] == stat.computed_rows, w
        assert batch.used_rows[t, w] == stat.used_rows, w
        assert batch.responded[t, w] == (
            stat.response_time is not None and not stat.cancelled
        ), w


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------

_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestEventLoop:
    @given(
        st.lists(
            st.tuples(_times, st.integers(0, 6), st.integers(0, 11)),
            max_size=50,
        )
    )
    def test_pop_order_is_the_full_sort(self, entries):
        # Schedule everything up front: pops come out in exact
        # (time, priority, tiebreak, seq) order.
        loop = EventLoop()
        for time, priority, tiebreak in entries:
            loop.schedule(Event(time=time, kind="x"), priority, tiebreak)
        while loop:
            loop.pop()
        keys = [h[:4] for h in loop.history]
        assert keys == sorted(keys)
        assert len(keys) == len(entries)

    @given(
        st.lists(
            st.tuples(_times, st.integers(0, 6), st.booleans()),
            max_size=50,
        )
    )
    def test_interleaved_pops_never_go_backward(self, ops):
        # Schedules interleaved with pops: heap times stay nondecreasing
        # even when an analytically-past event is realised late.
        loop = EventLoop()
        for time, priority, do_pop in ops:
            loop.schedule(Event(time=time, kind="x"), priority)
            if do_pop:
                loop.pop()
        while loop:
            loop.pop()
        heap_times = [h[0] for h in loop.history]
        assert heap_times == sorted(heap_times)
        assert len(heap_times) == len(ops)

    def test_causality_clamp_preserves_analytic_time(self):
        loop = EventLoop()
        loop.schedule(Event(time=5.0, kind="a"), 0)
        loop.pop()
        assert loop.now == 5.0
        loop.schedule(Event(time=1.0, kind="b"), 0)
        event = loop.pop()
        assert event.time == 1.0  # payload keeps the analytic timestamp
        assert loop.history[-1][0] == 5.0  # heap time clamped to now
        assert loop.now == 5.0

    def test_insertion_sequence_breaks_full_ties(self):
        loop = EventLoop()
        loop.schedule(Event(time=1.0, kind="first"), 2, tiebreak=3)
        loop.schedule(Event(time=1.0, kind="second"), 2, tiebreak=3)
        assert loop.pop().kind == "first"
        assert loop.pop().kind == "second"


# ---------------------------------------------------------------------------
# Links and topology
# ---------------------------------------------------------------------------


class TestLink:
    def test_uncontended_factor1_matches_network_model(self):
        link = Link("l", NET.latency, NET.bandwidth)
        arrive = link.transmit(3.0, 1024.0)
        assert arrive == 3.0 + NET.transfer_time(1024.0)

    def test_fifo_queueing(self):
        link = Link("l", latency=0.0, bandwidth=10.0)
        first = link.transmit(0.0, 100.0)  # occupies [0, 10)
        assert first == 10.0
        second = link.transmit(1.0, 10.0)  # must wait for the first
        assert second == 11.0
        assert link.log == [(0.0, 100.0), (10.0, 10.0)]

    def test_factor_scales_effective_bandwidth(self):
        link = Link("l", latency=0.0, bandwidth=10.0)
        assert link.transmit(0.0, 100.0, factor=0.5) == 20.0

    def test_accounting_matches_log(self):
        link = Link("l", latency=0.0, bandwidth=10.0)
        for nbytes in (5.0, 0.0, 7.0):
            link.transmit(0.0, nbytes)
        assert link.message_count == 3
        assert link.bytes_carried == 12.0
        assert link.bytes_carried == sum(n for _, n in link.log)

    def test_rejects_bad_arguments(self):
        link = Link("l", latency=0.0, bandwidth=10.0)
        with pytest.raises(ValueError, match="nbytes"):
            link.transmit(0.0, -1.0)
        with pytest.raises(ValueError, match="factor"):
            link.transmit(0.0, 1.0, factor=0.0)


class TestTopology:
    def test_flat_topology_is_contention_free(self):
        topo = Topology(4, NET)
        # Simultaneous sends to every worker do not interact.
        for w in range(4):
            arrive = topo.send_down(w, 0.0, 1000.0)
            assert arrive == NET.transfer_time(1000.0)
        assert len(topo.links()) == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            Topology(0, NET)


# ---------------------------------------------------------------------------
# Bitwise equivalence with the closed form
# ---------------------------------------------------------------------------


def _random_case(case):
    """One seeded random (plan, speeds, timeout, failures, network) draw."""
    rng = np.random.default_rng(10_000 + case)
    n = int(rng.integers(4, 13))
    k = int(rng.integers(2, n))
    chunks = int(rng.integers(2 * n, 6 * n))
    speeds = np.exp(rng.normal(0.0, 0.6, n))
    if case % 3 == 0:
        plan = full_plan(n, chunks, k)
    else:
        predicted = np.exp(rng.normal(0.0, 0.6, n))
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
            predicted
        )
    timeout = (
        None,
        TimeoutPolicy(slack=0.15),
        TimeoutPolicy(slack=0.01, min_responses=min(3, k)),
    )[case % 3]
    failed = frozenset()
    if case % 4 == 0:
        failed = frozenset({int(rng.integers(n))})
    network = (NET, SLOW_NET, ZERO_NET)[case % 3]
    return plan, speeds, timeout, failed, network


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("case", range(48))
    def test_random_cases_bitwise_equal(self, case):
        # Unit links: the loop is the closed form, and the batched event
        # kernel is the loop.
        plan, speeds, timeout, failed, network = _random_case(case)
        closed, event = make_sims(network=network, timeout=timeout,
                                  chunks=plan.num_chunks)
        try:
            expected = closed.run(plan, speeds, failed_workers=failed)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="cannot complete"):
                event_loop_outcome(event, plan, speeds, failed)
            with pytest.raises(RuntimeError, match="cannot complete"):
                event.run_batch(plan, speeds[None], failed_workers=failed)
            return
        actual = event_loop_outcome(event, plan, speeds, failed)
        assert_outcomes_bitwise_equal(expected, actual)
        batch = event.run_batch(plan, speeds[None], failed_workers=failed)
        assert_batch_row_equal(batch, 0, actual)

    @pytest.mark.parametrize("case", range(0, 48, 7))
    def test_random_batches_bitwise_equal(self, case):
        plan, _speeds, timeout, failed, network = _random_case(case)
        rng = np.random.default_rng(20_000 + case)
        n = plan.n_workers
        speeds = np.exp(rng.normal(0.0, 0.5, (4, n)))
        closed, event = make_sims(network=network, timeout=timeout,
                                  chunks=plan.num_chunks)
        try:
            expected = closed.run_batch(plan, speeds, failed_workers=failed)
        except RuntimeError:
            return  # unsatisfiable draws are covered by the scalar cases
        actual = event.run_batch(plan, speeds, failed_workers=failed)
        assert expected.broadcast_time == actual.broadcast_time
        np.testing.assert_array_equal(
            expected.completion_time, actual.completion_time
        )
        np.testing.assert_array_equal(expected.decode_time, actual.decode_time)
        np.testing.assert_array_equal(
            expected.assigned_rows, actual.assigned_rows
        )
        np.testing.assert_array_equal(
            expected.computed_rows, actual.computed_rows
        )
        np.testing.assert_array_equal(expected.used_rows, actual.used_rows)
        np.testing.assert_array_equal(expected.responded, actual.responded)
        np.testing.assert_array_equal(expected.repaired, actual.repaired)

    @pytest.mark.parametrize("case", range(0, 48, 5))
    def test_zero_network_ignores_link_factors(self, case):
        # In the zero-network limit degraded links move zero-cost bytes,
        # so the closed form is reproduced bitwise under ANY factors.
        plan, speeds, timeout, failed, _network = _random_case(case)
        rng = np.random.default_rng(30_000 + case)
        factors = rng.uniform(0.05, 1.0, plan.n_workers)
        closed, event = make_sims(network=ZERO_NET, timeout=timeout,
                                  chunks=plan.num_chunks)
        try:
            expected = closed.run(plan, speeds, failed_workers=failed)
        except RuntimeError:
            return
        actual = event_loop_outcome(event, plan, speeds, failed, factors)
        assert_outcomes_bitwise_equal(expected, actual)
        batch = event.run_batch(
            plan, speeds[None], failed_workers=failed,
            link_factors=factors[None],
        )
        assert_batch_row_equal(batch, 0, actual)

    def test_unrecoverable_raises_like_the_closed_form(self):
        closed, event = make_sims()
        plan = full_plan(3, 60, 2)
        failed = frozenset({0, 1})
        with pytest.raises(RuntimeError, match="cannot complete"):
            closed.run(plan, np.ones(3), failed_workers=failed)
        with pytest.raises(RuntimeError, match="cannot complete"):
            event_loop_outcome(event, plan, np.ones(3), failed)
        with pytest.raises(RuntimeError, match="cannot complete"):
            event.run_batch(plan, np.ones((1, 3)), failed_workers=failed)


# ---------------------------------------------------------------------------
# The event backend's own inputs: link factors and the backend registry
# ---------------------------------------------------------------------------


class TestEventBackend:
    def test_degraded_link_factor_slows_only_that_worker(self):
        _closed, event = make_sims(network=SLOW_NET)
        plan = full_plan(4, 60, 2)
        speeds = np.array([[4.0, 2.0, 1.0, 0.5]])
        plain = event.run_batch(plan, speeds)
        degraded = event.run_batch(
            plan, speeds, link_factors=np.array([[1.0, 1.0, 1.0, 1e-6]])
        )
        # Worker 3 was cancelled mid-flight anyway; the winners' replies
        # are untouched, so completion is bitwise identical.
        assert degraded.completion_time[0] == plain.completion_time[0]

    def test_run_is_the_closed_form_without_links(self):
        # ``run`` is inherited: it has no link factors to take.
        closed, event = make_sims(network=SLOW_NET)
        plan = full_plan(4, 60, 2)
        speeds = np.array([4.0, 2.0, 1.0, 0.5])
        assert EventDrivenIterationSim.run is CodedIterationSim.run
        assert_outcomes_bitwise_equal(
            closed.run(plan, speeds), event.run(plan, speeds)
        )
        with pytest.raises(TypeError, match="link_factors"):
            event.run(plan, speeds, link_factors=np.ones(4))

    def test_factor_validation(self):
        _closed, event = make_sims()
        plan = full_plan(4, 60, 2)
        speeds = np.ones((1, 4))
        with pytest.raises(ValueError, match="shape"):
            event.run_batch(plan, speeds, link_factors=np.ones((1, 3)))
        for bad in (0.0, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                event.run_batch(
                    plan, speeds, link_factors=np.array([[1, 1, 1, bad]])
                )
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="speeds must be positive"):
                event.run(plan, np.array([1.0, 1.0, 1.0, bad]))
            with pytest.raises(ValueError, match="speeds must be positive"):
                event.run_batch(plan, np.array([[1.0, 1.0, 1.0, bad]]))

    def test_backend_registry(self):
        assert available_backends() == ("closed", "event")
        check_backend("event")
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend("analytic")


# ---------------------------------------------------------------------------
# Property suite over fuzzed scenarios: ordering, ledger, byte conservation
# ---------------------------------------------------------------------------


class TestFuzzedScenarioInvariants:
    """Seeded property tests over random draws from the scenario fuzzer.

    Each case resolves a fuzzer-generated (possibly composed, possibly
    network-degraded) scenario, runs one iteration through the event loop,
    and audits the trace: pop order, exactly-once task termination, and
    per-link byte conservation.  The batched event kernel must reproduce
    the loop's outcome on every case.
    """

    POPULATION_SEED = 17

    def _run_case(self, case):
        rng = np.random.default_rng(7_000 + case)
        scenario = generate_scenario(self.POPULATION_SEED, case)
        n = int(rng.integers(4, 11))
        model = scenario_speed_model(scenario, n, seed=int(rng.integers(10_000)))
        iteration = int(rng.integers(0, 4))
        speeds = np.asarray(model.speeds(iteration), dtype=np.float64)
        factors = model.link_factors(iteration)
        k = int(rng.integers(2, n))
        chunks = int(rng.integers(2 * n, 5 * n))
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=chunks).plan(
            np.exp(rng.normal(0.0, 0.4, n))
        )
        timeout = TimeoutPolicy(slack=0.05) if case % 2 else None
        sim = EventDrivenIterationSim(
            grid=ChunkGrid(chunks * 2, chunks),
            width=8,
            network=SLOW_NET,
            cost=COST,
            timeout=timeout,
        )
        outcome, trace = run_event_loop(sim, plan, speeds, link_factors=factors)
        batch = sim.run_batch(
            plan, speeds[None],
            link_factors=None if factors is None else factors[None],
        )
        assert_batch_row_equal(batch, 0, outcome)
        return sim, plan, outcome, trace

    @pytest.mark.parametrize("case", range(24))
    def test_pop_order_invariant(self, case):
        _sim, _plan, _outcome, trace = self._run_case(case)
        # The simulator only ever schedules strictly-later-priority events
        # while processing an instant, so the FULL history key is sorted.
        keys = [h[:4] for h in trace.loop.history]
        assert keys == sorted(keys)
        assert not trace.loop  # fully drained

    @pytest.mark.parametrize("case", range(24))
    def test_every_task_terminates_exactly_once(self, case):
        sim, plan, outcome, trace = self._run_case(case)
        n = plan.n_workers
        active = [
            w
            for w in range(n)
            if sim.grid.rows_of_chunks(plan.assignments[w].chunk_indices()).size
        ]
        natural = {key for key in trace.tasks if key.startswith("natural:")}
        assert natural == {f"natural:{w}" for w in active}
        assert set(trace.tasks.values()) <= {"completed", "cancelled"}
        for w in active:
            completed = trace.tasks[f"natural:{w}"] == "completed"
            stat = outcome.workers[w]
            assert completed == (not stat.cancelled)
        for key, status in trace.tasks.items():
            if key.startswith("repair:"):
                assert status == ("completed" if outcome.repaired else "cancelled")

    @pytest.mark.parametrize("case", range(24))
    def test_link_byte_conservation(self, case):
        sim, plan, outcome, trace = self._run_case(case)
        topo = trace.topology
        n = plan.n_workers
        bw_bytes = sim.width * sim.cost.bytes_per_element
        reply_bytes = float(sim.cost.row_bytes(sim.width_out))
        for link in topo.links():
            assert link.message_count == len(link.log)
            assert link.bytes_carried == sum(nb for _, nb in link.log)
        for w in range(n):
            repair = f"repair:{w}" in trace.tasks
            dispatched = f"natural:{w}" in trace.tasks
            down, up = topo.down[w], topo.up[w]
            # Repair requests are zero-byte messages.
            assert down.message_count == 1 + int(repair)
            assert down.bytes_carried == bw_bytes
            assert up.message_count == int(dispatched) + int(repair)
            if dispatched:
                rows = sim.grid.rows_of_chunks(
                    plan.assignments[w].chunk_indices()
                ).size
                assert up.log[0][1] == rows * reply_bytes
        assert np.isfinite(outcome.completion_time)
        assert outcome.completion_time > 0.0


# ---------------------------------------------------------------------------
# Link factors of scenario rows
# ---------------------------------------------------------------------------


class TestLinkFactors:
    N = 6

    def _model(self, name, seed=0):
        return scenario_speed_model(name, self.N, seed=seed)

    def test_compute_scenarios_have_no_factors(self):
        assert self._model("constant").link_factors(0) is None
        assert self._model("bursty").link_factors(2) is None

    def test_netslow_degrades_a_persistent_subset(self):
        model = self._model("netslow(num_slow=2,slowdown=4.0)", seed=3)
        first = model.link_factors(0)
        assert first.shape == (self.N,)
        assert np.sum(first == 0.25) == 2
        assert np.sum(first == 1.0) == self.N - 2
        # Persistent: the same links stay slow across iterations.
        np.testing.assert_array_equal(model.link_factors(5), first)
        # Memoised defensively: mutating a result does not poison the memo.
        first[0] = 99.0
        assert model.link_factors(0)[0] != 99.0

    def test_network_scenarios_present_unit_speeds_to_the_closed_form(self):
        for name in ("netslow", "rackcongest", "linkbursty"):
            model = self._model(name, seed=1)
            np.testing.assert_array_equal(model.speeds(2), np.ones(self.N))

    def test_rackcongest_factors_are_rack_wide(self):
        model = self._model(
            "rackcongest(congest_prob=0.9,n_racks=2,recover_prob=0.1,"
            "slowdown=4.0)",
            seed=2,
        )
        factors = model.link_factors(3)
        half = self.N // 2
        assert len(set(factors[:half])) == 1  # one value per rack
        assert len(set(factors[half:])) == 1

    def test_combinator_routing(self):
        slow = "netslow(num_slow=2,slowdown=4.0)"
        base = self._model(slow, seed=7).link_factors(0)

        scaled = self._model(f"scale({slow},factor=0.5)", seed=7)
        np.testing.assert_array_equal(scaled.link_factors(0), base)

        shifted = self._model(f"time_shift({slow},shift=3)", seed=7)
        np.testing.assert_array_equal(shifted.link_factors(0), base)

        # Operand 1 of a composition is seeded one operand stride on.
        inner = self._model(slow, seed=7 + OPERAND_SEED_STRIDE).link_factors(0)
        mixed = self._model(f"mix(constant,{slow},weight=0.25)", seed=7)
        np.testing.assert_array_equal(
            mixed.link_factors(0),
            0.25 * np.ones(self.N) + 0.75 * inner,
        )

        overlaid = self._model(f"overlay(constant,{slow})", seed=7)
        np.testing.assert_array_equal(
            overlaid.link_factors(0), np.minimum(np.ones(self.N), inner)
        )

    def test_concat_routes_by_segment(self):
        slow = "netslow(num_slow=1,slowdown=2.0)"
        model = self._model(f"concat(constant,{slow},segment=4)", seed=5)
        assert model.link_factors(0) is None  # first regime: constant
        late = model.link_factors(4)  # second regime, local iteration 0
        assert late is not None
        assert np.sum(late == 0.5) == 1

    def test_batch_factors_stack_per_trial(self):
        batch = scenario_batch(
            "netslow(num_slow=1,slowdown=4.0)", self.N, seeds=(1, 2, 3)
        )
        factors = batch.link_factors_batch(0)
        assert factors.shape == (3, self.N)
        assert np.all((factors == 1.0) | (factors == 0.25))

    def test_batch_factors_none_for_compute_scenarios(self):
        batch = scenario_batch("bursty", self.N, seeds=(1, 2))
        assert batch.link_factors_batch(0) is None
