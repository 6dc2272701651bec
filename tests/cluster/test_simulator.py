"""Tests for the per-iteration cluster simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import (
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.overdecomposition import (
    OverDecompositionPlacement,
    OverDecompositionPlan,
)
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

# Fast network so compute dominates, as on the paper's InfiniBand cluster.
NET = NetworkModel(latency=1e-6, bandwidth=1e12)
COST = CostModel(worker_flops=1e6)  # slow workers -> readable times


def make_sim(rows=120, chunks=60, width=10, timeout=None):
    return CodedIterationSim(
        grid=ChunkGrid(rows, chunks),
        width=width,
        network=NET,
        cost=COST,
        timeout=timeout,
    )


class TestCodedIterationSim:
    def test_static_plan_completes_at_kth_fastest(self):
        sim = make_sim()
        plan = full_plan(4, 60, 2)
        speeds = np.array([4.0, 2.0, 1.0, 0.5])
        outcome = sim.run(plan, speeds)
        # The 2nd fastest worker determines completion (k = 2).
        expected = COST.compute_time(120, 10, 2.0)
        assert outcome.completion_time == pytest.approx(expected, rel=0.05)

    def test_static_plan_slow_workers_wasted(self):
        sim = make_sim()
        plan = full_plan(4, 60, 2)
        outcome = sim.run(plan, np.array([4.0, 2.0, 1.0, 0.5]))
        waste = outcome.wasted_fraction_per_worker()
        assert waste[0] == 0.0
        assert waste[1] == 0.0
        assert waste[2] > 0.0  # cancelled mid-flight
        assert waste[3] > 0.0
        assert set(outcome.contributions) == {0, 1}

    def test_s2c2_plan_no_waste_with_perfect_prediction(self):
        sim = make_sim()
        speeds = np.array([2.0, 1.5, 1.0, 0.5])
        plan = GeneralS2C2Scheduler(coverage=2, num_chunks=60).plan(speeds)
        outcome = sim.run(plan, speeds)
        np.testing.assert_allclose(outcome.wasted_fraction_per_worker(), 0.0)
        assert not outcome.repaired

    def test_s2c2_beats_static_with_no_stragglers(self):
        # The Fig 6 zero-straggler ordering.
        sim = make_sim()
        speeds = np.ones(12)
        static = sim.run(full_plan(12, 60, 6), speeds)
        s2c2 = sim.run(
            GeneralS2C2Scheduler(coverage=6, num_chunks=60).plan(speeds), speeds
        )
        assert s2c2.completion_time < static.completion_time
        # Work ratio is k/n = 1/2, so times should be roughly halved.
        assert s2c2.completion_time / static.completion_time == pytest.approx(
            0.5, abs=0.15
        )

    def test_static_plan_immune_to_stragglers_within_budget(self):
        sim = make_sim()
        plan = full_plan(12, 60, 10)
        fast = sim.run(plan, np.ones(12))
        speeds = np.ones(12)
        speeds[10:] = 0.1  # two stragglers == n - k budget
        slow = sim.run(plan, speeds)
        assert slow.completion_time == pytest.approx(
            fast.completion_time, rel=0.05
        )

    def test_static_plan_collapses_beyond_budget(self):
        sim = make_sim()
        plan = full_plan(12, 60, 10)
        speeds = np.ones(12)
        speeds[9:] = 0.1  # three stragglers > n - k = 2
        outcome = sim.run(plan, speeds)
        baseline = sim.run(plan, np.ones(12))
        assert outcome.completion_time > 5 * baseline.completion_time

    def test_failed_worker_without_timeout_uses_redundancy(self):
        sim = make_sim()
        plan = full_plan(4, 60, 2)
        outcome = sim.run(plan, np.ones(4), failed_workers=frozenset({0}))
        assert 0 not in outcome.contributions
        assert len(outcome.contributions) == 2

    def test_unrecoverable_raises(self):
        sim = make_sim()
        plan = full_plan(3, 60, 2)
        with pytest.raises(RuntimeError, match="cannot complete"):
            sim.run(plan, np.ones(3), failed_workers=frozenset({0, 1}))

    def test_timeout_repairs_failed_worker(self):
        sim = make_sim(timeout=TimeoutPolicy(slack=0.15))
        speeds = np.ones(6)
        plan = GeneralS2C2Scheduler(coverage=4, num_chunks=60).plan(speeds)
        outcome = sim.run(plan, speeds, failed_workers=frozenset({5}))
        assert outcome.repaired
        assert 5 in outcome.timed_out_workers
        # Coverage restored: every chunk appears >= 4 times in contributions.
        cov = np.zeros(60, dtype=int)
        for chunks in outcome.contributions.values():
            np.add.at(cov, chunks, 1)
        assert np.all(cov >= 4)

    def test_timeout_repair_faster_than_waiting(self):
        speeds = np.ones(6)
        plan = GeneralS2C2Scheduler(coverage=4, num_chunks=60).plan(speeds)
        actual = speeds.copy()
        actual[5] = 0.05  # surprise straggler (mis-prediction)
        with_repair = make_sim(timeout=TimeoutPolicy()).run(plan, actual)
        without = make_sim().run(plan, actual)
        assert with_repair.repaired
        assert with_repair.completion_time < without.completion_time

    def test_timeout_not_triggered_when_on_time(self):
        sim = make_sim(timeout=TimeoutPolicy())
        speeds = np.ones(6)
        plan = GeneralS2C2Scheduler(coverage=4, num_chunks=60).plan(speeds)
        outcome = sim.run(plan, speeds)
        assert not outcome.repaired

    def test_mispredicted_straggler_wastes_its_partial_work(self):
        speeds = np.ones(6)
        plan = GeneralS2C2Scheduler(coverage=4, num_chunks=60).plan(speeds)
        actual = speeds.copy()
        actual[5] = 0.05
        outcome = make_sim(timeout=TimeoutPolicy()).run(plan, actual)
        assert outcome.workers[5].wasted_fraction == 1.0
        assert outcome.workers[5].computed_rows > 0

    def test_speed_shape_validated(self):
        sim = make_sim()
        with pytest.raises(ValueError, match="shape"):
            sim.run(full_plan(4, 60, 2), np.ones(3))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_nonpositive_speed_rejected(self, bad):
        sim = make_sim()
        with pytest.raises(ValueError, match="speeds must be positive"):
            sim.run(full_plan(2, 60, 1), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="speeds must be positive"):
            sim.run_batch(full_plan(2, 60, 1), np.array([[1.0, 1.0], [1.0, bad]]))

    def test_completion_includes_decode_time(self):
        sim = make_sim()
        plan = full_plan(4, 60, 2)
        outcome = sim.run(plan, np.ones(4))
        assert outcome.decode_time > 0
        assert outcome.completion_time > outcome.decode_time

    @given(
        n=st.integers(3, 10),
        slack=st.integers(1, 3),
        seed=st.integers(0, 5_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_s2c2_never_slower_than_static(self, n, slack, seed):
        k = max(1, n - slack)
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(0.5, 2.0, size=n)
        sim = make_sim(rows=5 * n * k, chunks=n * k)
        static = sim.run(full_plan(n, n * k, k), speeds)
        s2c2_plan = GeneralS2C2Scheduler(coverage=k, num_chunks=n * k).plan(speeds)
        s2c2 = sim.run(s2c2_plan, speeds)
        assert s2c2.completion_time <= static.completion_time * 1.02

    @given(n=st.integers(3, 8), seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_property_work_conservation(self, n, seed):
        rng = np.random.default_rng(seed)
        k = n - 1
        speeds = rng.uniform(0.5, 2.0, size=n)
        sim = make_sim(rows=4 * n * k, chunks=n * k)
        plan = GeneralS2C2Scheduler(coverage=k, num_chunks=n * k).plan(speeds)
        outcome = sim.run(plan, speeds)
        # used + wasted == computed for every worker.
        for w in outcome.workers:
            assert w.used_rows + w.wasted_rows == pytest.approx(w.computed_rows)
        # Exactly k * rows row-results are used in total.
        used = sum(w.used_rows for w in outcome.workers)
        assert used == k * sim.grid.rows


class TestReplicationIterationSim:
    def make(self, n=12, **kwargs):
        return ReplicationIterationSim(
            placement=ReplicaPlacement(n, 3, seed=0),
            config=SpeculationConfig(**kwargs),
            rows_per_partition=10,
            width=10,
            network=NET,
            cost=COST,
        )

    def test_no_straggler_no_speculation(self):
        sim = self.make()
        outcome = sim.run(np.ones(12))
        assert outcome.speculative_launches == 0
        assert outcome.data_moved_bytes == 0.0
        assert len(outcome.partition_owner) == 12

    def test_each_partition_owned_by_primary_when_uniform(self):
        sim = self.make()
        outcome = sim.run(np.ones(12))
        for p, w in outcome.partition_owner.items():
            assert w == p

    def test_straggler_triggers_speculation(self):
        sim = self.make()
        speeds = np.ones(12)
        speeds[0] = 0.05
        outcome = sim.run(speeds)
        assert outcome.speculative_launches >= 1
        assert outcome.partition_owner[0] != 0
        # The straggler's partial work is wasted.
        assert outcome.workers[0].wasted_rows > 0

    def test_speculation_helps(self):
        speeds = np.ones(12)
        speeds[0] = 0.05
        with_spec = self.make().run(speeds)
        without = self.make(max_speculative=0).run(speeds)
        assert with_spec.completion_time < without.completion_time

    def test_many_stragglers_force_data_movement(self):
        # When stragglers outnumber replicas of a partition, the data may
        # need to move to an idle worker that has no copy.
        sim = self.make()
        speeds = np.ones(12)
        placement = sim.placement
        # Slow down every holder of partition 0.
        for w in placement.holders(0):
            speeds[w] = 0.05
        outcome = sim.run(speeds)
        assert outcome.data_moved_bytes > 0 or outcome.completion_time > 1.0

    def test_failed_primary_with_no_speculation_raises(self):
        sim = self.make(max_speculative=0)
        with pytest.raises(RuntimeError, match="cannot complete"):
            sim.run(np.ones(12), failed_workers=frozenset({3}))

    def test_failed_primary_recovered_by_speculation(self):
        sim = self.make()
        outcome = sim.run(np.ones(12), failed_workers=frozenset({3}))
        assert outcome.partition_owner[3] != 3

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_speed_validation(self, bad):
        sim = self.make()
        with pytest.raises(ValueError):
            sim.run(np.ones(5))
        speeds = np.ones(12)
        speeds[4] = bad
        with pytest.raises(ValueError, match="speeds must be positive"):
            sim.run(speeds)
        with pytest.raises(ValueError, match="speeds must be positive"):
            sim.run_batch(np.stack([np.ones(12), speeds]))


class TestOverDecompositionIterationSim:
    def make(self):
        return OverDecompositionIterationSim(
            rows_per_partition=5, width=10, network=NET, cost=COST
        )

    def test_balanced_assignment_no_migration(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.0)
        plan = placement.plan(np.ones(10))
        outcome = self.make().run(plan, np.ones(10))
        assert outcome.migrations == 0
        assert outcome.data_moved_bytes == 0.0
        assert len(outcome.partition_owner) == 40

    def test_skew_causes_migration_cost(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.0)
        speeds = np.array([5.0] + [1.0] * 9)
        plan = placement.plan(speeds)
        outcome = self.make().run(plan, speeds)
        assert outcome.migrations > 0
        assert outcome.data_moved_bytes > 0

    def test_mispredicted_speeds_inflate_completion(self):
        placement = OverDecompositionPlacement(10, factor=4)
        predicted = np.ones(10)
        actual = np.ones(10)
        actual[0] = 0.1  # surprise straggler gets a full quota anyway
        plan = placement.plan(predicted)
        good = self.make().run(placement.plan(actual), actual)
        bad = self.make().run(plan, actual)
        assert bad.completion_time > good.completion_time

    def test_no_waste_in_over_decomposition(self):
        placement = OverDecompositionPlacement(6, factor=2)
        plan = placement.plan(np.ones(6))
        outcome = self.make().run(plan, np.ones(6))
        np.testing.assert_allclose(outcome.wasted_fraction_per_worker(), 0.0)

    def test_failed_owner_raises(self):
        placement = OverDecompositionPlacement(4, factor=2)
        plan = placement.plan(np.ones(4))
        with pytest.raises(RuntimeError, match="failed"):
            self.make().run(plan, np.ones(4), failed_workers=frozenset({1}))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_speed_validation(self, bad):
        placement = OverDecompositionPlacement(4, factor=2)
        plan = placement.plan(np.ones(4))
        speeds = np.array([1.0, bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="speeds must be positive"):
            self.make().run(plan, speeds)
        with pytest.raises(ValueError, match="speeds must be positive"):
            self.make().run_batch(plan, np.stack([np.ones(4), speeds]))

    def test_owner_beyond_the_workers_rejected(self):
        # Partition 3 goes to worker 3, but only three workers have speeds:
        # both entries reject the plan instead of dropping the partition.
        plan = OverDecompositionPlan(
            owner=np.array([0, 1, 2, 3]), migrated=np.zeros(4, dtype=bool)
        )
        with pytest.raises(ValueError, match="owner index out of range"):
            self.make().run(plan, np.ones(3))
        with pytest.raises(ValueError, match="owner index out of range"):
            self.make().run_batch(plan, np.ones((2, 3)))
