"""Tests for the uncoded replication and over-decomposition baselines."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.overdecomposition import OverDecompositionPlacement
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig


class TestSpeculationConfig:
    def test_paper_defaults(self):
        cfg = SpeculationConfig()
        assert cfg.replication == 3
        assert cfg.max_speculative == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(replication=0)
        with pytest.raises(ValueError):
            SpeculationConfig(max_speculative=-1)
        with pytest.raises(ValueError):
            SpeculationConfig(watch_fraction=1.0)

    @pytest.mark.parametrize("cap", [float("nan"), 2.5, float("inf"), True, "6", None])
    def test_max_speculative_must_be_an_int(self, cap):
        # A float cap is no budget: ``launches >= nan`` never holds, and
        # 2.5 allowed three launches.
        with pytest.raises(TypeError, match="max_speculative must be an int"):
            SpeculationConfig(max_speculative=cap)

    def test_max_speculative_reaches_the_policy_build(self):
        from repro.scheduling.policies import build_policy

        with pytest.raises(TypeError, match="max_speculative"):
            build_policy("replication", 10, 7, max_speculative=float("nan"))
        with pytest.raises(ValueError, match="max_speculative must be >= 0"):
            build_policy("replication", 10, 7, max_speculative=-1)

    def test_zero_and_numpy_caps_allowed(self):
        assert SpeculationConfig(max_speculative=0).max_speculative == 0
        assert SpeculationConfig(max_speculative=np.int64(3)).max_speculative == 3


class TestReplicaPlacement:
    def test_primary_is_home_worker(self):
        placement = ReplicaPlacement(12, 3, seed=0)
        for p in range(12):
            assert placement.holders(p)[0] == p

    def test_replica_count(self):
        placement = ReplicaPlacement(12, 3, seed=0)
        for p in range(12):
            holders = placement.holders(p)
            assert len(holders) == 3
            assert len(set(holders)) == 3

    def test_replication_exceeding_cluster_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ReplicaPlacement(2, 3)

    def test_has_copy(self):
        placement = ReplicaPlacement(6, 2, seed=1)
        for p in range(6):
            for w in placement.holders(p):
                assert placement.has_copy(w, p)

    def test_partitions_of_inverse(self):
        placement = ReplicaPlacement(8, 3, seed=2)
        for w in range(8):
            for p in placement.partitions_of(w):
                assert placement.has_copy(w, p)

    def test_storage_fraction(self):
        placement = ReplicaPlacement(12, 3)
        assert placement.storage_fraction_per_node() == pytest.approx(0.25)

    def test_total_copies_conserved(self):
        placement = ReplicaPlacement(10, 3, seed=3)
        assert placement.coverage_histogram().sum() == 30

    @given(n=st.integers(2, 20), r=st.integers(1, 4), seed=st.integers(0, 100))
    @settings(max_examples=40)
    def test_property_distinct_holders(self, n, r, seed):
        r = min(r, n)
        placement = ReplicaPlacement(n, r, seed=seed)
        for p in range(n):
            holders = placement.holders(p)
            assert len(set(holders)) == r
            assert all(0 <= w < n for w in holders)


@pytest.fixture
def alarm():
    """Fail a call that hangs instead of hanging the suite."""

    def timed_out(signum, frame):
        raise TimeoutError("the placement did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestOverDecompositionPlacement:
    @pytest.mark.parametrize(
        "n_workers, replication", [(1, 1.42), (2, 2.2), (3, 3.5)]
    )
    def test_more_copies_than_workers_rejected(self, alarm, n_workers, replication):
        # A partition cannot have more copies than there are workers; the
        # round-robin used to search for a free worker forever.
        with pytest.raises(ValueError, match=r"replication .* n_workers"):
            OverDecompositionPlacement(n_workers, replication=replication)

    @pytest.mark.parametrize("n_workers, replication", [(1, 1.0), (2, 2.0), (3, 3.0)])
    def test_a_copy_on_every_worker_is_allowed(self, alarm, n_workers, replication):
        placement = OverDecompositionPlacement(n_workers, replication=replication)
        assert all(len(h) == n_workers for h in placement.holders)

    def test_partition_count(self):
        placement = OverDecompositionPlacement(10, factor=4)
        assert placement.num_partitions == 40

    def test_home_copies_present(self):
        placement = OverDecompositionPlacement(10, factor=4)
        for p in range(40):
            assert placement.has_copy(p // 4, p)

    def test_replication_factor_respected(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.42)
        total_copies = sum(len(h) for h in placement.holders)
        assert total_copies == pytest.approx(40 * 1.42, abs=1)

    def test_storage_fraction(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.42)
        frac = placement.storage_fraction_per_node()
        assert frac == pytest.approx(1.42 / 10, rel=0.05)

    def test_plan_covers_all_partitions_once(self):
        placement = OverDecompositionPlacement(10, factor=4)
        plan = placement.plan(np.ones(10))
        assert np.all(plan.owner >= 0)
        counts = np.bincount(plan.owner, minlength=10)
        assert counts.sum() == 40

    def test_plan_load_proportional_to_speed(self):
        placement = OverDecompositionPlacement(10, factor=4)
        speeds = np.array([2.0] * 5 + [1.0] * 5)
        plan = placement.plan(speeds)
        counts = np.bincount(plan.owner, minlength=10)
        assert counts[:5].sum() > counts[5:].sum()

    def test_equal_speeds_no_migrations(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.0)
        plan = placement.plan(np.ones(10))
        assert plan.migration_count() == 0

    def test_skewed_speeds_force_migrations(self):
        placement = OverDecompositionPlacement(10, factor=4, replication=1.0)
        speeds = np.array([10.0] + [1.0] * 9)
        plan = placement.plan(speeds)
        assert plan.migration_count() > 0

    def test_replication_reduces_migrations(self):
        speeds = np.array([3.0] * 3 + [1.0] * 7)
        lean = OverDecompositionPlacement(10, factor=4, replication=1.0)
        fat = OverDecompositionPlacement(10, factor=4, replication=1.42)
        assert (
            fat.plan(speeds).migration_count()
            <= lean.plan(speeds).migration_count()
        )

    def test_speed_shape_validated(self):
        placement = OverDecompositionPlacement(4, factor=2)
        with pytest.raises(ValueError, match="shape"):
            placement.plan(np.ones(5))

    def test_all_dead_rejected(self):
        placement = OverDecompositionPlacement(4, factor=2)
        with pytest.raises(ValueError, match="positive"):
            placement.plan(np.zeros(4))

    def test_partitions_of(self):
        placement = OverDecompositionPlacement(4, factor=2)
        plan = placement.plan(np.ones(4))
        gathered = np.concatenate(
            [plan.partitions_of(w) for w in range(4)]
        )
        assert sorted(gathered.tolist()) == list(range(8))

    @given(
        n=st.integers(2, 12),
        factor=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40)
    def test_property_every_partition_assigned(self, n, factor, seed):
        placement = OverDecompositionPlacement(n, factor=factor)
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(0.2, 3.0, size=n)
        plan = placement.plan(speeds)
        counts = np.bincount(plan.owner, minlength=n)
        assert counts.sum() == placement.num_partitions
        assert np.all(plan.owner >= 0)
        assert np.all(plan.owner < n)
