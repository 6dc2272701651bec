"""Tests for the S2C2 allocation algorithms (paper §4.1–4.2, Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.base import full_plan
from repro.scheduling.s2c2 import (
    BasicS2C2Scheduler,
    GeneralS2C2Scheduler,
    allocate_chunks,
    wraparound_plan,
)


class TestAllocateChunks:
    def test_equal_speeds_equal_shares(self):
        counts = allocate_chunks(np.ones(4), coverage=2, num_chunks=6)
        np.testing.assert_array_equal(counts, [3, 3, 3, 3])

    def test_total_is_coverage_times_chunks(self):
        counts = allocate_chunks(np.array([3.0, 2.0, 1.0, 1.0]), 2, 14)
        assert counts.sum() == 28

    def test_share_proportional_to_speed(self):
        counts = allocate_chunks(np.array([2.0, 1.0, 1.0]), 2, 8)
        # Fast worker gets twice the slow workers' share: 8, 4, 4.
        np.testing.assert_array_equal(counts, [8, 4, 4])

    def test_cap_spills_to_next_workers(self):
        # One worker 100x faster: capped at num_chunks, rest spills.
        counts = allocate_chunks(np.array([100.0, 1.0, 1.0, 1.0]), 2, 9)
        assert counts[0] == 9
        assert counts.sum() == 18
        assert counts.max() <= 9

    def test_zero_speed_workers_get_nothing(self):
        counts = allocate_chunks(np.array([1.0, 0.0, 1.0, 1.0]), 2, 6)
        assert counts[1] == 0
        assert counts.sum() == 12

    def test_straggler_scenario_matches_paper_fig4c(self):
        # (4,2) code, worker 4 straggling: each of 3 fast workers computes
        # 2/3 of its partition (paper Fig 4c).
        counts = allocate_chunks(np.array([1.0, 1.0, 1.0, 0.0]), 2, 6)
        np.testing.assert_array_equal(counts, [4, 4, 4, 0])

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            allocate_chunks(np.array([1.0, 0.0, 0.0]), 2, 6)

    def test_all_dead_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            allocate_chunks(np.zeros(3), 1, 6)

    def test_exactly_coverage_alive_all_full(self):
        counts = allocate_chunks(np.array([1.0, 5.0, 0.0]), 2, 6)
        np.testing.assert_array_equal(counts, [6, 6, 0])

    @given(
        n=st.integers(2, 20),
        coverage=st.integers(1, 10),
        num_chunks=st.integers(1, 60),
        seed=st.integers(0, 10_000),
        zeros=st.integers(0, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_allocation_invariants(
        self, n, coverage, num_chunks, seed, zeros
    ):
        coverage = min(coverage, n)
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(0.1, 10.0, size=n)
        dead = rng.choice(n, size=min(zeros, n - coverage), replace=False)
        speeds[dead] = 0.0
        counts = allocate_chunks(speeds, coverage, num_chunks)
        assert counts.sum() == coverage * num_chunks
        assert counts.min() >= 0
        assert counts.max() <= num_chunks
        assert np.all(counts[speeds == 0] == 0)


class TestWraparoundPlan:
    def test_exact_coverage(self):
        counts = np.array([4, 4, 4, 0])
        plan = wraparound_plan(counts, coverage=2, num_chunks=6)
        plan.validate(exact=True)

    def test_wrapped_assignment_split_into_two_ranges(self):
        counts = np.array([5, 5, 2])
        plan = wraparound_plan(counts, coverage=2, num_chunks=6)
        plan.validate(exact=True)
        # Some worker must wrap (5+5 > 6): it has two ranges.
        n_ranges = [len(a.ranges) for a in plan.assignments]
        assert max(n_ranges) == 2

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            wraparound_plan(np.array([3, 3]), coverage=2, num_chunks=6)

    def test_count_over_cap_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            wraparound_plan(np.array([7, 5]), coverage=2, num_chunks=6)

    @given(
        n=st.integers(1, 16),
        coverage=st.integers(1, 8),
        num_chunks=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_wraparound_exact_coverage(
        self, n, coverage, num_chunks, seed
    ):
        coverage = min(coverage, n)
        rng = np.random.default_rng(seed)
        # Random feasible counts: start even, randomly move chunks around.
        speeds = rng.uniform(0.5, 4.0, size=n)
        counts = allocate_chunks(speeds, coverage, num_chunks)
        plan = wraparound_plan(counts, coverage, num_chunks)
        plan.validate(exact=True)
        np.testing.assert_array_equal(plan.chunks_per_worker(), counts)


class TestGeneralS2C2Scheduler:
    def test_plan_exact_coverage(self):
        sched = GeneralS2C2Scheduler(coverage=10, num_chunks=60)
        plan = sched.plan(np.random.default_rng(0).uniform(0.5, 1.5, 12))
        plan.validate(exact=True)

    def test_work_scales_with_speed(self):
        sched = GeneralS2C2Scheduler(coverage=7, num_chunks=70)
        speeds = np.array([2.0] * 5 + [1.0] * 5)
        plan = sched.plan(speeds)
        counts = plan.chunks_per_worker()
        assert counts[:5].mean() > 1.8 * counts[5:].mean()

    def test_fallback_to_full_plan_when_infeasible(self):
        sched = GeneralS2C2Scheduler(coverage=3, num_chunks=12)
        plan = sched.plan(np.array([1.0, 1.0, 0.0, 0.0]))
        # Only 2 alive < coverage 3: conventional full plan.
        assert plan.total_chunks_assigned() == 4 * 12

    def test_less_total_work_than_static(self):
        # The headline claim: S2C2 assigns k*C chunks, static assigns n*C.
        sched = GeneralS2C2Scheduler(coverage=6, num_chunks=60)
        plan = sched.plan(np.ones(12))
        static = full_plan(12, 60, 6)
        assert plan.total_chunks_assigned() == 6 * 60
        assert static.total_chunks_assigned() == 12 * 60

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GeneralS2C2Scheduler(coverage=0)


class TestBasicS2C2Scheduler:
    def test_equal_split_among_fast(self):
        # 12 workers, 2 stragglers (5x slower), k=6, C=60:
        # 10 fast workers each get 6*60/10 = 36 chunks (D/s rows).
        sched = BasicS2C2Scheduler(coverage=6, num_chunks=60)
        speeds = np.array([1.0] * 10 + [0.2] * 2)
        plan = sched.plan(speeds)
        counts = plan.chunks_per_worker()
        np.testing.assert_array_equal(counts[:10], np.full(10, 36))
        np.testing.assert_array_equal(counts[10:], [0, 0])
        plan.validate(exact=True)

    def test_ignores_moderate_speed_variation(self):
        # ±20% variation is below the straggler threshold: equal shares.
        sched = BasicS2C2Scheduler(coverage=6, num_chunks=60)
        speeds = np.array([1.0, 0.9, 1.1, 0.85, 1.05, 0.95, 1.0, 0.9] + [1.0] * 4)
        counts = sched.plan(speeds).chunks_per_worker()
        assert counts.max() - counts.min() <= 1

    def test_fallback_when_too_many_stragglers(self):
        sched = BasicS2C2Scheduler(coverage=3, num_chunks=12)
        plan = sched.plan(np.array([1.0, 0.1, 0.1, 0.1]))
        assert plan.total_chunks_assigned() == 4 * 12

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BasicS2C2Scheduler(coverage=2, straggler_threshold=0.0)
        with pytest.raises(ValueError):
            BasicS2C2Scheduler(coverage=2, straggler_threshold=1.5)
