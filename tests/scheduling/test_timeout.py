"""Tests for the §4.3 timeout policy and repair reassignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.base import ChunkAssignment, CodedWorkPlan
from repro.scheduling.s2c2 import GeneralS2C2Scheduler, wraparound_plan
from repro.scheduling.timeout import TimeoutPolicy, repair_assignments


def reference_repair_assignments(plan, completed, speeds):
    """The per-chunk pure-Python greedy, frozen as the oracle.

    :func:`repair_assignments` must return exactly what this returns (or
    raise ``ValueError`` exactly when it does) for every valid input.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    coverage = plan.coverage
    have = np.zeros(plan.num_chunks, dtype=np.int64)
    holders: dict[int, set[int]] = {}
    for worker, chunks in completed.items():
        chunk_arr = np.asarray(chunks, dtype=np.int64)
        holders[worker] = set(int(c) for c in chunk_arr)
        np.add.at(have, chunk_arr, 1)
    deficit = coverage - have
    needy = np.flatnonzero(deficit > 0)
    if needy.size == 0:
        return {}
    workers = sorted(completed)
    if not workers:
        raise ValueError("no completed workers to repair with")
    # Feasibility: chunk c can gain at most one contribution per finished
    # worker not already holding it.
    for chunk in needy:
        eligible = sum(1 for w in workers if chunk not in holders[w])
        if eligible < deficit[chunk]:
            raise ValueError(
                f"chunk {int(chunk)} needs {int(deficit[chunk])} more "
                f"contributions but only {eligible} finished workers can help"
            )
    # Greedy balanced assignment: per chunk, pick the eligible workers with
    # the smallest (load + 1) / speed — i.e. keep estimated finish times of
    # the repair work level across workers.
    load = {w: 0.0 for w in workers}
    extra: dict[int, list[int]] = {w: [] for w in workers}
    for chunk in needy:
        eligible = [w for w in workers if chunk not in holders[w]]
        eligible.sort(key=lambda w: ((load[w] + 1.0) / max(speeds[w], 1e-12), w))
        for w in eligible[: int(deficit[chunk])]:
            extra[w].append(int(chunk))
            load[w] += 1.0
    return {
        w: np.asarray(chunks, dtype=np.int64)
        for w, chunks in extra.items()
        if chunks
    }


class TestTimeoutPolicy:
    def test_deadline(self):
        policy = TimeoutPolicy(slack=0.15)
        assert policy.deadline(10.0) == pytest.approx(11.5)

    def test_defaults_match_paper(self):
        policy = TimeoutPolicy()
        assert policy.slack == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(slack=-0.1)
        with pytest.raises(ValueError):
            TimeoutPolicy(min_responses=0)


def apply_repair(completed, extra):
    merged = {w: set(map(int, chunks)) for w, chunks in completed.items()}
    for w, chunks in extra.items():
        for c in chunks:
            assert int(c) not in merged[w], "worker asked to recompute a chunk"
            merged[w].add(int(c))
    return merged


def coverage_after(merged, num_chunks):
    cov = np.zeros(num_chunks, dtype=int)
    for chunks in merged.values():
        for c in chunks:
            cov[c] += 1
    return cov


class TestRepairAssignments:
    def make_plan(self, speeds, coverage=4, num_chunks=20):
        sched = GeneralS2C2Scheduler(coverage=coverage, num_chunks=num_chunks)
        return sched.plan(np.asarray(speeds, dtype=float))

    def test_no_deficit_returns_empty(self):
        plan = self.make_plan(np.ones(6))
        completed = {
            a.worker: a.chunk_indices() for a in plan.assignments
        }
        assert repair_assignments(plan, completed, np.ones(6)) == {}

    def test_single_failure_repaired(self):
        plan = self.make_plan(np.ones(6))
        completed = {
            a.worker: a.chunk_indices()
            for a in plan.assignments
            if a.worker != 3
        }
        extra = repair_assignments(plan, completed, np.ones(6))
        merged = apply_repair(completed, extra)
        cov = coverage_after(merged, plan.num_chunks)
        assert np.all(cov >= plan.coverage)

    def test_repair_load_follows_speed(self):
        # Low coverage => plenty of eligible helpers per deficient chunk,
        # so the speed-based balancing is unconstrained by eligibility.
        plan = self.make_plan(np.ones(6), coverage=2, num_chunks=60)
        completed = {
            a.worker: a.chunk_indices()
            for a in plan.assignments
            if a.worker not in (4, 5)
        }
        speeds = np.array([4.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        extra = repair_assignments(plan, completed, speeds)
        loads = {w: len(c) for w, c in extra.items()}
        others = [loads.get(w, 0) for w in (1, 2, 3)]
        assert loads.get(0, 0) > np.mean(others)

    def test_unrecoverable_raises(self):
        plan = self.make_plan(np.ones(5), coverage=4, num_chunks=10)
        # Only 3 finished workers but coverage 4 → some chunk can't reach 4.
        completed = {
            a.worker: a.chunk_indices()
            for a in plan.assignments
            if a.worker < 3
        }
        with pytest.raises(ValueError, match="only"):
            repair_assignments(plan, completed, np.ones(5))

    def test_no_completed_workers_raises(self):
        plan = self.make_plan(np.ones(5), coverage=2, num_chunks=10)
        with pytest.raises(ValueError):
            repair_assignments(plan, {}, np.ones(5))

    @given(
        n=st.integers(4, 12),
        coverage=st.integers(2, 6),
        num_chunks=st.integers(4, 40),
        n_failed=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_repair_restores_coverage(
        self, n, coverage, num_chunks, n_failed, seed
    ):
        coverage = min(coverage, n - 1)
        n_failed = min(n_failed, n - coverage)
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(0.5, 2.0, size=n)
        plan = self.make_plan(speeds, coverage=coverage, num_chunks=num_chunks)
        failed = set(rng.choice(n, size=n_failed, replace=False).tolist())
        completed = {
            a.worker: a.chunk_indices()
            for a in plan.assignments
            if a.worker not in failed
        }
        if len(completed) < coverage:
            return  # genuinely unrecoverable; covered by dedicated test
        # At least ``coverage`` finished workers: repair cannot fail.
        extra = repair_assignments(plan, completed, speeds)
        merged = apply_repair(completed, extra)
        cov = coverage_after(merged, plan.num_chunks)
        assert np.all(cov >= plan.coverage)

    def test_speeds_of_wrong_length_rejected(self):
        plan = self.make_plan(np.ones(6))
        completed = {w: plan.assignments[w].chunk_indices() for w in range(5)}
        with pytest.raises(ValueError, match="speeds"):
            repair_assignments(plan, completed, np.ones(5))

    def test_worker_id_out_of_range_rejected(self):
        plan = self.make_plan(np.ones(6))
        with pytest.raises(ValueError, match="completed: worker 6"):
            repair_assignments(plan, {0: [0], 6: [1]}, np.ones(6))
        with pytest.raises(ValueError, match="completed: worker -1"):
            repair_assignments(plan, {-1: [1]}, np.ones(6))

    def test_chunk_id_out_of_range_rejected(self):
        plan = self.make_plan(np.ones(6), num_chunks=20)
        with pytest.raises(ValueError, match="completed: worker 2 .* chunk"):
            repair_assignments(plan, {1: [0], 2: [3, 20]}, np.ones(6))
        with pytest.raises(ValueError, match="completed: worker 2 .* chunk"):
            repair_assignments(plan, {2: [-1]}, np.ones(6))

    def test_nan_speed_rejected(self):
        plan = self.make_plan(np.ones(6))
        completed = {w: plan.assignments[w].chunk_indices() for w in range(5)}
        speeds = np.ones(6)
        speeds[1] = np.nan
        with pytest.raises(ValueError, match="speeds must be finite"):
            repair_assignments(plan, completed, speeds)

    def test_negative_speed_rejected(self):
        plan = self.make_plan(np.ones(6))
        completed = {w: plan.assignments[w].chunk_indices() for w in range(5)}
        speeds = np.ones(6)
        speeds[2] = -1.0
        with pytest.raises(ValueError, match="speeds must be finite and >= 0"):
            repair_assignments(plan, completed, speeds)

    def test_repeated_chunk_rejected(self):
        plan = self.make_plan(np.ones(6), num_chunks=20)
        completed = {w: plan.assignments[w].chunk_indices() for w in range(5)}
        completed[3] = np.append(completed[3], completed[3][0])
        with pytest.raises(
            ValueError, match=f"worker 3 lists chunk {completed[3][0]} twice"
        ):
            repair_assignments(plan, completed, np.ones(6))

    def test_zero_speed_helper_is_picked_last(self):
        # Zero is a legal observed speed: the stalled helper gets work only
        # when no faster eligible helper is left (the 1e-12 clamp).
        plan = self.make_plan(np.ones(6), coverage=2, num_chunks=12)
        completed = {
            a.worker: a.chunk_indices() for a in plan.assignments if a.worker != 5
        }
        speeds = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        extra = repair_assignments(plan, completed, speeds)
        assert 0 not in extra
        assert extra.keys() == reference_repair_assignments(
            plan, completed, speeds
        ).keys()

    def test_batched_form_validates_arguments(self):
        plan = self.make_plan(np.ones(6))
        finished = np.ones((3, 6), dtype=bool)
        with pytest.raises(ValueError, match="boolean"):
            repair_assignments(plan, finished.astype(int), np.ones((3, 6)))
        with pytest.raises(ValueError, match="boolean"):
            repair_assignments(plan, finished[0], np.ones((3, 6)))
        with pytest.raises(ValueError, match="plan: got 2 plans for 3 trials"):
            repair_assignments([plan, plan], finished, np.ones((3, 6)))
        with pytest.raises(ValueError, match="speeds must have shape"):
            repair_assignments(plan, finished, np.ones((3, 5)))
        other = self.make_plan(np.ones(6), num_chunks=21)
        with pytest.raises(ValueError, match="share num_chunks"):
            repair_assignments([plan, plan, other], finished, np.ones((3, 6)))
        finished[1, 2:] = False  # two finished workers cannot cover k=4
        with pytest.raises(ValueError, match="trial 1: chunk .* only"):
            repair_assignments(plan, finished, np.ones((3, 6)))


def _random_exact_plan(rng, n, coverage, num_chunks, n_idle):
    """An exact-coverage wraparound plan leaving ``n_idle`` workers idle."""
    active = rng.choice(n, size=n - n_idle, replace=False)
    counts = np.zeros(n, dtype=np.int64)
    total = coverage * num_chunks
    share = np.floor(rng.dirichlet(np.ones(active.size)) * total).astype(np.int64)
    counts[active] = np.minimum(share, num_chunks)
    while counts.sum() < total:  # top up workers below the per-worker cap
        room = active[counts[active] < num_chunks]
        counts[rng.choice(room)] += 1
    return wraparound_plan(counts, coverage, num_chunks)


def _plan_holding(completed, n, num_chunks, coverage):
    """A plan whose worker ``w`` computes exactly ``completed[w]``."""
    assignments = []
    for w in range(n):
        chunks = np.sort(np.asarray(completed.get(w, ()), dtype=np.int64))
        runs = np.split(chunks, np.flatnonzero(np.diff(chunks) != 1) + 1)
        ranges = tuple((int(r[0]), int(r[-1]) + 1) for r in runs if r.size)
        assignments.append(ChunkAssignment(worker=w, ranges=ranges))
    return CodedWorkPlan(n, num_chunks, coverage, tuple(assignments))


def _random_repair_case(rng, n, coverage, num_chunks):
    """A plan, a (possibly partial) ``completed`` map and observed speeds.

    Finished workers may have sent only part of their chunks; idle workers
    (assigned nothing) may join as helpers with nothing sent; speeds are
    often tied (and sometimes zero) to exercise the tie-break.
    """
    n_idle = int(rng.integers(0, n - coverage + 1))
    plan = _random_exact_plan(rng, n, coverage, num_chunks, n_idle)
    completed = {}
    for w in np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0)).tolist():
        chunks = plan.assignments[w].chunk_indices()
        if rng.random() < 0.3:
            chunks = chunks[rng.random(chunks.size) < 0.6]
        completed[w] = chunks
    if rng.random() < 0.5:
        speeds = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0], size=n)
    else:
        speeds = rng.uniform(0.2, 3.0, size=n)
    return plan, completed, speeds


def _as_sets(extra):
    return {int(w): sorted(map(int, chunks)) for w, chunks in extra.items()}


class TestVectorisedGreedy:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        coverage=st.integers(1, 12),
        num_chunks=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_form_matches_frozen_reference(
        self, seed, n, coverage, num_chunks
    ):
        rng = np.random.default_rng(seed)
        plan, completed, speeds = _random_repair_case(
            rng, n, min(coverage, n), num_chunks
        )
        try:
            expected = reference_repair_assignments(plan, completed, speeds)
        except ValueError:
            with pytest.raises(ValueError):
                repair_assignments(plan, completed, speeds)
            return
        got = repair_assignments(plan, completed, speeds)
        assert _as_sets(got) == _as_sets(expected)
        for chunks in got.values():
            assert chunks.dtype == np.int64

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        coverage=st.integers(1, 12),
        num_chunks=st.integers(1, 40),
        trials=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_scalar_form(
        self, seed, n, coverage, num_chunks, trials
    ):
        # One batch of feasible trials returns, per trial, the extra-chunk
        # sets of the scalar form (and of the frozen reference).
        rng = np.random.default_rng(seed)
        coverage = min(coverage, n)
        plans, finished, speeds, expected = [], [], [], []
        while len(plans) < trials:
            plan, completed, row = _random_repair_case(
                rng, n, coverage, num_chunks
            )
            if len(completed) < coverage:
                continue  # infeasible whenever some chunk is short
            expected.append(_as_sets(repair_assignments(plan, completed, row)))
            assert expected[-1] == _as_sets(
                reference_repair_assignments(plan, completed, row)
            )
            plans.append(_plan_holding(completed, n, num_chunks, coverage))
            finished.append([w in completed for w in range(n)])
            speeds.append(row)
        extra = repair_assignments(plans, np.array(finished), np.array(speeds))
        assert extra.shape == (trials, n, num_chunks) and extra.dtype == bool
        for t in range(trials):
            got = {
                w: np.flatnonzero(extra[t, w]).tolist()
                for w in range(n)
                if extra[t, w].any()
            }
            assert got == expected[t], f"trial {t}"

    def test_shared_plan_broadcasts(self):
        plan = GeneralS2C2Scheduler(coverage=3, num_chunks=24).plan(np.ones(6))
        finished = np.array([[1, 1, 1, 1, 0, 1], [0, 1, 1, 1, 1, 1]], dtype=bool)
        speeds = np.array([[1.0, 2.0, 1.0, 1.0, 1.0, 1.0], [1.0] * 6])
        extra = repair_assignments(plan, finished, speeds)
        for t in range(2):
            completed = {
                w: plan.assignments[w].chunk_indices()
                for w in np.flatnonzero(finished[t]).tolist()
            }
            scalar = repair_assignments(plan, completed, speeds[t])
            assert {
                w: np.flatnonzero(extra[t, w]).tolist()
                for w in range(6)
                if extra[t, w].any()
            } == _as_sets(scalar)
