"""Batched plan construction: the array form of Algorithm 1 and ``PlanBatch``.

Every built-in scheduler plans a whole ``(trials, workers)`` speed matrix
in one array pass and returns a :class:`PlanBatch`.  The per-row planner
they replaced is frozen below as the oracle: each trial's plan must equal
it range for range, and the batch's holder mask must equal the plan's.
That both simulator backends give the same outcome for a scheduler's
batch as the frozen per-trial walk does for its trials one by one is
pinned in ``tests/cluster/test_run_view.py``.
"""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _row_sums,
    allocate_chunks,
    wraparound_plan,
)
from repro.scheduling.static import StaticCodedScheduler


# ---------------------------------------------------------------------------
# The per-row planner, frozen as the oracle
# ---------------------------------------------------------------------------


def reference_allocate_chunks(speeds, coverage, num_chunks):
    """Algorithm 1's allocation step, one row at a time in pure Python."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 1:
        raise ValueError("speeds must be 1-D")
    n = speeds.size
    alive = speeds > 0
    if int(alive.sum()) < coverage:
        raise ValueError(
            f"only {int(alive.sum())} workers have positive speed; "
            f"coverage {coverage} is infeasible under the per-worker cap"
        )
    total = coverage * num_chunks
    counts = np.zeros(n, dtype=np.int64)
    active = [int(i) for i in np.flatnonzero(alive)]
    remaining = total
    while True:
        share_sum = float(speeds[active].sum())
        capped = [
            w for w in active if speeds[w] / share_sum * remaining >= num_chunks
        ]
        if not capped:
            break
        for w in capped:
            counts[w] = num_chunks
            active.remove(w)
        remaining -= num_chunks * len(capped)
        if not active:
            break
    if remaining > 0:
        share_sum = float(speeds[active].sum())
        exact = speeds[active] / share_sum * remaining
        floors = np.floor(exact).astype(np.int64)
        counts[active] = floors
        shortfall = remaining - int(floors.sum())
        for _ in range(shortfall):
            candidates = [w for w in active if counts[w] < num_chunks]
            best = min(candidates, key=lambda w: ((counts[w] + 1) / speeds[w], w))
            counts[best] += 1
    if counts.sum() != total or counts.max(initial=0) > num_chunks:
        raise AssertionError("allocation failed to converge")
    return counts


def reference_wraparound_plan(counts, coverage, num_chunks):
    """The wraparound layout, one worker at a time."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    if counts.sum() != coverage * num_chunks:
        raise ValueError(
            f"counts sum {counts.sum()} != coverage*num_chunks "
            f"{coverage * num_chunks}"
        )
    if counts.max(initial=0) > num_chunks:
        raise ValueError("a worker count exceeds num_chunks")
    ranges_per_worker = [()] * n
    cursor = 0
    order = np.lexsort((np.arange(n), -counts))
    for worker in order:
        share = int(counts[worker])
        if share == 0:
            continue
        begin = cursor % num_chunks
        end = begin + share
        if end <= num_chunks:
            ranges_per_worker[worker] = ((begin, end),)
        else:
            ranges_per_worker[worker] = ((begin, num_chunks), (0, end - num_chunks))
        cursor += share
    assignments = tuple(
        ChunkAssignment(worker=w, ranges=ranges_per_worker[w]) for w in range(n)
    )
    return CodedWorkPlan(
        n_workers=n,
        num_chunks=num_chunks,
        coverage=coverage,
        assignments=assignments,
    )


def reference_classify(speeds, straggler_threshold):
    """Basic S2C2's fast/straggler classification of one row."""
    fastest = float(speeds.max(initial=0.0))
    return np.where(speeds >= straggler_threshold * fastest, 1.0, 0.0)


def reference_plan_binary(binary, coverage, num_chunks):
    """Allocate, lay out, or fall back to the full plan (§4.4)."""
    try:
        counts = reference_allocate_chunks(binary, coverage, num_chunks)
    except ValueError:
        return full_plan(binary.size, num_chunks, coverage)
    return reference_wraparound_plan(counts, coverage, num_chunks)


def reference_plan(scheduler, speeds):
    """The oracle plan of one row for a built-in scheduler."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if isinstance(scheduler, BasicS2C2Scheduler):
        speeds = reference_classify(speeds, scheduler.straggler_threshold)
    return reference_plan_binary(speeds, scheduler.coverage, scheduler.num_chunks)


# ---------------------------------------------------------------------------
# Fuzz inputs
# ---------------------------------------------------------------------------


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


def _assert_plans_equal(got, want):
    assert (got.n_workers, got.num_chunks, got.coverage) == (
        want.n_workers, want.num_chunks, want.coverage
    )
    assert got.assignments == want.assignments
    for assignment in got.assignments:
        for begin, end in assignment.ranges:
            assert type(begin) is int and type(end) is int


CHUNK_COUNTS = st.one_of(st.integers(1, 300), st.just(10_000))


class TestAgainstFrozenPlanner:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        coverage=st.integers(1, 50),
        num_chunks=CHUNK_COUNTS,
        trials=st.integers(1, 4),
        basic=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_equal_oracle_plans(
        self, seed, n, coverage, num_chunks, trials, basic
    ):
        rng = np.random.default_rng(seed)
        coverage = min(coverage, n)
        if basic:
            scheduler = BasicS2C2Scheduler(
                coverage, num_chunks, float(rng.choice([0.2, 0.5, 1.0]))
            )
        else:
            scheduler = GeneralS2C2Scheduler(coverage, num_chunks)
        speeds = _speed_rows(rng, trials, n, coverage)
        batch = plan_batch(scheduler, speeds)
        assert isinstance(batch, PlanBatch) and len(batch) == trials
        mask = batch.chunk_mask()
        assert mask.shape == (trials, n, num_chunks) and mask.dtype == bool
        for t in range(trials):
            want = reference_plan(scheduler, speeds[t])
            _assert_plans_equal(batch[t], want)
            _assert_plans_equal(scheduler.plan(speeds[t]), want)
            np.testing.assert_array_equal(mask[t], batch[t].chunk_mask())
            assert bool(batch.full[t]) == all(
                a.ranges == ((0, num_chunks),) for a in want.assignments
            )
            if not batch.full[t]:
                assert batch.exact[t]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        trials=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_share_sums_equal_one_dimensional_sums(self, seed, n, trials):
        # The oracle sums each row's live speeds as a 1-D array; numpy sums
        # eight or more elements pairwise, so the batch must not zero-pad.
        rng = np.random.default_rng(seed)
        values = 10.0 ** rng.uniform(-3.0, 3.0, (trials, n))
        mask = rng.random((trials, n)) < rng.uniform(0.2, 1.0)
        sums = _row_sums(np.where(mask, values, 0.0), mask)
        for t in range(trials):
            assert sums[t] == (values[t][mask[t]].sum() if mask[t].any() else 0.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        coverage=st.integers(1, 50),
        num_chunks=CHUNK_COUNTS,
    )
    @settings(max_examples=150, deadline=None)
    def test_one_row_calls_equal_oracle(self, seed, n, coverage, num_chunks):
        rng = np.random.default_rng(seed)
        coverage = min(coverage, n)
        speeds = _speed_rows(rng, 1, n, coverage)[0]
        try:
            want = reference_allocate_chunks(speeds, coverage, num_chunks)
        except ValueError:
            with pytest.raises(ValueError, match="infeasible"):
                allocate_chunks(speeds, coverage, num_chunks)
            return
        counts = allocate_chunks(speeds, coverage, num_chunks)
        np.testing.assert_array_equal(counts, want)
        _assert_plans_equal(
            wraparound_plan(counts, coverage, num_chunks),
            reference_wraparound_plan(counts, coverage, num_chunks),
        )


class TestPlanBatchValue:
    def test_from_plans_round_trips_arcs(self):
        scheduler = GeneralS2C2Scheduler(coverage=3, num_chunks=20)
        speeds = np.random.default_rng(3).uniform(0.2, 2.0, size=(5, 6))
        batch = plan_batch(scheduler, speeds)
        again = PlanBatch.from_plans([batch[t] for t in range(len(batch))])
        np.testing.assert_array_equal(again.begin, batch.begin)
        np.testing.assert_array_equal(again.count, batch.count)
        assert again.kept == ()

    def test_non_arc_plan_is_kept_and_general(self):
        split = CodedWorkPlan(
            n_workers=3,
            num_chunks=6,
            coverage=1,
            assignments=(
                ChunkAssignment(0, ((0, 2), (4, 6))),
                ChunkAssignment(1, ((2, 4),)),
                ChunkAssignment(2, ()),
            ),
        )
        shared = full_plan(3, 6, 1)
        batch = PlanBatch.from_plans([shared, split, shared])
        assert batch[1] is split
        np.testing.assert_array_equal(batch.full, [True, False, True])
        np.testing.assert_array_equal(batch.exact, [False, False, False])
        np.testing.assert_array_equal(batch.count[1], [4, 2, 0])
        np.testing.assert_array_equal(batch.chunk_mask()[1], split.chunk_mask())
        np.testing.assert_array_equal(
            batch.rows(ChunkGrid(12, 6).chunk_offsets())[1], [8, 4, 0]
        )
        sub = batch.subset(np.array([1, 1, 0]))
        assert sub[0] is split and sub[1] is split and sub.kept[2] is None

    def test_exact_needs_every_chunk_at_coverage(self):
        # Arcs of the right total that double up somewhere are general.
        batch = PlanBatch(
            np.array([[0, 0, 3], [0, 2, 0]]),
            np.array([[2, 4, 2], [2, 2, 4]]),
            coverage=2,
            num_chunks=4,
        )
        np.testing.assert_array_equal(batch.exact, [False, True])
        batch[1].validate(exact=True)

    def test_rejects_arcs_outside_the_circle(self):
        with pytest.raises(ValueError, match="arcs"):
            PlanBatch(np.array([[4, 0]]), np.array([[1, 1]]), 1, 4)
        with pytest.raises(ValueError, match="arcs"):
            PlanBatch(np.array([[0, 0]]), np.array([[5, 1]]), 1, 4)
        with pytest.raises(ValueError, match="exceeds n_workers"):
            PlanBatch(np.zeros((1, 2)), np.full((1, 2), 4), 3, 4)
        with pytest.raises(ValueError, match="share num_chunks"):
            PlanBatch.from_plans([full_plan(3, 6, 1), full_plan(3, 7, 1)])


class TestPlanBatch:
    def test_matches_scalar_plans(self):
        scheduler = GeneralS2C2Scheduler(coverage=4, num_chunks=24)
        rng = np.random.default_rng(0)
        speeds = rng.uniform(0.2, 1.5, size=(6, 8))
        plans = plan_batch(scheduler, speeds)
        assert len(plans) == 6
        for plan, row in zip(plans, speeds):
            want = scheduler.plan(row)
            assert plan.assignments == want.assignments

    def test_identical_rows_get_equal_plans(self):
        scheduler = GeneralS2C2Scheduler(coverage=4, num_chunks=24)
        row = np.linspace(0.5, 1.5, 8)
        plans = plan_batch(scheduler, np.stack([row, row, row]))
        assert plans[0] == plans[1] == plans[2]

    def test_static_scheduler_plans_full_arcs(self):
        scheduler = StaticCodedScheduler(coverage=4, num_chunks=24)
        speeds = np.random.default_rng(1).uniform(0.2, 1.5, size=(5, 8))
        plans = plan_batch(scheduler, speeds)
        assert all(p == plans[0] for p in plans)
        assert plans.full.all()
        assert plans[0].assignments[0].ranges == ((0, 24),)

    def test_basic_s2c2_plans_on_classification(self):
        scheduler = BasicS2C2Scheduler(coverage=4, num_chunks=24)
        rng = np.random.default_rng(2)
        # Distinct speeds, identical fast/straggler pattern (worker 7 slow).
        speeds = rng.uniform(0.9, 1.1, size=(4, 8))
        speeds[:, 7] = 0.1
        plans = plan_batch(scheduler, speeds)
        assert all(p == plans[0] for p in plans)
        for row in speeds:
            assert scheduler.plan(row).assignments == plans[0].assignments

    def test_plan_only_scheduler_goes_through_from_plans(self):
        class PlanOnly:
            def plan(self, speeds):
                return full_plan(speeds.size, 12, 2)

        batch = plan_batch(PlanOnly(), np.ones((3, 4)))
        assert isinstance(batch, PlanBatch) and batch.full.all()

    def test_rejects_1d_speeds(self):
        with pytest.raises(ValueError, match="2-D"):
            plan_batch(GeneralS2C2Scheduler(coverage=4, num_chunks=24), np.ones(8))
        with pytest.raises(ValueError, match="2-D"):
            StaticCodedScheduler(coverage=4, num_chunks=24).plan_batch(np.ones(8))


SCHEDULERS = {
    "general": GeneralS2C2Scheduler(coverage=2, num_chunks=12),
    "basic": BasicS2C2Scheduler(coverage=2, num_chunks=12),
    "static": StaticCodedScheduler(coverage=2, num_chunks=12),
}


@pytest.fixture
def alarm():
    """Fail a call that hangs instead of hanging the suite."""

    def timed_out(signum, frame):
        raise TimeoutError("the planner did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


_ROWS = {
    "inf": np.array([np.inf, 1.0, 1.0]),
    "-inf": np.array([-np.inf, 1.0, 1.0]),
    "nan": np.array([np.nan, 1.0, 1.0]),
}
DEGENERATE = [
    *((f"plan-{bad}", "plan", row) for bad, row in _ROWS.items()),
    *((f"plan_batch-{bad}", "plan_batch", row[None]) for bad, row in _ROWS.items()),
    ("plan_batch-no-trials", "plan_batch", np.empty((0, 3))),
]


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize(
    "form, speeds",
    [case[1:] for case in DEGENERATE],
    ids=[case[0] for case in DEGENERATE],
)
def test_degenerate_speeds_are_a_typed_error(alarm, name, form, speeds):
    # NaN, infinities and an empty trial axis are rejected up front, naming
    # ``speeds`` and its shape; an infinite speed used to hang the planner.
    with pytest.raises(ValueError, match=r"speeds .* shape \(\d+, 3\)"):
        getattr(SCHEDULERS[name], form)(speeds)
