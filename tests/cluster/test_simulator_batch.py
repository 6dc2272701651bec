"""Batched-vs-loop equivalence for the Monte-Carlo simulator paths.

The contract of every ``run_batch``: per-trial results are *exactly* equal
(bitwise, not approximately) to looping a per-trial reference over the
same speed rows.  For the coded simulator the reference is the frozen
scalar walk (``coded_reference.py``), since its ``run`` is a one-trial view
of the batch.  These tests sweep the plan shapes the schedulers produce
(full, exact-coverage wraparound, repair-armed — including idle-helper
recruitment, multi-cutoff repair, and opportunistic rejection), general
plans, failures, and both uncoded baselines' stacked outcomes.
Both uncoded ``run`` entries are one row of their stacked pass, so both
entries of each are pinned against the frozen per-trial walks
(``uncoded_reference.py``).  Every ``run_batch`` rejects an empty
trial batch the same way, and the coded entries a plan whose chunk count
is not the grid's.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import scenario_batch
from repro.cluster.simulator import (
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.cluster.speed_models import (
    ControlledSpeeds,
    ReplaySpeeds,
    StackedSpeeds,
)
from repro.coding.partition import ChunkGrid
from repro.scheduling.base import full_plan
from repro.scheduling.overdecomposition import (
    OverDecompositionPlacement,
    OverDecompositionPlan,
    holder_table,
    plan_assignment,
    plan_assignment_batch,
)
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.s2c2 import GeneralS2C2Scheduler, wraparound_plan
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

from coded_reference import reference_run
from uncoded_reference import reference_plan_assignment
from uncoded_reference import reference_run as reference_replication_run


N = 8
COVERAGE = 5
CHUNKS = 40
ROWS = 200


def _speed_batch(trials: int, stragglers: int = 2, seed: int = 7) -> np.ndarray:
    models = [
        ControlledSpeeds(N, num_stragglers=stragglers, seed=seed + 13 * t)
        for t in range(trials)
    ]
    return StackedSpeeds(models).speeds_batch(3)


def _sim(timeout=None, fixed_task_flops: float = 0.0) -> CodedIterationSim:
    # Compute-dominant models (as in the controlled-cluster experiments):
    # straggler slowdowns must show through, or timeouts never fire.
    return CodedIterationSim(
        grid=ChunkGrid(ROWS, CHUNKS),
        width=64,
        timeout=timeout,
        fixed_task_flops=fixed_task_flops,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
    )


def _assert_batch_matches_loop(sim, plans, speeds, failed=frozenset()):
    batch = sim.run_batch(plans, speeds, failed)
    if not isinstance(plans, list):
        plans = [plans] * speeds.shape[0]
    if isinstance(failed, frozenset):
        failed = [failed] * speeds.shape[0]
    for t in range(speeds.shape[0]):
        scalar = reference_run(sim, plans[t], speeds[t], failed[t])
        assert batch.completion_time[t] == scalar.completion_time, f"trial {t}"
        assert batch.decode_time[t] == scalar.decode_time
        assert batch.broadcast_time == scalar.broadcast_time
        assert bool(batch.repaired[t]) == scalar.repaired
        for w, stat in enumerate(scalar.workers):
            assert batch.assigned_rows[t, w] == stat.assigned_rows
            assert batch.computed_rows[t, w] == stat.computed_rows
            assert batch.used_rows[t, w] == stat.used_rows
            assert bool(batch.responded[t, w]) == (stat.response_time is not None)
    return batch


class TestCodedBatchEquivalence:
    def test_full_plan_shared(self):
        plan = StaticCodedScheduler(coverage=COVERAGE, num_chunks=CHUNKS).plan(
            np.ones(N)
        )
        _assert_batch_matches_loop(_sim(), plan, _speed_batch(12))

    def test_full_plan_with_fixed_task_cost(self):
        plan = StaticCodedScheduler(coverage=COVERAGE, num_chunks=CHUNKS).plan(
            np.ones(N)
        )
        sim = _sim(fixed_task_flops=5e5)
        _assert_batch_matches_loop(sim, plan, _speed_batch(6))

    def test_exact_coverage_per_trial_plans(self):
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        speeds = _speed_batch(10)
        plans = [scheduler.plan(row) for row in speeds]
        _assert_batch_matches_loop(_sim(), plans, speeds)

    def test_exact_coverage_with_timeout_repairs(self):
        # Mis-predicted plans: built from all-equal speeds, executed
        # against straggler-laden actual speeds, so the §4.3 deadline
        # fires and the repair path is exercised through the batch API.
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        plan = scheduler.plan(np.ones(N))
        speeds = _speed_batch(10, stragglers=3)
        sim = _sim(timeout=TimeoutPolicy(slack=0.1))
        batch = _assert_batch_matches_loop(sim, plan, speeds)
        assert batch.repaired.any(), "test should exercise the repair fallback"

    def test_full_plan_with_failures(self):
        plan = StaticCodedScheduler(coverage=COVERAGE, num_chunks=CHUNKS).plan(
            np.ones(N)
        )
        speeds = _speed_batch(6, stragglers=0)
        per_trial_failed = [
            frozenset(), frozenset({0}), frozenset({1, 5}),
            frozenset(), frozenset({7}), frozenset({2, 3, 6}),
        ]
        _assert_batch_matches_loop(_sim(), plan, speeds, per_trial_failed)

    def test_exact_plan_failure_needs_repair(self):
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        plan = scheduler.plan(np.ones(N))
        speeds = _speed_batch(4, stragglers=0)
        sim = _sim(timeout=TimeoutPolicy())
        _assert_batch_matches_loop(
            sim, plan, speeds, [frozenset({0})] * speeds.shape[0]
        )

    @pytest.mark.parametrize("min_responses", [None, 4])
    def test_deadline_responses_differ_between_trials(self, min_responses):
        # Five active workers and three idle ones: per-trial failures
        # among the active leave 5, 4 or 3 finite responses, so the §4.3
        # deadline averages a different number of them in each trial.
        counts = np.array([CHUNKS] * 5 + [0] * 3)
        plan = wraparound_plan(counts, COVERAGE, CHUNKS)
        failed = [
            frozenset(), frozenset({0}), frozenset({1, 2}),
            frozenset({4}), frozenset(), frozenset({0, 3}),
        ]
        speeds = _speed_batch(len(failed), stragglers=2, seed=5)
        sim = _sim(timeout=TimeoutPolicy(slack=0.1, min_responses=min_responses))
        batch = _assert_batch_matches_loop(sim, plan, speeds, failed)
        assert batch.repaired[[1, 2, 3, 5]].all()

    def test_repair_recruits_idle_workers(self):
        # Exact-coverage plan that leaves three workers idle: the §4.4
        # rule lets the master recruit them as repair helpers, so the
        # native batch repair must mirror the idle_alive bookkeeping.
        counts = np.array([CHUNKS, CHUNKS, CHUNKS, CHUNKS, CHUNKS, 0, 0, 0])
        plan = wraparound_plan(counts, COVERAGE, CHUNKS)
        plan.validate(exact=True)
        models = [
            ControlledSpeeds(
                N, num_stragglers=2, straggler_ids=(1, 3), seed=7 + 13 * t
            )
            for t in range(10)
        ]
        speeds = StackedSpeeds(models).speeds_batch(3)
        sim = _sim(timeout=TimeoutPolicy(slack=0.05))
        batch = _assert_batch_matches_loop(sim, plan, speeds)
        assert batch.repaired.any(), "idle-helper repair should trigger"
        # Idle workers that received repair work show up in used_rows.
        helped = batch.used_rows[batch.repaired][:, 5:]
        assert helped.sum() > 0, "idle workers should contribute repairs"

    def test_repair_rejected_when_waiting_wins(self):
        # Mild stragglers with zero slack: the deadline arms (exact plans
        # complete at the *last* arrival, past the first-k mean), but
        # recomputing the laggards' chunks takes longer than waiting, so
        # the opportunistic rule rejects every repair.
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        plan = scheduler.plan(np.ones(N))
        models = [
            ControlledSpeeds(N, num_stragglers=2, slowdown=1.05, jitter=0.05,
                             seed=31 + t)
            for t in range(8)
        ]
        speeds = StackedSpeeds(models).speeds_batch(1)
        sim = _sim(timeout=TimeoutPolicy(slack=0.0))
        batch = _assert_batch_matches_loop(sim, plan, speeds)
        assert not batch.repaired.any(), "waiting should win over repair"

    def test_repair_with_straggler_majority_multi_cutoff(self):
        # More stragglers than the coverage slack: at the deadline too few
        # workers have finished for a feasible reassignment, so the master
        # re-attempts at subsequent arrivals (the multi-cutoff walk).
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        plan = scheduler.plan(np.ones(N))
        speeds = _speed_batch(10, stragglers=5, seed=19)
        sim = _sim(timeout=TimeoutPolicy(slack=0.05))
        _assert_batch_matches_loop(sim, plan, speeds)

    def test_repair_under_spot_scenario(self):
        # Scenario-driven speeds end to end: spot preemption collapses
        # workers to a near-dead floor, the classic repair trigger.
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        plan = scheduler.plan(np.ones(N))
        speeds = scenario_batch(
            "spot", N, seeds=range(8), preempt_prob=0.3
        ).speeds_batch(2)
        sim = _sim(timeout=TimeoutPolicy())
        batch = _assert_batch_matches_loop(sim, plan, speeds)
        assert batch.repaired.any()

    def test_per_trial_plans_with_repairs(self):
        # Plans built from stale predictions, one per trial, with repairs
        # firing on a subset — exercises profile reuse across plan objects.
        scheduler = GeneralS2C2Scheduler(coverage=COVERAGE, num_chunks=CHUNKS)
        stale = _speed_batch(8, stragglers=1, seed=3)
        actual = _speed_batch(8, stragglers=3, seed=47)
        plans = [scheduler.plan(row) for row in stale]
        sim = _sim(timeout=TimeoutPolicy(slack=0.1))
        batch = _assert_batch_matches_loop(sim, plans, actual)
        assert batch.repaired.any() and not batch.repaired.all()

    @pytest.mark.parametrize("slack", [None, 0.05])
    def test_general_plan_takes_the_kernel(
        self, monkeypatch, general_plan, slack
    ):
        # Over-covered plans complete by the coverage walk inside the
        # kernel, armed or not, and repair there too: no trial calls
        # ``run``, and every trial equals the frozen walk, failures and
        # tied arrivals (broken by worker index) included.
        timeout = None if slack is None else TimeoutPolicy(slack=slack)
        sim = CodedIterationSim(
            grid=ChunkGrid(ROWS, 4),
            width=64,
            timeout=timeout,
            network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
            cost=CostModel(worker_flops=5e7),
        )
        rng = np.random.default_rng(5)
        speeds = np.exp(rng.normal(0.0, 0.6, (64, 4)))
        speeds[::2] = rng.choice([0.5, 1.0, 2.0], (32, 4))
        failed = [frozenset({t % 4}) if t % 3 == 0 else frozenset()
                  for t in range(64)]

        def forbidden(*args, **kwargs):
            raise AssertionError("run_batch called run")

        monkeypatch.setattr(CodedIterationSim, "run", forbidden)
        batch = _assert_batch_matches_loop(sim, general_plan, speeds, failed)
        if timeout is not None:
            assert batch.repaired.any() and not batch.repaired.all()
            # Some repaired trial had a failed worker among its laggards.
            assert any(batch.repaired[t] and failed[t] for t in range(64))

    def test_unsatisfiable_raises_like_scalar(self):
        plan = StaticCodedScheduler(coverage=N, num_chunks=CHUNKS).plan(np.ones(N))
        speeds = _speed_batch(3, stragglers=0)
        with pytest.raises(RuntimeError, match="cannot complete"):
            _sim().run_batch(plan, speeds, frozenset({0}))

    def test_shape_validation(self):
        plan = StaticCodedScheduler(coverage=COVERAGE, num_chunks=CHUNKS).plan(
            np.ones(N)
        )
        with pytest.raises(ValueError, match="2-D"):
            _sim().run_batch(plan, np.ones(N))
        with pytest.raises(ValueError, match="plans"):
            _sim().run_batch([plan], np.ones((3, N)))


class TestReplicationBatchEquivalence:
    def _sim(self, allow_movement=True):
        config = SpeculationConfig(allow_data_movement=allow_movement)
        placement = ReplicaPlacement(N, config.replication, seed=0)
        return ReplicationIterationSim(
            placement=placement,
            config=config,
            rows_per_partition=25,
            width=64,
        )

    def _check(self, sim, speeds, failed=frozenset()):
        batch = sim.run_batch(speeds, failed)
        assert batch.n_trials == speeds.shape[0]
        failed_list = (
            [failed] * speeds.shape[0] if isinstance(failed, frozenset) else failed
        )
        launches = 0
        for t in range(speeds.shape[0]):
            want = reference_replication_run(sim, speeds[t], failed_list[t])
            assert sim.run(speeds[t], failed_list[t]) == want, f"trial {t}"
            assert batch.completion_time[t] == want.completion_time, f"trial {t}"
            assert batch.broadcast_time == want.broadcast_time
            assert batch.data_moved_bytes[t] == want.data_moved_bytes
            assert batch.migrations[t] == 0
            for w, stat in enumerate(want.workers):
                assert batch.assigned_rows[t, w] == stat.assigned_rows
                assert batch.computed_rows[t, w] == stat.computed_rows
                assert batch.used_rows[t, w] == stat.used_rows
                assert bool(batch.responded[t, w]) == (
                    stat.response_time is not None
                )
            launches += want.speculative_launches
        return launches

    def test_speculation_and_movement(self):
        assert self._check(self._sim(), _speed_batch(8, stragglers=2)) > 0

    def test_strict_locality(self):
        sim = self._sim(allow_movement=False)
        assert self._check(sim, _speed_batch(8, stragglers=1)) > 0

    def test_with_failures(self):
        self._check(
            self._sim(), _speed_batch(4, stragglers=0), frozenset({2})
        )

    @pytest.mark.parametrize("allow_movement", [True, False])
    def test_copies_win_under_compute_dominant_models(self, allow_movement):
        # Controlled-cluster models: a straggler's speculative copy can
        # finish first, cancelling its primary (and, with movement, after
        # fetching the partition to a worker without a replica).
        sim = dataclasses.replace(
            self._sim(allow_movement),
            network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
            cost=CostModel(worker_flops=5e7),
        )
        speeds = _speed_batch(8, stragglers=3)
        assert self._check(sim, speeds) > 0
        batch = sim.run_batch(speeds)
        assert not batch.responded.all()
        assert batch.data_moved_bytes.any() == allow_movement


class TestOverDecompositionBatchEquivalence:
    def _sim(self) -> OverDecompositionIterationSim:
        return OverDecompositionIterationSim(
            rows_per_partition=25,
            width=64,
            network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
            cost=CostModel(worker_flops=5e7),
        )

    @pytest.fixture(autouse=True)
    def _reference(self, overdecomposition_reference):
        self.reference = overdecomposition_reference

    def _check(self, sim, plans, speeds):
        """``run_batch`` rows and ``run`` both equal the frozen reference."""
        batch = sim.run_batch(plans, speeds)
        plan_list = plans if isinstance(plans, list) else [plans] * speeds.shape[0]
        for t in range(speeds.shape[0]):
            want = self.reference(sim, plan_list[t], speeds[t])
            assert batch.completion_time[t] == want.completion_time, f"trial {t}"
            assert batch.broadcast_time == want.broadcast_time
            assert batch.data_moved_bytes[t] == want.data_moved_bytes
            assert batch.migrations[t] == want.migrations
            for w, stat in enumerate(want.workers):
                assert batch.assigned_rows[t, w] == stat.assigned_rows
                assert batch.computed_rows[t, w] == stat.computed_rows
                assert batch.used_rows[t, w] == stat.used_rows
                assert bool(batch.responded[t, w]) == (
                    stat.response_time is not None
                )
            assert sim.run(plan_list[t], speeds[t]) == want, f"trial {t}"
        return batch

    def test_per_trial_plans_with_migrations(self):
        placement = OverDecompositionPlacement(N, factor=4, replication=1.42)
        predicted = _speed_batch(10, stragglers=2, seed=5)
        actual = _speed_batch(10, stragglers=2, seed=29)
        plans = [reference_plan_assignment(placement.holders, row, N) for row in predicted]
        batch = self._check(self._sim(), plans, actual)
        assert batch.migrations.sum() > 0, "skewed speeds should migrate"

    def test_stacked_plan_equals_its_rows(self):
        # The runner's planner returns one plan with (trials, partitions)
        # rows; run_batch reads it like the list of its rows.
        placement = OverDecompositionPlacement(N, factor=4, replication=1.42)
        predicted = _speed_batch(10, stragglers=2, seed=5)
        actual = _speed_batch(10, stragglers=2, seed=29)
        stacked = plan_assignment_batch(
            np.repeat(holder_table(placement.holders)[None], 10, axis=0), predicted
        )
        rows = [
            OverDecompositionPlan(owner=o, migrated=m)
            for o, m in zip(stacked.owner, stacked.migrated)
        ]
        sim = self._sim()
        want = self._check(sim, rows, actual)
        got = sim.run_batch(stacked, actual)
        for f in dataclasses.fields(got):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
        with pytest.raises(ValueError, match="got 10 plans for 3 trials"):
            sim.run_batch(stacked, actual[:3])

    def test_shared_plan(self):
        placement = OverDecompositionPlacement(N, factor=3, replication=1.0)
        plan = plan_assignment(placement.holders, np.ones(N), N)
        self._check(self._sim(), plan, _speed_batch(6, stragglers=1))

    def test_failed_owner_raises_like_scalar(self):
        placement = OverDecompositionPlacement(N, factor=2, replication=1.0)
        plan = plan_assignment(placement.holders, np.ones(N), N)
        speeds = _speed_batch(3, stragglers=0)
        with pytest.raises(RuntimeError, match="no repair path"):
            self.reference(self._sim(), plan, speeds[0], frozenset({0}))
        with pytest.raises(RuntimeError, match="no repair path"):
            self._sim().run(plan, speeds[0], frozenset({0}))
        with pytest.raises(RuntimeError, match="no repair path"):
            self._sim().run_batch(plan, speeds, frozenset({0}))

    def test_plan_count_validated(self):
        placement = OverDecompositionPlacement(N, factor=2, replication=1.0)
        plan = plan_assignment(placement.holders, np.ones(N), N)
        with pytest.raises(ValueError, match="plans"):
            self._sim().run_batch([plan], _speed_batch(3, stragglers=0))


def _shared_full_plan():
    return StaticCodedScheduler(coverage=COVERAGE, num_chunks=CHUNKS).plan(np.ones(N))


def _shared_partition_plan():
    placement = OverDecompositionPlacement(N, factor=2, replication=1.0)
    return plan_assignment(placement.holders, np.ones(N), N)


@pytest.mark.parametrize(
    "simulate",
    [
        lambda speeds: _sim().run_batch(_shared_full_plan(), speeds),
        lambda speeds: EventDrivenIterationSim(
            grid=ChunkGrid(ROWS, CHUNKS), width=64
        ).run_batch(_shared_full_plan(), speeds),
        lambda speeds: ReplicationIterationSim(
            placement=ReplicaPlacement(N, 3, seed=0),
            config=SpeculationConfig(),
            rows_per_partition=25,
            width=64,
        ).run_batch(speeds),
        lambda speeds: OverDecompositionIterationSim(
            rows_per_partition=25, width=64
        ).run_batch(_shared_partition_plan(), speeds),
    ],
    ids=["coded", "event", "replication", "overdecomposition"],
)
def test_empty_trial_batch_is_a_typed_error(simulate):
    # Every run_batch shares one validation: an empty trial axis names
    # ``speeds`` and its shape instead of failing deep inside numpy.
    with pytest.raises(ValueError, match=r"speeds .* got shape \(0, 8\)"):
        simulate(np.empty((0, N)))


_SIMULATORS = {
    "coded": lambda: (_sim(), (_shared_full_plan(),)),
    "event": lambda: (
        EventDrivenIterationSim(grid=ChunkGrid(ROWS, CHUNKS), width=64),
        (_shared_full_plan(),),
    ),
    "replication": lambda: (
        ReplicationIterationSim(
            placement=ReplicaPlacement(N, 3, seed=0),
            config=SpeculationConfig(),
            rows_per_partition=25,
            width=64,
        ),
        (),
    ),
    "overdecomposition": lambda: (
        OverDecompositionIterationSim(rows_per_partition=25, width=64),
        (_shared_partition_plan(),),
    ),
}


@pytest.mark.parametrize("index", [-1, N])
@pytest.mark.parametrize("entry", ["run", "run_batch"])
@pytest.mark.parametrize("simulator", sorted(_SIMULATORS))
def test_out_of_range_failed_worker_is_a_typed_error(simulator, entry, index):
    # Every entry checks failure indices alike: a negative index does not
    # fail a worker through numpy's wrap-around, and one past the end is
    # neither ignored nor a bare IndexError.
    sim, plan_args = _SIMULATORS[simulator]()
    speeds = _speed_batch(2)
    message = rf"failed_workers must index the {N} workers, got {index}$"
    if entry == "run":
        with pytest.raises(ValueError, match=message):
            sim.run(*plan_args, speeds[0], frozenset({index}))
        return
    for failed in (frozenset({index}), [frozenset(), frozenset({index})]):
        with pytest.raises(ValueError, match=message):
            sim.run_batch(*plan_args, speeds, failed)


_CODED_BACKENDS = {
    "closed": CodedIterationSim, "event": EventDrivenIterationSim,
}
_GRID_CHUNKS = r"plans have \d chunks, the simulator's grid 4$"
#: Degenerate inputs to the coded entries on a 12-row, 4-chunk grid:
#: ``(plan, failed_workers, expected error or None for a defined result)``.
DEGENERATE_CODED = {
    "fewer-chunks": (full_plan(3, 3, 2), frozenset(), (ValueError, _GRID_CHUNKS)),
    "more-chunks": (full_plan(3, 5, 2), frozenset(), (ValueError, _GRID_CHUNKS)),
    "many-more-chunks": (
        full_plan(3, 9, 2), frozenset(), (ValueError, _GRID_CHUNKS)
    ),
    "one-worker": (full_plan(1, 4, 1), frozenset(), None),
    "k-equals-n": (full_plan(3, 4, 3), frozenset(), None),
    "failures-beyond-n-minus-k": (
        full_plan(3, 4, 2), frozenset({0, 1}), (RuntimeError, "cannot complete")
    ),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CODED))
@pytest.mark.parametrize("entry", ["run", "run_batch"])
@pytest.mark.parametrize("backend", sorted(_CODED_BACKENDS))
def test_degenerate_coded_inputs(backend, entry, case):
    # A plan over another chunk count used to simulate part of the matrix
    # or fail with a bare IndexError; it now names ``plans`` and both
    # counts.  One worker and k = n run to the frozen walk's result, and
    # more failures than n − k cannot complete even with repair armed.
    plan, failed, error = DEGENERATE_CODED[case]
    sim = _CODED_BACKENDS[backend](
        grid=ChunkGrid(12, 4), width=16, timeout=TimeoutPolicy()
    )
    speeds = np.tile(np.linspace(1.0, 2.0, plan.n_workers), (2, 1))
    if entry == "run":
        call = lambda: sim.run(plan, speeds[0], failed)  # noqa: E731
    else:
        call = lambda: sim.run_batch(plan, speeds, failed)  # noqa: E731
    if error is not None:
        with pytest.raises(error[0], match=error[1]):
            call()
        return
    completion = np.atleast_1d(call().completion_time)
    want = reference_run(sim, plan, speeds[0], failed).completion_time
    np.testing.assert_array_equal(completion, want)


class TestBatchSpeedModels:
    def test_stacked_matches_singles(self):
        models = [ControlledSpeeds(5, num_stragglers=1, seed=s) for s in range(4)]
        batch = StackedSpeeds(
            [ControlledSpeeds(5, num_stragglers=1, seed=s) for s in range(4)]
        )
        for it in range(3):
            got = batch.speeds_batch(it)
            assert got.shape == (4, 5)
            for t, m in enumerate(models):
                np.testing.assert_array_equal(got[t], m.speeds(it))

    def test_stacked_rejects_mismatched_widths(self):
        with pytest.raises(ValueError, match="n_workers"):
            StackedSpeeds([ControlledSpeeds(4), ControlledSpeeds(5)])

    def test_replay_row_view(self):
        rng = np.random.default_rng(0)
        traces = rng.uniform(0.5, 1.5, size=(3, 6, 9))
        batch = ReplaySpeeds(traces)
        assert (batch.n_trials, batch.n_workers, batch.length) == (3, 6, 9)
        for it in (0, 4, 9, 13):  # includes wrap-around
            got = batch.speeds_batch(it)
            for t in range(3):
                np.testing.assert_array_equal(got[t], batch.row(t).speeds(it))
                np.testing.assert_array_equal(got[t], traces[t][:, it % 9])

    def test_replay_of_stacked_traces(self):
        rng = np.random.default_rng(1)
        per_trial = [rng.uniform(0.5, 1.5, size=(4, 7)) for _ in range(5)]
        batch = ReplaySpeeds(np.stack(per_trial))
        np.testing.assert_array_equal(batch.speeds_batch(2)[3], per_trial[3][:, 2])
