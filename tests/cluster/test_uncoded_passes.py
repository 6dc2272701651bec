"""The uncoded baselines' array rounds against the frozen per-trial walks.

``ReplicationIterationSim`` resolves every trial's speculation in one
array pass, and ``BatchOverDecompositionRunner`` plans every trial of a
round in one ``plan_assignment_batch`` call over its ``(trials,
partitions, slots)`` holder table.  The properties below pin both, bit for
bit, against the walks they replaced (``uncoded_reference.py``):

* replication — every ``BatchUncodedOutcome`` field of ``run_batch``, the
  whole ``UncodedIterationOutcome`` of ``run`` (owners and launch counts
  included), and the same error with the same message, over speeds and
  arrivals tied on a few levels (a free network makes a copy arrive
  exactly with its primary), failed workers, strict locality, binding
  launch budgets (0 included), fewer finite arrivals than the watch
  count, ``watch_fraction`` 0, and 1, 7 and 64 trials;
* over-decomposition — several rounds of the runner, whose stacked plans
  and holder table must equal the frozen per-trial planner and holder
  tuples as migrated copies pile up, and whose stacked timeline must
  equal the frozen per-worker loop; ``plan_assignment`` (the one-row
  view) must equal the frozen planner too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncoded_reference as frozen
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import ReplicationIterationSim
from repro.cluster.speed_models import ReplaySpeeds
from repro.runtime.batch import build_batch_runner
from repro.scheduling.overdecomposition import (
    OverDecompositionPlacement,
    plan_assignment,
)
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig

#: (network, cost) pairs: the defaults, a compute-dominant cluster where
#: copies overtake primaries, and a free network on which speeds that are
#: powers of two make a copy arrive exactly when its primary does.
MODELS = {
    "default": (NetworkModel(), CostModel()),
    "compute": (NetworkModel(latency=5e-6, bandwidth=2.5e8), CostModel(worker_flops=5e7)),
    "free": (NetworkModel(latency=0.0, bandwidth=1e300), CostModel()),
}
LEVELS = {
    "one": (1.0,),
    "two": (1.0, 2.0),
    "pow2": (1.0, 2.0, 4.0),
    "uniform": None,
}


def _outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return "raised", type(exc), str(exc)


@st.composite
def replication_cases(draw):
    n = draw(st.integers(2, 12))
    trials = draw(st.sampled_from([1, 7, 64]))
    config = SpeculationConfig(
        replication=draw(st.integers(1, min(3, n))),
        max_speculative=draw(st.integers(0, 7)),
        watch_fraction=draw(st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9])),
        allow_data_movement=draw(st.booleans()),
    )
    network, cost = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    sim = ReplicationIterationSim(
        placement=ReplicaPlacement(n, config.replication, seed=draw(st.integers(0, 3))),
        config=config,
        rows_per_partition=draw(st.sampled_from([1, 8, 25])),
        width=draw(st.sampled_from([4, 16, 64])),
        network=network,
        cost=cost,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    levels = LEVELS[draw(st.sampled_from(sorted(LEVELS)))]
    if levels is None:
        speeds = rng.uniform(0.05, 2.0, size=(trials, n))
    else:
        speeds = rng.choice(levels, size=(trials, n))
    fail = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    failed = [
        frozenset(np.flatnonzero(rng.random(n) < fail).tolist())
        for _ in range(trials)
    ]
    return sim, speeds, failed


@given(case=replication_cases())
@settings(max_examples=150, deadline=None)
def test_speculation_pass_equals_frozen_walk(case):
    sim, speeds, failed = case
    got = _outcome(lambda: sim.run_batch(speeds, failed))
    want = _outcome(lambda: frozen.reference_run_batch(sim, speeds, failed))
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1:] == want[1:]
    else:
        for f in dataclasses.fields(got[1]):
            mine, theirs = getattr(got[1], f.name), getattr(want[1], f.name)
            assert np.asarray(mine).dtype == np.asarray(theirs).dtype, f.name
            np.testing.assert_array_equal(mine, theirs, err_msg=f.name)
    for t in range(min(len(speeds), 7)):
        view = _outcome(lambda: sim.run(speeds[t], failed[t]))
        walk = _outcome(lambda: frozen.reference_run(sim, speeds[t], failed[t]))
        assert view == walk, f"trial {t}"


def test_copies_tie_their_primaries_on_a_free_network():
    # Worker 2 (speed 1) lags; idle workers 0 and 1 run at speed 2, so the
    # copy moved to worker 0 finishes exactly with the primary: the tie
    # goes to the lower worker index, the copy.
    network, cost = MODELS["free"]
    sim = ReplicationIterationSim(
        placement=ReplicaPlacement(3, 1, seed=0),
        config=SpeculationConfig(replication=1, watch_fraction=0.5),
        rows_per_partition=8,
        width=16,
        network=network,
        cost=cost,
    )
    speeds = np.array([2.0, 2.0, 1.0])
    outcome = sim.run(speeds)
    assert outcome == frozen.reference_run(sim, speeds)
    assert outcome.speculative_launches == 1
    assert outcome.partition_owner == {0: 0, 1: 1, 2: 0}
    assert outcome.workers[2].response_time == outcome.completion_time


class _Forecasts:
    """A forecaster replaying given ``(rounds, trials, workers)`` predictions."""

    def __init__(self, forecasts: np.ndarray):
        self.forecasts = forecasts
        self.n_trials = forecasts.shape[1]
        self.round = 0

    def predict(self) -> np.ndarray:
        return self.forecasts[self.round]

    def update(self, observed: np.ndarray) -> None:
        self.round += 1


@given(
    n=st.integers(2, 12),
    factor=st.integers(1, 5),
    replication=st.sampled_from([1.0, 1.2, 1.42, 2.0]),
    trials=st.sampled_from([1, 3, 16]),
    levels=st.sampled_from([(0.0, 1.0), (0.3, 1.0, 2.5), None]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_planning_pass_equals_frozen_planner(
    n, factor, replication, trials, levels, seed
):
    placement = OverDecompositionPlacement(n, factor=factor, replication=replication)
    rounds = 6
    rng = np.random.default_rng(seed)
    if levels is None:
        forecasts = rng.uniform(-0.5, 3.0, size=(rounds, trials, n))
    else:
        forecasts = rng.choice(levels, size=(rounds, trials, n))
    forecasts[..., 0] = np.abs(forecasts[..., 0]) + 0.1
    actual = rng.uniform(0.2, 2.0, size=(trials, n, rounds))
    runner = build_batch_runner(
        "overdecomposition",
        ReplaySpeeds(actual),
        _Forecasts(forecasts),
        factor=factor,
        replication=replication,
    )
    runner.register_matvec("A", 4 * placement.num_partitions, 8)
    sim = runner._operators["A"].sim
    holders = [list(placement.holders) for _ in range(trials)]
    for r in range(rounds):
        plans, outcome = runner.matvec("A")
        table = runner._operators["A"].holders
        for t in range(trials):
            speeds = np.clip(forecasts[r, t], 1e-9, None)
            want = frozen.reference_plan_assignment(holders[t], speeds, n)
            view = plan_assignment(holders[t], speeds, n)
            for got in (plans.owner[t], view.owner):
                np.testing.assert_array_equal(got, want.owner)
            for got in (plans.migrated[t], view.migrated):
                np.testing.assert_array_equal(got, want.migrated)
            assert view.owner.dtype == want.owner.dtype
            walk = frozen.reference_overdecomposition_run(sim, want, actual[t, :, r])
            assert outcome.completion_time[t] == walk.completion_time
            assert outcome.data_moved_bytes[t] == walk.data_moved_bytes
            assert outcome.migrations[t] == walk.migrations
            np.testing.assert_array_equal(
                outcome.computed_rows[t], [s.computed_rows for s in walk.workers]
            )
            frozen.grow_holders(holders[t], want)
            rows = table[t]
            assert [tuple(row[row >= 0].tolist()) for row in rows] == holders[t]
    assert table.shape[2] == max(len(h) for row in holders for h in row)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_speeds_are_a_typed_error(bad):
    # A NaN or infinite speed cannot be apportioned: both public planner
    # entries name ``speeds`` instead of failing an internal assertion.
    placement = OverDecompositionPlacement(4, factor=2, replication=1.0)
    speeds = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="speeds must be finite"):
        plan_assignment(placement.holders, speeds, 4)
    with pytest.raises(ValueError, match="speeds must be finite"):
        placement.plan(speeds)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_forecasts_fail_the_round(bad):
    # The runner clips forecasts at 1e-9, which keeps NaN and +inf: the
    # round raises the planner's typed error and records nothing.
    speeds = np.array([1.0, bad, 1.0, 1.0])
    runner = build_batch_runner(
        "overdecomposition",
        ReplaySpeeds(np.ones((2, 4, 3))),
        _Forecasts(np.stack([np.ones((2, 4)), np.stack([np.ones(4), speeds])])),
        factor=2,
        replication=1.0,
    )
    runner.register_matvec("A", 16, 4)
    runner.matvec("A")
    with pytest.raises(ValueError, match="speeds must be finite"):
        runner.matvec("A")
    assert len(runner.metrics) == 1, "a rejected round records nothing"


def test_non_positive_forecasts_keep_clipping():
    # Zero and negative speeds are clipped to a zero quota, as before.
    placement = OverDecompositionPlacement(4, factor=2, replication=1.0)
    speeds = np.array([0.0, -1.0, 1.0, 1.0])
    plan = plan_assignment(placement.holders, speeds, 4)
    want = frozen.reference_plan_assignment(placement.holders, speeds, 4)
    np.testing.assert_array_equal(plan.owner, want.owner)
    assert set(plan.owner.tolist()) == {2, 3}
