"""Joined cell calls: one call per run of adjacent pending trial shards.

At one job the engine evaluates each contiguous run of a grid point's
pending shards (of all the points of a stacked cell) in one call over the
union seed slice, up to ``MAX_UNIT_ROWS`` rows, and cuts the value back
into per-shard values.  This suite pins:

* which shards join: only adjacent pending ones, never across a gap
  (stored shards, filtered slices, a grown ``--trials``), never past the
  row cap unless one stack already is, never the matrix's stacked policy
  rows, and none on a pool of several jobs, which distributes the
  shards;
* that a joined run's values equal one call per shard, for every
  registered policy on both backends.
"""

import json

import pytest

from repro.cluster.scenarios import available_scenarios
from repro.engine import (
    ExecutionEngine,
    RunStore,
    SweepSpec,
    compile_plan,
    stacks_on,
)
from repro.engine.plan import MAX_UNIT_ROWS
from repro.engine.runner import _cell_units
from repro.experiments.matrix import _cell as matrix_cell
from repro.scheduling.policies import available_policies

_SEEN: list[tuple] = []


def _seeds_cell(params, ctx):
    """A cheap plain cell that records the seed slice of every call."""
    _SEEN.append(ctx.seeds)
    return {
        "seed": [float(s) for s in ctx.seeds],
        "a": [params["a"]] * ctx.trials,
    }


def _row(params, values, ctx):
    return [_seeds_cell({**params, "a": value}, ctx) for value in values]


@stacks_on("a", _row)
def _stacked_cell(params, ctx):
    return _seeds_cell(params, ctx)


def _spec(cell=_seeds_cell, trials=8, a=(1,), b=("x",)):
    return SweepSpec(
        name="units",
        cell=cell,
        axes=(("a", a), ("b", b)),
        trials=trials,
        base_seed=4,
    )


def _units(spec, shard_size, pending=None, join=True):
    shards = compile_plan(spec, shard_size).shards
    if pending is None:
        pending = list(range(len(shards)))
    return _cell_units(spec, shards, pending, join), shards


def _rows(unit, shards):
    return sum(len(group) * shards[group[0]].trials for group in unit)


class TestUnitFormation:
    def test_a_gap_splits_a_unit(self):
        # Shards 3 and 6 are stored: the pending runs join on either side.
        units, _ = _units(_spec(), 1, pending=[0, 1, 2, 4, 5, 7])
        assert units == [[[0], [1], [2]], [[4], [5]], [[7]]]

    def test_units_stay_within_the_row_cap(self):
        units, shards = _units(_spec(trials=1024), 32)
        assert [_rows(u, shards) for u in units] == [MAX_UNIT_ROWS] * 8

    def test_a_shard_over_the_cap_runs_alone(self):
        units, shards = _units(_spec(trials=1024), 200)
        assert [_rows(u, shards) for u in units] == [200] * 5 + [24]

    def test_points_of_a_plain_cell_never_share_a_call(self):
        units, _ = _units(_spec(a=(1, 2)), 4)
        assert units == [[[0], [1]], [[2], [3]]]

    def test_stacked_points_join_slices_together(self):
        # Points (1, x) and (2, x) stack; both slices join: 2 × 8 rows.
        units, _ = _units(_spec(_stacked_cell, a=(1, 2)), 4)
        assert units == [[[0, 2], [1, 3]]]

    def test_stacks_of_different_points_do_not_join(self):
        # Point (1, x)'s second slice is stored: slice 0 stacks two
        # points, slice 1 one, so they stay apart.
        units, _ = _units(_spec(_stacked_cell, a=(1, 2)), 4, pending=[0, 2, 3])
        assert units == [[[0, 2]], [[3]]]

    def test_matrix_policy_rows_are_not_joined_further(self):
        # A quick matrix row stacks every scenario: 32 trials × 10 points
        # is already over the cap, so each slice stays its own call, one
        # per policy and slice as without joining.
        spec = SweepSpec(
            name="matrix",
            cell=matrix_cell,
            axes=(
                ("policy", available_policies()),
                ("scenario", available_scenarios()),
                ("backend", ("closed",)),
            ),
            trials=256,
        )
        units, _ = _units(spec, None)
        assert len(available_scenarios()) * 32 > MAX_UNIT_ROWS
        assert len(units) == len(available_policies()) * 8
        assert all(len(unit) == 1 for unit in units)

    def test_without_joining_each_stack_is_a_call(self):
        units, _ = _units(_spec(trials=64), 8, join=False)
        assert units == [[[i]] for i in range(8)]
        units, _ = _units(_spec(_stacked_cell, a=(1, 2)), 4, join=False)
        assert units == [[[0, 2]], [[1, 3]]]


class TestJoinedRuns:
    @pytest.mark.parametrize("jobs, calls", [(1, 1), (2, 4)])
    def test_a_thread_pool_gets_a_call_per_shard(self, jobs, calls):
        # Four 32-trial shards: one joined call at one job, one call per
        # shard over a pool of two, so each job gets work.
        _SEEN.clear()
        report = ExecutionEngine(jobs=jobs, executor="thread").run(
            _spec(trials=128)
        )
        assert (report.shards_total, report.cell_calls) == (4, calls)
        assert len(_SEEN) == calls
        assert report.values == ExecutionEngine(shard_size=128).run(
            _spec(trials=128)
        ).values

    def test_grown_trials_compute_the_new_slices_in_one_call(self, tmp_path):
        store = RunStore(tmp_path)
        ExecutionEngine(store=store).run(_spec(trials=64))
        _SEEN.clear()
        grown = ExecutionEngine(store=store).run(_spec(trials=128))
        assert (grown.shard_hits, grown.cell_calls) == (2, 1)
        assert _SEEN == [_spec(trials=128).shard_context(64, 128).seeds]
        assert grown.values == ExecutionEngine().run(_spec(trials=128)).values


@pytest.mark.parametrize("backend", ["closed", "event"])
@pytest.mark.parametrize("policy", available_policies())
def test_joined_values_equal_one_call_per_shard(policy, backend, monkeypatch):
    """A policy row over three slices in one call equals three calls.

    Every built-in forecaster batches over trials × workers rows, so a
    trial's value does not depend on the batch around it.  The one known
    exception is a one-node LSTM: its one-row steps round differently
    from a batch of one-node trials, but no built-in cell forecasts a
    single node.
    """
    spec = SweepSpec(
        name="joined",
        cell=matrix_cell,
        axes=(
            ("policy", (policy,)),
            ("scenario", ("bursty", "netslow")),
            ("backend", (backend,)),
        ),
        trials=5,
        base_seed=7,
    )
    joined = ExecutionEngine(shard_size=2).run(spec)
    monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", 1)
    per_shard = ExecutionEngine(shard_size=2).run(spec)
    assert (joined.cell_calls, per_shard.cell_calls) == (1, 3)
    assert json.dumps([*joined.values.items()]) == json.dumps(
        [*per_shard.values.items()]
    )
