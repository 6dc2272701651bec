"""Stacked evaluation: one cell call per policy row, per-scenario bits.

The matrix cell declares a stacked form over its ``scenario`` axis
(:func:`repro.engine.plan.stacks_on`).  The engine then evaluates the
pending shards of a policy row that share a trial slice in one call, and
the policy runs once over stacked ``(scenario, seed)`` trial rows.  This
suite pins that:

* a stacked policy row equals its per-scenario cells bit for bit, for
  every registered policy on both backends, over composed scenarios and
  a repeated name (``policy-auto`` probes the stacked scenarios together);
* the engine makes one call per policy row under every executor, with
  values equal to the unstacked cell's;
* a grown scenario list against a warm store computes only the new
  scenario, and a repeated axis value is evaluated once.
"""

import json

import pytest

from repro.cluster.fuzz import generate_scenario
from repro.engine import (
    SEED_STRIDE,
    ExecutionEngine,
    RunStore,
    SweepContext,
    SweepSpec,
)
from repro.experiments import matrix
from repro.experiments.matrix import _cell as matrix_cell
from repro.experiments.matrix import run_cell, run_cells
from repro.scheduling.adaptive import clear_memos
from repro.scheduling.policies import available_policies

#: Plain, composed (links degraded in one segment) and repeated names.
SCENARIOS = (
    "bursty",
    generate_scenario(23, 2),
    "netslow",
    "bursty",
    generate_scenario(23, 5),
)
POLICIES = ("mds", "timeout-repair", "policy-auto")


def _ctx(trials=2, seed=3):
    return SweepContext(
        quick=True,
        base_seed=seed,
        seeds=tuple(seed + SEED_STRIDE * t for t in range(trials)),
    )


def _plain_cell(params, ctx):
    """The matrix cell without its stacked form."""
    return matrix_cell(params, ctx)


def _spec(cell=matrix_cell, scenarios=("bursty", "netslow"), trials=3):
    return SweepSpec(
        name="stacking",
        cell=cell,
        axes=(
            ("policy", POLICIES),
            ("scenario", scenarios),
            ("backend", ("event",)),
        ),
        trials=trials,
        base_seed=5,
        quick=True,
    )


@pytest.mark.parametrize("backend", ["closed", "event"])
@pytest.mark.parametrize("policy", available_policies())
def test_stacked_row_equals_per_scenario_cells(policy, backend):
    ctx = _ctx()
    clear_memos()  # policy-auto probes afresh on both sides
    stacked = run_cells(policy, SCENARIOS, ctx, backend=backend)
    clear_memos()
    single = [run_cell(policy, s, ctx, backend=backend) for s in SCENARIOS]
    assert json.dumps(stacked) == json.dumps(single)


class TestEngineStacking:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_one_call_per_policy_row(self, executor):
        report = ExecutionEngine(jobs=2, executor=executor).run(_spec())
        assert (report.shards_total, report.cell_calls) == (6, 3)
        plain = ExecutionEngine().run(_spec(cell=_plain_cell))
        assert (plain.shards_total, plain.cell_calls) == (6, 6)
        assert report.values == plain.values

    def test_adjacent_trial_slices_join(self, monkeypatch):
        # Per policy row: slices [0, 2) and [2, 3) of two scenarios, 6
        # rows, within the row cap: one call instead of two.
        report = ExecutionEngine(shard_size=2).run(_spec())
        assert (report.shards_total, report.cell_calls) == (12, 3)
        monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", 1)
        unjoined = ExecutionEngine(shard_size=2).run(_spec())
        assert (unjoined.shards_total, unjoined.cell_calls) == (12, 6)
        assert json.dumps([*report.values.items()]) == json.dumps(
            [*unjoined.values.items()]
        )

    def _recorded_rows(self, monkeypatch):
        calls = []
        original = matrix.run_cells

        def recording(policy, scenarios, ctx, backend="closed", trace=None):
            calls.append((policy, tuple(scenarios)))
            return original(policy, scenarios, ctx, backend=backend, trace=trace)

        monkeypatch.setattr(matrix, "run_cells", recording)
        return calls

    def test_grown_scenario_list_computes_only_the_new_scenario(
        self, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path)
        ExecutionEngine(store=store).run(_spec())
        calls = self._recorded_rows(monkeypatch)
        grown = _spec(scenarios=("bursty", "netslow", "spot"))
        report = ExecutionEngine(store=store).run(grown)
        assert calls == [(p, ("spot",)) for p in POLICIES]
        assert (report.shard_hits, report.cell_calls) == (6, 3)
        monkeypatch.undo()
        assert report.values == ExecutionEngine().run(grown).values

    def test_repeated_axis_value_is_evaluated_once(self, monkeypatch):
        calls = self._recorded_rows(monkeypatch)
        spec = _spec(scenarios=("netslow", "bursty", "netslow"))
        report = ExecutionEngine().run(spec)
        assert calls == [(p, ("netslow", "bursty")) for p in POLICIES]
        monkeypatch.undo()
        plain = ExecutionEngine().run(_spec(_plain_cell, spec.axes[1][1]))
        assert report.values == plain.values

    def test_repeated_axis_value_is_one_cell(self):
        spec = SweepSpec(
            name="x",
            cell=matrix_cell,
            axes=(
                ("policy", ("mds",)),
                ("scenario", ("bursty", "bursty")),
                ("backend", ("closed",)),
            ),
            trials=2,
        )
        (value,) = ExecutionEngine().run(spec).values.values()
        assert len(value["total"]) == 2

    def test_stack_axis_must_be_swept(self):
        with pytest.raises(ValueError, match="stacks on axis 'scenario'"):
            SweepSpec(name="bad", cell=matrix_cell, axes=(("policy", ("mds",)),))
