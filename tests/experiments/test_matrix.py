"""Matrix experiment: determinism, cache invalidation, CLI contract."""

import numpy as np
import pytest

from repro.cluster.speed_models import ConstantSpeeds
from repro.engine import ExecutionEngine, RunStore
from repro.experiments.matrix import BASELINE, run, run_matrix
from repro.scheduling import policies as pol

#: A cheap sub-grid used by most tests (the full registry product runs in
#: the results-handbook freshness test and `scripts/smoke.sh`).
POLICIES = ("mds", "s2c2-general", "timeout-repair")
SCENARIOS = ("constant", "spot")


def _small(runner=None, trials=2, seed=0):
    return run_matrix(
        quick=True,
        seed=seed,
        trials=trials,
        runner=runner,
        policies=POLICIES,
        scenarios=SCENARIOS,
    )


class TestShapes:
    def test_tables_cover_the_grid(self):
        result = _small()
        assert result.policies == POLICIES
        assert result.scenarios == SCENARIOS
        assert set(result.per_scenario) == set(SCENARIOS)
        for table in result.per_scenario.values():
            assert table.labels() == list(POLICIES)
        assert result.summary.labels() == list(POLICIES)
        assert result.waste.labels() == list(POLICIES)
        assert len(result.tables()) == len(SCENARIOS) + 2

    def test_baseline_normalises_to_one(self):
        result = _small()
        for scenario in SCENARIOS:
            assert result.summary.value(BASELINE, scenario) == 1.0

    def test_registry_run_entry_returns_summary(self):
        table = run(quick=True, trials=1)
        from repro.cluster.scenarios import available_scenarios
        from repro.scheduling.policies import available_policies

        assert table.name == "matrix"
        assert table.labels() == list(available_policies())
        assert table.columns[1:] == available_scenarios()

    def test_expected_shape_s2c2_squeezes_constant(self):
        # Slack squeeze beats conventional MDS wherever speeds are
        # predictable; the constant scenario approaches the k/n bound.
        result = _small()
        assert result.summary.value("s2c2-general", "constant") < 1.0
        assert result.waste.value("s2c2-general", "constant") == 0.0
        assert result.waste.value(BASELINE, "constant") == pytest.approx(
            1 / 3, abs=0.01
        )

    def test_unknown_names_raise_listing_registry(self):
        with pytest.raises(KeyError, match="unknown policy.*available"):
            run_matrix(policies=("mds", "nope"))
        with pytest.raises(KeyError, match="unknown scenario"):
            run_matrix(policies=("mds",), scenarios=("nope",))

    def test_baseline_falls_back_when_filtered_out(self):
        result = run_matrix(
            quick=True,
            trials=1,
            policies=("s2c2-general", "s2c2-basic"),
            scenarios=("constant",),
        )
        assert result.baseline == "s2c2-general"
        assert result.summary.value("s2c2-general", "constant") == 1.0


class TestDeterminism:
    def test_byte_identical_across_runs_at_fixed_seed(self):
        first = _small()
        second = _small()
        for a, b in zip(first.tables(), second.tables()):
            assert a.format_table() == b.format_table()

    def test_seed_changes_results(self):
        assert _small(seed=0).per_scenario["spot"].rows != _small(
            seed=99
        ).per_scenario["spot"].rows

    def test_pool_matches_inline(self):
        inline = _small(runner=ExecutionEngine(jobs=1))
        pooled = _small(runner=ExecutionEngine(jobs=2))
        for a, b in zip(inline.tables(), pooled.tables()):
            assert a.format_table() == b.format_table()


class TestCacheInvalidation:
    def test_warm_store_hits_and_policy_registration_invalidates(self, tmp_path):
        result = _small(runner=ExecutionEngine(jobs=1, store=RunStore(tmp_path)))
        cells = len(POLICIES) * len(SCENARIOS)
        # trials=2 < the shard stride, so one stored shard per cell.
        assert RunStore(tmp_path).shard_count() == cells

        warm = _small(runner=ExecutionEngine(jobs=1, store=RunStore(tmp_path)))
        for a, b in zip(result.tables(), warm.tables()):
            assert a.format_table() == b.format_table()

        # Registering a policy at runtime must invalidate every stored
        # shard: the shard key folds in the policy registry digest.
        extra = pol.PolicySpec(
            name="zz-cache-test",
            summary="ephemeral",
            paper="test",
            figures=(),
            builder=lambda n_workers, k: None,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(pol._REGISTRY, "zz-cache-test", extra)
            _small(runner=ExecutionEngine(jobs=1, store=RunStore(tmp_path)))
            assert RunStore(tmp_path).shard_count() == 2 * cells
        # Back under the original registry, the original records hit again.
        runner = ExecutionEngine(jobs=1, store=RunStore(tmp_path))
        stored = RunStore(tmp_path).shard_count()
        _small(runner=runner)
        assert RunStore(tmp_path).shard_count() == stored

    def test_scenario_registration_also_invalidates(self, tmp_path):
        from repro.cluster import scenarios as scn

        _small(runner=ExecutionEngine(jobs=1, store=RunStore(tmp_path)))
        cells = RunStore(tmp_path).shard_count()
        assert cells == len(POLICIES) * len(SCENARIOS)
        extra = scn.ScenarioSpec(
            name="zz-cache-test",
            summary="ephemeral",
            models="test",
            builder=lambda n_workers, seed: ConstantSpeeds(np.ones(n_workers)),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(scn._REGISTRY, "zz-cache-test", extra)
            _small(runner=ExecutionEngine(jobs=1, store=RunStore(tmp_path)))
        assert RunStore(tmp_path).shard_count() == 2 * cells


class TestCli:
    def test_matrix_quick_subset(self, capsys):
        from repro.__main__ import main

        argv = [
            "matrix", "--quick", "--no-cache",
            "--policy", "mds", "--policy", "s2c2-general",
            "--scenario", "constant",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "matrix/constant" in out
        assert "matrix-waste" in out
        assert "s2c2-general" in out

    def test_matrix_summary_only(self, capsys):
        from repro.__main__ import main

        argv = [
            "matrix", "--quick", "--no-cache", "--summary-only",
            "--policy", "mds", "--scenario", "constant",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "matrix/constant" not in out
        assert "matrix-waste" in out

    def test_unknown_policy_exits_2_listing_registry(self, capsys):
        from repro.__main__ import main

        assert main(["matrix", "--no-cache", "--policy", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing half-printed
        assert "unknown policy" in captured.err
        # The error lists the available registry rather than a traceback.
        assert "mds" in captured.err and "timeout-repair" in captured.err

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["matrix", "--no-cache", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "markov" in err

    def test_policies_command_lists_registry(self, capsys):
        from repro.__main__ import main
        from repro.scheduling.policies import available_policies

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in available_policies():
            assert name in out
        assert "paper:" in out and "params:" in out

    def test_policies_unknown_name_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["policies", "mds", "no-such-policy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown policy" in captured.err
