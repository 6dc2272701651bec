"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "1." in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "fig01", "fig13", "sec61", "scenlat", "scenrepair", "matrix",
            "tournament",
        ):
            assert name in out

    def test_scenarios_lists_registry(self, capsys):
        from repro.cluster.scenarios import available_scenarios

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out
        assert "params:" in out

    def test_scenarios_filters_by_name(self, capsys):
        assert main(["scenarios", "spot"]) == 0
        out = capsys.readouterr().out
        assert "spot" in out
        assert "markov" not in out

    def test_scenarios_unknown_name_exits_nonzero(self, capsys):
        assert main(["scenarios", "spot", "no-such-scenario"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing half-printed
        assert "unknown scenario" in captured.err
        # The error lists the available registry rather than a traceback.
        assert "spot" in captured.err and "markov" in captured.err

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "fig99", "--quick"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_single_quick_experiment(self, capsys):
        assert main(["experiments", "fig02", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "regime" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "experiments" in capsys.readouterr().out

    def test_help_documents_sweep_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--trials", "--jobs", "--executor", "--shard-size", "--resume",
            "--no-cache", "--cache-dir", "--seed",
        ):
            assert flag in out

    def test_run_with_trials_and_jobs(self, capsys, tmp_path):
        from repro.engine import RunStore

        argv = [
            "experiments", "fig02", "--quick", "--trials", "2",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "fig02" in capsys.readouterr().out
        assert RunStore(tmp_path).shard_count(), "run store should be populated"
        # Warm-store re-run produces the same table.
        assert main(argv) == 0
        assert "fig02" in capsys.readouterr().out
        # So does an explicit --resume of the finished run.
        assert main(argv + ["--resume"]) == 0
        assert "fig02" in capsys.readouterr().out

    def test_no_cache_flag(self, capsys):
        assert main(["experiments", "fig02", "--quick", "--no-cache"]) == 0
        assert "regime" in capsys.readouterr().out


def _store_files(root: Path) -> dict:
    """Every file under ``root`` with its size and mtime."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


class TestStreamCli:
    """A fat cell runs as joined multi-shard calls, pooled and stored."""

    ARGV = [
        "stream", "--policy", "timeout-repair", "--scenario", "bursty",
        "--quick", "--trials", "256",
    ]

    def _stdout(self, capsys, *flags) -> str:
        assert main([*self.ARGV, *flags]) == 0
        return capsys.readouterr().out

    def test_thread_pool_prints_the_serial_run(self, capsys, tmp_path):
        serial = self._stdout(
            capsys, "--jobs", "1", "--cache-dir", str(tmp_path / "serial")
        )
        pooled = self._stdout(
            capsys, "--jobs", "2", "--executor", "thread",
            "--cache-dir", str(tmp_path / "pooled"),
        )
        assert pooled == serial
        assert '"total"' in serial

    def test_warm_rerun_prints_the_same_and_writes_nothing(
        self, capsys, tmp_path
    ):
        cold = self._stdout(capsys, "--cache-dir", str(tmp_path))
        before = _store_files(tmp_path)
        warm = self._stdout(capsys, "--cache-dir", str(tmp_path))
        assert warm == cold
        assert _store_files(tmp_path) == before


class TestComposedScenarioCli:
    """Composed scenario expressions through the CLI surfaces.

    The registry-miss contract extends to expression names: unknown
    combinators, malformed expressions, and unknown leaves all exit 2
    with the available registry in the error, while valid expressions
    work anywhere a base scenario name does.
    """

    def test_scenarios_subcommand_resolves_composed_name(self, capsys):
        assert main(["scenarios", "overlay(rack,bursty)"]) == 0
        out = capsys.readouterr().out
        assert "overlay(rack,bursty)" in out
        assert "composed" in out

    def test_matrix_prints_a_repeated_scenario_once(self, capsys):
        argv = ["matrix", "--quick", "--trials", "2", "--summary-only",
                "--no-cache", "--scenario", "bursty"]
        assert main([*argv, "--scenario", "bursty"]) == 0
        twice = capsys.readouterr().out
        assert main(argv) == 0
        assert twice == capsys.readouterr().out

    def test_matrix_accepts_composed_scenario(self, capsys):
        argv = [
            "matrix", "--quick", "--no-cache", "--summary-only",
            "--policy", "mds", "--policy", "s2c2-oracle",
            "--scenario", "mix(bursty,constant,weight=0.7)",
        ]
        assert main(argv) == 0
        assert "mix(bursty,constant,weight=0.7)" in capsys.readouterr().out

    def test_unknown_combinator_exits_2_listing_combinators(self, capsys):
        argv = ["matrix", "--scenario", "nope(bursty)"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing half-printed
        assert "unknown combinator" in captured.err
        for name in ("concat", "mix", "overlay", "scale", "time_shift"):
            assert name in captured.err

    @pytest.mark.parametrize(
        "expression",
        ["mix(bursty)", "bursty(zz=1)", "concat(bursty", "overlay(rack,nope)"],
    )
    def test_malformed_expression_exits_2_listing_registry(
        self, capsys, expression
    ):
        assert main(["matrix", "--scenario", expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "available:" in captured.err


class TestFuzzCli:
    """The `repro fuzz` contract mirrors `repro matrix`."""

    def test_runs_tiny_tournament(self, capsys):
        argv = [
            "fuzz", "--quick", "--no-cache", "--scenarios", "2",
            "--policy", "mds", "--policy", "s2c2-oracle", "--seed", "7",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tournament" in out
        assert "tournament-pareto" in out

    def test_summary_only_skips_winners_table(self, capsys):
        argv = [
            "fuzz", "--quick", "--no-cache", "--scenarios", "2",
            "--policy", "mds", "--policy", "s2c2-oracle", "--summary-only",
        ]
        assert main(argv) == 0
        assert "tournament-winners" not in capsys.readouterr().out

    def test_unknown_policy_exits_2_listing_registry(self, capsys):
        assert main(["fuzz", "--policy", "no-such-policy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown policy" in captured.err
        assert "mds" in captured.err and "s2c2-oracle" in captured.err

    def test_unknown_scenario_exits_2_listing_registry(self, capsys):
        assert main(["fuzz", "--scenario", "no-such-scenario"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown scenario" in captured.err
        assert "spot" in captured.err and "markov" in captured.err

    def test_unknown_combinator_exits_2_listing_combinators(self, capsys):
        assert main(["fuzz", "--scenario", "nope(bursty)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown combinator" in captured.err
        assert "overlay" in captured.err

    def test_extra_scenario_joins_the_population(self, capsys):
        argv = [
            "fuzz", "--quick", "--no-cache", "--scenarios", "2",
            "--policy", "mds", "--policy", "s2c2-oracle",
            "--scenario", "overlay(rack,bursty)",
        ]
        assert main(argv) == 0
        assert "overlay(rack,bursty)" in capsys.readouterr().out

    def test_bad_scenarios_value_exits_2_naming_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--scenarios", "0"])
        assert excinfo.value.code == 2
        assert "--scenarios" in capsys.readouterr().err

    def test_help_documents_population_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--scenarios", "--population-seed", "--policy", "--scenario",
            "--summary-only", "--trials", "--resume", "--seed",
        ):
            assert flag in out


class TestBackendCli:
    """``--backend`` selects the simulator core on matrix and fuzz."""

    def test_matrix_runs_on_event_backend(self, capsys):
        argv = [
            "matrix", "--quick", "--no-cache", "--summary-only",
            "--policy", "mds", "--policy", "s2c2-general",
            "--scenario", "constant", "--backend", "event",
        ]
        assert main(argv) == 0
        assert "event backend" in capsys.readouterr().out

    def test_fuzz_runs_on_event_backend(self, capsys):
        argv = [
            "fuzz", "--quick", "--no-cache", "--scenarios", "2",
            "--policy", "mds", "--policy", "s2c2-general",
            "--summary-only", "--backend", "event",
        ]
        assert main(argv) == 0
        assert "tournament" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["matrix", "fuzz"])
    def test_unknown_backend_exits_2_listing_backends(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "analytic"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing half-printed
        assert "--backend" in captured.err
        assert "closed" in captured.err and "event" in captured.err

    @pytest.mark.parametrize("command", ["matrix", "fuzz"])
    def test_help_documents_backend_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--backend" in out
        assert "closed" in out and "event" in out


class TestBenchSweepTags:
    """``bench_sweep.py --tag KEY=VALUE``: first-``=`` split, exit-2 misuse.

    The regression pinned here: a tag *value* containing ``=`` (a composed
    scenario expression such as ``mix(bursty,constant,weight=0.7)``) must
    survive verbatim — only the first ``=`` separates key from value.
    """

    @pytest.fixture(scope="class")
    def bench(self):
        return _load_script("bench_sweep")

    def test_tag_splits_on_first_equals_only(self, bench):
        key, value = bench.tag_pair(
            "scenario=mix(bursty,constant,weight=0.7)"
        )
        assert key == "scenario"
        assert value == "mix(bursty,constant,weight=0.7)"

    @pytest.mark.parametrize("text", ["no-separator", "=value", ""])
    def test_malformed_tag_rejected(self, bench, text):
        with pytest.raises(argparse.ArgumentTypeError, match="KEY=VALUE"):
            bench.tag_pair(text)

    def test_parser_collects_repeated_tags(self, bench):
        args = bench.build_parser().parse_args(
            [
                "--tag", "scenario=mix(bursty,constant,weight=0.7)",
                "--tag", "host=ci",
            ]
        )
        assert dict(args.tag) == {
            "scenario": "mix(bursty,constant,weight=0.7)",
            "host": "ci",
        }

    def test_parser_exits_2_naming_flag_on_bad_tag(self, bench, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench.build_parser().parse_args(["--tag", "oops"])
        assert excinfo.value.code == 2
        assert "--tag" in capsys.readouterr().err

    def test_parser_accepts_events_flag(self, bench):
        args = bench.build_parser().parse_args(["--events"])
        assert args.events is True
        assert bench.build_parser().parse_args([]).events is False

    def test_parser_accepts_event_trials(self, bench):
        args = bench.build_parser().parse_args(["--event-trials", "32"])
        assert args.event_trials == 32
        assert bench.build_parser().parse_args([]).event_trials == 64

    def test_parser_rejects_non_positive_event_trials(self, bench, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench.build_parser().parse_args(["--event-trials", "0"])
        assert excinfo.value.code == 2
        assert "--event-trials" in capsys.readouterr().err

    def test_parser_accepts_profile_flag(self, bench):
        args = bench.build_parser().parse_args(["--profile"])
        assert args.profile is True
        assert bench.build_parser().parse_args([]).profile is False


class TestCliValidation:
    """Bad flag values and names: exit 2, nothing on stdout, the error
    names the flag or the unknown name.

    Every sweep command takes the same validate → run → report path
    (shared types in `repro.engine.options`), so each contract is pinned
    on every command that has the flag.
    """

    @pytest.mark.parametrize("command", ["experiments", "matrix", "fuzz", "stream"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--jobs", "0"), ("--trials", "-3"), ("--trials", "many"),
         ("--shard-size", "0"), ("--executor", "bogus"), ("--seed", "-1")],
    )
    def test_bad_value_exits_2_naming_flag(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # NumPy rejects a negative seed mid-run; the flag must not
            # let one through.
            (["matrix", "--quick", "--seed", "-1", "--policy", "mds",
              "--scenario", "constant", "--no-cache"], "--seed"),
            (["stream", "--quick", "--seed", "-1", "--no-cache"], "--seed"),
            (["tune", "--quick", "--seed", "-3"], "--seed"),
            (["profile", "--quick", "--seed", "-1"], "--seed"),
            (["fuzz", "--quick", "--population-seed", "-1"],
             "--population-seed"),
        ],
    )
    def test_negative_seed_exits_2_naming_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize(
        "command", ["matrix", "fuzz", "stream", "tune", "profile"]
    )
    @pytest.mark.parametrize(
        "flag, kind, listed",
        [("--policy", "policy", "s2c2-oracle"),
         ("--scenario", "scenario", "markov")],
    )
    def test_unknown_name_exits_2_listing_registry(
        self, capsys, command, flag, kind, listed
    ):
        assert main([command, "--quick", flag, "no-such-name"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing half-printed
        assert f"unknown {kind} 'no-such-name'" in captured.err
        assert listed in captured.err

    @pytest.mark.parametrize(
        "command, scenario, parameter",
        [
            ("matrix", "bursty(dip_prob=2)", "dip_prob"),
            ("fuzz", "netslow(slowdown=1e999)", "slowdown"),
            ("stream", "controlled(slowdown=nan)", "slowdown"),
            ("tune", "scale(bursty,factor=abc)", "factor"),
            ("profile", "rackcongest(n_racks=20)", "n_racks"),
        ],
    )
    def test_bad_scenario_value_exits_2_naming_parameter(
        self, capsys, command, scenario, parameter
    ):
        # Each scenario is built once at the sweep's worker count before
        # any cell runs, so a bad value never reaches a cell.
        argv = [command, "--quick", "--scenario", scenario]
        if command in ("matrix", "fuzz", "stream"):
            argv += ["--no-cache", "--trials", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert scenario in captured.err and parameter in captured.err

    @pytest.mark.parametrize("command", ["experiments", "matrix", "fuzz", "stream"])
    def test_cache_dir_that_is_a_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "store-file"
        path.write_text("")
        assert main([command, "--quick", "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert str(path) in captured.err

    def test_unknown_executor_error_lists_backends(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "--executor", "bogus"])
        err = capsys.readouterr().err
        for name in ("process", "serial", "thread"):
            assert name in err

    def test_resume_without_store_exits_2(self, capsys):
        assert main(["experiments", "fig02", "--no-cache", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "resume" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiments", "fig02"],
            ["matrix", "--policy", "mds", "--scenario", "constant"],
            ["fuzz", "--scenarios", "2", "--policy", "mds"],
            ["stream"],
        ],
        ids=["experiments", "matrix", "fuzz", "stream"],
    )
    def test_resume_with_nothing_stored_exits_2(self, capsys, tmp_path, argv):
        argv = argv + ["--quick", "--cache-dir", str(tmp_path), "--resume"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--resume" in captured.err
        assert "nothing to resume" in captured.err

    def test_thread_executor_runs(self, capsys):
        argv = [
            "experiments", "fig02", "--quick", "--no-cache",
            "--trials", "2", "--jobs", "2", "--executor", "thread",
            "--shard-size", "1",
        ]
        assert main(argv) == 0
        assert "fig02" in capsys.readouterr().out


class TestAdaptiveCli:
    """Adaptive policies through the CLI: expressions work anywhere a
    registry policy name does, `repro tune` dumps controller traces, and
    malformed knobs exit 2 naming the offending knob."""

    def test_matrix_accepts_adaptive_expression(self, capsys):
        argv = [
            "matrix", "--quick", "--no-cache", "--summary-only",
            "--policy", "mds",
            "--policy", "adaptive(timeout-repair,slack=0.1:0.2)",
            "--scenario", "bursty",
        ]
        assert main(argv) == 0
        assert "adaptive(timeout-repair,slack=0.1:0.2)" in capsys.readouterr().out

    def test_matrix_adaptive_rows_render_the_adaptive_grid(self, capsys):
        argv = [
            "matrix", "--quick", "--no-cache", "--summary-only",
            "--policy", "mds", "--policy", "adaptive-timeout",
            "--scenario", "bursty",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "matrix-adaptive" in out
        assert "best fixed per scenario" in out

    def test_tune_dumps_controller_trace_json(self, capsys):
        import json

        argv = [
            "tune", "--quick", "--policy", "adaptive-timeout",
            "--scenario", "bursty", "--trials", "2", "--seed", "0",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy"] == "adaptive-timeout"
        assert [t["segment"] for t in report["trace"]] == [0, 1, 2, 3]
        assert report["trace"][-1]["bands"]

    def test_tune_policy_auto_reports_probe_and_commitment(self, capsys):
        import json

        argv = [
            "tune", "--quick", "--policy", "policy-auto",
            "--scenario", "spot", "--trials", "2",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        (entry,) = report["trace"]
        assert entry["committed"] in entry["probe"]["scores"]

    def test_tune_runs_at_the_matrix_geometry(self, capsys):
        # `tune` and the matrix share one cell definition: the tuned totals
        # are the matrix cell's, trial for trial.
        import json

        from repro.engine import ExecutionEngine, SweepSpec
        from repro.experiments.matrix import _cell

        argv = [
            "tune", "--quick", "--policy", "adaptive-timeout",
            "--scenario", "bursty", "--seed", "3", "--trials", "2",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        spec = SweepSpec(
            name="matrix",
            cell=_cell,
            axes=(
                ("policy", ("adaptive-timeout",)),
                ("scenario", ("bursty",)),
                ("backend", ("closed",)),
            ),
            trials=2,
            base_seed=3,
            quick=True,
        )
        cell = ExecutionEngine().run(spec).get(
            policy="adaptive-timeout", scenario="bursty", backend="closed"
        )
        assert report["total"] == cell["total"]
        assert report["wasted"] == cell["wasted"]
        assert report["iterations"] == 4

    def test_tune_rejects_non_adaptive_policy(self, capsys):
        assert main(["tune", "--quick", "--policy", "mds"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not adaptive" in captured.err
        assert "adaptive-timeout" in captured.err

    def test_tune_unknown_scenario_exits_2(self, capsys):
        argv = ["tune", "--quick", "--scenario", "nope"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err and "available" in err

    @pytest.mark.parametrize("surface", ["matrix", "tune"])
    def test_unknown_knob_exits_2_naming_the_knob(self, capsys, surface):
        expr = "adaptive(timeout-repair,slak=0.1)"
        if surface == "matrix":
            argv = ["matrix", "--quick", "--no-cache", "--policy", expr]
        else:
            argv = ["tune", "--quick", "--policy", expr]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "slak" in captured.err  # the offending knob, verbatim
        assert "slack" in captured.err  # ...and the valid ones
        assert "cadence" in captured.err

    @pytest.mark.parametrize(
        "expression, offence",
        [
            ("adaptive(timeout-repair,slack=0.1:oops)", "oops"),
            ("adaptive(timeout-repair,slack=-1.0)", "slack"),
            ("adaptive(timeout-repair,slack=0.1,cadence=0)", "cadence"),
            ("adaptive(uncoded,slack=0.1)", "uncoded"),
            ("adaptive(nope,slack=0.1)", "nope"),
            ("adaptive(timeout-repair", "adaptive"),
        ],
    )
    def test_malformed_adaptive_expressions_exit_2(
        self, capsys, expression, offence
    ):
        assert main(["matrix", "--quick", "--policy", expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert offence in captured.err


class TestProfileCli:
    """`repro profile`: per-phase hot-spot table over in-process sweeps."""

    def test_quick_profile_prints_phase_table(self, capsys):
        argv = [
            "profile", "--quick", "--trials", "1",
            "--policy", "mds", "--scenario", "netslow",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "seconds" in out
        assert "total" in out

    def test_json_profile_is_machine_readable(self, capsys):
        import json

        argv = [
            "profile", "--quick", "--trials", "1", "--json",
            "--policy", "timeout-repair", "--scenario", "bursty",
            "--backend", "event",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "event"
        assert report["policies"] == ["timeout-repair"]
        assert report["scenarios"] == ["bursty"]
        assert report["trials"] == 1
        assert report["phases"]  # at least one phase recorded
        assert all(seconds >= 0.0 for seconds in report["phases"].values())

    @pytest.mark.parametrize(
        "flag,value", [("--policy", "nope"), ("--scenario", "nope")]
    )
    def test_unknown_name_exits_2(self, capsys, flag, value):
        assert main(["profile", "--quick", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestRepeatedNames:
    """A name given twice is run and printed once, as if given once."""

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            ("experiments", "fig02", ["--quick", "--trials", "1", "--no-cache"]),
            ("scenarios", "bursty", []),
            ("policies", "mds", []),
        ],
    )
    def test_stdout_equals_the_name_given_once(
        self, capsys, command, name, flags
    ):
        assert main([command, name, name, *flags]) == 0
        twice = capsys.readouterr().out
        assert main([command, name, *flags]) == 0
        assert twice == capsys.readouterr().out

    def test_profile_runs_a_repeated_cell_once(self, capsys, monkeypatch):
        import json

        import repro.experiments.matrix as matrix

        calls = []
        run_cell = matrix.run_cell

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return run_cell(*args, **kwargs)

        monkeypatch.setattr(matrix, "run_cell", counting)
        argv = ["profile", "--quick", "--trials", "1", "--json",
                "--policy", "mds", "--scenario", "bursty"]
        assert main([*argv, "--policy", "mds", "--scenario", "bursty"]) == 0
        twice = json.loads(capsys.readouterr().out)
        assert calls == [("mds", "bursty")]
        assert main(argv) == 0
        once = json.loads(capsys.readouterr().out)
        # Phase seconds are wall clock; every other field must match.
        for report in (twice, once):
            report["phases"] = sorted(report["phases"])
        assert twice == once
