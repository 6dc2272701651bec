"""Property suite for the closed-loop adaptive layer.

The guarantees that make ``adaptive(...)`` wrappers and ``policy-auto``
first-class sweep citizens:

* the controller's full decision sequence is a pure function of
  ``(seed, observations)``, so adaptive sweeps are **bitwise-equal**
  across shard sizes ``{1, 7, trials}``, serial vs thread vs process
  executors, and a ``SIGKILL`` + ``--resume`` cycle;
* the same shard-merge property holds over fuzzer-drawn policy ×
  scenario combinations (the ``compile_plan`` harness the engine
  determinism suite pins for fixed policies);
* the degenerate wrapper — one candidate, or ``cadence >= iterations``
  with the base defaults — reproduces the unwrapped base **bitwise**;
* malformed expressions fail with registry-listing ``KeyError``s naming
  the offending knob, across fuzzer-generated invalid spellings.
"""

import random

import numpy as np
import pytest

from repro.cluster.fuzz import generate_scenario
from repro.engine import ExecutionEngine, RunStore, SweepSpec
from repro.engine.plan import SEED_STRIDE, SweepContext, compile_plan, merge_shard_values
from repro.experiments.matrix import _cell as matrix_cell
from repro.scheduling.adaptive import (
    CONTROLLER_KEYS,
    AdaptiveController,
    adaptive_spec,
    clear_memos,
)
from repro.scheduling.policies import build_policy, get_policy

TRIALS = 8


def _ctx(trials=2, seed=0):
    return SweepContext(
        quick=True,
        base_seed=seed,
        seeds=tuple(seed + SEED_STRIDE * t for t in range(trials)),
    )


def _run(name, scenario, ctx, *, backend="closed", trace=None):
    runner = build_policy(name, 12, 8, backend=backend)
    kwargs = {} if trace is None else {"trace": trace}
    return runner.run_scenario(
        scenario, ctx, rows=480, cols=120, iterations=4, **kwargs
    )


class TestController:
    def test_decisions_are_a_pure_function_of_seed(self):
        for seed in (0, 7, -3, 123_456_789):
            a = AdaptiveController(n_candidates=4, seed=seed)
            b = AdaptiveController(n_candidates=4, seed=seed)
            assert a._order == b._order
            for segment in range(4):
                choice = a.choose(segment)
                assert choice == b.choose(segment)
                latencies = [1.0 + 0.1 * segment, 2.0]
                a.observe(choice, latencies)
                b.observe(choice, latencies)
            assert a.choose(4) == b.choose(4)
            assert a.bands() == b.bands()

    def test_explore_phase_visits_every_candidate_once(self):
        controller = AdaptiveController(n_candidates=5, seed=11)
        visits = [controller.choose(s) for s in range(5)]
        assert sorted(visits) == list(range(5))

    def test_exploit_prefers_lower_conformal_bound_with_index_ties(self):
        controller = AdaptiveController(n_candidates=3, seed=0)
        controller.observe(0, [5.0, 5.0, 5.0])
        controller.observe(1, [1.0, 1.0, 1.0])
        controller.observe(2, [1.0, 1.0, 1.0])
        assert controller.best() == 1  # tie with 2 breaks low
        assert controller.choose(3) == 1

    def test_unobserved_candidates_never_win_exploitation(self):
        controller = AdaptiveController(n_candidates=3, seed=4)
        controller.observe(controller.choose(0), [2.0, 3.0])
        assert controller.best() == controller.choose(0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="n_candidates"):
            AdaptiveController(n_candidates=0, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            AdaptiveController(n_candidates=2, seed=0, alpha=1.5)
        with pytest.raises(ValueError, match="segment"):
            AdaptiveController(n_candidates=2, seed=0).choose(-1)


class TestDegenerateWrapperIsTheBase:
    """A wrapper with nothing to tune is bitwise the unwrapped base."""

    @pytest.mark.parametrize("backend", ["closed", "event"])
    def test_single_candidate_single_segment_matches_base_bitwise(self, backend):
        # cadence past the horizon: one segment, one candidate at the
        # base default — the replay/scatter machinery must be an exact
        # identity on both simulator cores.
        scenario = "bursty" if backend == "closed" else "netslow"
        base = _run("timeout-repair", scenario, _ctx(), backend=backend)
        wrapped = _run(
            "adaptive(timeout-repair,slack=0.15,cadence=16)",
            scenario,
            _ctx(),
            backend=backend,
        )
        assert wrapped == base

    @pytest.mark.parametrize(
        "scenario", ["bursty", "spot", "controlled", "netslow"]
    )
    def test_single_candidate_replication_matches_base_bitwise(self, scenario):
        # The replication baseline is tunable too: with one candidate at
        # the base default the wrapper is its base exactly, even across
        # the default one-iteration segments (no forecast shapes a round).
        base = _run("replication", scenario, _ctx())
        wrapped = _run("adaptive(replication,max_speculative=6)", scenario, _ctx())
        assert wrapped == base

    def test_cadence_past_horizon_single_segment_matches_base(self):
        # One segment spanning the whole run, single candidate at the
        # base default: the composition machinery (materialise → replay →
        # scatter) must be an exact identity, not merely close.
        base = _run("overdecomp", "traces", _ctx(trials=3, seed=5))
        wrapped = _run(
            "adaptive(overdecomp,factor=4,cadence=16)",
            "traces",
            _ctx(trials=3, seed=5),
        )
        assert wrapped == base


def _spec(policies, scenarios=("bursty", "spot"), trials=TRIALS, seed=3):
    return SweepSpec(
        name="adaptive-determinism",
        cell=matrix_cell,
        axes=(("policy", policies), ("scenario", scenarios)),
        trials=trials,
        base_seed=seed,
        quick=True,
    )


#: The sweep rows under test: both registered wrappers, the meta-policy,
#: and an inline expression (exercising expression-name resolution inside
#: shard evaluation, mirroring composed scenario names).
ADAPTIVE_ROWS = (
    "adaptive-timeout",
    "policy-auto",
    "adaptive(overdecomp,factor=4:5,cadence=2)",
)


class TestShardAndExecutorDeterminism:
    @pytest.fixture(scope="class")
    def monolithic(self):
        clear_memos()
        engine = ExecutionEngine(jobs=1, shard_size=TRIALS)
        return engine.run(_spec(ADAPTIVE_ROWS)).values

    @pytest.mark.usefixtures("one_shard_units")
    @pytest.mark.parametrize("shard_size", [1, 7, TRIALS])
    def test_shard_sizes_bitwise_equal(self, monolithic, shard_size):
        clear_memos()  # commitment must be re-derivable per shard
        sharded = ExecutionEngine(jobs=1, shard_size=shard_size).run(
            _spec(ADAPTIVE_ROWS)
        )
        assert sharded.values == monolithic

    @pytest.mark.parametrize("shard_size, calls", [(1, 4), (3, 2)])
    def test_joined_shards_bitwise_equal(
        self, monolithic, monkeypatch, shard_size, calls
    ):
        clear_memos()  # commitment must be re-derivable per joined call
        rows = 2 * shard_size * 2  # two slices of the two scenarios
        monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", rows)
        joined = ExecutionEngine(jobs=1, shard_size=shard_size).run(
            _spec(ADAPTIVE_ROWS)
        )
        assert joined.cell_calls == calls * len(ADAPTIVE_ROWS)
        assert joined.values == monolithic

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_pooled_jobs_bitwise_equal(self, monolithic, executor):
        clear_memos()
        pooled = ExecutionEngine(jobs=2, executor=executor, shard_size=3).run(
            _spec(ADAPTIVE_ROWS)
        )
        assert pooled.values == monolithic

    def test_trial_slices_match_smaller_sweeps(self, monolithic):
        # Per-trial controllers key on trial seeds, so a 3-trial sweep is
        # a strict prefix of the 8-trial one — no cross-trial leakage.
        clear_memos()
        small = ExecutionEngine(jobs=1).run(_spec(ADAPTIVE_ROWS, trials=3))
        for key, value in small.values.items():
            full = monolithic[key]
            assert value == {k: v[:3] for k, v in full.items()}

    @pytest.mark.usefixtures("one_shard_units")
    def test_event_backend_shards_bitwise(self):
        spec = SweepSpec(
            name="adaptive-event-determinism",
            cell=matrix_cell,
            axes=(
                ("policy", ("adaptive-timeout",)),
                ("scenario", ("linkbursty",)),
                ("backend", ("event",)),
            ),
            trials=4,
            base_seed=9,
            quick=True,
        )
        whole = ExecutionEngine(jobs=1, shard_size=4).run(spec).values
        sliced = ExecutionEngine(jobs=1, shard_size=1).run(spec).values
        assert sliced == whole


class TestFuzzedShardMergeProperty:
    """The engine-determinism shard-merge property, over adaptive rows.

    Draws reuse the ``compile_plan`` harness: a fuzzer-generated (often
    composed) scenario, an adaptive policy row, a trial count, a base
    seed, and a shard size — sharded evaluation must merge bitwise-equal
    to the monolithic cell.  Failures reproduce from the case id alone.
    """

    POPULATION_SEED = 53

    @pytest.mark.parametrize("case", range(6))
    def test_random_draws_merge_bitwise_equal(self, case):
        rng = random.Random(5_000 + case)
        policy = rng.choice(ADAPTIVE_ROWS)
        scenario = generate_scenario(self.POPULATION_SEED, rng.randrange(64))
        trials = rng.randrange(2, 7)
        spec = SweepSpec(
            name=f"fuzzed-adaptive-{case}",
            cell=matrix_cell,
            axes=(("policy", (policy,)), ("scenario", (scenario,))),
            trials=trials,
            base_seed=rng.randrange(10_000),
            quick=True,
        )
        (params,) = spec.points()
        clear_memos()
        monolithic = matrix_cell(params, spec.context())

        shard_size = rng.randrange(1, trials + 1)
        plan = compile_plan(spec, shard_size=shard_size)
        clear_memos()
        merged = merge_shard_values(
            [matrix_cell(shard.params, shard.ctx) for shard in plan.shards],
            [shard.trials for shard in plan.shards],
        )
        assert merged == monolithic, (
            f"case {case}: policy={policy!r} scenario={scenario!r} "
            f"trials={trials} shard_size={shard_size}"
        )


_CALLS = {"count": 0, "fail_after": None}


def _interruptible_cell(params, ctx):
    """Matrix cell wrapped in an interruptible call counter (the resume
    run-key hashes the cell, so the killed and resumed runs share it)."""
    if (
        _CALLS["fail_after"] is not None
        and _CALLS["count"] >= _CALLS["fail_after"]
    ):
        raise RuntimeError("simulated kill")
    _CALLS["count"] += 1
    return matrix_cell(params, ctx)


class TestKilledThenResumed:
    @pytest.mark.usefixtures("one_shard_units")
    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        spec = SweepSpec(
            name="adaptive-resume",
            cell=_interruptible_cell,
            axes=(
                ("policy", ("adaptive-timeout", "policy-auto")),
                ("scenario", ("spot",)),
            ),
            trials=6,
            base_seed=3,
            quick=True,
        )
        clear_memos()
        _CALLS.update(count=0, fail_after=None)
        uninterrupted = ExecutionEngine(
            jobs=1, store=RunStore(tmp_path / "clean"), shard_size=2
        ).run(spec)

        store = RunStore(tmp_path / "killed")
        clear_memos()
        _CALLS.update(count=0, fail_after=3)
        with pytest.raises(RuntimeError, match="simulated kill"):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(spec)
        assert store.shard_count() == 3

        clear_memos()  # a fresh process resumes with cold memos
        _CALLS.update(count=0, fail_after=None)
        resumed = ExecutionEngine(
            jobs=1, store=store, shard_size=2, resume=True
        ).run(spec)
        assert resumed.resumed is True
        assert resumed.shard_hits == 3
        assert resumed.values == uninterrupted.values

    @pytest.mark.slow
    def test_sigkilled_adaptive_run_resumes_byte_identical(self, tmp_path):
        """A real ``SIGKILL`` mid-sweep over adaptive rows, resumed in a
        fresh interpreter (cold ``_COMMIT_MEMO``), matches the
        uninterrupted run byte for byte."""
        import json
        import signal
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, os, signal, sys\n"
            "from pathlib import Path\n"
            "import repro.engine.runner\n"
            "from repro.engine import ExecutionEngine, RunStore, SweepSpec\n"
            "from repro.experiments.matrix import _cell as matrix_cell\n"
            "repro.engine.runner.MAX_UNIT_ROWS = 1  # one call per shard\n"
            "KILL_AFTER = int(sys.argv[2])\n"
            "RESUME = sys.argv[3] == 'resume'\n"
            "CALLS = {'n': 0}\n"
            "def cell(params, ctx):\n"
            "    if CALLS['n'] == KILL_AFTER:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    CALLS['n'] += 1\n"
            "    return matrix_cell(params, ctx)\n"
            "spec = SweepSpec(\n"
            "    name='sigkill-adaptive',\n"
            "    cell=cell,\n"
            "    axes=(('policy', ('adaptive-timeout', 'policy-auto')),\n"
            "          ('scenario', ('spot',))),\n"
            "    trials=4, base_seed=1, quick=True,\n"
            ")\n"
            "report = ExecutionEngine(\n"
            "    jobs=1, store=RunStore(Path(sys.argv[1])),\n"
            "    shard_size=2, resume=RESUME,\n"
            ").run(spec)\n"
            "print(json.dumps([[repr(k), v] for k, v in\n"
            "                  sorted(report.values.items())]))\n"
        )

        def run(store_dir, kill_after, mode="fresh"):
            return subprocess.run(
                [sys.executable, str(driver), str(store_dir),
                 str(kill_after), mode],
                capture_output=True,
                text=True,
                cwd=repo_root,
                env={"PYTHONPATH": str(repo_root / "src"), "PATH": ""},
            )

        clean = run(tmp_path / "clean", -1)
        assert clean.returncode == 0, clean.stderr
        killed = run(tmp_path / "killed", 2)
        assert killed.returncode == -signal.SIGKILL
        resumed = run(tmp_path / "killed", -1, mode="resume")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout
        json.loads(resumed.stdout)


class TestExpressionValidation:
    """Malformed expressions raise registry-listing KeyErrors that name
    the offence — the CLI turns these into clean ``exit 2``s."""

    def test_unknown_base_lists_policies(self):
        with pytest.raises(KeyError, match="available"):
            get_policy("adaptive(nope,slack=0.1)")

    def test_untunable_base_lists_tunable_bases(self, monkeypatch):
        # Every built-in fixed policy is tunable; a user-registered one
        # whose runner has only ``run_scenario`` is not.
        import repro.scheduling.policies as pol

        class ScenarioOnlyRunner:
            def run_scenario(self, scenario, ctx, *, rows, cols, iterations):
                return {"total": [], "wasted": []}

        monkeypatch.setitem(
            pol._REGISTRY,
            "scenario-only",
            pol.PolicySpec(
                name="scenario-only",
                summary="a runner without a batched engine",
                paper="",
                figures=(),
                builder=lambda n_workers, k, knob: ScenarioOnlyRunner(),
                defaults=(("knob", 1),),
            ),
        )
        with pytest.raises(KeyError, match="tunable bases") as err:
            get_policy("adaptive(scenario-only,knob=1:2)")
        message = str(err.value)
        assert "'scenario-only' has no batched engine" in message
        assert "uncoded" in message and "replication" in message

    def test_nested_adaptive_is_rejected(self):
        with pytest.raises(KeyError, match="adaptive"):
            get_policy("adaptive(adaptive-timeout,slack=0.1)")

    def test_unknown_knob_names_the_knob_and_lists_valid_ones(self):
        with pytest.raises(KeyError) as err:
            get_policy("adaptive(timeout-repair,slak=0.1)")
        message = str(err.value)
        assert "slak" in message
        assert "slack" in message
        for key in CONTROLLER_KEYS:
            assert key in message

    def test_out_of_range_knob_value_names_the_setting(self):
        with pytest.raises(KeyError, match="slack"):
            get_policy("adaptive(timeout-repair,slack=-1.0)")

    def test_bad_controller_values(self):
        with pytest.raises(KeyError, match="cadence"):
            get_policy("adaptive(timeout-repair,slack=0.1,cadence=0)")
        with pytest.raises(KeyError, match="alpha"):
            get_policy("adaptive(timeout-repair,slack=0.1,alpha=2)")

    def test_duplicate_knob_is_rejected(self):
        with pytest.raises(KeyError, match="slack"):
            get_policy("adaptive(timeout-repair,slack=0.1,slack=0.2)")

    def test_equivalent_spellings_canonicalise_to_one_name(self):
        a = adaptive_spec("adaptive(timeout-repair, slack=0.1:0.2)")
        b = adaptive_spec("adaptive(timeout-repair,slack=0.1:0.2)")
        assert a.name == b.name

    @pytest.mark.parametrize("case", range(8))
    def test_fuzzed_invalid_knobs_fail_naming_the_knob(self, case):
        """Random invalid knob spellings against random tunable bases all
        raise KeyErrors that echo the offending knob name verbatim."""
        rng = random.Random(7_000 + case)
        base = rng.choice(("timeout-repair", "overdecomp"))
        knob = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz_") for _ in range(rng.randrange(3, 9))
        )
        valid = {"slack", "num_chunks", "factor", "replication"}
        if knob in valid | set(CONTROLLER_KEYS):
            knob = "zz_" + knob
        expr = f"adaptive({base},{knob}=1:2)"
        with pytest.raises(KeyError) as err:
            get_policy(expr)
        assert knob in str(err.value)


class TestTraceAndMetrics:
    def test_trace_records_segments_choices_and_bands(self):
        trace = []
        _run("adaptive-timeout", "bursty", _ctx(), trace=trace)
        assert [t["segment"] for t in trace] == [0, 1, 2, 3]
        for entry in trace:
            assert len(entry["choices"]) == 2  # one choice per trial
            assert entry["candidates"]
        assert trace[-1]["bands"]  # by the last segment, bands exist

    def test_auto_trace_records_probe_and_commitment(self):
        clear_memos()
        trace = []
        _run("policy-auto", "bursty", _ctx(), trace=trace)
        (entry,) = trace
        assert entry["committed"] in entry["probe"]["scores"]
        assert set(entry["probe"]["scores"]) == set(
            n for n in entry["probe"]["scores"]
        )

    def test_auto_commitment_is_keyed_by_network(self):
        # Under the default network ``constant`` commits to replication,
        # under the zero network to s2c2-ar: a zero-network runner must not
        # reuse the commitment a default-network one probed in the same run.
        from repro.cluster.network import NetworkModel

        zero = NetworkModel(latency=0.0, bandwidth=float("inf"))

        def auto(network=None):
            trace = []
            value = build_policy("policy-auto", 12, 8, network=network).run_scenario(
                "constant", _ctx(), rows=480, cols=120, iterations=4, trace=trace
            )
            return value, trace[0]["committed"]

        clear_memos()
        fresh = auto(zero)
        clear_memos()
        assert auto()[1] == "replication"
        assert auto(zero) == fresh
        assert fresh[1] == "s2c2-ar"

    def test_metrics_shapes_match_fixed_policies(self):
        fixed = _run("timeout-repair", "bursty", _ctx())
        wrapped = _run("adaptive-timeout", "bursty", _ctx())
        assert set(wrapped) == set(fixed)
        for key, values in wrapped.items():
            assert len(values) == len(fixed[key])
            assert np.all(np.isfinite(values))
