"""Mitigation-policy registry: contracts, builders, digest, runners."""

import numpy as np
import pytest

from repro.engine import SweepContext
from repro.scheduling import policies as pol
from repro.scheduling.policies import (
    CodedPolicyRunner,
    PolicyRunner,
    available_policies,
    build_policy,
    get_policy,
    registry_digest,
)
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler


def _ctx(trials=2, quick=True, base_seed=0):
    from repro.engine import SEED_STRIDE

    return SweepContext(
        quick=quick,
        base_seed=base_seed,
        seeds=tuple(base_seed + SEED_STRIDE * t for t in range(trials)),
    )


EXPECTED = {
    "uncoded",
    "replication",
    "overdecomp",
    "mds",
    "s2c2-basic",
    "s2c2-general",
    "timeout-repair",
    "s2c2-lastvalue",
    "s2c2-ar",
    "s2c2-lstm",
    "s2c2-oracle",
    "s2c2-stale",
}


class TestRegistry:
    def test_builtins_present_and_sorted(self):
        names = available_policies()
        assert set(names) >= EXPECTED
        assert list(names) == sorted(names)

    def test_get_unknown_lists_registry(self):
        with pytest.raises(KeyError, match="mds.*timeout-repair"):
            get_policy("no-such-policy")

    def test_specs_carry_paper_metadata(self):
        for name in available_policies():
            spec = get_policy(name)
            assert spec.summary
            assert spec.paper
            assert isinstance(spec.figures, tuple)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            pol.register_policy("mds", "dup")(lambda n_workers, k: None)

    def test_every_builtin_builds_a_runner(self):
        for name in available_policies():
            runner = build_policy(name, 12, 8)
            assert isinstance(runner, PolicyRunner)
            assert runner.policy == name
            assert runner.n_workers == 12


class TestBuildPolicy:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            build_policy("mds", 12, 8, nun_chunks=100)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_policy("mds", 8, 12)
        with pytest.raises(ValueError):
            build_policy("mds", 0, 0)

    def test_override_reaches_scheduler(self):
        runner = build_policy("s2c2-general", 12, 8, num_chunks=123)
        scheduler = runner.make_scheduler()
        assert isinstance(scheduler, GeneralS2C2Scheduler)
        assert scheduler.num_chunks == 123
        assert scheduler.coverage == 8

    def test_scheduler_families(self):
        assert isinstance(
            build_policy("mds", 12, 8).make_scheduler(), StaticCodedScheduler
        )
        assert isinstance(
            build_policy("s2c2-basic", 12, 8).make_scheduler(),
            BasicS2C2Scheduler,
        )

    def test_repair_knob_arms_timeout(self):
        assert build_policy("mds", 12, 8).timeout is None
        armed = build_policy("mds", 12, 8, repair=True)
        assert armed.timeout is not None
        assert build_policy("timeout-repair", 12, 8, slack=0.3).timeout.slack == 0.3

    def test_fresh_scheduler_per_call(self):
        runner = build_policy("s2c2-general", 12, 8)
        assert runner.make_scheduler() is not runner.make_scheduler()


class TestDigest:
    def test_stable_across_calls(self):
        assert registry_digest() == registry_digest()

    def test_runtime_registration_changes_digest(self):
        base = registry_digest()
        extra = pol.PolicySpec(
            name="zz-digest-test",
            summary="ephemeral",
            paper="test",
            figures=(),
            builder=lambda n_workers, k: None,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(pol._REGISTRY, "zz-digest-test", extra)
            assert registry_digest() != base
        assert registry_digest() == base

    def test_doc_only_metadata_excluded(self):
        # Editing a cross-reference (summary/paper/figures) must not
        # invalidate numerically unchanged cached sweep cells.
        spec = get_policy("mds")
        tweaked = pol.PolicySpec(
            name=spec.name,
            summary=spec.summary + " (edited)",
            paper=spec.paper + " addendum",
            figures=spec.figures + ("zz",),
            builder=spec.builder,
            defaults=spec.defaults,
        )
        base = registry_digest()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(pol._REGISTRY, "mds", tweaked)
            assert registry_digest() == base

    def test_differs_from_scenario_digest(self):
        from repro.cluster.scenarios import registry_digest as scenario_digest

        assert registry_digest() != scenario_digest()


class TestRunners:
    def test_coded_run_scenario_shape_and_determinism(self):
        ctx = _ctx(trials=3)
        runner = build_policy("timeout-repair", 12, 8)
        first = runner.run_scenario(
            "controlled", ctx, rows=240, cols=60, iterations=2
        )
        second = runner.run_scenario(
            "controlled", ctx, rows=240, cols=60, iterations=2
        )
        assert first == second
        assert len(first["total"]) == 3
        assert len(first["wasted"]) == 3
        assert all(v > 0 for v in first["total"])
        assert all(0 <= v <= 1 for v in first["wasted"])

    def test_replication_runner_matches_fig06_baseline(self):
        # The registry's replication policy must reproduce, bit for bit,
        # one seeded scalar session per trial (the Fig 6 baseline), as
        # frozen in tests/runtime/session_reference.py.
        import importlib.util
        from pathlib import Path

        from repro.cluster.scenarios import scenario_speed_model

        spec = importlib.util.spec_from_file_location(
            "session_reference",
            Path(__file__).resolve().parents[1] / "runtime" / "session_reference.py",
        )
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        from repro.prediction.predictor import LastValuePredictor

        ctx = _ctx(trials=2)
        got = build_policy("replication", 12, 8).run_scenario(
            "controlled", ctx, rows=240, cols=60, iterations=2
        )
        sessions = [
            reference.run_replicated_lr_like(
                np.zeros((240, 60)),
                scenario_speed_model("controlled", 12, seed=seed),
                LastValuePredictor(12),
                iterations=2,
            ).metrics
            for seed in ctx.seeds
        ]
        assert got["total"] == [m.total_time for m in sessions]
        assert got["wasted"] == [
            float(np.mean(m.wasted_fraction_of_assigned())) for m in sessions
        ]

    def test_coded_run_scenario_matches_direct_batch(self):
        # run_scenario is exactly run_batch over scenario_batch speeds.
        from repro.cluster.scenarios import scenario_batch
        from repro.prediction.predictor import BatchLastValuePredictor

        ctx = _ctx(trials=2)
        runner = build_policy("s2c2-general", 10, 7)
        via_scenario = runner.run_scenario(
            "markov", ctx, rows=240, cols=60, iterations=2
        )
        metrics = runner.run_batch(
            scenario_batch("markov", 10, ctx.seeds),
            BatchLastValuePredictor(ctx.trials, 10),
            rows=240,
            cols=60,
            iterations=2,
        )
        assert via_scenario["total"] == [float(v) for v in metrics.total_time]

    def test_trial_zero_matches_single_trial_run(self):
        # The sweep pairing property holds through the policy layer.
        runner = build_policy("timeout-repair", 12, 8)
        many = runner.run_scenario(
            "spot", _ctx(trials=3), rows=240, cols=60, iterations=2
        )
        one = runner.run_scenario(
            "spot", _ctx(trials=1), rows=240, cols=60, iterations=2
        )
        assert many["total"][0] == one["total"][0]

    def test_prediction_variants_are_wired_differently(self):
        # Oracle forecasts beat stale ones on an unpredictable scenario —
        # evidence each variant really gets its own forecaster.
        ctx = _ctx(trials=2)
        kwargs = dict(rows=240, cols=60, iterations=3)
        oracle = build_policy("s2c2-oracle", 12, 8).run_scenario(
            "spot", ctx, **kwargs
        )
        stale = build_policy(
            "s2c2-stale", 12, 8, miss_rate=0.9
        ).run_scenario("spot", ctx, **kwargs)
        assert np.mean(oracle["total"]) <= np.mean(stale["total"])

    def test_model_memo_is_run_scoped(self):
        from repro.engine import ExecutionEngine

        ctx = _ctx(trials=1)
        build_policy("s2c2-ar", 12, 8).run_scenario(
            "constant", ctx, rows=240, cols=60, iterations=1
        )
        assert pol._MODEL_MEMO  # the fitted AR model is memoised
        ExecutionEngine()  # a new sweep run clears policy-layer model memos
        assert not pol._MODEL_MEMO

    def test_training_traces_are_drawn_once_per_run(self, monkeypatch):
        # s2c2-ar and s2c2-lstm train on the same held-out traces: one
        # draw serves both fits, and neither model changes by a bit.
        from repro.prediction import traces
        from repro.prediction.arima import ARModel
        from repro.prediction.lstm import LSTMSpeedModel

        draws = []
        original = traces.generate_speed_traces

        def counting(*args, **kwargs):
            draws.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(traces, "generate_speed_traces", counting)
        pol.clear_memos()
        ar = pol._fitted_ar(1, True, 0)
        lstm = pol._trained_lstm(4, True, 0)
        assert draws == [((30, 200, traces.MEASURED), {"seed": 4000})]
        monkeypatch.undo()

        def fresh():
            return original(30, 200, traces.MEASURED, seed=4000)

        ref_ar = ARModel(p=1).fit(fresh())
        assert (ar.intercept, ar.coef.tobytes()) == (
            ref_ar.intercept,
            ref_ar.coef.tobytes(),
        )
        ref_lstm = LSTMSpeedModel(hidden=4, seed=0)
        ref_lstm.fit(fresh(), epochs=80, window=40)
        assert {k: v.tobytes() for k, v in lstm._params.items()} == {
            k: v.tobytes() for k, v in ref_lstm._params.items()
        }
        assert (lstm._mu, lstm._sigma) == (ref_lstm._mu, ref_lstm._sigma)
