"""Scenario registry behaviour and per-generator statistical invariants.

Every built-in scenario is checked for the property that *defines* it —
not just shapes: dip frequency for ``bursty``, the stationary slow
fraction for ``markov``, within-rack equality for ``rack``, the
preemption floor for ``spot``, exact trace replay for ``traces`` — plus
the shared contracts (positivity, seeded determinism, random-access
replay, batch trial-for-trial equivalence with single-trial models).
"""

import re

import numpy as np
import pytest

from repro.cluster import scenarios as scn
from repro.cluster.scenarios import (
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    registry_digest,
    scenario_batch,
    scenario_speed_model,
)
from repro.cluster.speed_models import ConstantSpeeds
from repro.prediction.traces import VOLATILE, generate_speed_traces

N = 12
BUILT_INS = (
    "bursty",
    "constant",
    "controlled",
    "markov",
    "rack",
    "spot",
    "traces",
)


def _stack(model, iterations: int) -> np.ndarray:
    return np.stack([model.speeds(i) for i in range(iterations)])


class TestRegistry:
    def test_built_ins_registered(self):
        assert set(BUILT_INS) <= set(available_scenarios())
        assert len(available_scenarios()) >= 6

    def test_get_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available:.*controlled"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("constant", "dup")(lambda **kw: None)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            scenario_speed_model("markov", N, seed=0, bogus=1)

    def test_override_applies(self):
        model = scenario_speed_model("constant", N, seed=0, spread=0.5)
        speeds = model.speeds(0)
        assert speeds.min() >= 0.5 and speeds.max() <= 1.0
        assert len(set(np.round(speeds, 12))) > 1  # heterogeneous

    def test_specs_carry_metadata(self):
        for name in BUILT_INS:
            spec = get_scenario(name)
            assert spec.summary and spec.models, name

    def test_digest_deterministic_and_registry_sensitive(self, monkeypatch):
        before = registry_digest()
        assert before == registry_digest()
        spec = ScenarioSpec(
            name="zz-test",
            summary="ephemeral",
            models="test",
            builder=lambda n_workers, seed: ConstantSpeeds(np.ones(n_workers)),
        )
        monkeypatch.setitem(scn._REGISTRY, "zz-test", spec)
        assert registry_digest() != before


class TestSharedContracts:
    @pytest.mark.parametrize("name", BUILT_INS)
    def test_positive_and_shaped(self, name):
        model = scenario_speed_model(name, N, seed=3)
        for it in range(8):
            speeds = model.speeds(it)
            assert speeds.shape == (N,)
            assert np.all(speeds > 0)
            assert np.all(speeds <= 1.0 + 1e-12) or name == "controlled"

    @pytest.mark.parametrize("name", BUILT_INS)
    def test_seeded_determinism(self, name):
        a = _stack(scenario_speed_model(name, N, seed=5), 6)
        b = _stack(scenario_speed_model(name, N, seed=5), 6)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(set(BUILT_INS) - {"controlled"}))
    def test_random_access_replay(self, name):
        model = scenario_speed_model(name, N, seed=1)
        later = model.speeds(5)
        earlier = model.speeds(2)  # revisit an earlier iteration
        fresh = scenario_speed_model(name, N, seed=1)
        np.testing.assert_array_equal(earlier, fresh.speeds(2))
        np.testing.assert_array_equal(later, fresh.speeds(5))

    @pytest.mark.parametrize("name", BUILT_INS)
    def test_batch_matches_singles(self, name):
        seeds = [2, 9, 23]
        batch = scenario_batch(name, N, seeds)
        assert batch.n_trials == len(seeds) and batch.n_workers == N
        for it in range(4):
            got = batch.speeds_batch(it)
            assert got.shape == (len(seeds), N)
        singles = [
            _stack(scenario_speed_model(name, N, seed=s), 4) for s in seeds
        ]
        fresh_batch = scenario_batch(name, N, seeds)
        for it in range(4):
            got = fresh_batch.speeds_batch(it)
            for t in range(len(seeds)):
                np.testing.assert_array_equal(got[t], singles[t][it])


class TestConstant:
    def test_constant_across_iterations(self):
        model = scenario_speed_model("constant", N, seed=0)
        first = model.speeds(0)
        np.testing.assert_array_equal(first, np.ones(N))
        np.testing.assert_array_equal(first, model.speeds(17))

    def test_bad_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            scenario_speed_model("constant", N, seed=0, spread=1.5)


class TestControlled:
    def test_stragglers_slow(self):
        model = scenario_speed_model(
            "controlled", N, seed=0, num_stragglers=3, slowdown=5.0
        )
        speeds = model.speeds(0)
        slow, fast = np.sort(speeds)[:3], np.sort(speeds)[3:]
        assert slow.max() * 2 < fast.min()


class TestBursty:
    def test_dip_frequency_and_depth(self):
        dip_prob, dip_depth, jitter = 0.15, 0.3, 0.1
        model = scenario_speed_model(
            "bursty", 50, seed=7, dip_prob=dip_prob, dip_depth=dip_depth,
            jitter=jitter,
        )
        draws = _stack(model, 400)
        # dipped speeds sit in [(1-jitter)*depth, depth]; undipped ones in
        # [1-jitter, 1] — disjoint bands, so the depth threshold separates.
        dipped = draws <= dip_depth + 1e-12
        assert np.all(draws[dipped] >= (1.0 - jitter) * dip_depth - 1e-12)
        rate = dipped.mean()
        assert abs(rate - dip_prob) < 0.02
        undipped = draws[~dipped]
        assert undipped.min() >= 1.0 - jitter - 1e-12
        assert undipped.max() <= 1.0

    def test_memoryless(self):
        # Dips are i.i.d.: dipping today does not predict dipping tomorrow.
        model = scenario_speed_model(
            "bursty", 40, seed=3, dip_prob=0.2, dip_depth=0.2, jitter=0.0
        )
        draws = _stack(model, 500) < 0.5
        given_dip = draws[1:][draws[:-1]].mean()
        assert abs(given_dip - 0.2) < 0.03


class TestMarkov:
    def test_stationary_slow_fraction(self):
        slow_prob, recover_prob = 0.1, 0.3
        model = scenario_speed_model(
            "markov", 40, seed=11, slow_prob=slow_prob,
            recover_prob=recover_prob, slowdown=5.0,
        )
        draws = _stack(model, 600)
        assert set(np.unique(draws)) <= {0.2, 1.0}
        stationary = slow_prob / (slow_prob + recover_prob)
        assert abs((draws == 0.2).mean() - stationary) < 0.02

    def test_spell_persistence(self):
        # Slow spells are geometric with mean 1/recover_prob: a slow worker
        # stays slow with probability 1 - recover_prob.
        model = scenario_speed_model(
            "markov", 40, seed=2, slow_prob=0.1, recover_prob=0.25, slowdown=10.0
        )
        slow = _stack(model, 600) < 0.5
        stay = slow[1:][slow[:-1]].mean()
        assert abs(stay - 0.75) < 0.03


class TestRack:
    def test_within_rack_correlation(self):
        model = scenario_speed_model(
            "rack", 11, seed=4, n_racks=3, slow_prob=0.2, recover_prob=0.3,
            slowdown=4.0,
        )
        racks = np.arange(11) * 3 // 11  # contiguous, near-even racks
        assert racks.shape == (11,) and set(racks) == {0, 1, 2}
        for it in range(60):
            speeds = model.speeds(it)
            for r in range(3):
                assert len(set(speeds[racks == r])) == 1, (it, r)

    def test_racks_move_independently(self):
        model = scenario_speed_model(
            "rack", 12, seed=0, n_racks=4, slow_prob=0.3, recover_prob=0.3,
            slowdown=4.0,
        )
        draws = _stack(model, 200)
        rack_state = draws[:, ::3] < 0.5  # one worker per rack
        # Not all racks share one state trajectory.
        assert np.any(rack_state.any(axis=1) & ~rack_state.all(axis=1))

    def test_n_racks_validated(self):
        with pytest.raises(ValueError, match="n_racks"):
            scenario_speed_model("rack", 4, n_racks=5)


class TestSpot:
    def test_floor_and_recovery(self):
        model = scenario_speed_model(
            "spot", 40, seed=6, preempt_prob=0.1, restore_prob=0.25, floor=0.02
        )
        draws = _stack(model, 500)
        assert set(np.unique(draws)) <= {0.02, 1.0}
        down = draws == 0.02
        assert down.any() and not down.all()
        # Preemption from the up state happens at ~preempt_prob.
        preempted = down[1:][~down[:-1]].mean()
        assert abs(preempted - 0.1) < 0.03
        # Replacements do arrive: a preempted worker eventually returns.
        restored = (~down[1:])[down[:-1]].mean()
        assert abs(restored - 0.25) < 0.04


class TestTraces:
    def test_exact_replay_of_generator(self):
        model = scenario_speed_model(
            "traces", N, seed=9, preset="volatile", horizon=20
        )
        expected = generate_speed_traces(N, 20, VOLATILE, seed=9)
        for it in (0, 7, 19, 23):  # includes wrap-around
            np.testing.assert_array_equal(
                model.speeds(it), expected[:, it % 20]
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            scenario_speed_model("traces", N, seed=0, preset="nope")


class TestParameterValues:
    """A bad value is a ``ValueError`` naming the parameter at build."""

    @pytest.mark.parametrize(
        "name, parameter",
        [
            ("controlled(slowdown=nan)", "slowdown"),
            ("scale(bursty,factor=abc)", "factor"),
            ("traces(horizon=8.5)", "horizon"),
            ("traces(preset=3)", "preset"),
        ],
    )
    def test_wrong_type_names_scenario_and_parameter(self, name, parameter):
        with pytest.raises(ValueError, match=f"{re.escape(repr(name))}.*'{parameter}'"):
            scenario_speed_model(name, N)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e999])
    @pytest.mark.parametrize("name", ["controlled", "netslow", "rackcongest"])
    def test_non_finite_slowdown_rejected(self, name, value):
        with pytest.raises(ValueError, match="slowdown"):
            scenario_batch(name, N, [0], slowdown=value)

    def test_spelled_defaults_do_not_narrow_overrides(self):
        # An int spelled in an expression still takes a float override.
        model = scenario_speed_model("controlled(slowdown=5)", N, slowdown=5.5)
        assert np.sort(model.speeds(0))[0] < 1.0 / 5.5 * 1.2
        assert scenario_speed_model("traces(preset=stable)", N).speeds(0).shape == (N,)

    def test_scale_above_one_stays_legal(self):
        scaled = scenario_speed_model("scale(bursty,factor=3.0)", N, seed=2)
        np.testing.assert_array_equal(
            scaled.speeds(1), 3.0 * scenario_speed_model("bursty", N, seed=2).speeds(1)
        )
        with pytest.raises(ValueError, match="factor"):
            scenario_speed_model("scale(bursty,factor=1e999)", N)
