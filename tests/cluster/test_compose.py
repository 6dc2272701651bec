"""Algebra laws, expression grammar, and digest behaviour of
``repro.cluster.compose``.

The laws the composed names in sweep axes rely on: identity combinators
reproduce their operand *bitwise* (so a composed cell equals the base
cell's stored value), canonicalisation makes structurally equal
expressions one name, and digests fold compositionally — stable across
process restarts, distinct for distinct structures.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import compose as cmp
from repro.cluster import scenarios as scn
from repro.cluster.scenarios import (
    get_scenario,
    registry_digest,
    scenario_batch,
    scenario_speed_model,
)

REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"

N, ITERS = 12, 24


def _stack(model, iterations=ITERS):
    return np.stack([model.speeds(i) for i in range(iterations)])


def _trajectory(name, seed=5, iterations=ITERS):
    return _stack(scenario_speed_model(name, N, seed=seed), iterations)


class TestAlgebraLaws:
    @pytest.mark.parametrize("base", ["bursty", "spot", "rack", "markov"])
    def test_concat_single_operand_is_identity(self, base):
        np.testing.assert_array_equal(
            _trajectory(f"concat({base})"), _trajectory(base)
        )

    @pytest.mark.parametrize("base", ["bursty", "spot"])
    def test_mix_weight_one_is_identity(self, base):
        np.testing.assert_array_equal(
            _trajectory(f"mix({base},constant,weight=1.0)"), _trajectory(base)
        )

    @pytest.mark.parametrize("base", ["bursty", "rack"])
    def test_time_shift_zero_is_identity(self, base):
        np.testing.assert_array_equal(
            _trajectory(f"time_shift({base},shift=0)"), _trajectory(base)
        )

    def test_overlay_single_operand_is_identity(self):
        np.testing.assert_array_equal(
            _trajectory("overlay(bursty)"), _trajectory("bursty")
        )

    def test_time_shift_advances_the_operand(self):
        base = _trajectory("bursty", iterations=ITERS + 7)
        shifted = _trajectory("time_shift(bursty,shift=7)")
        np.testing.assert_array_equal(shifted, base[7:])

    def test_overlay_is_elementwise_minimum(self):
        # Operand 0 keeps the parent seed; operand 1 is re-seeded by the
        # operand stride, so compare against independently built models.
        a = _stack(scenario_speed_model("bursty", N, seed=5))
        b = _stack(
            scenario_speed_model("spot", N, seed=5 + cmp.OPERAND_SEED_STRIDE)
        )
        np.testing.assert_array_equal(
            _trajectory("overlay(bursty,spot)"), np.minimum(a, b)
        )

    def test_mix_is_convex_combination(self):
        a = _stack(scenario_speed_model("bursty", N, seed=5))
        b = _stack(
            scenario_speed_model("constant", N, seed=5 + cmp.OPERAND_SEED_STRIDE)
        )
        np.testing.assert_array_equal(
            _trajectory("mix(bursty,constant,weight=0.25)"),
            0.25 * a + 0.75 * b,
        )

    def test_scale_multiplies_speeds(self):
        np.testing.assert_array_equal(
            _trajectory("scale(bursty,factor=0.5)"),
            0.5 * _trajectory("bursty"),
        )

    def test_concat_switches_segments_with_local_indexing(self):
        traj = _trajectory("concat(constant,spot,segment=4)")
        head = _stack(scenario_speed_model("constant", N, seed=5), 4)
        tail = _stack(
            scenario_speed_model("spot", N, seed=5 + cmp.OPERAND_SEED_STRIDE),
            ITERS - 4,
        )
        np.testing.assert_array_equal(traj[:4], head)
        # The last segment extends forever, replayed from its iteration 0.
        np.testing.assert_array_equal(traj[4:], tail)

    def test_operands_of_same_scenario_draw_independently(self):
        traj = _trajectory("mix(bursty,bursty,weight=0.5)")
        base = _trajectory("bursty")
        assert not np.array_equal(traj, base)

    def test_leaf_override_equals_explicit_kwargs(self):
        np.testing.assert_array_equal(
            _trajectory("bursty(dip_prob=0.2,jitter=0.3)"),
            _stack(
                scenario_speed_model("bursty", N, seed=5, dip_prob=0.2, jitter=0.3)
            ),
        )

    def test_nested_composition_builds(self):
        traj = _trajectory("overlay(scale(rack,factor=0.8),bursty)")
        assert traj.shape == (ITERS, N)
        assert (traj > 0).all()


class TestGrammar:
    def test_canonical_sorts_params_and_strips_spaces(self):
        node = cmp.parse_scenario_name(
            "concat( spot, bursty(jitter=0.2, dip_prob=0.1), segment=16 )"
        )
        assert node.canonical == (
            "concat(spot,bursty(dip_prob=0.1,jitter=0.2),segment=16)"
        )

    def test_equivalent_spellings_share_one_spec(self):
        a = get_scenario("mix(bursty,constant,weight=0.5)")
        b = get_scenario("mix( bursty , constant , weight = 0.5 )")
        assert a.name == b.name

    def test_defaults_fill_missing_params(self):
        node = cmp.parse_scenario_name("concat(spot,bursty)")
        assert dict(node.params)["segment"] == 8

    def test_get_scenario_resolves_without_registration(self):
        name = "overlay(rack,time_shift(bursty,shift=3))"
        spec = get_scenario(name)
        assert spec.compose is not None
        assert name not in scn.available_scenarios()

    @pytest.mark.parametrize(
        "bad,detail",
        [
            ("nope(bursty)", "unknown combinator"),
            ("mix(bursty)", "takes exactly 2"),
            ("mix(bursty,spot,constant)", "takes exactly 2"),
            ("time_shift()", "operand"),
            ("bursty(zz=1)", "no parameter"),
            ("mix(bursty,constant,w=0.5)", "no parameter"),
            ("scale(bursty,factor=2,factor=3)", "duplicate parameter"),
            ("concat(bursty,segment=8,spot)", "operand after parameters"),
            ("concat(bursty", "expected"),
            ("concat(bursty))", "trailing input"),
            ("overlay(bursty,nope)", "unknown leaf scenario"),
        ],
    )
    def test_malformed_expressions_raise_registry_keyerror(self, bad, detail):
        with pytest.raises(KeyError) as excinfo:
            get_scenario(bad)
        message = excinfo.value.args[0]
        assert detail in message
        # The exit-2 contract: the message lists what *is* available.
        assert "available:" in message

    def test_bare_unknown_name_keeps_the_plain_shape(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            get_scenario("nope")

    def test_scenario_speed_model_and_batch_share_the_contract(self):
        with pytest.raises(KeyError, match="unknown combinator"):
            scenario_speed_model("nope(bursty)", N)
        with pytest.raises(KeyError, match="unknown combinator"):
            scenario_batch("nope(bursty)", N, seeds=[0, 1])

    def test_batch_rows_of_composed_name_equal_per_seed_models(self):
        name = "mix(bursty,spot,weight=0.5)"
        batch = scenario_batch(name, N, seeds=[1, 2])
        for t, seed in enumerate([1, 2]):
            np.testing.assert_array_equal(
                _stack(batch.row(t), 6),
                _stack(scenario_speed_model(name, N, seed=seed), 6),
            )


class TestRegistration:
    def test_compose_registers_idempotently(self, monkeypatch):
        registry = dict(scn._REGISTRY)
        monkeypatch.setattr(scn, "_REGISTRY", registry)
        spec = cmp.overlay("rack", "bursty")
        assert spec.name in registry
        again = cmp.overlay("rack", "bursty")
        assert again is registry[spec.name]

    def test_python_api_matches_expression_names(self, monkeypatch):
        monkeypatch.setattr(scn, "_REGISTRY", dict(scn._REGISTRY))
        assert cmp.mix("bursty", "constant", weight=0.7).name == (
            "mix(bursty,constant,weight=0.7)"
        )
        assert cmp.concat("spot", "bursty", segment=16).name == (
            "concat(spot,bursty,segment=16)"
        )
        assert cmp.time_shift("rack", shift=4).name == "time_shift(rack,shift=4)"
        assert cmp.scale("spot", factor=0.8).name == "scale(spot,factor=0.8)"

    def test_register_false_leaves_registry_untouched(self):
        before = scn.available_scenarios()
        spec = cmp.overlay("rack", "spot", register=False)
        assert spec.name == "overlay(rack,spot)"
        assert scn.available_scenarios() == before

    def test_registered_composition_folds_into_registry_digest(self, monkeypatch):
        monkeypatch.setattr(scn, "_REGISTRY", dict(scn._REGISTRY))
        before = registry_digest()
        cmp.overlay("rack", "bursty")
        assert registry_digest() != before


class TestDigests:
    def test_distinct_operand_orders_distinct_digests(self):
        assert cmp.scenario_digest("concat(bursty,spot)") != cmp.scenario_digest(
            "concat(spot,bursty)"
        )

    def test_distinct_params_distinct_digests(self):
        assert cmp.scenario_digest(
            "mix(bursty,spot,weight=0.5)"
        ) != cmp.scenario_digest("mix(bursty,spot,weight=0.6)")

    def test_composed_digest_differs_from_operand_digest(self):
        assert cmp.scenario_digest("concat(bursty)") != cmp.scenario_digest(
            "bursty"
        )

    def test_digest_follows_leaf_builder_changes(self, monkeypatch):
        name = "overlay(rack,tempscn)"

        def builder_a(n_workers, seed):
            return scn.ConstantSpeeds(np.ones(n_workers))

        monkeypatch.setitem(
            scn._REGISTRY,
            "tempscn",
            scn.ScenarioSpec("tempscn", "tmp", "", builder_a),
        )
        first = cmp.scenario_digest(name)

        def builder_b(n_workers, seed):
            return scn.ConstantSpeeds(np.full(n_workers, 0.5))

        monkeypatch.setitem(
            scn._REGISTRY,
            "tempscn",
            scn.ScenarioSpec("tempscn", "tmp", "", builder_b),
        )
        # The composition itself did not change — only a leaf it is built
        # from — yet the digest moves: the compositional fold.
        assert cmp.scenario_digest(name) != first

    def test_digests_stable_across_process_restarts(self):
        names = (
            "overlay(rack,bursty)",
            "concat(spot,bursty(dip_prob=0.1),segment=16)",
            "mix(bursty,constant,weight=0.7)",
        )
        script = (
            "from repro.cluster.compose import scenario_digest\n"
            f"for n in {names!r}:\n"
            "    print(scenario_digest(n))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        in_process = "".join(cmp.scenario_digest(n) + "\n" for n in names)
        assert runs[0] == in_process


class TestCombinatorRegistry:
    def test_available_combinators_sorted(self):
        assert cmp.available_combinators() == (
            "concat",
            "mix",
            "overlay",
            "scale",
            "time_shift",
        )

    def test_unknown_combinator_lists_registry(self):
        with pytest.raises(KeyError, match="concat, mix, overlay"):
            cmp.get_combinator("nope")

    def test_model_validation(self):
        with pytest.raises(ValueError, match="weight"):
            scenario_speed_model("mix(bursty,spot,weight=1.5)", N)
        with pytest.raises(ValueError, match="factor"):
            scenario_speed_model("scale(bursty,factor=0)", N)
        with pytest.raises(ValueError, match="segment"):
            scenario_speed_model("concat(bursty,spot,segment=0)", N)
        with pytest.raises(ValueError, match="shift"):
            scenario_speed_model("time_shift(bursty,shift=-1)", N)
