"""Streaming-reducer layer: algebraic claims, fold equivalence, summaries.

Three guarantee families:

* every reducer's ``merge`` obeys the algebraic laws its class attributes
  claim — **bitwise** associativity/commutativity where
  ``associative_exact`` / ``commutative`` say so, floating-point-tolerance
  agreement with the monolithic numpy statistics otherwise;
* the engine's streaming fold is **bitwise-equal** to the monolithic
  :func:`repro.engine.plan.merge_shard_values` under the default
  ``concat`` reducer, as a seeded property over fuzzer-drawn policy ×
  scenario × shard-size combinations — including adversarial arrival
  orders (pool executors complete shards in any order);
* streaming summaries are shard-decomposition-independent where claimed:
  the ``quantile`` reducer's seeded reservoir keeps the *same* sample
  under any shard split, and its reservoir plugs into the split-conformal
  helpers.
"""

import copy
import json
import random

import numpy as np
import pytest

from repro.cluster.fuzz import generate_scenario
from repro.engine import SweepSpec
from repro.engine.plan import compile_plan, merge_shard_values
from repro.engine.reduce import (
    QUANTILE_PROBES,
    RESERVOIR_CAPACITY,
    ReducerShapeError,
    available_reducers,
    conformal_from_summary,
    get_reducer,
    sample_quantiles,
    sample_values,
)
from repro.engine.runner import ExecutionEngine, _PointFold
from repro.experiments.matrix import _cell as matrix_cell

#: Every reducer that folds to a constant-size summary (all but concat).
STREAMING = ("count", "sum", "mean", "minmax", "stats", "quantile")


def _leaf(rng: random.Random, size: int) -> list[float]:
    return [rng.uniform(-5.0, 5.0) for _ in range(size)]


def _cell_value(rng: random.Random, size: int, shape: int):
    """A random cell value honouring the cell contract (list or dict)."""
    if shape == 0:
        return _leaf(rng, size)
    if shape == 1:
        return {"total": _leaf(rng, size), "wasted": _leaf(rng, size)}
    return {"a": {"x": _leaf(rng, size)}, "b": _leaf(rng, size)}


def _states(reducer, rng: random.Random, n: int, size: int = 4) -> list:
    """``n`` single-shard states over consecutive trial ranges, sharing
    one randomly drawn cell structure (as real shards of one cell do)."""
    shape = rng.randrange(3)
    return [
        reducer.update(
            reducer.init(), _cell_value(rng, size, shape), i * size, size
        )
        for i in range(n)
    ]


class TestRegistry:
    def test_available_reducers(self):
        assert available_reducers() == (
            "concat",
            "count",
            "mean",
            "minmax",
            "quantile",
            "stats",
            "sum",
        )

    def test_unknown_reducer_lists_registry(self):
        with pytest.raises(KeyError, match="available: concat"):
            get_reducer("nope")

    def test_spec_rejects_unknown_reducer(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            SweepSpec(
                name="bad",
                cell=matrix_cell,
                axes=(("a", (1,)),),
                reducer="nope",
            )


class TestAlgebraicClaims:
    """The claimed laws hold bitwise; all folds agree with numpy."""

    @pytest.mark.parametrize("name", available_reducers())
    @pytest.mark.parametrize("case", range(4))
    def test_claimed_associativity_is_bitwise(self, name, case):
        reducer = get_reducer(name)
        if not reducer.associative_exact:
            pytest.skip(f"{name} does not claim exact associativity")
        rng = random.Random(100 * case + 1)
        a, b, c = _states(reducer, rng, 3)
        left = reducer.merge(
            reducer.merge(copy.deepcopy(a), copy.deepcopy(b)), copy.deepcopy(c)
        )
        right = reducer.merge(
            copy.deepcopy(a), reducer.merge(copy.deepcopy(b), copy.deepcopy(c))
        )
        assert left == right

    @pytest.mark.parametrize("name", available_reducers())
    @pytest.mark.parametrize("case", range(4))
    def test_claimed_commutativity_is_bitwise(self, name, case):
        reducer = get_reducer(name)
        if not reducer.commutative:
            pytest.skip(f"{name} does not claim commutativity")
        rng = random.Random(100 * case + 2)
        a, b = _states(reducer, rng, 2)
        ab = reducer.merge(copy.deepcopy(a), copy.deepcopy(b))
        ba = reducer.merge(copy.deepcopy(b), copy.deepcopy(a))
        assert ab == ba

    @pytest.mark.parametrize("name", STREAMING)
    @pytest.mark.parametrize("case", range(4))
    def test_fold_matches_monolithic_numpy(self, name, case):
        """A multi-shard fold agrees with one-shot numpy statistics over
        the concatenated stream (to fp tolerance for the Chan merges)."""
        reducer = get_reducer(name)
        rng = random.Random(100 * case + 3)
        sizes = [rng.randrange(1, 6) for _ in range(rng.randrange(2, 6))]
        offsets = [0]
        for size in sizes:
            offsets.append(offsets[-1] + size)
        pieces = [_leaf(rng, size) for size in sizes]
        xs = np.concatenate([np.asarray(p) for p in pieces])

        state = reducer.init()
        for i, piece in enumerate(pieces):
            state = reducer.update(state, piece, offsets[i], sizes[i])
        out = reducer.finalize(state)

        assert out["count"] == xs.shape[0]
        if "sum" in out:
            assert out["sum"] == pytest.approx(float(np.sum(xs)), rel=1e-12)
        if "mean" in out:
            assert out["mean"] == pytest.approx(float(np.mean(xs)), rel=1e-12)
        if "var" in out:
            assert out["var"] == pytest.approx(float(np.var(xs)), abs=1e-12)
        if "min" in out:
            assert out["min"] == float(np.min(xs))
            assert out["max"] == float(np.max(xs))
        if "sample" in out:
            # Under capacity the reservoir is the whole (sorted) stream,
            # and every P² probe estimate stays within its extremes.
            assert out["sample"] == sorted(float(x) for x in xs)
            for prob in QUANTILE_PROBES:
                key = f"p{int(round(prob * 100)):02d}"
                assert float(np.min(xs)) <= out[key] <= float(np.max(xs))

    @pytest.mark.parametrize("name", available_reducers())
    def test_states_json_round_trip(self, name):
        """Checkpoint contract: every state survives JSON serialisation."""
        reducer = get_reducer(name)
        rng = random.Random(9)
        a, b = _states(reducer, rng, 2)
        merged = reducer.merge(a, b)
        restored = json.loads(json.dumps(merged))
        assert reducer.finalize(restored) == reducer.finalize(merged)


class TestFuzzedStreamingFoldProperty:
    """Seeded property: the streaming fold ≡ ``merge_shard_values`` bitwise.

    Each case draws a policy, a fuzzer-generated (often composed)
    scenario, a trial count, and a shard size, evaluates the plan's
    shards, and folds them through :class:`_PointFold` in a random
    arrival order — exactly what a pool executor produces — under the
    default ``concat`` reducer.  The finalized cell must equal the
    monolithic merge bit for bit.
    """

    POPULATION_SEED = 47
    POLICIES = ("mds", "timeout-repair", "overdecomp", "uncoded")

    @pytest.mark.parametrize("case", range(6))
    def test_random_draws_fold_bitwise_equal(self, case):
        rng = random.Random(3_000 + case)
        policy = rng.choice(self.POLICIES)
        scenario = generate_scenario(self.POPULATION_SEED, rng.randrange(64))
        trials = rng.randrange(2, 7)
        spec = SweepSpec(
            name=f"fuzzed-fold-{case}",
            cell=matrix_cell,
            axes=(("policy", (policy,)), ("scenario", (scenario,))),
            trials=trials,
            base_seed=rng.randrange(10_000),
            quick=True,
        )
        shard_size = rng.randrange(1, trials + 1)
        plan = compile_plan(spec, shard_size=shard_size)
        values = [matrix_cell(shard.params, shard.ctx) for shard in plan.shards]
        monolithic = merge_shard_values(
            values, [shard.trials for shard in plan.shards]
        )

        ((params, cell_shards),) = plan.by_point()
        fold = _PointFold(
            get_reducer("concat"),
            spec.key_of(params),
            params,
            cell_shards,
            0,
            "test-cell",
        )
        arrival = list(range(len(cell_shards)))
        rng.shuffle(arrival)
        for pos in arrival:
            assert fold.offer(pos, values[pos]) is True
            assert fold.offer(pos, values[pos]) is False  # duplicates drop
        assert fold.complete
        assert fold.finalize() == monolithic, (
            f"case {case}: policy={policy!r} scenario={scenario!r} "
            f"trials={trials} shard_size={shard_size} arrival={arrival}"
        )

    @pytest.mark.parametrize("reducer_name", ["stats", "quantile"])
    def test_engine_shard_size_invariance(self, reducer_name):
        """Streaming summaries through the engine: identical counts and
        extrema across shard sizes; the reservoir sample bitwise-equal."""

        def run(shard_size):
            spec = SweepSpec(
                name="stream-invariance",
                cell=matrix_cell,
                axes=(("policy", ("mds",)), ("scenario", ("bursty",))),
                trials=12,
                base_seed=5,
                quick=True,
                reducer=reducer_name,
            )
            report = ExecutionEngine(jobs=1, shard_size=shard_size).run(spec)
            assert report.reducer == reducer_name
            (value,) = report.values.values()
            return value

        whole = run(12)
        for shard_size in (1, 5):
            split = run(shard_size)
            for leaf_name in ("total", "wasted"):
                a, b = whole[leaf_name], split[leaf_name]
                assert a["count"] == b["count"] == 12
                if reducer_name == "stats":
                    assert a["min"] == b["min"] and a["max"] == b["max"]
                    assert a["mean"] == pytest.approx(b["mean"], rel=1e-12)
                else:
                    # The seeded reservoir is decomposition-independent.
                    assert a["sample"] == b["sample"]


class TestShapeErrors:
    def test_scalar_cell_value_rejected(self):
        reducer = get_reducer("stats")
        with pytest.raises(ReducerShapeError, match="float cell value"):
            reducer.update(reducer.init(), 3.14, 0, 2)

    def test_non_numeric_leaf_rejected(self):
        reducer = get_reducer("mean")
        with pytest.raises(ReducerShapeError, match="numeric"):
            reducer.update(reducer.init(), ["a", "b"], 0, 2)

    def test_wrong_length_leaf_rejected(self):
        reducer = get_reducer("count")
        with pytest.raises(ReducerShapeError, match="length"):
            reducer.update(reducer.init(), [1.0, 2.0, 3.0], 0, 2)

    def test_disagreeing_structures_rejected(self):
        reducer = get_reducer("sum")
        from repro.engine.plan import ShardMergeError

        a = reducer.update(reducer.init(), {"x": [1.0]}, 0, 1)
        b = reducer.update(reducer.init(), {"y": [2.0]}, 1, 1)
        with pytest.raises(ShardMergeError, match="disagree on keys"):
            reducer.merge(a, b)

    def test_finalize_empty_state_rejected(self):
        reducer = get_reducer("stats")
        with pytest.raises(ReducerShapeError, match="no shard values"):
            reducer.finalize(reducer.init())

    @pytest.mark.parametrize("value", [[], {"x": []}], ids=["list", "dict"])
    @pytest.mark.parametrize("name", available_reducers())
    def test_empty_trial_slice_rejected(self, name, value):
        # No planned shard is empty; folding one used to divide by zero
        # (mean), hit numpy's empty-reduction error (minmax, stats) or
        # return a zero count with NaN probes (count, sum, quantile).
        reducer = get_reducer(name)
        with pytest.raises(ValueError, match=r"fig\[7\]: .*size=0") as caught:
            reducer.update(reducer.init(), value, 0, 0, cell="fig[7]")
        assert isinstance(caught.value, ReducerShapeError)


class TestQuantileSummary:
    def _summary(self, residuals, pieces=4):
        reducer = get_reducer("quantile")
        chunks = np.array_split(np.asarray(residuals, dtype=float), pieces)
        state, lo = reducer.init(), 0
        for chunk in chunks:
            state = reducer.update(
                state, [float(x) for x in chunk], lo, len(chunk)
            )
            lo += len(chunk)
        return reducer.finalize(state)

    def test_sample_helpers(self):
        rng = np.random.default_rng(11)
        residuals = rng.normal(size=200)
        summary = self._summary(residuals)
        np.testing.assert_array_equal(
            sample_values(summary), np.sort(residuals)
        )
        np.testing.assert_allclose(
            sample_quantiles(summary, [0.1, 0.9]),
            np.quantile(residuals, [0.1, 0.9]),
        )

    def test_sample_helpers_reject_non_quantile_output(self):
        with pytest.raises(ValueError, match="quantile"):
            sample_values({"count": 3, "mean": 0.0})

    def test_conformal_from_summary_matches_raw_residuals(self):
        # Under reservoir capacity the sample *is* the residual stream, so
        # the band equals conformal_interval on the raw residuals exactly.
        from repro.prediction.predictor import conformal_interval

        rng = np.random.default_rng(12)
        residuals = rng.normal(scale=0.3, size=RESERVOIR_CAPACITY // 2)
        predicted = np.array([1.0, 2.0, 5.0])
        summary = self._summary(residuals)
        lo, hi = conformal_from_summary(summary, predicted, alpha=0.2)
        exp_lo, exp_hi = conformal_interval(residuals, predicted, alpha=0.2)
        np.testing.assert_array_equal(lo, exp_lo)
        np.testing.assert_array_equal(hi, exp_hi)

    def test_reservoir_caps_and_split_independence(self):
        rng = np.random.default_rng(13)
        stream = rng.normal(size=3 * RESERVOIR_CAPACITY)
        a = self._summary(stream, pieces=2)
        b = self._summary(stream, pieces=9)
        assert a["count"] == b["count"] == stream.shape[0]
        assert len(a["sample"]) == RESERVOIR_CAPACITY
        # The kept subsample depends only on global trial indices, never
        # on the shard decomposition.
        assert a["sample"] == b["sample"]
