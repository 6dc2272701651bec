"""Work-plan layer: shard compilation, seed stride, merge semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    DEFAULT_SHARD_TRIALS,
    SEED_STRIDE,
    ShardMergeError,
    SweepContext,
    SweepSpec,
    compile_plan,
    default_shard_size,
    merge_shard_values,
    split_shard_value,
)
from repro.experiments.matrix import run_cell


def _cell(params, ctx):
    return [float(seed) for seed in ctx.seeds]


def _spec(trials=8, base_seed=5, shardable=True, axes=None):
    return SweepSpec(
        name="demo",
        cell=_cell,
        axes=axes or (("a", (1, 2)), ("b", (3, 4))),
        trials=trials,
        base_seed=base_seed,
        shardable=shardable,
    )


class TestCompile:
    def test_small_trials_one_shard_per_cell(self):
        plan = compile_plan(_spec(trials=4))
        assert plan.shard_size == 4
        assert len(plan.shards) == 4  # one per grid point
        assert all(s.lo == 0 and s.hi == 4 for s in plan.shards)

    def test_fat_cell_splits_on_the_fixed_stride(self):
        plan = compile_plan(_spec(trials=2 * DEFAULT_SHARD_TRIALS + 6))
        per_cell = [s for s in plan.shards if s.point_key == (1, 3)]
        assert [(s.lo, s.hi) for s in per_cell] == [
            (0, 32), (32, 64), (64, 70),
        ]

    def test_explicit_shard_size(self):
        plan = compile_plan(_spec(trials=8), shard_size=3)
        per_cell = [s for s in plan.shards if s.point_key == (2, 4)]
        assert [(s.lo, s.hi) for s in per_cell] == [(0, 3), (3, 6), (6, 8)]
        assert [s.trials for s in per_cell] == [3, 3, 2]

    def test_shard_seeds_follow_the_stride(self):
        spec = _spec(trials=8, base_seed=11)
        plan = compile_plan(spec, shard_size=3)
        shard = [s for s in plan.shards if s.point_key == (1, 3)][1]
        assert shard.ctx.seeds == tuple(
            11 + SEED_STRIDE * t for t in range(3, 6)
        )
        # base_seed stays the sweep's trial-0 seed, not the slice's.
        assert shard.ctx.base_seed == 11
        # Shard seeds concatenate to exactly the monolithic context's.
        per_cell = [s for s in plan.shards if s.point_key == (1, 3)]
        joined = tuple(seed for s in per_cell for seed in s.ctx.seeds)
        assert joined == spec.context().seeds

    def test_unshardable_spec_compiles_whole_cells(self):
        plan = compile_plan(_spec(trials=200, shardable=False))
        assert len(plan.shards) == 4
        assert plan.shard_size == 200

    def test_decomposition_ignores_executor_width(self):
        # The plan is a pure function of (spec, shard_size): nothing else.
        a = compile_plan(_spec(trials=70))
        b = compile_plan(_spec(trials=70))
        assert [(s.point_key, s.lo, s.hi) for s in a.shards] == [
            (s.point_key, s.lo, s.hi) for s in b.shards
        ]

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            compile_plan(_spec(), shard_size=0)

    def test_by_point_groups_contiguously(self):
        plan = compile_plan(_spec(trials=8), shard_size=3)
        groups = plan.by_point()
        assert [params for params, _shards in groups] == _spec().points()
        for _params, shards in groups:
            assert [s.lo for s in shards] == [0, 3, 6]

    def test_default_shard_size_caps_at_stride(self):
        assert default_shard_size(7) == 7
        assert default_shard_size(DEFAULT_SHARD_TRIALS) == DEFAULT_SHARD_TRIALS
        assert default_shard_size(1000) == DEFAULT_SHARD_TRIALS

    def test_shard_context_range_validated(self):
        with pytest.raises(ValueError, match="trial range"):
            _spec(trials=4).shard_context(2, 6)

    def test_repeated_axis_value_is_one_point(self):
        # A point is its key: the first occurrence of a value keeps its
        # place, and a repeat adds no second (identical) grid point.
        spec = _spec(axes=(("a", (2, 1, 2, 3, 1)), ("b", ("x", "x"))))
        assert spec.axes == (("a", (2, 1, 3)), ("b", ("x",)))
        assert [p["a"] for p in spec.points()] == [2, 1, 3]


class TestMerge:
    def test_lists_concatenate_in_trial_order(self):
        assert merge_shard_values([[1, 2], [3], [4, 5]], [2, 1, 2]) == [
            1, 2, 3, 4, 5,
        ]

    def test_dicts_merge_keywise_recursively(self):
        a = {"total": [1.0], "nested": {"x": [10]}}
        b = {"total": [2.0], "nested": {"x": [20]}}
        assert merge_shard_values([a, b], [1, 1]) == {
            "total": [1.0, 2.0],
            "nested": {"x": [10, 20]},
        }

    def test_single_shard_passes_through_unvalidated(self):
        # Unsharded cells keep full freedom over their value shape.
        assert merge_shard_values(["anything"], [3]) == "anything"

    def test_wrong_length_rejected(self):
        with pytest.raises(ShardMergeError, match="per-trial"):
            merge_shard_values([[1, 2, 3], [4]], [2, 1], cell="demo")

    def test_mixed_types_rejected(self):
        with pytest.raises(ShardMergeError, match="shardable=False"):
            merge_shard_values([[1], {"a": [2]}], [1, 1])

    def test_key_mismatch_rejected(self):
        with pytest.raises(ShardMergeError, match="disagree on keys"):
            merge_shard_values([{"a": [1]}, {"b": [2]}], [1, 1])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values for"):
            merge_shard_values([[1]], [1, 1])


#: The shape of a cell value: ``None`` is a per-trial leaf list, a dict
#: maps keys to shapes.
_SHAPES = st.recursive(
    st.none(),
    lambda inner: st.dictionaries(
        st.text("abcxyz", min_size=1, max_size=3), inner, max_size=3
    ),
    max_leaves=6,
)
_TRIAL_ITEMS = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 3), max_size=2),
)
_SIZES = st.lists(st.integers(1, 5), min_size=1, max_size=5)


def _value(data, shape, trials):
    """Draw a trial-separable value of ``shape`` over ``trials`` trials."""
    if shape is None:
        return data.draw(
            st.lists(_TRIAL_ITEMS, min_size=trials, max_size=trials)
        )
    return {key: _value(data, sub, trials) for key, sub in shape.items()}


class TestSplit:
    @settings(max_examples=150, deadline=None)
    @given(shape=_SHAPES, sizes=_SIZES, data=st.data())
    def test_split_undoes_merge(self, shape, sizes, data):
        parts = [_value(data, shape, size) for size in sizes]
        merged = merge_shard_values(parts, sizes)
        assert split_shard_value(merged, sizes) == parts

    @settings(max_examples=150, deadline=None)
    @given(shape=_SHAPES, sizes=_SIZES, data=st.data())
    def test_merge_undoes_split(self, shape, sizes, data):
        value = _value(data, shape, sum(sizes))
        parts = split_shard_value(value, sizes)
        assert len(parts) == len(sizes)
        assert merge_shard_values(parts, sizes) == value

    def test_single_shard_passes_through_unvalidated(self):
        assert split_shard_value("anything", [3]) == ["anything"]

    def test_scalar_leaf_rejected(self):
        with pytest.raises(
            ShardMergeError, match=r"demo\['total'\].*type float.*\[1, 2\]"
        ):
            split_shard_value({"total": 3.0}, [1, 2], cell="demo")

    def test_leaf_of_wrong_length_rejected(self):
        with pytest.raises(
            ShardMergeError, match=r"demo: .*\[1, 2\].*length 2, not 3"
        ):
            split_shard_value([1.0, 2.0], [1, 2], cell="demo")

    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_size_rejected(self, size):
        with pytest.raises(ValueError, match=rf"demo: .*got {size}$"):
            split_shard_value([1.0, 2.0], [2, size], cell="demo")


class TestSweepContextValidation:
    """A hand-built context is checked like the ``SweepSpec`` it mirrors."""

    def test_negative_seed_names_base_seed(self):
        with pytest.raises(ValueError, match="base_seed must be >= 0, got -1"):
            run_cell(
                "mds", "constant",
                SweepContext(quick=True, base_seed=-1, seeds=(-1,)),
            )

    def test_negative_trial_seed_names_seeds(self):
        with pytest.raises(ValueError, match="seeds must be >= 0, got -3"):
            SweepContext(quick=True, base_seed=0, seeds=(0, -3))

    def test_empty_seeds_name_seeds(self):
        with pytest.raises(ValueError, match="seeds must hold at least one"):
            SweepContext(quick=True, base_seed=0, seeds=())
