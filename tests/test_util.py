"""Tests for the shared internal helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    as_rng,
    check_fraction,
    check_positive_int,
    check_probability,
    indices_to_ranges,
    largest_remainder_round,
    ranges_to_indices,
)


class TestAsRng:
    def test_int_seed(self):
        a = as_rng(7).integers(0, 100, 5)
        b = as_rng(7).integers(0, 100, 5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestChecks:
    def test_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_numpy_int_accepted(self):
        assert check_positive_int(np.int64(4), "x") == 4

    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_fraction(self):
        assert check_fraction(2.5, "f") == 2.5
        with pytest.raises(ValueError):
            check_fraction(-1.0, "f")
        with pytest.raises(ValueError):
            check_fraction(float("nan"), "f")


class TestRanges:
    def test_ranges_to_indices(self):
        idx = ranges_to_indices([(0, 3), (5, 7)])
        np.testing.assert_array_equal(idx, [0, 1, 2, 5, 6])

    def test_empty_ranges(self):
        assert ranges_to_indices([]).size == 0
        assert ranges_to_indices([(3, 3)]).size == 0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            ranges_to_indices([(3, 2)])

    def test_indices_to_ranges(self):
        ranges = indices_to_ranges(np.array([0, 1, 2, 5, 6, 9]))
        assert ranges == ((0, 3), (5, 7), (9, 10))

    def test_indices_to_ranges_empty(self):
        assert indices_to_ranges(np.array([], dtype=int)) == ()

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            indices_to_ranges(np.array([1, 1, 2]))

    @given(st.sets(st.integers(0, 200), max_size=60))
    @settings(max_examples=50)
    def test_property_roundtrip(self, values):
        idx = np.array(sorted(values), dtype=np.int64)
        ranges = indices_to_ranges(idx)
        np.testing.assert_array_equal(ranges_to_indices(ranges), idx)


class TestLargestRemainderRound:
    def test_exact_shares(self):
        np.testing.assert_array_equal(
            largest_remainder_round(np.array([1.0, 1.0]), 4), [2, 2]
        )

    def test_sums_to_total(self):
        shares = largest_remainder_round(np.array([1.0, 1.0, 1.0]), 10)
        assert shares.sum() == 10

    def test_zero_weight_gets_zero(self):
        shares = largest_remainder_round(np.array([1.0, 0.0, 1.0]), 5)
        assert shares[1] == 0

    def test_zero_total(self):
        np.testing.assert_array_equal(
            largest_remainder_round(np.array([2.0, 1.0]), 0), [0, 0]
        )

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_round(np.zeros(3), 5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_round(np.array([-1.0, 2.0]), 3)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            largest_remainder_round(np.float64(2.0), 3)

    def test_any_row_without_weight_rejected(self):
        with pytest.raises(ValueError, match="at least one weight"):
            largest_remainder_round(np.array([[1.0, 2.0], [0.0, 0.0]]), 3)

    @given(
        trials=st.integers(1, 6),
        n=st.integers(1, 20),
        total=st.integers(0, 200),
        levels=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80)
    def test_rows_equal_the_1d_call(self, trials, n, total, levels, seed):
        # Apportions along the last axis: row t of a 2-D call is the 1-D
        # call on weights[t], remainder ties (few weight levels) included.
        rng = np.random.default_rng(seed)
        if levels:
            weights = rng.integers(0, levels + 1, size=(trials, n)).astype(float)
            weights[:, 0] += 1.0
        else:
            weights = rng.uniform(0.01, 5.0, size=(trials, n))
        shares = largest_remainder_round(weights, total)
        assert shares.shape == weights.shape
        for t in range(trials):
            np.testing.assert_array_equal(
                shares[t], largest_remainder_round(weights[t], total)
            )

    @given(
        n=st.integers(1, 20),
        total=st.integers(0, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80)
    def test_property_within_one_of_exact(self, n, total, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.01, 5.0, size=n)
        shares = largest_remainder_round(weights, total)
        assert shares.sum() == total
        exact = weights / weights.sum() * total
        assert np.all(np.abs(shares - exact) < 1.0 + 1e-9)
