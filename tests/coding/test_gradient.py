"""Tests for the gradient coding substrate (fractional repetition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gradient import GradientCode


def run_round(code, gradients, workers):
    """Simulate one gradient-coded round using the given worker subset."""
    contributions = {
        w: code.partial_gradient(
            w, {j: gradients[j] for j in code.supports(w)}
        )
        for w in workers
    }
    return code.decode(contributions)


class TestGradientCode:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            GradientCode(4, 4)
        with pytest.raises(ValueError):
            GradientCode(0, 0)
        with pytest.raises(ValueError, match="fractional"):
            GradientCode(5, 1)  # (s+1) = 2 does not divide 5

    def test_zero_stragglers_is_identity(self):
        code = GradientCode(5, 0)
        np.testing.assert_array_equal(code.matrix, np.eye(5))

    def test_group_structure(self):
        code = GradientCode(6, 2)
        assert code.num_groups == 2
        assert code.replication == 3
        assert code.supports(0) == (0, 1, 2)
        assert code.supports(2) == (0, 1, 2)
        assert code.supports(3) == (3, 4, 5)
        assert code.group_of(5) == 1

    def test_row_support_matches_matrix(self):
        code = GradientCode(6, 2)
        for w in range(6):
            nonzero = set(np.flatnonzero(np.abs(code.matrix[w]) > 1e-12))
            assert nonzero == set(code.supports(w))

    def test_exact_sum_from_all_workers(self):
        code = GradientCode(6, 2)
        rng = np.random.default_rng(0)
        gradients = {j: rng.normal(size=4) for j in range(6)}
        expected = sum(gradients.values())
        np.testing.assert_allclose(
            run_round(code, gradients, range(6)), expected, atol=1e-10
        )

    def test_exact_sum_from_any_n_minus_s(self):
        code = GradientCode(6, 2)
        rng = np.random.default_rng(1)
        gradients = {j: rng.normal(size=3) for j in range(6)}
        expected = sum(gradients.values())
        for excluded in ([0, 1], [2, 5], [3, 4]):
            workers = [w for w in range(6) if w not in excluded]
            np.testing.assert_allclose(
                run_round(code, gradients, workers), expected, atol=1e-10
            )

    def test_wiped_out_group_rejected(self):
        code = GradientCode(6, 2)
        with pytest.raises(ValueError, match="surviving"):
            code.decoding_vector([3, 4, 5])  # group 0 entirely missing

    def test_worker_out_of_range(self):
        code = GradientCode(4, 1)
        with pytest.raises(IndexError):
            code.decoding_vector([0, 4])

    def test_missing_partition_gradient_rejected(self):
        code = GradientCode(4, 1)
        with pytest.raises(KeyError):
            code.partial_gradient(0, {0: np.zeros(2)})  # needs partition 1 too

    def test_matrix_gradients_supported(self):
        # Gradients can be matrices (e.g. weight gradients of a linear map).
        code = GradientCode(4, 1)
        rng = np.random.default_rng(2)
        gradients = {j: rng.normal(size=(3, 2)) for j in range(4)}
        expected = sum(gradients.values())
        result = run_round(code, gradients, [0, 2, 3])
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_distributed_least_squares_gradient(self):
        # End to end: the coded gradient equals the full-batch gradient.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        w = rng.normal(size=5)
        code = GradientCode(6, 2)
        parts = np.array_split(np.arange(60), 6)
        gradients = {
            j: a[parts[j]].T @ (a[parts[j]] @ w - y[parts[j]])
            for j in range(6)
        }
        expected = a.T @ (a @ w - y)
        result = run_round(code, gradients, [0, 1, 3, 5])
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_storage_tradeoff_vs_s2c2(self):
        # The contrast repro.coding.gradient draws: gradient coding's raw
        # replication grows linearly with tolerated stragglers, while
        # MDS-coded storage is n/k regardless.
        from repro.coding.mds import MDSCode

        grad = GradientCode(12, 3)  # tolerates 3 -> 4x raw data per worker
        mds = MDSCode(12, 9)  # tolerates 3 -> 12/9 = 1.33x coded
        assert grad.replication == 4
        assert mds.redundancy == pytest.approx(12 / 9)
        assert grad.replication > mds.redundancy

    @given(
        groups=st.integers(1, 5),
        s=st.integers(0, 3),
        dim=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_any_subset_decodes(self, groups, s, dim, seed):
        n = groups * (s + 1)
        code = GradientCode(n, s)
        rng = np.random.default_rng(seed)
        gradients = {j: rng.normal(size=dim) for j in range(n)}
        expected = sum(gradients.values())
        workers = rng.choice(n, size=n - s, replace=False)
        np.testing.assert_allclose(
            run_round(code, gradients, workers), expected, atol=1e-8
        )
