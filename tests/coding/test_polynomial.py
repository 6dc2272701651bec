"""Tests for polynomial-coded bilinear computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.polynomial import PolynomialCode


def roundtrip_product(code, left, right, workers, diag=None, rows_per_worker=None):
    enc = code.encode(left, right)
    dec = enc.decoder()
    all_rows = np.arange(enc.block_rows)
    for w in workers:
        rows = all_rows if rows_per_worker is None else rows_per_worker[w]
        dec.add(w, rows, enc.compute(w, rows, diag=diag))
    return enc.assemble(dec.solve())


class TestPolynomialCode:
    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="exceeds"):
            PolynomialCode(3, 2, 2)
        with pytest.raises(ValueError):
            PolynomialCode(0, 1, 1)

    def test_coverage_and_tolerance(self):
        code = PolynomialCode(5, 2, 2)
        assert code.coverage == 4
        assert code.max_stragglers == 1

    def test_inner_dim_mismatch(self):
        code = PolynomialCode(4, 2, 2)
        with pytest.raises(ValueError, match="inner"):
            code.encode(np.ones((4, 3)), np.ones((5, 4)))

    def test_too_few_rows_or_columns_named(self):
        # The error names the split that does not fit and the operand it
        # splits, not the row partition's internal ``k``/``total_rows``.
        with pytest.raises(ValueError, match="b=3 blocks cannot exceed right's columns=2"):
            PolynomialCode(6, 1, 3).encode(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="a=3 blocks cannot exceed left's rows=2"):
            PolynomialCode(6, 3, 1).encode(np.ones((2, 3)), np.ones((3, 2)))

    def test_paper_example_n5_a2_b2(self):
        # §5's worked example: n=5, a=b=2, any 4 of 5 decode.
        code = PolynomialCode(5, 2, 2, points="integer")
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(4, 6))
        for workers in ([0, 1, 2, 3], [1, 2, 3, 4], [0, 2, 3, 4]):
            np.testing.assert_allclose(
                roundtrip_product(code, a, b, workers), a @ b, atol=1e-8
            )

    def test_uneven_split_padding(self):
        code = PolynomialCode(6, 2, 3)
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 3))  # 7 rows, a=2 -> pad to 8
        b = rng.normal(size=(3, 8))  # 8 cols, b=3 -> pad to 9
        np.testing.assert_allclose(
            roundtrip_product(code, a, b, range(6)), a @ b, atol=1e-8
        )

    def test_hessian_diagonal_form(self):
        # Aᵀ diag(x) A with a = b = 3 over 12 nodes, any 9 decode (§7.2.3).
        code = PolynomialCode(12, 3, 3)
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 9))
        x = rng.uniform(0.5, 1.5, size=30)
        expected = a.T @ np.diag(x) @ a
        workers = rng.choice(12, size=9, replace=False)
        result = roundtrip_product(code, a.T, a, workers, diag=x)
        np.testing.assert_allclose(result, expected, atol=1e-7)

    def test_partial_rows_decode(self):
        # S2C2 on polynomial codes: row-level coverage a*b (paper Fig 5).
        code = PolynomialCode(5, 2, 2)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 4))
        b = rng.normal(size=(4, 4))
        enc = code.encode(a, b)  # block_rows == 4
        # Every row covered by exactly 4 of 5 workers: worker w skips row w-1.
        rows_per_worker = {
            w: np.array([r for r in range(4) if r != (w - 1)]) for w in range(5)
        }
        dec = enc.decoder()
        for w, rows in rows_per_worker.items():
            dec.add(w, rows, enc.compute(w, rows))
        np.testing.assert_allclose(enc.assemble(dec.solve()), a @ b, atol=1e-8)

    def test_diag_shape_validated(self):
        code = PolynomialCode(4, 2, 2)
        enc = code.encode(np.ones((4, 6)), np.ones((6, 4)))
        with pytest.raises(ValueError, match="diag"):
            enc.compute(0, np.array([0]), diag=np.ones(5))

    def test_storage_fraction(self):
        code = PolynomialCode(6, 2, 3)
        enc = code.encode(np.ones((12, 5)), np.ones((5, 12)))
        # left stores 1/2 of A, right stores 1/3 of B.
        assert 0 < enc.storage_fraction_per_node() < 1

    def test_a_b_equal_one_degenerates_to_replication(self):
        code = PolynomialCode(3, 1, 1)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            roundtrip_product(code, a, b, [2]), a @ b, atol=1e-9
        )

    @given(
        a_split=st.integers(1, 3),
        b_split=st.integers(1, 3),
        slack=st.integers(0, 2),
        rows=st.integers(3, 16),
        inner=st.integers(1, 6),
        cols=st.integers(3, 16),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip_random(
        self, a_split, b_split, slack, rows, inner, cols, seed
    ):
        n = a_split * b_split + slack
        rows = max(rows, a_split)
        cols = max(cols, b_split)
        code = PolynomialCode(n, a_split, b_split)
        rng = np.random.default_rng(seed)
        left = rng.normal(size=(rows, inner))
        right = rng.normal(size=(inner, cols))
        workers = rng.choice(n, size=code.coverage, replace=False)
        np.testing.assert_allclose(
            roundtrip_product(code, left, right, workers),
            left @ right,
            atol=1e-6,
        )
