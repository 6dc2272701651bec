"""Tests for generator constructions and the any-K row decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.linear import (
    AnyKRowDecoder,
    chebyshev_points,
    haar_generator,
    random_gaussian_generator,
    systematic_cauchy_generator,
    systematic_gaussian_generator,
    vandermonde_generator,
    verify_any_k_property,
)


class TestGenerators:
    def test_chebyshev_points_distinct_and_bounded(self):
        pts = chebyshev_points(20)
        assert np.unique(pts).size == 20
        assert np.all(np.abs(pts) <= 1.0)

    def test_vandermonde_shape(self):
        g = vandermonde_generator(8, 5)
        assert g.shape == (8, 5)

    def test_vandermonde_first_column_ones(self):
        g = vandermonde_generator(6, 3)
        np.testing.assert_array_equal(g[:, 0], np.ones(6))

    def test_vandermonde_integer_points(self):
        g = vandermonde_generator(4, 3, "integer")
        np.testing.assert_array_equal(g[:, 1], [0, 1, 2, 3])

    def test_vandermonde_custom_points(self):
        g = vandermonde_generator(3, 2, np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(g[:, 1], [1.0, 2.0, 4.0])

    def test_vandermonde_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            vandermonde_generator(3, 2, np.array([1.0, 1.0, 2.0]))

    def test_vandermonde_bad_scheme(self):
        with pytest.raises(ValueError, match="unknown"):
            vandermonde_generator(3, 2, "sobol")

    def test_systematic_prefix_is_identity(self):
        g = systematic_cauchy_generator(10, 7)
        np.testing.assert_array_equal(g[:7], np.eye(7))

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            systematic_cauchy_generator(3, 4)
        with pytest.raises(ValueError, match="exceed"):
            vandermonde_generator(3, 4)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n, k: systematic_gaussian_generator(
                n, k, np.random.default_rng(1)
            ),
            lambda n, k: haar_generator(n, k, np.random.default_rng(1)),
            lambda n, k: vandermonde_generator(n, k, "chebyshev"),
            lambda n, k: random_gaussian_generator(
                n, k, np.random.default_rng(1)
            ),
        ],
        ids=["sys-gaussian", "haar", "chebyshev", "gaussian"],
    )
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4), (12, 10), (12, 6)])
    def test_any_k_property_holds(self, make, n, k):
        worst = verify_any_k_property(make(n, k))
        assert np.isfinite(worst)
        assert worst < 1e12

    def test_systematic_gaussian_prefix_is_identity(self):
        g = systematic_gaussian_generator(10, 7)
        np.testing.assert_array_equal(g[:7], np.eye(7))

    def test_systematic_gaussian_beats_cauchy_at_scale(self):
        # The conditioning fact behind the library default (see
        # systematic_gaussian_generator and the conditioning ablation bench).
        gauss = verify_any_k_property(
            systematic_gaussian_generator(30, 24, np.random.default_rng(0)), 100
        )
        cauchy = verify_any_k_property(systematic_cauchy_generator(30, 24), 100)
        assert gauss < cauchy or cauchy == np.inf

    def test_chebyshev_better_conditioned_than_integer(self):
        # The conditioning ablation's core claim, in miniature.
        cheb = verify_any_k_property(vandermonde_generator(16, 12, "chebyshev"))
        integer = verify_any_k_property(vandermonde_generator(16, 12, "integer"))
        assert cheb < integer

    def test_verify_detects_singular(self):
        g = np.ones((4, 2))  # every 2x2 submatrix singular
        assert verify_any_k_property(g) == np.inf


def _full_contributions(decoder, generator, z, workers):
    """Have each worker in ``workers`` contribute all rows of G[i] @ z."""
    rows = np.arange(z.shape[1])
    for w in workers:
        coded = np.einsum("j,jrm->rm", generator[w], z)
        decoder.add(w, rows, coded)


class TestAnyKRowDecoder:
    def setup_method(self):
        self.n, self.k, self.rows, self.width = 6, 4, 9, 3
        self.generator = systematic_cauchy_generator(self.n, self.k)
        rng = np.random.default_rng(7)
        self.z = rng.normal(size=(self.k, self.rows, self.width))

    def make(self):
        return AnyKRowDecoder(self.generator, rows=self.rows, width=self.width)

    def test_not_ready_initially(self):
        dec = self.make()
        assert not dec.ready()
        assert dec.missing_rows().size == self.rows

    def test_solve_before_ready_raises(self):
        dec = self.make()
        with pytest.raises(RuntimeError, match="coverage"):
            dec.solve()

    def test_decodes_from_first_k_workers(self):
        dec = self.make()
        _full_contributions(dec, self.generator, self.z, range(self.k))
        assert dec.ready()
        np.testing.assert_allclose(dec.solve(), self.z, atol=1e-9)

    def test_decodes_from_any_k_subset(self):
        dec = self.make()
        _full_contributions(dec, self.generator, self.z, [0, 2, 4, 5])
        np.testing.assert_allclose(dec.solve(), self.z, atol=1e-9)

    def test_decodes_with_heterogeneous_row_coverage(self):
        # Workers contribute different row subsets, S2C2-style: rows 0..4
        # from workers {0,1,2,3}, rows 5..8 from workers {1,2,4,5}.
        dec = self.make()
        lo, hi = np.arange(5), np.arange(5, self.rows)
        for w in [0, 1, 2, 3]:
            coded = np.einsum("j,jrm->rm", self.generator[w], self.z[:, lo])
            dec.add(w, lo, coded)
        for w in [1, 2, 4, 5]:
            coded = np.einsum("j,jrm->rm", self.generator[w], self.z[:, hi])
            dec.add(w, hi, coded)
        assert dec.ready()
        np.testing.assert_allclose(dec.solve(), self.z, atol=1e-9)

    def test_extra_contributions_ignored_consistently(self):
        dec = self.make()
        _full_contributions(dec, self.generator, self.z, range(self.n))
        np.testing.assert_allclose(dec.solve(), self.z, atol=1e-9)

    def test_duplicate_contribution_rejected(self):
        dec = self.make()
        rows = np.array([0])
        vals = np.zeros((1, self.width))
        dec.add(0, rows, vals)
        with pytest.raises(ValueError, match="already contributed"):
            dec.add(0, rows, vals)

    def test_row_out_of_range_rejected(self):
        dec = self.make()
        with pytest.raises(IndexError):
            dec.add(0, np.array([self.rows]), np.zeros((1, self.width)))

    def test_worker_out_of_range_rejected(self):
        dec = self.make()
        with pytest.raises(IndexError):
            dec.add(self.n, np.array([0]), np.zeros((1, self.width)))

    def test_shape_mismatch_rejected(self):
        dec = self.make()
        with pytest.raises(ValueError, match="shape"):
            dec.add(0, np.array([0, 1]), np.zeros((1, self.width)))

    def test_width_one_accepts_1d_values(self):
        dec = AnyKRowDecoder(self.generator, rows=4, width=1)
        z = np.random.default_rng(3).normal(size=(self.k, 4, 1))
        rows = np.arange(4)
        for w in range(self.k):
            coded = np.einsum("j,jrm->rm", self.generator[w], z)
            dec.add(w, rows, coded[:, 0])  # 1-D values
        np.testing.assert_allclose(dec.solve(), z, atol=1e-10)

    def test_empty_contribution_is_noop(self):
        dec = self.make()
        dec.add(0, np.empty(0, dtype=int), np.zeros((0, self.width)))
        assert dec.missing_rows().size == self.rows

    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 3),
        rows=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_subsets_decode(self, n, extra, rows, seed):
        k = max(1, n - extra)
        generator = systematic_cauchy_generator(n, k)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(k, rows, 2))
        workers = rng.choice(n, size=k, replace=False)
        dec = AnyKRowDecoder(generator, rows=rows, width=2)
        _full_contributions(dec, generator, z, workers)
        np.testing.assert_allclose(dec.solve(), z, atol=1e-7)
