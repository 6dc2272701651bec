"""Ablation: generator-matrix construction vs decoding conditioning.

Real-valued any-k decoding (``repro.coding.linear``) lives or dies on the
worst-case condition number over k-row submatrices.  This bench measures, per
construction, the worst sampled condition number and the end-to-end decode
error at the paper's largest code (50, 40), justifying the library default
(systematic + Gaussian parity).
"""

import numpy as np
import pytest

from repro.coding.linear import (
    haar_generator,
    random_gaussian_generator,
    systematic_cauchy_generator,
    systematic_gaussian_generator,
    vandermonde_generator,
    verify_any_k_property,
)
from repro.coding.mds import MDSCode

N, K = 50, 40


def _decode_error(generator_name: str) -> float:
    code = MDSCode(N, K, generator=generator_name)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(400, 4))
    x = rng.normal(size=4)
    enc = code.encode(matrix)
    dec = enc.decoder()
    rows = np.arange(enc.block_rows)
    for w in rng.choice(N, size=K, replace=False):
        dec.add(int(w), rows, enc.compute(int(w), rows, x))
    result = enc.assemble(dec.solve())
    return float(np.max(np.abs(result - matrix @ x)))


def _conditioning_table() -> dict[str, float]:
    rng = np.random.default_rng(0)
    return {
        "systematic-gaussian": verify_any_k_property(
            systematic_gaussian_generator(N, K, rng), 100
        ),
        "haar": verify_any_k_property(haar_generator(N, K, rng), 100),
        "random-gaussian": verify_any_k_property(
            random_gaussian_generator(N, K, rng), 100
        ),
        "systematic-cauchy": verify_any_k_property(
            systematic_cauchy_generator(N, K), 100
        ),
        "vandermonde-chebyshev": verify_any_k_property(
            vandermonde_generator(N, K, "chebyshev"), 100
        ),
        "vandermonde-integer": verify_any_k_property(
            vandermonde_generator(N, K, "integer"), 100
        ),
    }


def test_ablation_generator_conditioning(once):
    conds = once(_conditioning_table)
    print()
    for name, cond in sorted(conds.items(), key=lambda kv: kv[1]):
        print(f"  {name:24s} worst sampled cond = {cond:.3e}")
    # The structured default and Haar stay comfortably invertible at (50,40).
    assert conds["systematic-gaussian"] < 1e6
    assert conds["haar"] < 1e6
    # The textbook constructions explode at this scale.
    assert conds["systematic-cauchy"] > 1e12 or conds["systematic-cauchy"] == np.inf
    assert (
        conds["vandermonde-integer"] > 1e12
        or conds["vandermonde-integer"] == np.inf
    )
    # Chebyshev points help Vandermonde but cannot save the monomial basis
    # at k = 40.
    assert conds["vandermonde-chebyshev"] < conds["vandermonde-integer"] or (
        conds["vandermonde-integer"] == np.inf
    )


@pytest.mark.parametrize("generator", ["systematic-gaussian", "haar"])
def test_ablation_decode_error_default_generators(benchmark, generator):
    error = benchmark.pedantic(
        _decode_error, args=(generator,), rounds=1, iterations=1
    )
    print(f"\n  {generator}: max decode error at (50,40) = {error:.3e}")
    assert error < 1e-6
