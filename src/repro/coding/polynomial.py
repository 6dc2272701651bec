"""Polynomial codes for coded bilinear computation (Yu et al., NeurIPS'17).

To compute ``A @ B`` (or the Hessian form ``Aᵀ diag(x) A``, paper §6.3) on
``n`` workers, the left matrix is split into ``a`` row blocks and the right
matrix into ``b`` column blocks.  Worker ``i`` stores the two *encoded*
partitions

.. math::
    \\tilde A_i = \\sum_{u=0}^{a-1} A_u \\, x_i^{u}, \\qquad
    \\tilde B_i = \\sum_{v=0}^{b-1} B_v \\, x_i^{a v},

and computes ``\\tilde A_i @ \\tilde B_i``, which equals the degree-
``(ab - 1)`` polynomial ``Σ_w x_i^w C_w`` evaluated at ``x_i``, where the
coefficients ``C_{u + a v} = A_u B_v`` are exactly the blocks of the desired
product.  Any ``a·b`` worker results per row index decode the full product —
so the whole S2C2 machinery (coverage ``K = a·b`` row scheduling, the
:class:`~repro.coding.linear.AnyKRowDecoder`) applies unchanged, with the
Vandermonde matrix in the evaluation points as the generator (paper §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.linear import AnyKRowDecoder, chebyshev_points, vandermonde_generator
from repro.coding.partition import RowPartition, check_block_count

__all__ = ["PolynomialCode", "EncodedBilinear"]


@dataclass(frozen=True)
class PolynomialCode:
    """A polynomial code with ``n`` workers and split factors ``a``, ``b``.

    Parameters
    ----------
    n:
        Number of workers; must satisfy ``n >= a * b``.
    a, b:
        Row-split factor of the left matrix and column-split factor of the
        right matrix.  The recovery threshold (coverage) is ``a * b``; the
        code tolerates ``n - a*b`` full stragglers.
    points:
        Evaluation-point scheme, ``"chebyshev"`` (default, well conditioned)
        or ``"integer"`` (``x_i = i`` as in the paper's worked example).
    """

    n: int
    a: int
    b: int
    points: str = "chebyshev"
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    eval_points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.n, self.a, self.b) <= 0:
            raise ValueError("n, a, b must be positive")
        if self.a * self.b > self.n:
            raise ValueError(
                f"recovery threshold a*b={self.a * self.b} exceeds n={self.n}"
            )
        if self.points == "chebyshev":
            pts = chebyshev_points(self.n)
        elif self.points == "integer":
            pts = np.arange(self.n, dtype=np.float64)
        else:
            raise ValueError(f"unknown point scheme {self.points!r}")
        generator = vandermonde_generator(self.n, self.a * self.b, pts)
        object.__setattr__(self, "matrix", generator)
        object.__setattr__(self, "eval_points", pts)

    @property
    def coverage(self) -> int:
        """Results needed per row index to decode: ``a * b``."""
        return self.a * self.b

    @property
    def max_stragglers(self) -> int:
        """Worst-case full stragglers tolerated: ``n - a*b``."""
        return self.n - self.coverage

    def encode(self, left: np.ndarray, right: np.ndarray) -> "EncodedBilinear":
        """Encode the pair ``(left, right)`` for distributed ``left @ right``.

        ``left`` is split into ``a`` row blocks (zero-padded to a multiple
        of ``a``); ``right`` into ``b`` column blocks (zero-padded to a
        multiple of ``b``).  The inner dimensions must agree.
        """
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.ndim != 2 or right.ndim != 2:
            raise ValueError("left and right must be 2-D")
        if left.shape[1] != right.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: {left.shape} @ {right.shape}"
            )
        check_block_count(self.a, "a", left.shape[0], "left's rows")
        check_block_count(self.b, "b", right.shape[1], "right's columns")
        row_part = RowPartition(left.shape[0], self.a)
        col_part = RowPartition(right.shape[1], self.b)
        left_blocks = row_part.blocks(left)  # (a, pr, q)
        right_blocks = col_part.blocks(right.T)  # (b, pc, q) -- blocks of right^T
        u_pow = np.vander(self.eval_points, self.a, increasing=True)  # x_i^u
        v_pow = np.vander(self.eval_points ** self.a, self.b, increasing=True)
        left_enc = np.einsum("iu,urq->irq", u_pow, left_blocks)
        right_enc = np.einsum("iv,vcq->icq", v_pow, right_blocks)
        return EncodedBilinear(
            code=self,
            row_part=row_part,
            col_part=col_part,
            left=left_enc,
            right=right_enc.transpose(0, 2, 1),  # (n, q, pc)
        )


@dataclass(frozen=True)
class EncodedBilinear:
    """Encoded partitions for one distributed bilinear computation."""

    code: PolynomialCode
    row_part: RowPartition
    col_part: RowPartition
    left: np.ndarray  # (n, block_rows, q)
    right: np.ndarray  # (n, q, block_cols)

    @property
    def block_rows(self) -> int:
        """Rows of each product block — the shared row-index space."""
        return self.row_part.block_rows

    @property
    def block_cols(self) -> int:
        """Columns of each product block."""
        return self.col_part.block_rows

    def storage_fraction_per_node(self) -> float:
        """Fraction of (left + right) data stored by each worker."""
        total = (
            self.row_part.total_rows * self.left.shape[2]
            + self.right.shape[1] * self.col_part.total_rows
        )
        stored = (
            self.block_rows * self.left.shape[2]
            + self.right.shape[1] * self.block_cols
        )
        return stored / total

    def compute(
        self,
        worker: int,
        row_indices: np.ndarray,
        diag: np.ndarray | None = None,
    ) -> np.ndarray:
        """Worker task: rows ``row_indices`` of ``Ã_i @ diag(x) @ B̃_i``.

        ``diag`` is the per-iteration vector ``x`` of the Hessian form
        ``Aᵀ diag(x) A`` (paper §6.3); ``None`` means plain matrix product.
        Returns an array of shape ``(len(row_indices), block_cols)``.
        """
        if not 0 <= worker < self.code.n:
            raise IndexError(f"worker {worker} out of range")
        row_indices = np.asarray(row_indices, dtype=np.int64)
        left_rows = self.left[worker, row_indices, :]
        right = self.right[worker]
        if diag is not None:
            diag = np.asarray(diag, dtype=np.float64)
            if diag.shape != (right.shape[0],):
                raise ValueError(
                    f"diag must have shape ({right.shape[0]},), got {diag.shape}"
                )
            return (left_rows * diag[None, :]) @ right
        return left_rows @ right

    def decoder(self) -> AnyKRowDecoder:
        """Row-level decoder over the ``(n, a*b)`` Vandermonde generator."""
        return AnyKRowDecoder(
            self.code.matrix,
            rows=self.block_rows,
            width=self.block_cols,
        )

    def assemble(self, decoded: np.ndarray) -> np.ndarray:
        """Reassemble decoder output into the full (unpadded) product.

        ``decoded`` has shape ``(a*b, block_rows, block_cols)`` where
        coefficient ``w = u + a v`` is the block ``A_u B_v``; blocks tile the
        product row-major in ``(u, v)``.
        """
        a, b = self.code.a, self.code.b
        if decoded.shape != (a * b, self.block_rows, self.block_cols):
            raise ValueError(
                f"decoded has shape {decoded.shape}, expected "
                f"{(a * b, self.block_rows, self.block_cols)}"
            )
        out = np.empty(
            (a * self.block_rows, b * self.block_cols), dtype=np.float64
        )
        for u in range(a):
            for v in range(b):
                block = decoded[u + a * v]
                out[
                    u * self.block_rows : (u + 1) * self.block_rows,
                    v * self.block_cols : (v + 1) * self.block_cols,
                ] = block
        return out[: self.row_part.total_rows, : self.col_part.total_rows]
