"""Row partitioning and chunk bookkeeping for coded computation.

Coded computing decomposes a data matrix with ``D`` rows into ``k`` equal
blocks (padding with zero rows when ``k`` does not divide ``D``), encodes
them into ``n`` coded partitions, and — under S2C2 — further over-decomposes
each partition into *chunks* (groups of consecutive rows) that form the unit
of work assignment (paper §4.2).

This module owns those two layers of index arithmetic:

* :class:`RowPartition` — the block layer: original rows ↔ ``k`` blocks of
  ``block_rows`` rows each.
* :class:`ChunkGrid` — the chunk layer: ``block_rows`` rows of one encoded
  partition ↔ ``num_chunks`` chunks.

Everything downstream (schedulers, decoders, the simulator) speaks in chunk
indices and converts to concrete row slices through these classes, so the
padding and rounding corner cases live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int

__all__ = ["RowPartition", "ChunkGrid"]


def check_block_count(blocks: int, blocks_name: str, rows: int, rows_name: str) -> None:
    """Reject more row blocks than rows, naming both in the caller's terms."""
    if blocks > rows:
        raise ValueError(
            f"{blocks_name}={blocks} blocks cannot exceed {rows_name}={rows}"
        )


@dataclass(frozen=True)
class RowPartition:
    """Partition of a ``total_rows``-row matrix into ``k`` equal row blocks.

    Parameters
    ----------
    total_rows:
        Number of rows of the original (unpadded) matrix.
    k:
        Number of blocks.  The matrix is zero-padded to the next multiple of
        ``k`` so all blocks have equal height ``block_rows``; padding rows
        produce zero results and are stripped by :meth:`unpad`.
    """

    total_rows: int
    k: int

    def __post_init__(self) -> None:
        check_positive_int(self.total_rows, "total_rows")
        check_positive_int(self.k, "k")
        check_block_count(self.k, "k", self.total_rows, "total_rows")

    @property
    def block_rows(self) -> int:
        """Rows per block after padding."""
        return -(-self.total_rows // self.k)

    @property
    def padded_rows(self) -> int:
        """Total rows after zero padding (``k * block_rows``)."""
        return self.block_rows * self.k

    @property
    def pad(self) -> int:
        """Number of zero rows appended by :meth:`pad_matrix`."""
        return self.padded_rows - self.total_rows

    def pad_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``matrix`` zero-padded along axis 0 to ``padded_rows``.

        Returns the input unchanged (no copy) when no padding is needed.
        """
        matrix = np.asarray(matrix)
        if matrix.shape[0] != self.total_rows:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, expected {self.total_rows}"
            )
        if self.pad == 0:
            return matrix
        pad_shape = (self.pad,) + matrix.shape[1:]
        return np.concatenate([matrix, np.zeros(pad_shape, matrix.dtype)], axis=0)

    def blocks(self, matrix: np.ndarray) -> np.ndarray:
        """Split (and pad) ``matrix`` into a ``(k, block_rows, ...)`` stack."""
        padded = self.pad_matrix(matrix)
        return padded.reshape((self.k, self.block_rows) + padded.shape[1:])

    def unpad(self, stacked: np.ndarray) -> np.ndarray:
        """Re-assemble a ``(k, block_rows, ...)`` stack and strip padding."""
        stacked = np.asarray(stacked)
        if stacked.shape[:2] != (self.k, self.block_rows):
            raise ValueError(
                f"expected leading shape {(self.k, self.block_rows)}, "
                f"got {stacked.shape[:2]}"
            )
        flat = stacked.reshape((self.padded_rows,) + stacked.shape[2:])
        return flat[: self.total_rows]

    def block_of_row(self, row: int) -> tuple[int, int]:
        """Return ``(block_index, row_within_block)`` for an original row."""
        if not 0 <= row < self.total_rows:
            raise IndexError(f"row {row} out of range [0, {self.total_rows})")
        return row // self.block_rows, row % self.block_rows


@dataclass(frozen=True)
class ChunkGrid:
    """Uniform-ish chunking of ``rows`` rows into ``num_chunks`` chunks.

    Chunk ``c`` covers the half-open row range returned by
    :meth:`chunk_bounds`.  When ``num_chunks`` does not divide ``rows``,
    the ``rows % num_chunks`` one-row-larger chunks are spread *evenly*
    around the chunk circle (never front-loaded): S2C2 assigns consecutive
    wrap-around chunk arcs, and even spreading guarantees any arc of ``m``
    chunks carries ``m × rows/num_chunks`` rows to within one row — i.e.
    chunk counts are a faithful proxy for work.
    """

    rows: int
    num_chunks: int

    def __post_init__(self) -> None:
        check_positive_int(self.rows, "rows")
        check_positive_int(self.num_chunks, "num_chunks")
        if self.num_chunks > self.rows:
            raise ValueError(
                f"num_chunks={self.num_chunks} cannot exceed rows={self.rows}"
            )

    def chunk_sizes(self) -> np.ndarray:
        """Return the per-chunk row counts (sizes differ by at most 1).

        The ``extra = rows % num_chunks`` larger chunks are interleaved via
        Bresenham spacing so every contiguous arc is balanced.

        The geometry is pure in ``(rows, num_chunks)`` and this is on the
        per-iteration hot path of both simulator cores, so the array is
        computed once per grid and returned read-only thereafter.
        """
        cached = self.__dict__.get("_chunk_sizes")
        if cached is not None:
            return cached
        base, extra = divmod(self.rows, self.num_chunks)
        sizes = np.full(self.num_chunks, base, dtype=np.int64)
        if extra:
            marks = (np.arange(1, self.num_chunks + 1) * extra) // self.num_chunks
            sizes += np.diff(np.concatenate(([0], marks)))
        sizes.setflags(write=False)
        object.__setattr__(self, "_chunk_sizes", sizes)
        return sizes

    def chunk_offsets(self) -> np.ndarray:
        """Return the starting row of every chunk plus a final sentinel.

        ``offsets[c]:offsets[c + 1]`` is the row slice of chunk ``c``.
        Cached read-only, like :meth:`chunk_sizes`.
        """
        cached = self.__dict__.get("_chunk_offsets")
        if cached is not None:
            return cached
        offsets = np.concatenate(([0], np.cumsum(self.chunk_sizes())))
        offsets.setflags(write=False)
        object.__setattr__(self, "_chunk_offsets", offsets)
        return offsets

    def chunk_bounds(self, chunk: int) -> tuple[int, int]:
        """Return the ``(begin_row, end_row)`` half-open bounds of a chunk."""
        if not 0 <= chunk < self.num_chunks:
            raise IndexError(f"chunk {chunk} out of range [0, {self.num_chunks})")
        offsets = self.chunk_offsets()
        return int(offsets[chunk]), int(offsets[chunk + 1])

    def rows_of_chunks(self, chunks: np.ndarray) -> np.ndarray:
        """Expand an array of chunk indices into the covered row indices."""
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.size == 0:
            return np.empty(0, dtype=np.int64)
        if chunks.min() < 0 or chunks.max() >= self.num_chunks:
            raise IndexError("chunk index out of range")
        offsets = self.chunk_offsets()
        return np.concatenate(
            [np.arange(offsets[c], offsets[c + 1], dtype=np.int64) for c in chunks]
        )

    def chunk_of_row(self, row: int) -> int:
        """Return the chunk containing ``row``."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        offsets = self.chunk_offsets()
        return int(np.searchsorted(offsets, row, side="right") - 1)

    def row_coverage_from_chunk_coverage(self, chunk_cov: np.ndarray) -> np.ndarray:
        """Expand a per-chunk coverage count into a per-row coverage count."""
        chunk_cov = np.asarray(chunk_cov)
        if chunk_cov.shape != (self.num_chunks,):
            raise ValueError(
                f"expected shape ({self.num_chunks},), got {chunk_cov.shape}"
            )
        return np.repeat(chunk_cov, self.chunk_sizes())
