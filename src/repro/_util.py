"""Small internal helpers shared across the :mod:`repro` package.

These utilities deliberately stay dependency-free (NumPy only) and contain
the argument-validation and RNG plumbing used by every subsystem, so error
messages are consistent across the code base, plus the builder-source
cache both named registries (scenarios, policies) digest through.
"""

from __future__ import annotations

import inspect
import os
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "as_rng",
    "check_positive_int",
    "check_probability",
    "check_fraction",
    "check_series",
    "ranges_to_indices",
    "indices_to_ranges",
    "largest_remainder_round",
    "builder_source",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS-entropy generator).  Centralising this makes every
    stochastic component of the library reproducible from a single integer.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a finite non-negative float."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_series(series) -> np.ndarray:
    """Validate a ``(rows, length)`` training series; return it as float64.

    It must be 2-D with at least one row and hold only finite values:
    a fit would otherwise train on nothing or on NaN without saying so.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError("series must be 2-D (nodes, length)")
    if series.shape[0] == 0:
        raise ValueError("series must have at least one row")
    if not np.isfinite(series).all():
        raise ValueError("series must be finite (no NaN or inf)")
    return series


def ranges_to_indices(ranges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Expand half-open ``(begin, end)`` ranges into a flat index array.

    Ranges must be non-wrapping (``begin <= end``); empty ranges are allowed
    and contribute nothing.
    """
    parts = []
    for begin, end in ranges:
        if end < begin:
            raise ValueError(f"range ({begin}, {end}) has end < begin")
        if end > begin:
            parts.append(np.arange(begin, end, dtype=np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def indices_to_ranges(indices: Sequence[int] | np.ndarray) -> tuple[tuple[int, int], ...]:
    """Compress a sorted, duplicate-free index array into half-open ranges."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return ()
    if np.any(np.diff(idx) <= 0):
        raise ValueError("indices must be strictly increasing")
    breaks = np.flatnonzero(np.diff(idx) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return tuple((int(idx[s]), int(idx[e]) + 1) for s, e in zip(starts, ends))


def largest_remainder_round(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Uses the largest-remainder (Hamilton) method so that the result sums to
    exactly ``total`` and is within one unit of the exact proportional share.
    Zero-weight entries receive zero units.  Ties are broken by index for
    determinism.  Apportions along the last axis: each row of a 2-D
    ``weights`` independently, exactly as the 1-D call on that row.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 0:
        raise ValueError("weights must have at least one axis")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if total == 0:
        return np.zeros(weights.shape, dtype=np.int64)
    wsum = weights.sum(axis=-1, keepdims=True)
    if np.any(wsum <= 0):
        raise ValueError("at least one weight must be positive when total > 0")
    exact = weights * (total / wsum)
    base = np.floor(exact).astype(np.int64)
    short = total - base.sum(axis=-1, keepdims=True)
    # The ``short`` largest remainders get one more unit; stable order:
    # descending remainder, then ascending index.
    index = np.broadcast_to(np.arange(weights.shape[-1]), weights.shape)
    order = np.lexsort((index, base - exact), axis=-1)
    return base + (order.argsort(axis=-1) < short)


def _source_stamp(builder: Callable) -> tuple | None:
    """``(code, file, st_mtime_ns, st_size)`` of ``builder``'s source.

    What :func:`inspect.getsource` reads the source from (its
    ``linecache`` re-reads a file only when the size or mtime changes);
    ``None`` when the builder has no ``__code__`` or no file to stat.
    """
    code = getattr(inspect.unwrap(builder), "__code__", None)
    if code is None:
        return None
    try:
        stat = os.stat(code.co_filename)
    except OSError:
        return None
    return code, code.co_filename, stat.st_mtime_ns, stat.st_size


#: Builder sources read this run, by :func:`_source_stamp`.
_SOURCES: dict[tuple, str] = {}
_SOURCES_HOOKED = False


def builder_source(builder: Callable) -> str:
    """Source of a registry builder, or its ``repr`` when not retrievable.

    What the scenario and policy registry digests hash for each builder.
    A read is cached for the run under the builder's source stamps (see
    :func:`_source_stamp`), so an edited builder file is read afresh and
    a builder with no stamps is read on every call.  Every new
    :class:`~repro.engine.runner.ExecutionEngine` drops the cache (see
    :func:`~repro.engine.runner.register_run_scoped_cache`).
    """
    global _SOURCES_HOOKED
    stamp = _source_stamp(builder)
    if stamp in _SOURCES:
        return _SOURCES[stamp]
    try:
        source = inspect.getsource(builder)
    except (OSError, TypeError):
        return repr(builder)
    if stamp is not None:
        if not _SOURCES_HOOKED:
            # Imported here: repro.engine imports this module.
            from repro.engine.runner import register_run_scoped_cache

            register_run_scoped_cache(_SOURCES.clear)
            _SOURCES_HOOKED = True
        _SOURCES[stamp] = source
    return source
