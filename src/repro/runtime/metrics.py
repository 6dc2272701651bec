"""Effective storage accounting for uncoded strategies (Fig 3).

The paper's other run-level quantities — relative execution time, wasted
computation per worker, mis-prediction rate — are per-trial aggregates of
:class:`~repro.runtime.batch.BatchRunMetrics`, which every runner and
session records into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive_int

__all__ = ["StorageTracker"]


@dataclass
class StorageTracker:
    """Effective per-node storage growth for uncoded strategies (Fig 3).

    A node that is assigned a row it has never held must fetch it once; it
    is then cached.  The *effective storage* of a node is the fraction of
    the full data it has ever been assigned — what Fig 3 plots over 270
    gradient-descent iterations.
    """

    n_workers: int
    total_rows: int
    _held: list[set] = field(init=False, repr=False)
    _history: list[float] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        check_positive_int(self.total_rows, "total_rows")
        self._held = [set() for _ in range(self.n_workers)]

    def record_iteration(self, assignments: dict[int, np.ndarray]) -> float:
        """Add one iteration's row assignments; return the new mean fraction."""
        for worker, rows in assignments.items():
            if not 0 <= worker < self.n_workers:
                raise IndexError(f"worker {worker} out of range")
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size and (rows.min() < 0 or rows.max() >= self.total_rows):
                raise IndexError("row index out of range")
            self._held[worker].update(int(r) for r in rows)
        mean = self.mean_fraction()
        self._history.append(mean)
        return mean

    def fractions(self) -> np.ndarray:
        """Current per-node effective storage fractions."""
        return np.array(
            [len(h) / self.total_rows for h in self._held], dtype=np.float64
        )

    def mean_fraction(self) -> float:
        """Current mean effective storage fraction across nodes."""
        return float(self.fractions().mean())

    def history(self) -> np.ndarray:
        """Mean fraction after each recorded iteration (the Fig 3 curve)."""
        return np.asarray(self._history, dtype=np.float64)
