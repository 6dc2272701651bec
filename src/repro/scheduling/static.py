"""Conventional (static) coded-computation scheduling.

The baseline the paper improves on: every worker always computes its *full*
encoded partition regardless of speeds, and the master decodes from the
fastest ``k`` full responses, discarding the rest (paper §2, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.scheduling.base import CodedWorkPlan, PlanBatch, as_speed_matrix

__all__ = ["StaticCodedScheduler"]


@dataclass(frozen=True)
class StaticCodedScheduler:
    """Speed-oblivious full-partition plans for (n, k)-style codes.

    Parameters
    ----------
    coverage:
        The code's recovery threshold; completion requires this many *full*
        partition results per chunk, which the simulator realises as the
        ``coverage``-th fastest worker finishing.
    num_chunks:
        Chunk granularity, kept for interface parity with S2C2 plans (the
        static plan assigns all chunks to everyone either way).
    """

    coverage: int
    num_chunks: int = 60

    def __post_init__(self) -> None:
        check_positive_int(self.coverage, "coverage")
        check_positive_int(self.num_chunks, "num_chunks")

    def plan(self, speeds: np.ndarray) -> CodedWorkPlan:
        """Ignore ``speeds`` and assign every chunk to every worker."""
        return self.plan_batch(np.asarray(speeds, dtype=np.float64)[None])[0]

    def plan_batch(self, speeds: np.ndarray) -> PlanBatch:
        """Full arcs for every trial of a ``(trials, workers)`` matrix."""
        full = np.full(as_speed_matrix(speeds).shape, self.num_chunks)
        return PlanBatch(np.zeros_like(full), full, self.coverage, self.num_chunks)
