"""Figure 11 — per-worker wasted computation, high mis-prediction (§7.2.2).

Paper result at (10,7): under ~18% mis-prediction S2C2 also wastes some
computation (cancelled-and-reassigned work of mis-predicted laggards), but
conventional MDS wastes ~47% more in aggregate, since it additionally
throws away the three slowest workers' efforts every iteration.
"""

from __future__ import annotations

import numpy as np

from repro.engine import ExecutionEngine
from repro.experiments.cloud_common import N_WORKERS, run_environment
from repro.experiments.harness import ExperimentResult

__all__ = ["run"]


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 11: wasted-computation fraction per worker at (10,7)."""
    cloud = run_environment(
        "high", quick=quick, seed=seed, trials=trials, runner=runner
    )
    mds = np.asarray(cloud["wasted"]["mds-10-7"]).mean(axis=0)
    s2c2 = np.asarray(cloud["wasted"]["s2c2-10-7"]).mean(axis=0)
    result = ExperimentResult(
        name="fig11",
        description="Per-worker wasted computation %, high mis-prediction, (10,7)",
        columns=("worker", "mds-10-7", "s2c2-10-7"),
    )
    for w in range(N_WORKERS):
        result.add_row(f"worker{w + 1}", 100.0 * mds[w], 100.0 * s2c2[w])
    mds_mean, s2c2_mean = float(np.mean(mds)), float(np.mean(s2c2))
    excess = (mds_mean / s2c2_mean - 1.0) if s2c2_mean > 0 else np.inf
    result.notes = (
        f"means: MDS {100 * mds_mean:.1f}%, S2C2 {100 * s2c2_mean:.1f}% — "
        f"MDS wastes {100 * excess:.0f}% more (paper: 47% more)"
    )
    return result
