"""Figure 9 — per-worker wasted computation, low mis-prediction (§7.2.1).

Paper result at (10,7): with a 0% mis-prediction rate S2C2 wastes *no*
computation, while conventional MDS wastes large fractions on the three
workers it ignores each iteration (one worker close to 90% — it was almost
done when the fastest seven finished).
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
    """Reproduce Fig 9: wasted-computation fraction per worker at (10,7)."""
    cloud = run_environment("low", quick=quick, seed=seed, trials=trials, runner=runner)
    mds = np.asarray(cloud["wasted"]["mds-10-7"]).mean(axis=0)
    s2c2 = np.asarray(cloud["wasted"]["s2c2-10-7"]).mean(axis=0)
    result = ExperimentResult(
        name="fig09",
        description="Per-worker wasted computation %, low mis-prediction, (10,7)",
        columns=("worker", "mds-10-7", "s2c2-10-7"),
    )
    for w in range(N_WORKERS):
        result.add_row(f"worker{w + 1}", 100.0 * mds[w], 100.0 * s2c2[w])
    result.notes = (
        f"totals: MDS {100 * np.mean(mds):.1f}% vs S2C2 "
        f"{100 * np.mean(s2c2):.1f}% mean waste (paper: S2C2 = 0%)"
    )
    return result
