"""Figure 10 — cloud execution times, high mis-prediction environment.

Paper values (normalised to S2C2(10,7) = 1.00): over-decomposition 1.19,
MDS(8,7) 1.34, MDS(9,7) 1.24, MDS(10,7) 1.17, S2C2(8,7) 1.18,
S2C2(9,7) 1.11.  Shapes to reproduce:

* among the MDS variants the ordering flips vs Fig 8:
  MDS(10,7) < MDS(9,7) < MDS(8,7) — more spare workers raise the chance
  that *some* 7 are fast;
* S2C2 still wins but by less than in the low mis-prediction environment
  (17% vs 39% at (10,7));
* over-decomposition now clearly trails S2C2 (its load balancing moves
  data on every mis-predicted iteration).
"""

from __future__ import annotations

import numpy as np

from repro.engine import ExecutionEngine
from repro.experiments.cloud_common import CODE_VARIANTS, run_environment
from repro.experiments.harness import ExperimentResult

__all__ = ["run"]


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 10: strategy → normalised execution time."""
    cloud = run_environment(
        "high", quick=quick, seed=seed, trials=trials, runner=runner
    )
    base = np.asarray(cloud["total"]["s2c2-10-7"])

    def rel(label: str) -> float:
        return float(np.mean(np.asarray(cloud["total"][label]) / base))

    result = ExperimentResult(
        name="fig10",
        description="Cloud SVM execution time, high mis-prediction (×S2C2(10,7))",
        columns=("strategy", "relative-time"),
    )
    result.add_row("over-decomposition", rel("over-decomposition"))
    for n in CODE_VARIANTS:
        result.add_row(f"mds-{n}-7", rel(f"mds-{n}-7"))
    for n in CODE_VARIANTS:
        result.add_row(f"s2c2-{n}-7", rel(f"s2c2-{n}-7"))
    result.notes = (
        f"observed mis-prediction rate {np.mean(cloud['misprediction']):.1%} "
        "(paper: ~18%); expected: MDS(10,7) best of the MDS family; S2C2 "
        "still lowest but with smaller margins than Fig 8"
    )
    return result
