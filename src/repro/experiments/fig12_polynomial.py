"""Figure 12 — S2C2 on polynomial codes: Hessian computation (§7.2.3).

Paper setup: 12 nodes, matrices split a = b = 3 (coverage 9 of 12),
repeated Hessian computations ``Aᵀ diag(x) A``; conventional polynomial
coding vs S2C2 workload distribution on the same encoded data.

Paper values: conventional / S2C2 = 1.19 under low mis-prediction and
1.14 under high mis-prediction — below the 12/9 = 1.33 bound because the
``diag(x)`` scaling inside each worker task is not reduced by S2C2.

Runs as an environment × strategy sweep; each cell simulates all trials
at once through the batched latency engine (the Hessian timeline depends
only on the encoded geometry and the ``diag(x)`` pass cost, not on the
matrix values).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.speed_models import ReplaySpeeds, TraceSpeeds
from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import (
    ExperimentResult,
    controlled_cost,
    controlled_network,
)
from repro.prediction.predictor import StackedPredictor, StalePredictor
from repro.prediction.traces import BURSTY, STABLE, generate_speed_traces
from repro.runtime.batch import build_batch_runner
from repro.scheduling.policies import build_policy

__all__ = ["run"]

N_WORKERS = 12
SPLIT = 3  # a = b = 3, coverage 9

#: Strategy label → registered policy; the bilinear Hessian operator is
#: wired below (registry runners cover the mat-vec round pattern only),
#: but the scheduler family and §4.3 timeout still come from one place.
_POLICY_OF = {"static": "mds", "s2c2": "timeout-repair"}


def _cell(params: dict, ctx: SweepContext) -> list[float]:
    """Per-trial total Hessian time of one (environment, strategy) cell."""
    # BURSTY for the high environment: mostly-fast nodes with transient
    # throttling dips, matching the moderate-churn cloud where the paper
    # measured its ~18% mis-prediction rate.
    config = STABLE if params["environment"] == "low" else BURSTY
    miss = 0.0 if params["environment"] == "low" else 0.18
    samples, features = (200, 180) if ctx.quick else (1200, 600)
    iterations = 6 if ctx.quick else 15
    policy = build_policy(_POLICY_OF[params["strategy"]], N_WORKERS, SPLIT * SPLIT)
    scheduler = policy.make_scheduler()
    timeout = policy.timeout
    traces = [
        generate_speed_traces(N_WORKERS, iterations + 2, config, seed=seed)
        for seed in ctx.seeds
    ]
    runner = build_batch_runner(
        "coded",
        ReplaySpeeds(np.stack(traces)),
        StackedPredictor(
            [
                StalePredictor(
                    speed_model=TraceSpeeds(traces[t]), miss_rate=miss, seed=seed
                )
                for t, seed in enumerate(ctx.seeds)
            ]
        ),
        network=controlled_network(),
        cost=controlled_cost(),
        timeout=timeout,
    )
    # The Hessian is left (features × samples) @ diag(x) @ right
    # (samples × features); the diag_pass_factor weights the
    # row-count-independent diag(x) pass, calibrated so the
    # conventional/S2C2 ratio lands below the 12/9 bound, as the paper's
    # measured 1.19 does.
    runner.register_bilinear(
        "H",
        left_rows=features,
        inner=samples,
        right_cols=features,
        a=SPLIT,
        b=SPLIT,
        scheduler=scheduler,
        diag_pass_factor=40.0,
    )
    for _ in range(iterations):
        runner.matvec("H")
    return [float(v) for v in runner.metrics.total_time]


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 12: conventional polynomial vs S2C2, both environments."""
    spec = SweepSpec(
        name="fig12",
        cell=_cell,
        axes=(("environment", ("low", "high")), ("strategy", ("static", "s2c2"))),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    result = ExperimentResult(
        name="fig12",
        description="Hessian on polynomial codes (×S2C2 in each environment)",
        columns=("environment", "conventional-poly", "poly-s2c2"),
    )
    for environment in ("low", "high"):
        conventional = np.asarray(swept.get(environment=environment, strategy="static"))
        s2c2 = np.asarray(swept.get(environment=environment, strategy="s2c2"))
        result.add_row(environment, float(np.mean(conventional / s2c2)), 1.0)
    result.notes = (
        "paper: 1.19 (low) and 1.14 (high); bound 12/9 = 1.33 — S2C2 cannot "
        "reduce the diag(x) scaling portion of each worker task"
    )
    return result
