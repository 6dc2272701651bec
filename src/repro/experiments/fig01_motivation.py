"""Figure 1 — motivation: LR latency vs straggler count, three fixed schemes.

Paper setup: a 12-worker cluster running logistic regression with
(a) uncoded 3-replication, (b) (12,10)-MDS, (c) (12,9)-MDS, for 0–3
stragglers.  Shapes to reproduce:

* uncoded degrades sharply at r = 3 stragglers (all replicas slow);
* (12,10)-MDS is flat through 2 stragglers then blows up;
* (12,9)-MDS is flat through 3 stragglers but pays a higher baseline
  (each worker computes S/9 instead of S/10).

Runs as a strategy × straggler-count sweep; every cell, the uncoded
baseline included, simulates all trials at once through the batched
latency engine.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.speed_models import ControlledDraws
from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import ExperimentResult
from repro.prediction.predictor import BatchLastValuePredictor
from repro.scheduling.policies import build_policy
from repro.scheduling.replication import ReplicaPlacement

__all__ = ["run"]

N_WORKERS = 12
STRAGGLER_COUNTS = (0, 1, 2, 3)
STRATEGIES = ("uncoded-3rep", "mds-12-10", "mds-12-9")


def _speeds(
    stragglers: int, seeds, ids: tuple[int, ...] | None = None
) -> ControlledDraws:
    return ControlledDraws(
        N_WORKERS,
        seeds,
        num_stragglers=stragglers,
        slowdown=5.0,
        jitter=0.2,
        straggler_ids=ids,
    )


def _cell(params: dict, ctx: SweepContext) -> list[float]:
    """One sweep cell: per-trial total LR time of one (strategy, count)."""
    strategy = params["strategy"]
    s = params["stragglers"]
    rows, cols = (480, 120) if ctx.quick else (2400, 600)
    iterations = 5 if ctx.quick else 15
    ids = None
    if strategy == "uncoded-3rep":
        # Fig 1's uncoded baseline is classic strict-locality Hadoop: no
        # data movement for speculative copies (the registry's `uncoded`
        # policy; `k` is meaningless for it).  At r = 3 stragglers we
        # place them adversarially on all three replica holders of one
        # partition — the paper's "all the nodes with replicas are also
        # stragglers" worst case, under the runner's seed-0 placement.
        policy = build_policy("uncoded", N_WORKERS, 1)
        replication = policy.config.replication
        if s == replication:
            ids = ReplicaPlacement(N_WORKERS, replication, seed=0).holders(0)
    else:
        k = {"mds-12-10": 10, "mds-12-9": 9}[strategy]
        policy = build_policy("mds", N_WORKERS, k)
    metrics = policy.run_batch(
        _speeds(s, ctx.seeds, ids),
        BatchLastValuePredictor(ctx.trials, N_WORKERS),
        rows=rows,
        cols=cols,
        iterations=iterations,
    )
    return [float(v) for v in metrics.total_time]


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 1's series; values normalised to uncoded @ 0 stragglers.

    With ``trials > 1``, each cell is a Monte-Carlo batch over deterministic
    per-trial seeds; ratios are taken per trial (paired speed draws) and
    then averaged.
    """
    spec = SweepSpec(
        name="fig01",
        cell=_cell,
        axes=(("strategy", STRATEGIES), ("stragglers", STRAGGLER_COUNTS)),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    result = ExperimentResult(
        name="fig01",
        description="Normalized LR computation latency vs straggler count",
        columns=("stragglers", "uncoded-3rep", "mds-12-10", "mds-12-9"),
    )
    base = np.asarray(swept.get(strategy="uncoded-3rep", stragglers=0))
    for s in STRAGGLER_COUNTS:
        result.add_row(
            f"{s} straggler{'s' if s != 1 else ''}",
            *(
                float(np.mean(np.asarray(swept.get(strategy=st, stragglers=s)) / base))
                for st in STRATEGIES
            ),
        )
    result.notes = (
        "expected shape: uncoded spikes at 3 stragglers; (12,10) spikes past 2; "
        "(12,9) flat but higher baseline"
    )
    return result
