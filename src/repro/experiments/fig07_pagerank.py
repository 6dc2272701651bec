"""Figure 7 — PageRank execution time: same five strategies as Fig 6.

Paper setup (§7.1.2): the ranking workload is power iteration — one
matrix–vector product with the (square) transition matrix per iteration —
on the same 12-worker controlled cluster as Fig 6.  Same expected shapes,
with general S2C2 improving over basic in every scenario.

Runs as a strategy × straggler-count sweep; every cell simulates all
trials at once through the batched latency engine (power iteration with
``tol=0`` performs exactly ``iterations`` mat-vecs, so the timeline does
not depend on the ranks themselves).
"""

from __future__ import annotations

import numpy as np

from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.fig06_lr import _coded_policy, _oracle, _speeds
from repro.experiments.harness import (
    ExperimentResult,
    controlled_cost,
    controlled_network,
)
from repro.runtime.batch import build_batch_runner
from repro.scheduling.policies import build_policy

__all__ = ["run", "STRATEGIES"]

N_WORKERS = 12
STRAGGLER_COUNTS = (0, 1, 2, 3, 4, 5, 6)
STRATEGIES = (
    "uncoded-3rep",
    "mds-12-10",
    "mds-12-6",
    "s2c2-basic-12-6",
    "s2c2-general-12-6",
)


def _cell(params: dict, ctx: SweepContext) -> list[float]:
    """One sweep cell: per-trial total PageRank time of one grid point."""
    strategy = params["strategy"]
    s = params["stragglers"]
    n_pages = 480 if ctx.quick else 2400
    iterations = 4 if ctx.quick else 15
    if strategy == "uncoded-3rep":
        # Same baseline as Fig 6: the registry's `replication` policy.
        config = build_policy("replication", N_WORKERS, 1).config
        family, knobs, operator = "replication", {"config": config}, ()
    else:
        policy = _coded_policy(strategy)  # same strategy set as Fig 6
        family, knobs = "coded", {"timeout": policy.timeout}
        operator = (policy.k, policy.make_scheduler())
    batch = build_batch_runner(
        family,
        _speeds(s, ctx.seeds),
        _oracle(s, ctx),
        network=controlled_network(),
        cost=controlled_cost(),
        **knobs,
    )
    batch.register_matvec("M", n_pages, n_pages, *operator)
    for _ in range(iterations):
        batch.matvec("M")
    return [float(v) for v in batch.metrics.total_time]


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 7's series; normalised to uncoded @ 0 stragglers."""
    counts = STRAGGLER_COUNTS[:4] if quick else STRAGGLER_COUNTS
    spec = SweepSpec(
        name="fig07",
        cell=_cell,
        axes=(("strategy", STRATEGIES), ("stragglers", counts)),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    result = ExperimentResult(
        name="fig07",
        description="PageRank relative execution time, 5 strategies vs stragglers",
        columns=("stragglers",) + STRATEGIES,
    )
    base = np.asarray(swept.get(strategy="uncoded-3rep", stragglers=0))
    for s in counts:
        result.add_row(
            f"{s}",
            *(
                float(np.mean(np.asarray(swept.get(strategy=st, stragglers=s)) / base))
                for st in STRATEGIES
            ),
        )
    result.notes = "same expected shape as Fig 6 (PageRank instead of LR)"
    return result
