"""Figure 6 — LR execution time: all five strategies vs straggler count.

Paper setup (§7.1.1): 12-worker controlled cluster, stragglers ≥5× slower,
non-stragglers within ±20% of each other.  Strategies:

1. uncoded 3-replication with up to 6 speculative jobs (data movement
   allowed — the "enhanced Hadoop" / LATE baseline);
2. (12,10)-MDS conventional coded computation;
3. (12,6)-MDS conventional coded computation;
4. S2C2 on (12,6)-MDS assuming equal non-straggler speeds (basic);
5. S2C2 on (12,6)-MDS knowing the exact speeds (general).

Shapes to reproduce: S2C2 lowest everywhere and flat through 6 stragglers;
general ≤ basic (it squeezes the ±20% slack too); (12,10) collapses past
2 stragglers; (12,6) flat but with a high baseline; uncoded degrades
steadily and super-linearly once data movement enters the critical path.

Runs as a strategy × straggler-count sweep; every cell simulates all
trials at once through the batched latency engine.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.speed_models import ControlledDraws
from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import ExperimentResult
from repro.prediction.predictor import OraclePredictor, StackedPredictor
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

#: Figure strategy label → (registered policy, k).  Runner construction
#: comes from the policy registry (`repro.scheduling.policies`) so the
#: figure and the policy × scenario matrix share one source of truth.
_POLICY_OF = {
    "mds-12-10": ("mds", 10),
    "mds-12-6": ("mds", 6),
    "s2c2-basic-12-6": ("s2c2-basic", 6),
    "s2c2-general-12-6": ("s2c2-general", 6),
}


def _speeds(stragglers: int, seeds) -> ControlledDraws:
    return ControlledDraws(
        N_WORKERS, seeds, num_stragglers=stragglers, slowdown=5.0, jitter=0.2
    )


def _oracle(stragglers: int, ctx: SweepContext) -> StackedPredictor:
    """Per-trial perfect forecasts from a fresh replay of the trials' draws."""
    replay = _speeds(stragglers, ctx.seeds)
    return StackedPredictor(
        [OraclePredictor(speed_model=replay.row(t)) for t in range(ctx.trials)]
    )


def _coded_policy(strategy: str):
    """The registry-built runner of one coded figure strategy.

    Every coded strategy of Figs 6/7 — conventional MDS included — runs
    repair-armed, as the paper's controlled-cluster experiments do, so
    the policies are built with ``repair=True`` and the figure consumes
    the policy's own timeout.
    """
    try:
        name, k = _POLICY_OF[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    return build_policy(name, N_WORKERS, k, repair=True)


def _coded_scheduler(strategy: str):
    """Registry-built ``(scheduler, k)`` for one coded figure strategy.

    The seed-style serial path of ``scripts/bench_sweep.py`` uses this to
    mirror the original per-trial session loop.
    """
    policy = _coded_policy(strategy)
    return policy.make_scheduler(), policy.k


def _cell(params: dict, ctx: SweepContext) -> list[float]:
    """One sweep cell: per-trial total LR time of one (strategy, count)."""
    strategy = params["strategy"]
    s = params["stragglers"]
    rows, cols = (480, 120) if ctx.quick else (2400, 600)
    iterations = 4 if ctx.quick else 15
    # The uncoded baseline is the registry's `replication` policy:
    # enhanced Hadoop / LATE with data movement (`k` is meaningless for it).
    policy = (
        build_policy("replication", N_WORKERS, 1)
        if strategy == "uncoded-3rep"
        else _coded_policy(strategy)
    )
    metrics = policy.run_batch(
        _speeds(s, ctx.seeds),
        _oracle(s, ctx),
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
    """Reproduce Fig 6's series; normalised to uncoded @ 0 stragglers.

    Ratios are taken per trial against the uncoded baseline facing the
    identical speed draws, then averaged over trials.
    """
    counts = STRAGGLER_COUNTS[:4] if quick else STRAGGLER_COUNTS
    spec = SweepSpec(
        name="fig06",
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
        name="fig06",
        description="LR relative execution time, 5 strategies vs stragglers",
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
    result.notes = (
        "expected: S2C2 flat & lowest; general <= basic; (12,10) collapses "
        "past 2 stragglers; (12,6) flat but high; uncoded degrades steadily"
    )
    return result
