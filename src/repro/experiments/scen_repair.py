"""Scenario sweep — what the §4.3 timeout repair buys per straggler scenario.

An ablation of the paper's repair mechanism across the registered straggler
scenarios (:mod:`repro.cluster.scenarios`): the same S2C2 schedule runs
with and without a :class:`~repro.scheduling.timeout.TimeoutPolicy`, under
an online (last-value) predictor whose mis-predictions are exactly what the
timeout exists to absorb.  Reported per scenario: mean total time with and
without repair, their ratio, and the mean number of repaired rounds per
run.

Expected shapes: no repairs (ratio 1) under ``constant``; the largest
benefit where slowness arrives *abruptly* (``spot`` preemptions, deep
``bursty`` dips, regime switches in volatile ``traces``) because the
last-value forecast is stale precisely then; little or no benefit under
``controlled`` (persistent stragglers are forecast correctly after one
iteration, so the plan already squeezes them).

Every cell runs all trials at once on the batched engine — this sweep
lives almost entirely on the natively batched repair path.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.scenarios import available_scenarios, scenario_batch
from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import ExperimentResult, trial_mean
from repro.prediction.predictor import BatchLastValuePredictor
from repro.scheduling.policies import build_policy

__all__ = ["run", "N_WORKERS", "COVERAGE", "VARIANTS"]

N_WORKERS = 12
COVERAGE = 8
VARIANTS = ("repair", "no-repair")

#: Ablation variant → registered policy (`repro.scheduling.policies`):
#: the same general-S2C2 schedule with and without the §4.3 timeout.
_POLICY_OF = {"repair": "timeout-repair", "no-repair": "s2c2-general"}


def _cell(params: dict, ctx: SweepContext) -> dict:
    """Per-trial totals and repair counts for one (scenario, variant)."""
    scenario = params["scenario"]
    rows, cols = (480, 120) if ctx.quick else (2400, 600)
    iterations = 4 if ctx.quick else 15
    policy = build_policy(_POLICY_OF[params["variant"]], N_WORKERS, COVERAGE)
    metrics = policy.run_batch(
        scenario_batch(scenario, N_WORKERS, ctx.seeds),
        BatchLastValuePredictor(ctx.trials, N_WORKERS),
        rows=rows,
        cols=cols,
        iterations=iterations,
    )
    return {
        "total": [float(v) for v in metrics.total_time],
        "repairs": [int(v) for v in metrics.repair_count],
    }


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Sweep every registered scenario; ratios are paired per trial."""
    scenarios = available_scenarios()
    spec = SweepSpec(
        name="scenrepair",
        cell=_cell,
        axes=(("scenario", scenarios), ("variant", VARIANTS)),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # The repair/none column is paired per trial, which needs the full
        # trial lists — the exact concat reducer.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    result = ExperimentResult(
        name="scenrepair",
        description=(
            f"S2C2 ({N_WORKERS},{COVERAGE}) with vs without the "
            "timeout repair, per straggler scenario"
        ),
        columns=(
            "scenario",
            "with-repair",
            "no-repair",
            "repair/none",
            "repaired-rounds",
        ),
    )
    for scenario in scenarios:
        with_repair = swept.get(scenario=scenario, variant="repair")
        without = swept.get(scenario=scenario, variant="no-repair")
        armed = np.asarray(with_repair["total"])
        bare = np.asarray(without["total"])
        result.add_row(
            scenario,
            trial_mean(armed),
            trial_mean(bare),
            float(np.mean(armed / bare)),
            trial_mean(with_repair["repairs"]),
        )
    result.notes = (
        "expected: no repairs under constant; largest repair benefit where "
        "slowness is abrupt (spot, bursty, volatile traces); repair never "
        "hurts (opportunistic acceptance)"
    )
    return result
