"""Figure 3 — storage overhead of prediction-driven *uncoded* computation.

Paper setup: 270 LR gradient-descent iterations on 12 workers; the uncoded
strategy assigns work proportional to (perfectly predicted) speeds every
iteration, and any row newly assigned to a node must be stored there.  The
measured effective storage converges to ~67% of the full data per node,
versus a constant 10% for S2C2 on a (12,10) code.

We reproduce the curve with the same mechanism: per-iteration
speed-proportional contiguous row allocation (kept in worker order to
*favour* the uncoded baseline with maximal locality) over cloud-like
drifting speeds, tracking the cumulative union per node with
:class:`~repro.runtime.metrics.StorageTracker`.
"""

from __future__ import annotations

import numpy as np

from repro._util import largest_remainder_round
from repro.cluster.speed_models import TraceSpeeds
from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import ExperimentResult
from repro.prediction.traces import VOLATILE, generate_speed_traces
from repro.runtime.metrics import StorageTracker

__all__ = ["run", "uncoded_storage_curve"]

N_WORKERS = 12
MDS_K = 10


def uncoded_storage_curve(
    speeds_model: TraceSpeeds,
    total_rows: int,
    iterations: int,
    locality: bool = False,
) -> np.ndarray:
    """Mean effective-storage fraction per iteration for the uncoded scheme.

    With ``locality=False`` (default, matching §3.2's "assign workload
    optimally based on the predicted speeds"), workers receive contiguous
    spans in descending-speed order, as a speed-optimal packer does — the
    spans shuffle whenever the speed ranking changes.  ``locality=True``
    keeps workers in fixed order, the most storage-friendly variant
    (a lower bound on the uncoded scheme's storage growth).
    """
    tracker = StorageTracker(speeds_model.n_workers, total_rows)
    n = speeds_model.n_workers
    for it in range(iterations):
        speeds = speeds_model.speeds(it)
        shares = largest_remainder_round(speeds, total_rows)
        order = np.argsort(-speeds, kind="stable") if not locality else np.arange(n)
        cursor = 0
        assignment = {}
        for w in order:
            assignment[int(w)] = np.arange(
                cursor, cursor + shares[w], dtype=np.int64
            )
            cursor += int(shares[w])
        tracker.record_iteration(assignment)
    return tracker.history()


def _cell(params: dict, ctx: SweepContext) -> dict:
    """Per-trial storage curves for one allocator locality setting."""
    iterations = 90 if ctx.quick else 270
    total_rows = 1200
    curves = []
    for seed in ctx.seeds:
        traces = generate_speed_traces(N_WORKERS, iterations, VOLATILE, seed=seed)
        curves.append(
            uncoded_storage_curve(
                TraceSpeeds(traces),
                total_rows,
                iterations,
                locality=params["locality"],
            ).tolist()
        )
    return {"curves": curves}


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce Fig 3: mean storage fraction per node over GD iterations."""
    iterations = 90 if quick else 270
    spec = SweepSpec(
        name="fig03",
        cell=_cell,
        axes=(("locality", (False, True)),),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    optimal = np.asarray(swept.get(locality=False)["curves"]).mean(axis=0)
    friendly = np.asarray(swept.get(locality=True)["curves"]).mean(axis=0)
    s2c2_fraction = 1.0 / MDS_K  # encoded partition size, constant
    result = ExperimentResult(
        name="fig03",
        description="Mean effective storage per node over GD iterations",
        columns=("iteration", "uncoded-optimal", "uncoded-locality", "s2c2-12-10"),
    )
    checkpoints = [0, iterations // 4, iterations // 2, iterations - 1]
    for it in checkpoints:
        result.add_row(
            f"iter{it + 1}", float(optimal[it]), float(friendly[it]), s2c2_fraction
        )
    result.notes = (
        f"uncoded needs {friendly[-1]:.0%}–{optimal[-1]:.0%} of the data per "
        f"node depending on allocator locality (paper measured 67%); S2C2 "
        f"stays at 1/k = {s2c2_fraction:.0%} (paper: 10%)"
    )
    return result
