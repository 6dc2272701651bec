"""§6.1 — speed-prediction model comparison (the paper's accuracy "table").

Paper findings on the measured droplet traces (80:20 train/test split):

* the best ARIMA variant is ARIMA(1,0,0) — i.e. AR(1);
* the 4-unit LSTM beats AR(1) by ~5 percentage points of MAPE;
* the LSTM's test MAPE is 16.7%.

We regenerate the comparison on the ``MEASURED`` trace preset, adding the
last-value predictor as the naive floor.  The shape assertions are: AR(1)
is the best ARIMA, and the LSTM is at least as good as AR(1).

Runs as a single-cell sweep; with ``trials > 1`` the MAPEs are averaged
over independently seeded trace generations (and model trainings).  The
trials ride one stacked ``(trials, nodes, length)`` trace tensor: the
naive-floor errors reduce in a single array pass and only the
irreducibly per-seed work — fitting each trial's independent models —
still loops, with trial ``t`` numerically identical to a single-trial run
seeded the same way.
"""

from __future__ import annotations

import numpy as np

from repro.engine import ExecutionEngine, SweepContext, SweepSpec
from repro.experiments.harness import ExperimentResult, trial_mean
from repro.prediction.arima import ARIMA111Model, ARModel
from repro.prediction.lstm import LSTMSpeedModel, MAPE_EPS
from repro.prediction.traces import MEASURED, generate_speed_traces

__all__ = ["run"]

MODELS = ("last-value", "arima-1-0-0", "arima-2-0-0", "arima-1-1-1", "lstm-h4")


def _cell(params: dict, ctx: SweepContext) -> dict:
    """Per-trial test MAPE of every §6.1 forecasting model."""
    n_nodes = 40 if ctx.quick else 100
    length = 250 if ctx.quick else 1000
    split = int(0.8 * n_nodes)  # the paper's 80:20 split
    traces = np.stack(
        [
            generate_speed_traces(n_nodes, length, MEASURED, seed=seed)
            for seed in ctx.seeds
        ]
    )
    train, test = traces[:, :split], traces[:, split:]
    mapes: dict[str, list[float]] = {name: [] for name in MODELS}
    # Naive floor, batched: one relative-error tensor for the whole trial
    # stack (denominator floored like `mape` — preemption-style traces can
    # pin actual speeds at the generator floor).
    rel = np.abs(test[:, :, :-1] - test[:, :, 1:]) / np.maximum(
        test[:, :, 1:], MAPE_EPS
    )
    mapes["last-value"] = [float(rel[t].mean()) for t in range(ctx.trials)]
    for t, seed in enumerate(ctx.seeds):
        mapes["arima-1-0-0"].append(
            ARModel(p=1).fit(train[t]).evaluate_mape(test[t])
        )
        mapes["arima-2-0-0"].append(
            ARModel(p=2).fit(train[t]).evaluate_mape(test[t])
        )
        mapes["arima-1-1-1"].append(
            ARIMA111Model().fit(train[t]).evaluate_mape(test[t])
        )
        lstm_model = LSTMSpeedModel(hidden=4, seed=seed)
        lstm_model.fit(train[t], epochs=400 if ctx.quick else 800, window=40)
        mapes["lstm-h4"].append(lstm_model.evaluate_mape(test[t]))
    return mapes


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """Reproduce the §6.1 model comparison: test MAPE per model."""
    spec = SweepSpec(
        name="sec61",
        cell=_cell,
        axes=(("preset", ("measured",)),),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    mapes = (runner or ExecutionEngine()).run(spec).get(preset="measured")
    result = ExperimentResult(
        name="sec61",
        description="Speed-prediction test MAPE (lower is better)",
        columns=("model", "test-mape"),
    )
    for name in MODELS:
        result.add_row(name, trial_mean(mapes[name]))
    result.notes = (
        "paper: LSTM 16.7% MAPE, ~5 points better than ARIMA(1,0,0), which "
        "is the best ARIMA variant"
    )
    return result
