"""Shared sweep cell for the cloud experiments (Figs 8–11, §7.2).

Setup mirrored from the paper: a 10-worker cloud whose speeds drift
according to generated traces (``STABLE`` → the ~0% mis-prediction
environment of §7.2.1, ``VOLATILE`` → the ~18% environment of §7.2.2);
SVM gradient descent (two mat-vecs per iteration); an LSTM speed predictor
trained on held-out traces; strategies:

* Charm++-like over-decomposition (factor 4, replication 1.42);
* conventional MDS and S2C2 at (8,7), (9,7) and (10,7) — the (9,7) and
  (8,7) variants use only 9 / 8 of the cluster's workers, exactly as a
  smaller code would.

All four cloud figures read from the single :func:`cloud_cell` sweep cell
(one per environment): Figs 8/9 share the low-environment cell and
Figs 10/11 the high one, deduplicated by the engine's run store across
invocations (and by an in-process, run-scoped memo within one —
see :func:`clear_memos`).  The coded strategies simulate every trial at
once through the batched latency engine; the LSTM forecaster is trained
once per environment (on traces disjoint from every replayed trial),
shared across trials, and driven through the natively batched
:class:`~repro.prediction.predictor.BatchLSTMPredictor` — warm-up and all
— so forecasting advances one stacked recurrent step per round instead of
one Python call per trial.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.speed_models import ReplaySpeeds
from repro.engine import (
    ExecutionEngine,
    SweepContext,
    SweepSpec,
    register_run_scoped_cache,
)
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import BatchLSTMPredictor
from repro.prediction.traces import STABLE, VOLATILE, TraceConfig, generate_speed_traces
from repro.scheduling.policies import build_policy

__all__ = [
    "cloud_cell",
    "clear_memos",
    "run_environment",
    "strategy_labels",
    "CODE_VARIANTS",
    "N_WORKERS",
    "MDS_K",
]

N_WORKERS = 10
MDS_K = 7
CODE_VARIANTS = (8, 9, 10)
WARMUP = 12


def strategy_labels() -> list[str]:
    """Every §7.2 strategy label, over-decomposition first."""
    labels = ["over-decomposition"]
    labels += [f"mds-{n}-{MDS_K}" for n in CODE_VARIANTS]
    labels += [f"s2c2-{n}-{MDS_K}" for n in CODE_VARIANTS]
    return labels


#: In-process memos, explicitly keyed and scoped to one sweep run (cleared
#: whenever a :class:`~repro.engine.runner.ExecutionEngine` is built).
#: Module-level ``lru_cache``\ s here used to outlive the sweep: entries
#: persisted for the life of the worker process across unrelated runs and
#: pinned trained LSTMs in memory indefinitely.
#:
#: Under trial-sharded execution the memo also bounds duplicate training:
#: pool workers persist across all shards of a run, so a cell split into
#: many shards trains its shared LSTM at most once per worker process
#: (``min(jobs, shards)`` times), not once per shard — the per-trial
#: simulation is what actually spreads over the pool.
_LSTM_MEMO: dict[tuple, LSTMSpeedModel] = {}
_CELL_MEMO: dict[tuple, dict] = {}


@register_run_scoped_cache
def clear_memos() -> None:
    """Drop the trained-LSTM and shared-cell memos (run-boundary hook)."""
    _LSTM_MEMO.clear()
    _CELL_MEMO.clear()


def _train_lstm(config: TraceConfig, quick: bool, seed: int) -> LSTMSpeedModel:
    """Train the §6.1 LSTM on traces disjoint from the replayed ones."""
    key = (config, quick, seed)
    model = _LSTM_MEMO.get(key)
    if model is None:
        length = 200 if quick else 500
        train = generate_speed_traces(30, length, config, seed=seed + 1000)
        model = LSTMSpeedModel(hidden=4, seed=seed)
        model.fit(train, epochs=80 if quick else 250, window=40)
        _LSTM_MEMO[key] = model
    return model


def _warmed_batch_predictor(
    lstm: LSTMSpeedModel, histories: list[np.ndarray], n: int
) -> BatchLSTMPredictor:
    # The master has speed history before the measured window starts;
    # replay it so the recurrent state is warm (cold-start forecasts
    # would otherwise dominate the short measured runs).  The replay is
    # batched too: one stacked recurrent step per warm-up sample for all
    # trials, evolving each trial exactly as a per-trial warm-up would.
    predictor = BatchLSTMPredictor(lstm, len(histories), n)
    stacked = np.stack([history[:n] for history in histories])
    for t in range(WARMUP):
        predictor.update(stacked[:, :, t])
    return predictor


def run_environment(
    environment: str,
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> dict:
    """Run (or fetch from cache) one environment's strategy suite.

    The sweep convenience the four cloud figures share; returns the
    :func:`cloud_cell` value for the requested environment.  To deduplicate
    the shared cell across figures in one process, pass one ``runner`` to
    all of them (as the CLI does): the in-process memo is scoped to a
    sweep run and cleared whenever a new
    :class:`~repro.engine.runner.ExecutionEngine` is constructed, so
    back-to-back calls that each default ``runner`` recompute unless the
    engine has a run store.
    """
    spec = SweepSpec(
        name=f"cloud-{environment}",
        cell=cloud_cell,
        axes=(("environment", (environment,)),),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Per-trial pairing / trial-resolved shapes: the exact concat
        # reducer (full trial lists), not a streaming summary.
        reducer="concat",
    )
    return (runner or ExecutionEngine()).run(spec).get(environment=environment)


def cloud_cell(params: dict, ctx: SweepContext) -> dict:
    """One environment's full strategy suite, per trial.

    Returns ``{"total": {label: [per-trial]}, "wasted": {label:
    [per-trial per-worker]}, "misprediction": [per-trial]}`` where the
    mis-prediction rate is measured on the S2C2 (10,7) run, as the paper
    reports it.
    """
    return _cloud_cell_memo(params["environment"], ctx)


def _cloud_cell_memo(environment: str, ctx: SweepContext) -> dict:
    key = (environment, ctx)
    value = _CELL_MEMO.get(key)
    if value is None:
        value = _compute_cloud_cell(environment, ctx)
        _CELL_MEMO[key] = value
    return value


def _compute_cloud_cell(environment: str, ctx: SweepContext) -> dict:
    if environment == "low":
        config = STABLE
    elif environment == "high":
        config = VOLATILE
    else:
        raise ValueError("environment must be 'low' or 'high'")
    quick = ctx.quick
    rows, cols = (480, 120) if quick else (2400, 600)
    iterations = 4 if quick else 15
    lstm = _train_lstm(config, quick, ctx.base_seed)

    histories, traces = [], []
    for seed in ctx.seeds:
        full = generate_speed_traces(
            N_WORKERS, WARMUP + 4 * iterations + 4, config, seed=seed
        )
        histories.append(full[:, :WARMUP])
        traces.append(full[:, WARMUP:])

    total: dict[str, list[float]] = {}
    wasted: dict[str, list[list[float]]] = {}

    # Over-decomposition: all trials at once through the batched runner
    # (bitwise-equal to per-trial sessions; the latency never depends on
    # the numeric payload).  Runner construction — here and for the coded
    # strategies below — comes from the policy registry
    # (`repro.scheduling.policies`), the single source of truth the
    # policy × scenario matrix sweeps too; the suite keeps its own trace
    # replay and trained-LSTM forecaster via the runners' `run_batch`.
    over = build_policy("overdecomp", N_WORKERS, MDS_K).run_batch(
        ReplaySpeeds(np.stack(traces)),
        _warmed_batch_predictor(lstm, histories, N_WORKERS),
        rows=rows,
        cols=cols,
        iterations=iterations,
    )
    total["over-decomposition"] = [float(v) for v in over.total_time]
    wasted["over-decomposition"] = over.wasted_fraction_of_assigned().tolist()

    misprediction: list[float] = [0.0] * ctx.trials
    for n in CODE_VARIANTS:
        for label, policy_name in (
            (f"mds-{n}-{MDS_K}", "mds"),
            (f"s2c2-{n}-{MDS_K}", "timeout-repair"),
        ):
            metrics = build_policy(policy_name, n, MDS_K).run_batch(
                ReplaySpeeds(np.stack([tr[:n] for tr in traces])),
                _warmed_batch_predictor(lstm, histories, n),
                rows=rows,
                cols=cols,
                iterations=iterations,
            )
            total[label] = [float(v) for v in metrics.total_time]
            wasted[label] = metrics.wasted_fraction_of_assigned().tolist()
            if label == f"s2c2-{N_WORKERS}-{MDS_K}":
                misprediction = [float(v) for v in metrics.misprediction_rate()]
    return {"total": total, "wasted": wasted, "misprediction": misprediction}
