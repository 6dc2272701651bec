"""Ablation: predictor choice under S2C2 (oracle / LSTM / last-value / stale).

This bench runs the same S2C2 configuration on identical cloud traces with
four predictors and checks the property the paper's design relies on: the
oracle is the latency floor, and every reasonable online forecaster (warm
LSTM, last-value, even a 50%-stale oracle) lands close to it on
regime-like traces — slack squeezing does not hinge on exotic forecasting,
which is why the paper's 4-unit LSTM suffices.
"""

import numpy as np

from repro.apps.datasets import make_classification
from repro.cluster.speed_models import TraceSpeeds
from repro.coding.mds import MDSCode
from repro.experiments.harness import controlled_cost, controlled_network
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import (
    LastValuePredictor,
    LSTMPredictor,
    OraclePredictor,
    StalePredictor,
)
from repro.prediction.traces import MEASURED, generate_speed_traces
from repro.runtime import CodedSession
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

N, K = 10, 7
ITERATIONS = 6


def _sweep() -> dict[str, float]:
    matrix, _ = make_classification(480, 120, seed=0)
    warmup = 12
    full = generate_speed_traces(N, warmup + 4 * ITERATIONS + 4, MEASURED, seed=0)
    history, traces = full[:, :warmup], full[:, warmup:]
    lstm_model = LSTMSpeedModel(hidden=4, seed=0)
    lstm_model.fit(
        generate_speed_traces(30, 250, MEASURED, seed=1000), epochs=150, window=40
    )

    def warmed(predictor):
        # Online predictors see the pre-run history, as a deployed master
        # would (matches the cloud experiments' warm-up).
        for t in range(warmup):
            predictor.update(history[:, t])
        return predictor

    predictors = {
        "oracle": lambda: OraclePredictor(speed_model=TraceSpeeds(traces)),
        "lstm": lambda: warmed(LSTMPredictor(lstm_model, N)),
        "last-value": lambda: warmed(LastValuePredictor(N)),
        "stale-50%": lambda: StalePredictor(
            speed_model=TraceSpeeds(traces), miss_rate=0.5, seed=0
        ),
    }
    times = {}
    for name, factory in predictors.items():
        session = CodedSession(
            speed_model=TraceSpeeds(traces),
            predictor=factory(),
            network=controlled_network(),
            cost=controlled_cost(),
            timeout=TimeoutPolicy(),
        )
        scheduler = GeneralS2C2Scheduler(coverage=K, num_chunks=10_000)
        session.register_matvec("A", matrix, MDSCode(N, K), scheduler)
        session.register_matvec("At", matrix.T, MDSCode(N, K), scheduler)
        # The LR-like 'A then Aᵀ' rounds on a normalised random start.
        x = np.random.default_rng(0).normal(size=matrix.shape[1])
        for _ in range(ITERATIONS):
            y = session.matvec("A", x)
            x = session.matvec("At", y / max(1.0, np.abs(y).max()))
            x = x / max(1.0, np.abs(x).max())
        times[name] = session.metrics.total_time[0]
    return times


def test_ablation_predictor_choice(once):
    times = once(_sweep)
    print()
    base = times["oracle"]
    for name, t in sorted(times.items(), key=lambda kv: kv[1]):
        print(f"  {name:12s} total = {t * 1e3:8.2f} ms  ({t / base:.3f}x oracle)")
    # Perfect prediction is the floor (small tolerance for repair noise).
    assert times["oracle"] <= min(times.values()) * 1.05
    # Every realistic predictor lands within ~20% of the oracle on these
    # regime-like traces — the slack-squeeze gain does not hinge on exotic
    # forecasting, which is exactly why the paper's tiny LSTM suffices.
    for name, t in times.items():
        assert t <= times["oracle"] * 1.2, name
