"""Speed forecasting: trace generation, LSTM, ARIMA, online predictors."""

from repro.prediction.arima import ARIMA111Model, ARModel
from repro.prediction.lstm import LSTMSpeedModel, LSTMState, MAPE_EPS, mape
from repro.prediction.predictor import (
    ARPredictor,
    BatchARPredictor,
    BatchLastValuePredictor,
    BatchLSTMPredictor,
    LastValuePredictor,
    LSTMPredictor,
    OnlinePredictor,
    OraclePredictor,
    StackedPredictor,
    StalePredictor,
    misprediction_rate,
)
from repro.prediction.traces import (
    BURSTY,
    MEASURED,
    STABLE,
    VOLATILE,
    TraceConfig,
    generate_speed_traces,
    regime_length_means,
    regime_lengths,
)

__all__ = [
    "ARIMA111Model",
    "ARModel",
    "ARPredictor",
    "BURSTY",
    "BatchARPredictor",
    "BatchLSTMPredictor",
    "BatchLastValuePredictor",
    "LSTMPredictor",
    "LSTMSpeedModel",
    "LSTMState",
    "LastValuePredictor",
    "MAPE_EPS",
    "MEASURED",
    "OnlinePredictor",
    "OraclePredictor",
    "STABLE",
    "StackedPredictor",
    "StalePredictor",
    "TraceConfig",
    "VOLATILE",
    "generate_speed_traces",
    "mape",
    "misprediction_rate",
    "regime_length_means",
    "regime_lengths",
]
