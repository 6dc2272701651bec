"""Online per-node speed predictors used by the S2C2 master (paper §6.2).

Every iteration the master measures each worker's speed as
``rows_assigned / response_time``, feeds the measurements to a predictor,
and uses the forecast to build the next iteration's work plan.  Workers
that did no work (or were cancelled) yield no measurement — passed as NaN
— and predictors carry their previous estimate forward.

Implementations:

* :class:`LastValuePredictor` — predict the last observation (the naive
  floor every learned model must beat);
* :class:`ARPredictor` — wraps a fitted :class:`~repro.prediction.arima.ARModel`;
* :class:`LSTMPredictor` — wraps a trained
  :class:`~repro.prediction.lstm.LSTMSpeedModel` with per-node recurrent
  state;
* :class:`OraclePredictor` — perfect knowledge of the next iteration's
  speeds (the "knowing the exact speeds" upper bound of Fig 6/7);
* :class:`StalePredictor` — an adversarial oracle that is wrong with a
  configurable probability, used to dial the low/high mis-prediction
  environments in experiments.

Monte-Carlo sweeps run many trials of the prediction-in-the-loop S2C2
control loop at once, so the three model-backed forecasters are written
once, batched: :class:`BatchLastValuePredictor`, :class:`BatchARPredictor`
and :class:`BatchLSTMPredictor` advance a whole ``(trials, nodes)`` state
tensor per round (one kernel call instead of one Python call per trial).
The scalar last-value, AR and LSTM predictors are one-trial views of those
kernels, so a session and trial ``t`` of a sweep run the same code.
:class:`StackedPredictor` loops the predictors that have no batched kernel
(oracle, stale and user-defined ones) over the trials of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro._util import as_rng, check_positive_int, check_probability
from repro.cluster.speed_models import SpeedModel
from repro.prediction.arima import ARModel
from repro.prediction.lstm import LSTMSpeedModel

__all__ = [
    "OnlinePredictor",
    "BatchPredictor",
    "LastValuePredictor",
    "ARPredictor",
    "LSTMPredictor",
    "OraclePredictor",
    "StalePredictor",
    "BatchLastValuePredictor",
    "BatchARPredictor",
    "BatchLSTMPredictor",
    "StackedPredictor",
    "misprediction_rate",
    "conformal_interval",
]


def misprediction_rate(
    predicted: np.ndarray, actual: np.ndarray, tolerance: float = 0.15
) -> float:
    """Fraction of forecasts off by more than ``tolerance`` relatively.

    The paper's timeout slack (15%) doubles as its mis-prediction
    criterion: a forecast is "wrong" when the true speed deviates from it
    by more than the slack the scheduler budgets for.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual must have the same shape")
    if predicted.size == 0:
        return 0.0
    rel = np.abs(predicted - actual) / np.maximum(actual, 1e-12)
    return float(np.mean(rel > tolerance))


def conformal_interval(
    residuals: np.ndarray, predicted: np.ndarray, *, alpha: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Split-conformal prediction band around point speed forecasts.

    Given held-out absolute residuals ``|predicted - actual|`` from past
    iterations, returns ``(lower, upper)`` bounds such that the next true
    speed falls inside with probability ``>= 1 - alpha`` under
    exchangeability — the inductive confidence machine of Papadopoulos et
    al. (ECML '02), model-agnostic, so it wraps the LSTM, AR, and
    last-value predictors alike.  The band half-width is the
    ``ceil((m + 1)(1 - alpha)) / m`` empirical residual quantile (the
    finite-sample correction); lower bounds are clipped to stay positive,
    matching the simulators' positive-speed contract.  ``alpha`` is
    keyword-only: a positional third argument would silently read as a
    mis-coverage level where callers have historically meant a tolerance.
    """
    residuals = np.abs(np.asarray(residuals, dtype=np.float64).ravel())
    residuals = residuals[~np.isnan(residuals)]
    predicted = np.asarray(predicted, dtype=np.float64)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if residuals.size == 0:
        raise ValueError("at least one calibration residual is required")
    m = residuals.size
    rank = int(np.ceil((m + 1) * (1.0 - alpha)))
    if rank > m:
        # Too few calibration points for the requested coverage: the
        # honest finite-sample band is unbounded; fall back to the max
        # residual (the widest empirical statement the data supports).
        rank = m
    width = np.sort(residuals)[rank - 1]
    return np.clip(predicted - width, 1e-12, None), predicted + width


@runtime_checkable
class OnlinePredictor(Protocol):
    """Per-iteration interface: observe measured speeds, forecast the next."""

    def update(self, observed: np.ndarray) -> None:
        """Record this iteration's measurements (NaN = no measurement)."""
        ...

    def predict(self) -> np.ndarray:
        """Forecast the next iteration's per-node speeds."""
        ...


@runtime_checkable
class BatchPredictor(Protocol):
    """Trial-batched predictor: ``(trials, nodes)`` matrices per call."""

    n_trials: int

    def update(self, observed: np.ndarray) -> None:
        """Record measurements for every trial (NaN = no measurement)."""
        ...

    def predict(self) -> np.ndarray:
        """Forecast the next iteration's speeds for every trial."""
        ...


def _fill_nan_with(values: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """A fresh array: ``values`` with each NaN taken from ``fallback``.

    Never the caller's buffer, so a caller reusing it cannot rewrite a
    predictor's state.
    """
    return np.where(np.isnan(values), fallback, values)


def _check_batch_observed(
    observed: np.ndarray, n_trials: int, n_nodes: int
) -> np.ndarray:
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != (n_trials, n_nodes):
        raise ValueError(
            f"observed must have shape ({n_trials}, {n_nodes}), "
            f"got {observed.shape}"
        )
    return observed


# ---------------------------------------------------------------------------
# Batched forecasting kernels
# ---------------------------------------------------------------------------


@dataclass
class BatchLastValuePredictor:
    """Last-value forecasts over a ``(trials, nodes)`` state."""

    n_trials: int
    n_nodes: int
    initial: float = 1.0
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_trials, "n_trials")
        check_positive_int(self.n_nodes, "n_nodes")
        self._last = np.full((self.n_trials, self.n_nodes), float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = _check_batch_observed(observed, self.n_trials, self.n_nodes)
        self._last = _fill_nan_with(observed, self._last)

    def predict(self) -> np.ndarray:
        return self._last.copy()


@dataclass
class BatchARPredictor:
    """AR(p) forecasts for all trials: one regression pass per round.

    All trials share the single fitted :class:`ARModel` (its coefficients
    are read-only at prediction time); the lag window is kept as a
    ``(trials, nodes)`` tensor per lag and the pooled forecast runs as one
    ``(trials * nodes, p)`` regression pass.  Until ``p`` observations
    have arrived the forecast is the last observation.
    """

    model: ARModel
    n_trials: int
    n_nodes: int
    initial: float = 1.0
    _history: list[np.ndarray] = field(init=False, repr=False)
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_trials, "n_trials")
        check_positive_int(self.n_nodes, "n_nodes")
        if self.model.coef is None:
            raise ValueError("model must be a fitted ARModel")
        self._history = []
        self._last = np.full((self.n_trials, self.n_nodes), float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = _check_batch_observed(observed, self.n_trials, self.n_nodes)
        self._last = _fill_nan_with(observed, self._last)
        self._history.append(self._last)
        if len(self._history) > self.model.p:
            self._history.pop(0)

    def predict(self) -> np.ndarray:
        if len(self._history) < self.model.p:
            return self._last.copy()
        history = np.stack(self._history, axis=2)  # (trials, nodes, p)
        flat = history.reshape(self.n_trials * self.n_nodes, -1)
        pred = np.clip(self.model.predict_next(flat), 1e-6, None)
        return pred.reshape(self.n_trials, self.n_nodes)


@dataclass
class BatchLSTMPredictor:
    """LSTM forecasts for all trials: one recurrent step per round.

    All trials share the single trained :class:`LSTMSpeedModel` (its
    weights are read-only at prediction time) while the recurrent state is
    one stacked ``initial_state(trials * nodes)`` tensor, advanced by a
    single :meth:`~repro.prediction.lstm.LSTMSpeedModel.step_stacked` call
    per round.
    """

    model: LSTMSpeedModel
    n_trials: int
    n_nodes: int
    initial: float = 1.0
    _state: object = field(init=False, repr=False)
    _pred: np.ndarray = field(init=False, repr=False)
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_trials, "n_trials")
        check_positive_int(self.n_nodes, "n_nodes")
        shape = (self.n_trials, self.n_nodes)
        self._state = self.model.initial_state(self.n_trials * self.n_nodes)
        self._pred = np.full(shape, float(self.initial))
        self._last = np.full(shape, float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = _check_batch_observed(observed, self.n_trials, self.n_nodes)
        filled = _fill_nan_with(observed, self._last)
        self._last = filled
        self._pred = np.clip(
            self.model.step_stacked(self._state, filled), 1e-6, None
        )

    def predict(self) -> np.ndarray:
        return self._pred.copy()


# ---------------------------------------------------------------------------
# One-trial views: the scalar OnlinePredictor form of each kernel
# ---------------------------------------------------------------------------


class _OneTrialView:
    """Scalar ``update``/``predict`` as row 0 of a one-trial ``_batch``."""

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != (self.n_nodes,):
            raise ValueError(f"observed must have shape ({self.n_nodes},)")
        self._batch.update(observed[None])

    def predict(self) -> np.ndarray:
        return self._batch.predict()[0]


@dataclass
class LastValuePredictor(_OneTrialView):
    """Predict each node's next speed as its last observed speed.

    One-trial view of :class:`BatchLastValuePredictor`.
    """

    n_nodes: int
    initial: float = 1.0
    _batch: BatchLastValuePredictor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._batch = BatchLastValuePredictor(1, self.n_nodes, self.initial)


@dataclass
class ARPredictor(_OneTrialView):
    """Online wrapper around a fitted AR(p) model.

    One-trial view of :class:`BatchARPredictor`.
    """

    model: ARModel
    n_nodes: int
    initial: float = 1.0
    _batch: BatchARPredictor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._batch = BatchARPredictor(self.model, 1, self.n_nodes, self.initial)


@dataclass
class LSTMPredictor(_OneTrialView):
    """Online wrapper around a trained LSTM with per-node recurrent state.

    One-trial view of :class:`BatchLSTMPredictor`.
    """

    model: LSTMSpeedModel
    n_nodes: int
    initial: float = 1.0
    _batch: BatchLSTMPredictor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._batch = BatchLSTMPredictor(self.model, 1, self.n_nodes, self.initial)


@dataclass
class OraclePredictor:
    """Perfect next-iteration prediction ("knowing the exact speeds").

    Wraps the experiment's speed model; :meth:`predict` returns the true
    speeds of the iteration about to execute.  The iteration counter
    advances on :meth:`update`, mirroring the measured-feedback loop.
    """

    speed_model: SpeedModel
    _iteration: int = field(init=False, default=0)

    def update(self, observed: np.ndarray) -> None:
        if np.shape(observed) != (self.speed_model.n_workers,):
            raise ValueError("observed must have shape (n,)")
        self._iteration += 1

    def predict(self) -> np.ndarray:
        return np.asarray(self.speed_model.speeds(self._iteration), dtype=np.float64)


@dataclass
class StalePredictor:
    """Oracle corrupted with probability ``miss_rate`` per node-iteration.

    Missed nodes get a forecast drawn from their *previous* iteration's
    speed (exactly the failure mode of real forecasters at regime
    boundaries).  Used to construct controlled low/high mis-prediction
    environments without retraining models.
    """

    speed_model: SpeedModel
    miss_rate: float = 0.15
    seed: int | None = 0
    _iteration: int = field(init=False, default=0)
    _rng: np.random.Generator = field(init=False, repr=False)
    _prev: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        check_probability(self.miss_rate, "miss_rate")
        self._rng = as_rng(self.seed)

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != (self.speed_model.n_workers,):
            raise ValueError("observed must have shape (n,)")
        self._prev = observed.copy()
        self._iteration += 1

    def predict(self) -> np.ndarray:
        truth = np.asarray(
            self.speed_model.speeds(self._iteration), dtype=np.float64
        )
        if self._prev is None or self.miss_rate == 0.0:
            return truth
        prev = np.where(np.isnan(self._prev), truth, self._prev)
        missed = self._rng.random(truth.size) < self.miss_rate
        return np.where(missed, prev, truth)


@dataclass
class StackedPredictor:
    """Batch adapter: one independent :class:`OnlinePredictor` per trial.

    Trial ``t`` of the batch evolves exactly as ``predictors[t]`` would in
    a single-trial run — including its private RNG and recurrent state — so
    batched Monte-Carlo runs are comparable point-for-point with per-trial
    loops.  Each ``update``/``predict`` is a Python loop over the trials:
    the adapter is for predictors without a batched kernel (the oracle,
    stale and user-defined ones).  Last-value, AR and LSTM forecasting
    should build :class:`BatchLastValuePredictor`, :class:`BatchARPredictor`
    or :class:`BatchLSTMPredictor` directly, which advance every trial in
    one call.
    """

    predictors: tuple[OnlinePredictor, ...]

    def __post_init__(self) -> None:
        self.predictors = tuple(self.predictors)
        if not self.predictors:
            raise ValueError("at least one predictor is required")

    @property
    def n_trials(self) -> int:
        return len(self.predictors)

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.ndim != 2 or observed.shape[0] != self.n_trials:
            raise ValueError(
                f"observed must have shape ({self.n_trials}, nodes), "
                f"got {observed.shape}"
            )
        for t, predictor in enumerate(self.predictors):
            predictor.update(observed[t])

    def predict(self) -> np.ndarray:
        return np.stack([p.predict() for p in self.predictors])
