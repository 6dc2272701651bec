"""The scalar last-value, AR and LSTM predictors as one-trial batch views.

``LastValuePredictor``, ``ARPredictor`` and ``LSTMPredictor`` have no
update/predict code of their own: each is a one-trial view of its
``Batch*`` kernel.  The standalone scalar classes they replaced are frozen
below as the oracle.  A one-trial view, and every row of a many-trial
batch, must reproduce the oracle's forecasts byte for byte — before the
first update and after every one — on streams with NaN holes, including
AR windows still shorter than ``p``.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import check_positive_int
from repro.prediction.arima import ARModel
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import (
    ARPredictor,
    BatchARPredictor,
    BatchLastValuePredictor,
    BatchLSTMPredictor,
    LastValuePredictor,
    LSTMPredictor,
)
from repro.prediction.traces import STABLE, generate_speed_traces


# ---------------------------------------------------------------------------
# The standalone scalar predictors, frozen as the oracle
# ---------------------------------------------------------------------------


def reference_fill_nan_with(values: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    mask = np.isnan(values)
    if mask.any():
        values = values.copy()
        values[mask] = fallback[mask]
    return values


@dataclass
class ReferenceLastValuePredictor:
    """Predict each node's next speed as its last observed speed."""

    n_nodes: int
    initial: float = 1.0
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        self._last = np.full(self.n_nodes, float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != (self.n_nodes,):
            raise ValueError(f"observed must have shape ({self.n_nodes},)")
        self._last = reference_fill_nan_with(observed, self._last)

    def predict(self) -> np.ndarray:
        return self._last.copy()


@dataclass
class ReferenceARPredictor:
    """Online wrapper around a fitted AR(p) model."""

    model: ARModel
    n_nodes: int
    initial: float = 1.0
    _history: list[np.ndarray] = field(init=False, repr=False)
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        if self.model.coef is None:
            raise ValueError("ARPredictor requires a fitted ARModel")
        self._history = []
        self._last = np.full(self.n_nodes, float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != (self.n_nodes,):
            raise ValueError(f"observed must have shape ({self.n_nodes},)")
        self._last = reference_fill_nan_with(observed, self._last)
        self._history.append(self._last.copy())
        if len(self._history) > self.model.p:
            self._history.pop(0)

    def predict(self) -> np.ndarray:
        if len(self._history) < self.model.p:
            return self._last.copy()
        history = np.stack(self._history, axis=1)
        return np.clip(self.model.predict_next(history), 1e-6, None)


@dataclass
class ReferenceLSTMPredictor:
    """Online wrapper around a trained LSTM with per-node recurrent state."""

    model: LSTMSpeedModel
    n_nodes: int
    initial: float = 1.0
    _state: object = field(init=False, repr=False)
    _pred: np.ndarray = field(init=False, repr=False)
    _last: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        self._state = self.model.initial_state(self.n_nodes)
        self._pred = np.full(self.n_nodes, float(self.initial))
        self._last = np.full(self.n_nodes, float(self.initial))

    def update(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=np.float64)
        if observed.shape != (self.n_nodes,):
            raise ValueError(f"observed must have shape ({self.n_nodes},)")
        filled = reference_fill_nan_with(observed, self._last)
        self._last = filled
        self._pred = np.clip(self.model.step(self._state, filled), 1e-6, None)

    def predict(self) -> np.ndarray:
        return self._pred.copy()


# ---------------------------------------------------------------------------
# Models shared by every example
# ---------------------------------------------------------------------------


AR_ORDERS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def models():
    """``kind → list of (reference, view, batch) constructors``."""
    traces = generate_speed_traces(20, 200, STABLE, seed=0)
    trained = LSTMSpeedModel(hidden=4, seed=0)
    trained.fit(generate_speed_traces(16, 120, STABLE, seed=0), epochs=30, window=30)
    untrained = LSTMSpeedModel(hidden=3, seed=1)

    def last_value():
        return (
            lambda n, init: ReferenceLastValuePredictor(n, init),
            lambda n, init: LastValuePredictor(n, init),
            lambda t, n, init: BatchLastValuePredictor(t, n, init),
        )

    def ar(model):
        return (
            lambda n, init: ReferenceARPredictor(model, n, init),
            lambda n, init: ARPredictor(model, n, init),
            lambda t, n, init: BatchARPredictor(model, t, n, init),
        )

    def lstm(model):
        return (
            lambda n, init: ReferenceLSTMPredictor(model, n, init),
            lambda n, init: LSTMPredictor(model, n, init),
            lambda t, n, init: BatchLSTMPredictor(model, t, n, init),
        )

    return {
        "last-value": [last_value()],
        "ar": [
            ar(ARModel(p=p, center=center).fit(traces))
            for p in AR_ORDERS
            for center in (True, False)
        ],
        "lstm": [lstm(trained), lstm(untrained)],
    }


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestOneTrialViews:
    @given(
        kind=st.sampled_from(("last-value", "ar", "lstm")),
        variant=st.integers(0, 7),
        nodes=st.integers(1, 12),
        trials=st.integers(1, 8),
        rounds=st.integers(1, 40),
        nan_rate=st.sampled_from((0.0, 0.1, 0.25, 0.5)),
        initial=st.sampled_from((1.0, 0.5, 2.0, 1e-3)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_views_and_batch_equal_reference_loop(
        self, models, kind, variant, nodes, trials, rounds, nan_rate, initial, seed
    ):
        make_reference, make_view, make_batch = models[kind][
            variant % len(models[kind])
        ]
        references = [make_reference(nodes, initial) for _ in range(trials)]
        views = [make_view(nodes, initial) for _ in range(trials)]
        batch = make_batch(trials, nodes, initial)
        rng = np.random.default_rng(seed)
        stream = rng.uniform(0.02, 1.5, size=(rounds, trials, nodes))
        stream[rng.random(stream.shape) < nan_rate] = np.nan

        def check():
            forecasts = batch.predict()
            assert forecasts.shape == (trials, nodes)
            for t in range(trials):
                want = references[t].predict()
                _assert_same_bytes(views[t].predict(), want)
                _assert_same_bytes(forecasts[t], want)

        for observed in stream:
            check()
            for t in range(trials):
                references[t].update(observed[t])
                views[t].update(observed[t])
            batch.update(observed)
        check()

    def test_views_define_no_update_or_predict(self):
        for cls in (LastValuePredictor, ARPredictor, LSTMPredictor):
            assert "update" not in vars(cls) and "predict" not in vars(cls)

    def test_view_shape_message_unchanged(self, models):
        message = r"^observed must have shape \(2,\)$"
        for kind in models:
            make_reference, make_view, _make_batch = models[kind][0]
            for make in (make_reference, make_view):
                with pytest.raises(ValueError, match=message):
                    make(2, 1.0).update(np.ones(3))
                with pytest.raises(ValueError, match=message):
                    make(2, 1.0).update(np.ones((1, 2)))
