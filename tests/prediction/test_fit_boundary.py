"""Degenerate inputs at the forecasters' fit boundary.

A fit must not train on nothing or on NaN without saying so: each case
below raises a ``ValueError`` naming the offending argument, and an empty
forecast horizon returns the empty result.
"""

import numpy as np
import pytest

from repro.prediction.arima import ARIMA111Model, ARModel
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.traces import STABLE, generate_speed_traces

TRACES = generate_speed_traces(6, 60, STABLE, seed=0)


def _poisoned(value: float) -> np.ndarray:
    series = TRACES.copy()
    series[2, 17] = value
    return series


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


class TestLSTMFit:
    def test_negative_epochs(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            LSTMSpeedModel().fit(TRACES, epochs=-3)

    def test_zero_epochs_train_nothing(self):
        model = LSTMSpeedModel(seed=0)
        params = {k: v.copy() for k, v in model._params.items()}
        assert model.fit(TRACES, epochs=0) == []
        for name, value in params.items():
            np.testing.assert_array_equal(model._params[name], value)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            LSTMSpeedModel().fit(TRACES, epochs=2, batch_size=batch_size)

    @pytest.mark.parametrize("window", [1, 0, -4])
    def test_window_below_two(self, window):
        with pytest.raises(ValueError, match="window must be >= 2"):
            LSTMSpeedModel().fit(TRACES, epochs=2, window=window)

    def test_zero_row_series(self):
        with pytest.raises(ValueError, match="series must have at least one row"):
            LSTMSpeedModel().fit(np.ones((0, 50)), epochs=2)

    @NON_FINITE
    def test_non_finite_series(self, value):
        with pytest.raises(ValueError, match="series must be finite"):
            LSTMSpeedModel().fit(_poisoned(value), epochs=2)


class TestARIMA111Fit:
    @NON_FINITE
    def test_non_finite_series(self, value):
        with pytest.raises(ValueError, match="series must be finite"):
            ARIMA111Model().fit(_poisoned(value))

    def test_zero_row_series(self):
        with pytest.raises(ValueError, match="series must have at least one row"):
            ARIMA111Model().fit(np.ones((0, 50)))

    def test_zero_length_forecast_is_empty(self):
        model = ARIMA111Model().fit(TRACES)
        got = model.predict_series(np.ones((3, 0)))
        want = LSTMSpeedModel().predict_series(np.ones((3, 0)))
        assert got.shape == want.shape == (3, 0)
        assert got.dtype == want.dtype == np.float64


class TestARFit:
    @NON_FINITE
    def test_non_finite_series(self, value, capfd):
        # LAPACK used to print "** On entry to DLASCL" before failing.
        with pytest.raises(ValueError, match="series must be finite"):
            ARModel(p=2).fit(_poisoned(value))
        assert capfd.readouterr() == ("", "")

    def test_zero_row_series(self):
        with pytest.raises(ValueError, match="series must have at least one row"):
            ARModel(p=1).fit(np.ones((0, 50)))
