"""Tests for the online predictor wrappers."""

import numpy as np
import pytest

from repro.cluster.speed_models import ConstantSpeeds, TraceSpeeds
from repro.prediction.arima import ARModel
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import (
    ARPredictor,
    BatchARPredictor,
    BatchLastValuePredictor,
    BatchLSTMPredictor,
    BatchPredictor,
    LastValuePredictor,
    LSTMPredictor,
    OnlinePredictor,
    OraclePredictor,
    StackedPredictor,
    StalePredictor,
    conformal_interval,
    misprediction_rate,
)
from repro.prediction.traces import STABLE, generate_speed_traces


@pytest.fixture(scope="module")
def ar_model():
    return ARModel(p=2).fit(generate_speed_traces(20, 200, STABLE, seed=0))


@pytest.fixture(scope="module")
def lstm_model():
    model = LSTMSpeedModel(hidden=4, seed=0)
    model.fit(generate_speed_traces(16, 120, STABLE, seed=0), epochs=30, window=30)
    return model


class TestMispredictionRate:
    def test_zero_when_exact(self):
        assert misprediction_rate(np.ones(5), np.ones(5)) == 0.0

    def test_counts_beyond_tolerance(self):
        pred = np.array([1.0, 1.0, 1.0, 1.0])
        actual = np.array([1.0, 1.1, 1.3, 0.5])
        assert misprediction_rate(pred, actual, tolerance=0.15) == pytest.approx(0.5)

    def test_empty(self):
        assert misprediction_rate(np.empty(0), np.empty(0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            misprediction_rate(np.ones(2), np.ones(3))


class TestConformalInterval:
    def test_width_is_finite_sample_residual_quantile(self):
        # m=9 residuals 1..9, alpha=0.1: rank = ceil(10*0.9) = 9 → width 9.
        residuals = np.arange(1.0, 10.0)
        lower, upper = conformal_interval(residuals, np.array([20.0]), alpha=0.1)
        assert upper[0] == 29.0 and lower[0] == 11.0
        # alpha=0.5: rank = ceil(10*0.5) = 5 → width 5 (the median).
        lower, upper = conformal_interval(residuals, np.array([20.0]), alpha=0.5)
        assert upper[0] == 25.0 and lower[0] == 15.0

    def test_band_is_symmetric_and_clipped_positive(self):
        predicted = np.array([0.05, 1.0, 2.0])
        lower, upper = conformal_interval(np.array([0.5]), predicted, alpha=0.2)
        np.testing.assert_allclose(upper, predicted + 0.5)
        assert lower[0] > 0  # 0.05 - 0.5 clips to the positive floor
        np.testing.assert_allclose(lower[1:], predicted[1:] - 0.5)

    def test_few_residuals_fall_back_to_max(self):
        # m=2, alpha=0.1: rank 3 > m, so the widest honest band (max
        # residual) is used rather than an out-of-range quantile.
        lower, upper = conformal_interval(
            np.array([0.1, 0.4]), np.array([1.0]), alpha=0.1
        )
        assert upper[0] == 1.4

    def test_nan_residuals_ignored_and_sign_irrelevant(self):
        lower, upper = conformal_interval(
            np.array([np.nan, -0.3, 0.2, np.nan]), np.array([1.0]), alpha=0.5
        )
        # |−0.3| and 0.2 survive; m=2, alpha=0.5 → rank ceil(3·0.5)=2 → 0.3.
        assert upper[0] == 1.3

    def test_empirical_coverage(self):
        # The guarantee the band exists for: >= 1 - alpha coverage under
        # exchangeable residuals.
        rng = np.random.default_rng(0)
        actual = rng.uniform(0.3, 1.0, size=500)
        predicted = actual + rng.normal(0, 0.05, size=500)
        calib_res = predicted[:250] - actual[:250]
        lower, upper = conformal_interval(calib_res, predicted[250:], alpha=0.1)
        covered = (actual[250:] >= lower) & (actual[250:] <= upper)
        assert covered.mean() >= 0.9

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            conformal_interval(np.array([0.1]), np.array([1.0]), alpha=1.5)
        with pytest.raises(ValueError, match="residual"):
            # All-NaN residuals leave no calibration data after filtering.
            conformal_interval(np.full(5, np.nan), np.array([1.0]))

    def test_alpha_is_keyword_only(self):
        # A positional third argument historically read as a tolerance in
        # sibling helpers; passing it positionally must be a hard error.
        with pytest.raises(TypeError):
            conformal_interval(np.array([0.1]), np.array([1.0]), 0.1)

    def test_single_residual_rank_overflow_falls_back_to_max(self):
        # m=1, alpha=0.1: rank ceil(2·0.9)=2 > m → the lone residual is the
        # widest honest band.
        lower, upper = conformal_interval(
            np.array([0.25]), np.array([1.0]), alpha=0.1
        )
        assert upper[0] == 1.25
        assert lower[0] == 0.75


class TestLastValuePredictor:
    def test_initial_prediction(self):
        pred = LastValuePredictor(3, initial=2.0)
        np.testing.assert_array_equal(pred.predict(), [2.0, 2.0, 2.0])

    def test_tracks_observations(self):
        pred = LastValuePredictor(2)
        pred.update(np.array([0.5, 1.5]))
        np.testing.assert_array_equal(pred.predict(), [0.5, 1.5])

    def test_nan_carries_forward(self):
        pred = LastValuePredictor(2)
        pred.update(np.array([0.5, 1.5]))
        pred.update(np.array([np.nan, 2.0]))
        np.testing.assert_array_equal(pred.predict(), [0.5, 2.0])

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            LastValuePredictor(2).update(np.ones(3))

    def test_protocol(self):
        assert isinstance(LastValuePredictor(2), OnlinePredictor)


class TestOraclePredictor:
    def test_predicts_next_iteration_exactly(self):
        traces = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        oracle = OraclePredictor(TraceSpeeds(traces))
        np.testing.assert_array_equal(oracle.predict(), [1.0, 4.0])
        oracle.update(np.array([1.0, 4.0]))
        np.testing.assert_array_equal(oracle.predict(), [2.0, 5.0])

    def test_protocol(self):
        assert isinstance(OraclePredictor(ConstantSpeeds(np.ones(2))), OnlinePredictor)

    def test_validation(self):
        traces = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        oracle = OraclePredictor(TraceSpeeds(traces))
        with pytest.raises(ValueError, match=r"observed must have shape \(n,\)"):
            oracle.update(np.array([0.5]))
        with pytest.raises(ValueError, match="shape"):
            oracle.update(np.ones((1, 3)))
        # A rejected observation does not advance the iteration.
        np.testing.assert_array_equal(oracle.predict(), [1.0, 3.0, 5.0])


class TestStalePredictor:
    def test_zero_miss_rate_is_oracle(self):
        traces = np.array([[1.0, 2.0, 3.0]])
        stale = StalePredictor(TraceSpeeds(traces), miss_rate=0.0)
        oracle = OraclePredictor(TraceSpeeds(traces))
        for _ in range(3):
            np.testing.assert_array_equal(stale.predict(), oracle.predict())
            stale.update(stale.predict())
            oracle.update(oracle.predict())

    def test_full_miss_rate_is_last_value(self):
        traces = np.array([[1.0, 2.0, 3.0]])
        stale = StalePredictor(TraceSpeeds(traces), miss_rate=1.0, seed=0)
        stale.update(np.array([1.0]))
        np.testing.assert_array_equal(stale.predict(), [1.0])

    def test_miss_rate_statistics(self):
        model = TraceSpeeds(generate_speed_traces(50, 100, STABLE, seed=0))
        stale = StalePredictor(model, miss_rate=0.3, seed=1)
        stale.update(model.speeds(0))
        misses = 0
        total = 0
        for it in range(1, 50):
            pred = stale.predict()
            truth = model.speeds(it)
            misses += int(np.sum(pred != truth))
            total += truth.size
            stale.update(truth)
        assert 0.2 < misses / total < 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            StalePredictor(ConstantSpeeds(np.ones(2)), miss_rate=1.5)
        stale = StalePredictor(TraceSpeeds(np.ones((3, 3))), miss_rate=1.0)
        with pytest.raises(ValueError, match=r"observed must have shape \(n,\)"):
            stale.update(np.array([0.5]))
        with pytest.raises(ValueError, match="shape"):
            stale.update(np.ones((1, 3)))
        np.testing.assert_array_equal(stale.predict(), np.ones(3))


class TestARPredictor:
    def make(self, n=4):
        traces = generate_speed_traces(20, 200, STABLE, seed=0)
        model = ARModel(p=1).fit(traces)
        return ARPredictor(model, n)

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError, match="fitted"):
            ARPredictor(ARModel(), 3)

    def test_initial_prediction(self):
        pred = self.make()
        assert pred.predict().shape == (4,)

    def test_prediction_positive(self):
        pred = self.make()
        pred.update(np.full(4, 0.8))
        assert np.all(pred.predict() > 0)

    def test_tracks_level(self):
        pred = self.make()
        for _ in range(5):
            pred.update(np.full(4, 0.6))
        np.testing.assert_allclose(pred.predict(), 0.6, atol=0.15)

    def test_nan_handling(self):
        pred = self.make(2)
        pred.update(np.array([0.9, np.nan]))
        assert np.all(np.isfinite(pred.predict()))


class TestLSTMPredictor:
    def make(self, n=3):
        traces = generate_speed_traces(16, 120, STABLE, seed=0)
        model = LSTMSpeedModel(hidden=4, seed=0)
        model.fit(traces, epochs=40, window=30)
        return LSTMPredictor(model, n)

    def test_initial_prediction(self):
        pred = self.make()
        np.testing.assert_array_equal(pred.predict(), [1.0, 1.0, 1.0])

    def test_updates_change_prediction(self):
        pred = self.make()
        before = pred.predict()
        pred.update(np.array([0.5, 0.8, 1.0]))
        after = pred.predict()
        assert not np.array_equal(before, after)

    def test_prediction_positive(self):
        pred = self.make()
        for _ in range(10):
            pred.update(np.array([0.1, 0.5, 1.0]))
        assert np.all(pred.predict() > 0)

    def test_nan_handling(self):
        pred = self.make(2)
        pred.update(np.array([0.9, np.nan]))
        assert np.all(np.isfinite(pred.predict()))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            self.make(2).update(np.ones(5))


def _observation_stream(trials, nodes, rounds, seed=0, nan_rate=0.2):
    """Random speeds with NaN holes (workers that did no work)."""
    rng = np.random.default_rng(seed)
    obs = rng.uniform(0.02, 1.0, size=(rounds, trials, nodes))
    obs[rng.random(obs.shape) < nan_rate] = np.nan
    return obs


class TestBatchPredictors:
    """Batched kernels vs per-trial scalar predictors: point-for-point."""

    TRIALS, NODES, ROUNDS = 6, 5, 12

    def _pairs(self, ar_model, lstm_model):
        return [
            (
                lambda: LastValuePredictor(self.NODES),
                BatchLastValuePredictor(self.TRIALS, self.NODES),
            ),
            (
                lambda: ARPredictor(ar_model, self.NODES),
                BatchARPredictor(ar_model, self.TRIALS, self.NODES),
            ),
            (
                lambda: LSTMPredictor(lstm_model, self.NODES),
                BatchLSTMPredictor(lstm_model, self.TRIALS, self.NODES),
            ),
        ]

    def test_matches_scalar_loop_exactly(self, ar_model, lstm_model):
        for make_scalar, batch in self._pairs(ar_model, lstm_model):
            scalars = [make_scalar() for _ in range(self.TRIALS)]
            stream = _observation_stream(self.TRIALS, self.NODES, self.ROUNDS)
            for observed in stream:
                expected = np.stack([p.predict() for p in scalars])
                np.testing.assert_array_equal(batch.predict(), expected)
                batch.update(observed)
                for t, predictor in enumerate(scalars):
                    predictor.update(observed[t])
            expected = np.stack([p.predict() for p in scalars])
            np.testing.assert_array_equal(batch.predict(), expected)

    def test_satisfies_protocols(self, ar_model, lstm_model):
        for _make_scalar, batch in self._pairs(ar_model, lstm_model):
            assert isinstance(batch, BatchPredictor)

    def test_shape_validated(self, ar_model, lstm_model):
        for _make_scalar, batch in self._pairs(ar_model, lstm_model):
            with pytest.raises(ValueError, match="shape"):
                batch.update(np.ones(self.NODES))
            with pytest.raises(ValueError, match="shape"):
                batch.update(np.ones((self.TRIALS + 1, self.NODES)))
            with pytest.raises(ValueError, match="shape"):
                batch.update(np.ones((self.TRIALS, self.NODES + 2)))

    def test_unfitted_ar_model_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            BatchARPredictor(ARModel(), 2, 3)

    def test_counts_validated(self, lstm_model):
        with pytest.raises(ValueError):
            BatchLastValuePredictor(0, 3)
        with pytest.raises(ValueError):
            BatchLSTMPredictor(lstm_model, 2, 0)


#: Each built-in model in its one-trial view and its batch form.
_FORMS = {
    "last-value-view": lambda ar, lstm: LastValuePredictor(3),
    "last-value-batch": lambda ar, lstm: BatchLastValuePredictor(2, 3),
    "ar-view": lambda ar, lstm: ARPredictor(ar, 3),
    "ar-batch": lambda ar, lstm: BatchARPredictor(ar, 2, 3),
    "lstm-view": lambda ar, lstm: LSTMPredictor(lstm, 3),
    "lstm-batch": lambda ar, lstm: BatchLSTMPredictor(lstm, 2, 3),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_caller_buffer_not_aliased(form, ar_model, lstm_model):
    # A caller that rewrites its observation buffer after update() must
    # not reach the predictor's state: each form tracks a twin fed
    # private copies, through an all-NaN round that falls back on the
    # remembered observation.
    reused = _FORMS[form](ar_model, lstm_model)
    fresh = _FORMS[form](ar_model, lstm_model)
    shape = fresh.predict().shape
    rng = np.random.default_rng(0)
    rounds = [rng.uniform(0.1, 1.0, shape) for _ in range(3)]
    for observed in rounds + [np.full(shape, np.nan)]:
        buffer = observed.copy()
        reused.update(buffer)
        fresh.update(observed.copy())
        buffer[...] = 9.0
        np.testing.assert_array_equal(reused.predict(), fresh.predict())


class TestStackedPredictor:
    TRIALS, NODES, ROUNDS = 3, 4, 10

    def _traces(self, trial):
        rng = np.random.default_rng(trial)
        return rng.uniform(0.1, 1.0, size=(self.NODES, self.ROUNDS + 1))

    def _predictors(self):
        """Oracle, stale and stale-at-full-miss predictors, one per trial."""
        return [
            OraclePredictor(TraceSpeeds(self._traces(0))),
            StalePredictor(TraceSpeeds(self._traces(1)), miss_rate=0.4, seed=1),
            StalePredictor(TraceSpeeds(self._traces(2)), miss_rate=1.0, seed=2),
        ]

    def test_stack_equals_each_predictor_alone(self):
        stack = StackedPredictor(self._predictors())
        alone = self._predictors()
        stream = _observation_stream(self.TRIALS, self.NODES, self.ROUNDS, seed=3)
        for observed in stream:
            forecasts = stack.predict()
            assert forecasts.shape == (self.TRIALS, self.NODES)
            for t, predictor in enumerate(alone):
                assert forecasts[t].tobytes() == predictor.predict().tobytes()
            stack.update(observed)
            for t, predictor in enumerate(alone):
                predictor.update(observed[t])
        np.testing.assert_array_equal(
            stack.predict(), np.stack([p.predict() for p in alone])
        )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StackedPredictor(())

    def test_update_shape_validation(self):
        stack = StackedPredictor([LastValuePredictor(3) for _ in range(2)])
        with pytest.raises(ValueError, match="shape"):
            stack.update(np.ones(3))  # 1-D
        with pytest.raises(ValueError, match="shape"):
            stack.update(np.ones((4, 3)))  # wrong trial count
        with pytest.raises(ValueError, match="shape"):
            stack.update(np.ones((2, 5)))  # wrong node count
