"""Tests for the NumPy LSTM speed model."""

import numpy as np
import pytest

from repro.prediction.lstm import LSTMSpeedModel, MAPE_EPS, mape
from repro.prediction.traces import STABLE, generate_speed_traces


class TestMape:
    def test_zero_error(self):
        assert mape(np.ones(5), np.ones(5)) == 0.0

    def test_known_value(self):
        assert mape(np.array([1.1]), np.array([1.0])) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mape(np.ones(3), np.ones(4))

    def test_negative_actual_rejected(self):
        with pytest.raises(ValueError):
            mape(np.ones(2), np.array([1.0, -0.5]))

    def test_zero_actual_floored_not_fatal(self):
        # Exact zeros used to raise; now the denominator floor bounds them.
        value = mape(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value)
        assert value == pytest.approx((0.0 + 1.0 / MAPE_EPS) / 2)

    def test_eps_validated(self):
        with pytest.raises(ValueError, match="eps"):
            mape(np.ones(2), np.ones(2), eps=0.0)

    def test_ordinary_traces_unaffected_by_floor(self):
        # Generator speed floors sit far above MAPE_EPS, so the floored
        # denominator is bit-for-bit the plain division on normal traces.
        traces = generate_speed_traces(4, 60, STABLE, seed=0)
        predicted, actual = traces[:, :-1], traces[:, 1:]
        assert mape(predicted, actual) == float(
            np.mean(np.abs(predicted - actual) / actual)
        )

    def test_spot_preemption_regression(self):
        # Regression for the spot-scenario blow-up: preempted rounds floor
        # actual speeds near zero, and the one bad round used to dominate
        # the sec61/fig02-style tables with astronomical values.  With the
        # floored denominator the MAPE stays bounded by the scenario's own
        # speed floor.
        from repro.cluster.scenarios import scenario_speed_model

        model = scenario_speed_model(
            "spot", 8, seed=3, preempt_prob=0.5, restore_prob=0.2
        )
        actual = np.stack([model.speeds(i) for i in range(30)], axis=1)
        assert (actual < 0.1).any(), "scenario should preempt some workers"
        value = mape(np.ones_like(actual), actual)
        assert np.isfinite(value)
        assert value < (1.0 - 0.02) / 0.02  # bounded by the 0.02 floor


class TestLSTMSpeedModel:
    def test_forward_shapes(self):
        model = LSTMSpeedModel(hidden=4, seed=0)
        preds = model.predict_series(np.random.default_rng(0).uniform(0.5, 1, (3, 10)))
        assert preds.shape == (3, 10)

    def test_training_reduces_loss(self):
        traces = generate_speed_traces(20, 200, STABLE, seed=0)
        model = LSTMSpeedModel(hidden=4, seed=0)
        losses = model.fit(traces, epochs=80, window=30, batch_size=32)
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 0.5

    def test_trained_model_beats_untrained(self):
        traces = generate_speed_traces(30, 300, STABLE, seed=1)
        train, test = traces[:24], traces[24:]
        trained = LSTMSpeedModel(hidden=4, seed=0)
        trained.fit(train, epochs=150, window=40)
        untrained = LSTMSpeedModel(hidden=4, seed=0)
        assert trained.evaluate_mape(test) < untrained.evaluate_mape(test)

    def test_trained_mape_reasonable_on_stable_traces(self):
        traces = generate_speed_traces(30, 300, STABLE, seed=2)
        model = LSTMSpeedModel(hidden=4, seed=0)
        model.fit(traces[:24], epochs=200, window=40)
        assert model.evaluate_mape(traces[24:]) < 0.15

    def test_online_step_matches_batch_forward(self):
        traces = generate_speed_traces(3, 20, STABLE, seed=3)
        model = LSTMSpeedModel(hidden=4, seed=1)
        batch_preds = model.predict_series(traces)
        state = model.initial_state(3)
        online = np.stack(
            [model.step(state, traces[:, t]) for t in range(20)], axis=1
        )
        np.testing.assert_allclose(online, batch_preds, atol=1e-12)

    def test_step_shape_validation(self):
        model = LSTMSpeedModel(hidden=4)
        state = model.initial_state(3)
        with pytest.raises(ValueError):
            model.step(state, np.ones(4))

    @pytest.mark.parametrize(
        "nodes, hidden, rounds", [(3, 4, 6), (1, 4, 40), (1, 1, 40)]
    )
    def test_step_stacked_matches_independent_states(self, nodes, hidden, rounds):
        # One (trials * nodes) stacked state must evolve row (t, n) exactly
        # as node n of an independent per-trial state would.  One node
        # included: its one-row step must not take BLAS's matrix-vector
        # kernel, which rounds unlike the stack's matrix-matrix one.
        trials = 4
        traces = generate_speed_traces(trials * nodes, rounds, STABLE, seed=5)
        model = LSTMSpeedModel(hidden=hidden, seed=1)
        model.fit(traces, epochs=3, window=20)
        stacked_state = model.initial_state(trials * nodes)
        states = [model.initial_state(nodes) for _ in range(trials)]
        for r in range(rounds):
            x = traces[:, r].reshape(trials, nodes)
            stacked = model.step_stacked(stacked_state, x)
            scalar = np.stack(
                [model.step(states[t], x[t]) for t in range(trials)]
            )
            assert stacked.tobytes() == scalar.tobytes(), r
            assert stacked.shape == (trials, nodes)
        for t, state in enumerate(states):
            rows = slice(t * nodes, (t + 1) * nodes)
            assert state.h.shape == state.c.shape == (nodes, hidden)
            assert state.h.tobytes() == stacked_state.h[rows].tobytes()
            assert state.c.tobytes() == stacked_state.c[rows].tobytes()

    def test_step_stacked_requires_2d(self):
        model = LSTMSpeedModel(hidden=4)
        state = model.initial_state(6)
        with pytest.raises(ValueError, match="2-D"):
            model.step_stacked(state, np.ones(6))

    def test_fit_validates_input(self):
        model = LSTMSpeedModel()
        with pytest.raises(ValueError, match="2-D"):
            model.fit(np.ones(10))
        with pytest.raises(ValueError, match="short"):
            model.fit(np.ones((2, 1)))

    def test_hidden_dim_validated(self):
        with pytest.raises(ValueError):
            LSTMSpeedModel(hidden=0)

    def test_deterministic_given_seed(self):
        traces = generate_speed_traces(5, 60, STABLE, seed=4)
        a = LSTMSpeedModel(seed=9)
        b = LSTMSpeedModel(seed=9)
        a.fit(traces, epochs=5)
        b.fit(traces, epochs=5)
        np.testing.assert_array_equal(a._params["W"], b._params["W"])
