"""Tests for the worker speed processes."""

import numpy as np
import pytest

from repro.cluster.speed_models import (
    ConstantSpeeds,
    ControlledSpeeds,
    SpeedModel,
    TraceSpeeds,
)


class TestConstantSpeeds:
    def test_returns_values(self):
        model = ConstantSpeeds(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(model.speeds(0), [1.0, 2.0])
        np.testing.assert_array_equal(model.speeds(99), [1.0, 2.0])

    def test_copy_returned(self):
        model = ConstantSpeeds(np.array([1.0]))
        model.speeds(0)[0] = 5.0
        assert model.speeds(0)[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantSpeeds(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ConstantSpeeds(np.empty(0))
        for bad in ([np.nan, 1.0], [np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ConstantSpeeds(np.array(bad))

    def test_protocol_conformance(self):
        assert isinstance(ConstantSpeeds(np.ones(3)), SpeedModel)


class TestControlledSpeeds:
    def test_straggler_slowdown(self):
        model = ControlledSpeeds(12, num_stragglers=3, slowdown=5.0, jitter=0.0)
        speeds = model.speeds(0)
        np.testing.assert_allclose(speeds[:9], 1.0)
        np.testing.assert_allclose(speeds[9:], 0.2)

    def test_straggler_set(self):
        model = ControlledSpeeds(12, num_stragglers=2)
        assert model.straggler_set == frozenset({10, 11})

    def test_jitter_bounded(self):
        model = ControlledSpeeds(10, jitter=0.2, seed=3)
        for it in range(50):
            speeds = model.speeds(it)
            assert np.all(speeds > 0.8 - 1e-9)
            assert np.all(speeds < 1.2 + 1e-9)

    def test_jitter_persistent(self):
        # Successive iterations should be highly correlated (slow drift).
        model = ControlledSpeeds(50, jitter=0.2, persistence=0.95, seed=0)
        a = model.speeds(0)
        b = model.speeds(1)
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8

    def test_replay_returns_memoised_draw(self):
        # Any order of reads returns the draws of an in-order walk.
        model = ControlledSpeeds(4, num_stragglers=1, seed=0)
        later = model.speeds(5)
        earlier = model.speeds(2)
        walk = ControlledSpeeds(4, num_stragglers=1, seed=0)
        expected = [walk.speeds(i) for i in range(6)]
        np.testing.assert_array_equal(earlier, expected[2])
        np.testing.assert_array_equal(later, expected[5])
        np.testing.assert_array_equal(model.speeds(5), expected[5])

    def test_deterministic_given_seed(self):
        a = ControlledSpeeds(6, num_stragglers=1, seed=42).speeds(3)
        b = ControlledSpeeds(6, num_stragglers=1, seed=42).speeds(3)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlledSpeeds(4, num_stragglers=5)
        with pytest.raises(ValueError):
            ControlledSpeeds(4, slowdown=0.5)
        for slowdown in (np.nan, np.inf):
            with pytest.raises(ValueError, match="slowdown"):
                ControlledSpeeds(4, slowdown=slowdown)
        with pytest.raises(ValueError):
            ControlledSpeeds(4, jitter=1.0)
        with pytest.raises(ValueError):
            ControlledSpeeds(4, persistence=1.0)

    def test_protocol_conformance(self):
        assert isinstance(ControlledSpeeds(3), SpeedModel)


class TestTraceSpeeds:
    def test_replay(self):
        traces = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        model = TraceSpeeds(traces)
        np.testing.assert_array_equal(model.speeds(1), [2.0, 5.0])

    def test_wraparound(self):
        traces = np.array([[1.0, 2.0]])
        model = TraceSpeeds(traces)
        assert model.speeds(2)[0] == 1.0
        assert model.speeds(3)[0] == 2.0

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            TraceSpeeds(np.ones((2, 3))).speeds(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpeeds(np.array([[1.0, -1.0]]))
        with pytest.raises(ValueError):
            TraceSpeeds(np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            TraceSpeeds(np.array([[np.nan, 1.0]]))

    def test_properties(self):
        model = TraceSpeeds(np.ones((4, 7)))
        assert model.n_workers == 4
        assert model.length == 7
