"""Tests for run metrics and storage tracking."""

import numpy as np
import pytest

from repro.runtime.batch import BatchRunMetrics
from repro.runtime.metrics import StorageTracker


def add_round(metrics, latency=1.0, computed=(10.0, 10.0), used=(10.0, 5.0),
              predicted=(1.0, 1.0), actual=(1.0, 1.0), repaired=False):
    """Record one round of a one-trial run."""
    metrics.add_round(
        latency=np.array([latency]),
        computed=np.array([computed], dtype=float),
        used=np.array([used], dtype=float),
        assigned=np.array([computed], dtype=float),
        predicted=np.array([predicted], dtype=float),
        actual=np.array([actual], dtype=float),
        repaired=np.array([repaired]),
    )


def one_trial(workers=2):
    return BatchRunMetrics(n_trials=1, n_workers=workers)


class TestBatchRunMetrics:
    def test_empty_raises(self):
        metrics = one_trial()
        for read in (
            lambda: metrics.total_time,
            metrics.total_wasted_fraction,
            lambda: metrics.repair_count,
        ):
            with pytest.raises(RuntimeError, match="no rounds"):
                read()

    def test_totals(self):
        metrics = one_trial()
        add_round(metrics, latency=2.0)
        add_round(metrics, latency=3.0)
        np.testing.assert_allclose(metrics.total_time, [5.0])
        assert len(metrics) == 2

    def test_total_wasted_fraction(self):
        metrics = one_trial()
        add_round(metrics, computed=(10.0, 10.0), used=(10.0, 0.0))
        np.testing.assert_allclose(metrics.total_wasted_fraction(), [0.5])

    def test_total_wasted_fraction_with_idle_worker(self):
        # A worker that computed nothing adds nothing; used rows above
        # computed ones never count as negative waste.
        metrics = one_trial(3)
        add_round(metrics, computed=(0.0, 10.0, 4.0), used=(0.0, 10.0, 5.0),
                  predicted=(1.0,) * 3, actual=(1.0,) * 3)
        np.testing.assert_array_equal(metrics.total_wasted_fraction(), [0.0])

    def test_total_wasted_fraction_when_nothing_computed(self):
        metrics = one_trial()
        add_round(metrics, computed=(0.0, 0.0), used=(0.0, 0.0))
        np.testing.assert_array_equal(metrics.total_wasted_fraction(), [0.0])

    def test_misprediction_rate(self):
        metrics = one_trial()
        add_round(metrics, predicted=(1.0, 1.0), actual=(1.0, 2.0))
        np.testing.assert_allclose(metrics.misprediction_rate(), [0.5])

    def test_repair_count(self):
        metrics = one_trial()
        add_round(metrics)
        add_round(metrics, repaired=True)
        np.testing.assert_array_equal(metrics.repair_count, [1])


class TestStorageTracker:
    def test_initial_zero(self):
        tracker = StorageTracker(4, 100)
        assert tracker.mean_fraction() == 0.0

    def test_union_growth(self):
        tracker = StorageTracker(2, 10)
        tracker.record_iteration({0: np.arange(5), 1: np.arange(5, 10)})
        assert tracker.mean_fraction() == pytest.approx(0.5)
        # Re-assigning the same rows does not grow storage.
        tracker.record_iteration({0: np.arange(5), 1: np.arange(5, 10)})
        assert tracker.mean_fraction() == pytest.approx(0.5)
        # Shifted assignment grows the union.
        tracker.record_iteration({0: np.arange(3, 8)})
        assert tracker.fractions()[0] == pytest.approx(0.8)

    def test_history(self):
        tracker = StorageTracker(1, 10)
        tracker.record_iteration({0: np.arange(2)})
        tracker.record_iteration({0: np.arange(4)})
        np.testing.assert_allclose(tracker.history(), [0.2, 0.4])

    def test_bounds_checked(self):
        tracker = StorageTracker(2, 10)
        with pytest.raises(IndexError):
            tracker.record_iteration({2: np.arange(3)})
        with pytest.raises(IndexError):
            tracker.record_iteration({0: np.array([10])})
