"""Tests for the experiment harness and result tables."""

import numpy as np
import pytest

from repro.experiments.harness import (
    ExperimentResult,
    controlled_cost,
    controlled_network,
)


class TestExperimentResult:
    def make(self):
        result = ExperimentResult(
            name="demo", description="d", columns=("label", "a", "b")
        )
        result.add_row("x", 1.0, 2.0)
        result.add_row("y", 3.0, 4.0)
        return result

    def test_add_row_validates_arity(self):
        result = self.make()
        with pytest.raises(ValueError, match="expected 2"):
            result.add_row("z", 1.0)

    def test_column_extraction(self):
        result = self.make()
        np.testing.assert_array_equal(result.column("a"), [1.0, 3.0])
        np.testing.assert_array_equal(result.column("b"), [2.0, 4.0])

    def test_column_unknown(self):
        with pytest.raises(KeyError):
            self.make().column("c")

    def test_label_column_not_numeric(self):
        with pytest.raises(KeyError, match="labels"):
            self.make().column("label")

    def test_labels(self):
        assert self.make().labels() == ["x", "y"]

    def test_value_lookup(self):
        assert self.make().value("y", "a") == 3.0
        with pytest.raises(KeyError):
            self.make().value("z", "a")
        with pytest.raises(KeyError, match="'c'"):
            self.make().value("y", "c")
        with pytest.raises(KeyError, match="'label' holds labels"):
            self.make().value("y", "label")

    def test_format_table_contains_everything(self):
        result = self.make()
        result.notes = "shape note"
        text = result.format_table()
        for token in ("demo", "label", "1.000", "4.000", "shape note"):
            assert token in text

    def test_format_table_empty_rows(self):
        result = ExperimentResult("e", "d", columns=("l", "v"))
        assert "l" in result.format_table()


class TestControlledModels:
    def test_compute_dominates_iteration(self):
        # The tuning invariant behind every controlled-cluster figure:
        # a typical worker task costs far more than a network round trip
        # and far more than the master's decode share.
        net = controlled_network()
        cost = controlled_cost()
        task = cost.compute_time(rows=200, width=120, speed=1.0)
        assert task > 20 * net.latency
        assert task > cost.decode_time(rows=200, coverage=10, width_out=1, groups=12)
