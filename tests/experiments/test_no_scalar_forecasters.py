"""CI guard: no production sweep forecasts through the per-trial views.

``LastValuePredictor``, ``ARPredictor`` and ``LSTMPredictor`` are one-trial
views of the batched forecasting kernels, kept for sessions, apps and
examples.  A sweep cell must build the ``Batch*`` kernel for all of its
trials; a stack of one-trial views would quietly loop per trial in Python.
Each view's construction is patched to raise, then the figures that used
to stack last-value predictors and a matrix slice over the prediction-
backed policies run.
"""

import pytest

from repro.experiments import fig01_motivation, scen_latency, scen_repair
from repro.experiments.matrix import run_matrix
from repro.prediction.predictor import ARPredictor, LastValuePredictor, LSTMPredictor


@pytest.fixture(autouse=True)
def views_forbidden(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"a sweep built a per-trial {type(self).__name__}")

    for cls in (LastValuePredictor, ARPredictor, LSTMPredictor):
        monkeypatch.setattr(cls, "__post_init__", forbidden)


@pytest.mark.parametrize(
    "figure", [fig01_motivation, scen_latency, scen_repair], ids=lambda m: m.__name__
)
def test_figures_forecast_batched(figure):
    result = figure.run(quick=True, trials=2)
    assert result.rows


def test_matrix_forecasting_policies_run_batched():
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("s2c2-lastvalue", "s2c2-ar", "timeout-repair"),
        scenarios=("bursty",),
    )
    assert result.summary.rows
