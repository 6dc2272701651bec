"""Batch runners reject a forecaster sized for another trial count.

A ``(trials, workers)`` forecast and a speed model drawing a different
number of trials cannot be paired round by round; every runner family
must say so when it is built, naming the predictor and both counts,
rather than inside its first round with a message about plans or
observation shapes.
"""

import pytest

from repro.cluster.speed_models import ControlledSpeeds, StackedSpeeds
from repro.experiments.harness import run_lr_like_batch
from repro.prediction.predictor import BatchLastValuePredictor
from repro.runtime.batch import build_batch_runner
from repro.scheduling.s2c2 import GeneralS2C2Scheduler

N = 6
OPERATORS = {
    "coded": (4, GeneralS2C2Scheduler(4, 12)),
    "overdecomposition": (),
    "replication": (),
}


def _speeds(trials: int) -> StackedSpeeds:
    return StackedSpeeds([ControlledSpeeds(N, seed=s) for s in range(trials)])


@pytest.mark.parametrize("family", sorted(OPERATORS))
def test_mismatched_trial_count_rejected_at_build(family):
    predictor = BatchLastValuePredictor(5, N)
    with pytest.raises(ValueError, match=r"predictor forecasts 5 trials .* draws 3"):
        build_batch_runner(family, _speeds(3), predictor)
    with pytest.raises(ValueError, match="predictor"):
        run_lr_like_batch(
            family, 96, 48, _speeds(3), predictor, 1, operator=OPERATORS[family]
        )

