"""Per-figure reproduction experiments (README.md maps each to its figure).

Each module exposes ``run(quick, seed, trials, runner) -> ExperimentResult``,
registered by name in :data:`ALL_EXPERIMENTS`; ``runner`` is the
:class:`~repro.engine.runner.ExecutionEngine` the figure's sweep runs on.
``python -m repro experiments <name>`` prints the tables, and
``benchmarks/`` wraps each in a pytest-benchmark target with shape
assertions.
"""

from repro.experiments import (
    fig01_motivation,
    fig02_traces,
    fig03_storage,
    fig06_lr,
    fig07_pagerank,
    fig08_cloud_low,
    fig09_waste_low,
    fig10_cloud_high,
    fig11_waste_high,
    fig12_polynomial,
    fig13_scale,
    matrix,
    scen_latency,
    scen_repair,
    sec61_prediction,
    tournament,
)
from repro.experiments.harness import ExperimentResult

ALL_EXPERIMENTS = {
    "fig01": fig01_motivation.run,
    "fig02": fig02_traces.run,
    "fig03": fig03_storage.run,
    "fig06": fig06_lr.run,
    "fig07": fig07_pagerank.run,
    "fig08": fig08_cloud_low.run,
    "fig09": fig09_waste_low.run,
    "fig10": fig10_cloud_high.run,
    "fig11": fig11_waste_high.run,
    "fig12": fig12_polynomial.run,
    "fig13": fig13_scale.run,
    "matrix": matrix.run,
    "scenlat": scen_latency.run,
    "scenrepair": scen_repair.run,
    "sec61": sec61_prediction.run,
    "tournament": tournament.run,
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult"]
