"""Cluster substrate: cost models, speed processes, and iteration simulators.

* :class:`~repro.cluster.network.NetworkModel` /
  :class:`~repro.cluster.network.CostModel` — time accounting knobs.
* :class:`~repro.cluster.speed_models.ControlledSpeeds` /
  :class:`~repro.cluster.speed_models.TraceSpeeds` — actual-speed processes.
* :class:`~repro.cluster.simulator.CodedIterationSim` and friends — exact
  per-iteration timelines for every strategy.
* :mod:`repro.cluster.scenarios` — the pluggable straggler-scenario
  registry (named speed processes, sweepable by string).
* :mod:`repro.cluster.events` — the event backend: per-worker network
  links with degradable bandwidth, and the ``EventDrivenIterationSim``
  selectable wherever ``CodedIterationSim`` runs (kept out of this
  namespace so the closed-form core imports without it).
* :class:`~repro.cluster.local.LocalMDSExecutor` — real multiprocessing
  execution of coded jobs (correctness path).
"""

from repro.cluster.local import LocalExecutionReport, LocalMDSExecutor
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.scenarios import (
    available_scenarios,
    register_scenario,
    scenario_batch,
    scenario_speed_model,
)
from repro.cluster.simulator import (
    CodedIterationOutcome,
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
    UncodedIterationOutcome,
    WorkerIterationStats,
)
from repro.cluster.speed_models import (
    ConstantSpeeds,
    ControlledSpeeds,
    SpeedModel,
    TraceSpeeds,
)

__all__ = [
    "CodedIterationOutcome",
    "CodedIterationSim",
    "ConstantSpeeds",
    "ControlledSpeeds",
    "CostModel",
    "LocalExecutionReport",
    "LocalMDSExecutor",
    "NetworkModel",
    "OverDecompositionIterationSim",
    "ReplicationIterationSim",
    "SpeedModel",
    "TraceSpeeds",
    "UncodedIterationOutcome",
    "WorkerIterationStats",
    "available_scenarios",
    "register_scenario",
    "scenario_batch",
    "scenario_speed_model",
]
