"""Per-iteration worker speed processes.

The paper evaluates in two environments:

* a **controlled cluster** (§6.5, §7.1) where stragglers are injected
  deliberately — a straggler is "at least 5× slower than the fastest node"
  and non-stragglers exhibit up to ±20% speed variation;
* a **commercial cloud** (§7.2) where speeds drift on their own — modelled
  here by replaying traces from the regime-switching generator in
  :mod:`repro.prediction.traces`.

A speed model maps an iteration index to the vector of *actual* worker
speeds for that iteration (speed 1.0 = nominal worker throughput,
:class:`~repro.cluster.network.CostModel.worker_flops`).  Speeds are
constant within an iteration, matching the paper's per-iteration
measurement granularity (§6.2).

Monte-Carlo sweeps additionally need a *trial* axis: :class:`BatchSpeedModel`
extends the per-iteration contract to a ``(trials, workers)`` speed matrix
per call, which :meth:`~repro.cluster.simulator.CodedIterationSim.run_batch`
consumes directly.  Trial ``t`` of a batch model replays exactly what the
corresponding single-trial model (same seed) would produce, so batched runs
are comparable point-for-point with per-trial loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = [
    "SpeedModel",
    "ControlledSpeeds",
    "TraceSpeeds",
    "ConstantSpeeds",
    "BatchSpeedModel",
    "StackedSpeeds",
    "BatchTraceSpeeds",
]


@runtime_checkable
class SpeedModel(Protocol):
    """Protocol: iteration index → per-worker actual speeds."""

    n_workers: int

    def speeds(self, iteration: int) -> np.ndarray:
        """Actual speeds for ``iteration`` (shape ``(n_workers,)``, > 0)."""
        ...


@dataclass(frozen=True)
class ConstantSpeeds:
    """Fixed speeds every iteration — the simplest test double."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if np.any(values <= 0):
            raise ValueError("speeds must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n_workers(self) -> int:
        return self.values.size

    def speeds(self, iteration: int) -> np.ndarray:
        return self.values.copy()


@dataclass
class ControlledSpeeds:
    """The paper's controlled-cluster speed model (§7.1).

    ``num_stragglers`` designated workers run ``slowdown``× slower than
    nominal for the whole run (persistent stragglers, as injected in the
    paper's local cluster).  Every worker additionally carries a *slowly
    varying* multiplicative jitter within ``±jitter`` — an AR(1) process
    with strong persistence, reflecting the paper's observation that speeds
    stay within ~10% of a neighbourhood for ~10 samples.

    Parameters
    ----------
    n_workers:
        Cluster size.
    num_stragglers:
        How many workers (the last ones, deterministically) straggle.
    slowdown:
        Straggler slowdown factor (paper: ≥ 5×).
    jitter:
        Peak-to-nominal fractional speed variation of every worker
        (paper: up to 20%).
    persistence:
        AR(1) coefficient of the jitter process in ``[0, 1)``.
    seed:
        RNG seed for the jitter draws.
    """

    n_workers: int
    num_stragglers: int = 0
    slowdown: float = 5.0
    jitter: float = 0.2
    persistence: float = 0.9
    seed: int | None = 0
    straggler_ids: tuple[int, ...] | None = None
    _state: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        if not 0 <= self.num_stragglers <= self.n_workers:
            raise ValueError("num_stragglers must be in [0, n_workers]")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if not 0 <= self.persistence < 1:
            raise ValueError("persistence must be in [0, 1)")
        if self.straggler_ids is not None:
            ids = tuple(int(w) for w in self.straggler_ids)
            if len(ids) != self.num_stragglers:
                raise ValueError("straggler_ids length must equal num_stragglers")
            if any(w < 0 or w >= self.n_workers for w in ids):
                raise ValueError("straggler id out of range")
            if len(set(ids)) != len(ids):
                raise ValueError("straggler_ids must be distinct")
        self._state = {"iteration": -1, "z": None, "rng": as_rng(self.seed)}

    @property
    def straggler_set(self) -> frozenset[int]:
        """Indices of the persistent stragglers.

        Defaults to the last ``num_stragglers`` workers; pass
        ``straggler_ids`` to place them adversarially (e.g. on all replica
        holders of one partition, the paper's Fig 1 worst case).
        """
        if self.straggler_ids is not None:
            return frozenset(self.straggler_ids)
        return frozenset(
            range(self.n_workers - self.num_stragglers, self.n_workers)
        )

    def speeds(self, iteration: int) -> np.ndarray:
        """Speeds for ``iteration``; must be called with non-decreasing indices.

        The AR(1) jitter is generated sequentially, so querying an earlier
        iteration than the last one asked for raises ``ValueError`` (replay
        from a fresh instance instead).
        """
        state = self._state
        if iteration < state["iteration"]:
            raise ValueError(
                "ControlledSpeeds is sequential; create a new instance to replay"
            )
        rng = state["rng"]
        if state["z"] is None:
            state["z"] = rng.standard_normal(self.n_workers)
            state["iteration"] = 0
        while state["iteration"] < iteration:
            noise = rng.standard_normal(self.n_workers)
            scale = np.sqrt(1.0 - self.persistence**2)
            state["z"] = self.persistence * state["z"] + scale * noise
            state["iteration"] += 1
        # Map the unit-variance AR(1) state into ±jitter multiplicatively.
        wobble = 1.0 + self.jitter * np.tanh(state["z"])
        base = np.ones(self.n_workers)
        stragglers = list(self.straggler_set)
        base[stragglers] = 1.0 / self.slowdown
        return base * wobble


@dataclass(frozen=True)
class TraceSpeeds:
    """Replay pre-generated speed traces (cloud environment, §7.2).

    ``traces`` has shape ``(n_workers, length)``; iterations beyond the
    trace length wrap around (experiments typically use 15-iteration
    windows of much longer traces).
    """

    traces: np.ndarray

    def __post_init__(self) -> None:
        traces = np.asarray(self.traces, dtype=np.float64)
        if traces.ndim != 2 or traces.size == 0:
            raise ValueError("traces must be a non-empty 2-D array")
        if np.any(traces <= 0):
            raise ValueError("trace speeds must be positive")
        object.__setattr__(self, "traces", traces)

    @property
    def n_workers(self) -> int:
        return self.traces.shape[0]

    @property
    def length(self) -> int:
        """Number of iterations before the replay wraps."""
        return self.traces.shape[1]

    def speeds(self, iteration: int) -> np.ndarray:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        return self.traces[:, iteration % self.length].copy()


@runtime_checkable
class BatchSpeedModel(Protocol):
    """Protocol: iteration index → ``(n_trials, n_workers)`` speed matrix."""

    n_workers: int
    n_trials: int

    def speeds_batch(self, iteration: int) -> np.ndarray:
        """Actual speeds for every trial at ``iteration`` (all > 0)."""
        ...


@dataclass
class StackedSpeeds:
    """Stack independent single-trial speed models into a batch model.

    The generic batching adapter: trial ``t`` of the batch is exactly
    ``models[t]`` (typically the same model class seeded per trial), so a
    batched simulation consumes the identical speed draws a per-trial loop
    would — the property the batched-vs-loop equivalence tests rely on.
    Generation cost is linear in trials, which is negligible next to the
    simulation itself; the payoff is the stacked ``(trials, workers)``
    matrix the batched simulators operate on.
    """

    models: tuple[SpeedModel, ...]

    def __post_init__(self) -> None:
        models = tuple(self.models)
        if not models:
            raise ValueError("at least one model is required")
        widths = {m.n_workers for m in models}
        if len(widths) != 1:
            raise ValueError(f"models disagree on n_workers: {sorted(widths)}")
        self.models = models

    @property
    def n_workers(self) -> int:
        return self.models[0].n_workers

    @property
    def n_trials(self) -> int:
        return len(self.models)

    def speeds_batch(self, iteration: int) -> np.ndarray:
        return np.stack([m.speeds(iteration) for m in self.models])


@dataclass(frozen=True)
class BatchTraceSpeeds:
    """Vectorized trace replay over a trial axis (cloud sweeps).

    ``traces`` has shape ``(n_trials, n_workers, length)``; replay wraps
    around like :class:`TraceSpeeds`.  Use :meth:`from_traces` to stack
    per-trial 2-D trace arrays (e.g. one generator call per trial seed).
    """

    traces: np.ndarray

    def __post_init__(self) -> None:
        traces = np.asarray(self.traces, dtype=np.float64)
        if traces.ndim != 3 or traces.size == 0:
            raise ValueError("traces must be a non-empty 3-D array")
        if np.any(traces <= 0):
            raise ValueError("trace speeds must be positive")
        object.__setattr__(self, "traces", traces)

    @classmethod
    def from_traces(cls, per_trial: Sequence[np.ndarray]) -> "BatchTraceSpeeds":
        """Stack per-trial ``(n_workers, length)`` arrays into a batch."""
        return cls(np.stack([np.asarray(t, dtype=np.float64) for t in per_trial]))

    @property
    def n_trials(self) -> int:
        return self.traces.shape[0]

    @property
    def n_workers(self) -> int:
        return self.traces.shape[1]

    @property
    def length(self) -> int:
        """Number of iterations before the replay wraps."""
        return self.traces.shape[2]

    def trial(self, t: int) -> TraceSpeeds:
        """Single-trial view (replays trial ``t``'s traces exactly)."""
        return TraceSpeeds(self.traces[t])

    def speeds_batch(self, iteration: int) -> np.ndarray:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        return self.traces[:, :, iteration % self.length].copy()
