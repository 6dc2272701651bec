"""Event-driven coded-iteration simulator: the network-aware backend.

:class:`EventDrivenIterationSim` simulates one coded iteration with each
worker on its own duplex link to the master, where a per-worker **link
factor** scales that link's bandwidth (the degradation the network
scenarios ``netslow``, ``rackcongest`` and ``linkbursty`` produce).  It
subclasses :class:`~repro.cluster.simulator.CodedIterationSim` and keeps
none of the coded iteration's rules for itself: coverage completion, the
§4.3 deadline, the repair, opportunistic repair acceptance, the
computed/used accounting and the batched kernel are the parent's code.

Its only addition is the schedule the links impose.  A dedicated link
carries at most two messages each way — the broadcast and a repair request
down, a reply and a repair reply up — one after another, so every event
time has a closed form, and :meth:`EventDrivenIterationSim.run_batch`
hands the parent's kernel two ``(trials, workers)`` arrays:

* the broadcast receipt ``latency + bytes / (bandwidth · factor)``, when
  each worker starts its task;
* the reply bandwidth ``bandwidth · factor``, which prices both the
  natural reply and the §4.3 repair reply.

**Equivalence contract.**  Each term is a store-and-forward link's float
ops: a result arrives at ``((recv + fixed) + compute) + reply``, and a
zero-byte repair request lands at ``max(cutoff, recv) + latency``, behind
the broadcast copy on the helper's downlink (its uplink is idle by then,
its natural reply having arrived).  A worker whose broadcast copy is still
in flight when the §4.3 timeout fires has no arrival the master can
foresee, so the repair treats it as a laggard.  The cluster suites pin
``run_batch`` bitwise against a per-trial discrete-event loop over
explicit links, kept under ``tests/`` as the oracle, on every route and
every plan shape the parent accepts: degraded links, failures and armed
repairs.  With unit factors the schedule is the closed form's, so the
event backend then equals
:class:`~repro.cluster.simulator.CodedIterationSim` bitwise — and in the
zero-network limit (zero latency, infinite bandwidth) it does under any
factors, for every registered policy × scenario pair.

:meth:`~repro.cluster.simulator.CodedIterationSim.run` is inherited
unchanged: a one-trial view of :meth:`run_batch` at unit link factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import BatchCodedOutcome, CodedIterationSim
from repro.profiling import span
from repro.scheduling.base import CodedWorkPlan, PlanBatch

__all__ = ["EventDrivenIterationSim"]


@dataclass(frozen=True)
class EventDrivenIterationSim(CodedIterationSim):
    """Link-aware backend for coded iterations (see module docstring)."""

    #: Batch runners pass per-worker link factors when the simulator
    #: advertises this (the closed form has no links to degrade).
    wants_link_factors = True

    @staticmethod
    def _check_factors(link_factors, *shape: int) -> np.ndarray:
        """Link factors of ``shape`` as an array (all ones when ``None``)."""
        if link_factors is None:
            return np.ones(shape)
        factors = np.asarray(link_factors, dtype=np.float64)
        if factors.shape != shape:
            raise ValueError(
                f"link_factors must have shape {shape}, got {factors.shape}"
            )
        if not np.all(np.isfinite(factors)) or np.any(factors <= 0):
            raise ValueError("link factors must be positive and finite")
        return factors

    def run_batch(
        self,
        plans: PlanBatch | CodedWorkPlan | list[CodedWorkPlan],
        speeds: np.ndarray,
        failed_workers: frozenset[int] | list[frozenset[int]] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> BatchCodedOutcome:
        """Simulate a batch of trials over links degraded by ``link_factors``.

        ``link_factors`` is a ``(trials, workers)`` matrix (``None``: unit
        links); the other arguments are the parent's, and every trial
        takes the parent's batched kernel.
        """
        batch, speeds, failed_mask = self._batch_inputs(
            plans, speeds, failed_workers
        )
        factors = self._check_factors(link_factors, *speeds.shape)
        with span("broadcast"):
            bandwidth = self.network.bandwidth * factors
            recv = self.network.latency + self._broadcast_bytes / bandwidth
        return self._batch_kernel(
            batch, speeds, failed_mask, recv=recv, bandwidth=bandwidth
        )
