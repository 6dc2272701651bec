"""Event-driven coded-iteration simulator: the network-aware backend.

:class:`EventDrivenIterationSim` replays one coded iteration as a
discrete-event timeline — broadcast transmissions, per-worker compute,
result replies, §4.3 repair traffic — over an explicit
:class:`~repro.cluster.events.topology.Topology` of links, instead of
evaluating the closed form.  It subclasses
:class:`~repro.cluster.simulator.CodedIterationSim` and keeps none of the
coded iteration's rules for itself: coverage completion, the §4.3 deadline,
the cutoff search, opportunistic repair acceptance, the computed/used
accounting and the batched kernel are the parent's code.  It adds exactly
two things:

* **its event loop**, which realises *when* things happen: each worker's
  task starts when its copy of the broadcast arrives (after any encode
  cost, over a possibly degraded link), replies and repair traffic ride
  the links, shared top-of-rack links queue them, and the decoded result
  can be shuffled back to the workers;
* **its batch schedule and replay rule**: on dedicated duplex links every
  timeline is queue-free, so :meth:`EventDrivenIterationSim.run_batch`
  hands the parent's kernel analytic ``(trials, workers)`` broadcast
  receipts ``encode_end + (latency + bytes/(bandwidth*factor))`` and reply
  bandwidths ``bandwidth*factor`` — the event loop's floats, term by term
  — and replays through the event loop only the trials whose ordering
  could diverge: every trial on a rack or shuffle topology, and armed
  trials whose repair round is not provably queue-free (non-unit link
  factors, encode cost, or non-zero repair-request bytes).

**Equivalence contract.**  With the default :class:`EventConfig`
(dedicated duplex links, zero encode cost, zero-byte repair requests,
unit link factors) every float operation mirrors the closed form's
association order exactly: a result arrives at
``((recv + fixed) + compute) + reply`` where ``recv`` equals the broadcast
time and ``reply`` equals ``NetworkModel.transfer_time`` bitwise, and a
zero-byte repair request lands at ``cutoff + latency``.  The pinned suites
assert bitwise equality in the zero-network limit (infinite bandwidth,
zero latency) for every registered policy × scenario pair — where
transfers vanish and even degraded link factors are irrelevant — under
the default controlled network for unit factors, and between the batched
kernel and the per-trial event loop on every route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.simulator import (
    BatchCodedOutcome,
    CodedIterationOutcome,
    CodedIterationSim,
    _checked_speeds,
)
from repro.cluster.events.loop import Event, EventLoop
from repro.cluster.events.topology import Topology
from repro.profiling import span
from repro.scheduling.base import CodedWorkPlan, PlanBatch

__all__ = ["EventConfig", "EventTrace", "EventDrivenIterationSim"]


#: Deterministic pop priorities for simultaneous events.  Result arrivals
#: must precede the timeout at the same instant (a response at exactly the
#: deadline counts as finished, mirroring ``arrivals[w] <= cutoff``).
_PRIORITY = {
    "recv": 0,
    "compute": 1,
    "arrival": 2,
    "timeout": 3,
    "repair-recv": 4,
    "repair-compute": 5,
    "repair-arrival": 6,
}


@dataclass(frozen=True)
class EventConfig:
    """Knobs of the event backend beyond the closed form's reach.

    Every default is the *identity* setting under which the event
    timeline is bitwise-equal to :meth:`CodedIterationSim.run`:

    encode_flops:
        Master-side encode work paid before the broadcast (delays every
        downstream event by ``encode_flops / master_flops``).
    repair_request_bytes:
        Size of the §4.3 reassignment message; non-zero sizes make repair
        dispatch pay bandwidth, not just latency.
    rack_size:
        Group workers into contiguous racks of this size sharing a
        top-of-rack link pair — repair traffic then queues FIFO behind
        result traffic.  ``None`` keeps dedicated duplex links.
    rack_factor:
        Bandwidth multiplier on the shared rack links.
    shuffle_output:
        Ship the decoded result back to every active worker after decode
        (the result-shuffle of an iterative solve); completion then waits
        for the slowest shuffle transfer.
    """

    encode_flops: float = 0.0
    repair_request_bytes: float = 0.0
    rack_size: int | None = None
    rack_factor: float = 1.0
    shuffle_output: bool = False

    def __post_init__(self) -> None:
        if self.encode_flops < 0:
            raise ValueError("encode_flops must be >= 0")
        if self.repair_request_bytes < 0:
            raise ValueError("repair_request_bytes must be >= 0")
        if self.rack_size is not None and self.rack_size <= 0:
            raise ValueError("rack_size must be positive when set")
        if not self.rack_factor > 0:
            raise ValueError("rack_factor must be > 0")


@dataclass
class EventTrace:
    """Audit record of one event-driven iteration (for the property suites).

    ``tasks`` maps every dispatched task (``"natural:w"`` / ``"repair:w"``)
    to its terminal status — exactly one of ``"completed"`` or
    ``"cancelled"`` — and ``loop.history`` carries the pop order the
    invariant tests check.
    """

    loop: EventLoop
    topology: Topology
    tasks: dict[str, str]
    arrivals: dict[int, float]
    done_time: float
    deadline: float | None
    repaired: bool


@dataclass(frozen=True)
class EventDrivenIterationSim(CodedIterationSim):
    """Discrete-event backend for coded iterations (see module docstring)."""

    config: EventConfig = field(default_factory=EventConfig)

    #: Batch runners pass per-worker link factors when the simulator
    #: advertises this (the closed form has no links to degrade).
    wants_link_factors = True

    def run(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> CodedIterationOutcome:
        """Simulate one iteration through the event loop."""
        outcome, _ = self.run_detailed(plan, speeds, failed_workers, link_factors)
        return outcome

    def run_detailed(
        self,
        plan: CodedWorkPlan,
        speeds: np.ndarray,
        failed_workers: frozenset[int] = frozenset(),
        link_factors: np.ndarray | None = None,
    ) -> tuple[CodedIterationOutcome, EventTrace]:
        """Simulate and return the outcome plus the full event trace."""
        n = plan.n_workers
        speeds = _checked_speeds(speeds, n, batch=False)
        factors = self._check_factors(link_factors, n)
        profile = self._profile(plan)
        loop = EventLoop()
        topology = Topology(
            n,
            self.network,
            rack_size=self.config.rack_size,
            rack_factor=self.config.rack_factor,
        )

        # --- Phase 0: encode + broadcast transmissions. --------------------
        encode_end = self.config.encode_flops / self.cost.master_flops
        for w in range(n):
            recv = topology.send_down(w, encode_end, self._broadcast_bytes, factors[w])
            loop.schedule(
                Event(time=recv, kind="recv", worker=w),
                _PRIORITY["recv"],
                tiebreak=w,
            )

        reply_bytes = float(self.cost.row_bytes(self.width_out))
        responders = sum(1 for w in profile.active if w not in failed_workers)
        starts = np.zeros(n)  # broadcast receipt: when each task starts
        projected = np.full(n, np.inf)  # exact on uncontended links
        arrivals = np.full(n, np.inf)  # realised so far
        arrived: dict[int, float] = {}  # the same, in pop order
        deadline: float | None = None
        tasks: dict[str, str] = {}
        repair = None
        repair_arrivals: dict[int, float] = {}

        while loop:
            event = loop.pop()
            w = event.worker
            if event.kind == "recv":
                starts[w] = event.time
                if not profile.rows[w] or w in failed_workers:
                    continue
                rows = int(profile.rows[w])
                compute_end = self._compute_end(rows, float(speeds[w]), event.time)
                nbytes = rows * reply_bytes
                projected[w] = compute_end + (
                    self.network.latency
                    + nbytes / (self.network.bandwidth * factors[w])
                )
                tasks[f"natural:{w}"] = "dispatched"
                loop.schedule(
                    Event(time=compute_end, kind="compute", worker=w,
                          payload=nbytes),
                    _PRIORITY["compute"],
                    tiebreak=w,
                )
            elif event.kind == "compute":
                arrive = topology.send_up(w, event.time, event.payload, factors[w])
                loop.schedule(
                    Event(time=arrive, kind="arrival", worker=w),
                    _PRIORITY["arrival"],
                    tiebreak=w,
                )
            elif event.kind == "arrival":
                arrivals[w] = arrived[w] = event.time
                if deadline is None:
                    deadline = self._timeout_deadline(
                        np.sort(arrivals[np.isfinite(arrivals)]),
                        plan.coverage,
                        responders,
                    )
                    if deadline is not None:
                        loop.schedule(
                            Event(time=deadline, kind="timeout"),
                            _PRIORITY["timeout"],
                        )
            elif event.kind == "timeout":
                if self._natural_cover(profile, arrivals)[1] <= event.time:
                    continue  # coverage met by the deadline: no repair
                # Arrival estimates: realised pop times where available,
                # the uncontended link projection otherwise — identical on
                # dedicated links, a lower bound under rack contention (the
                # realised repair traffic still queues physically after).
                estimates = np.where(np.isfinite(arrivals), arrivals, projected)
                repair = self._search_repair(
                    profile, speeds, estimates, event.time, failed_workers
                )
                if repair is None:
                    continue
                for v, rows in repair.extra_rows.items():
                    recv = topology.send_down(
                        v, repair.cutoff, self.config.repair_request_bytes,
                        factors[v],
                    )
                    tasks[f"repair:{v}"] = "dispatched"
                    loop.schedule(
                        Event(time=recv, kind="repair-recv", worker=v,
                              payload=rows),
                        _PRIORITY["repair-recv"],
                        tiebreak=v,
                    )
            elif event.kind == "repair-recv":
                rows = int(event.payload)
                compute_end = self._compute_end(rows, float(speeds[w]), event.time)
                loop.schedule(
                    Event(time=compute_end, kind="repair-compute", worker=w,
                          payload=rows * reply_bytes),
                    _PRIORITY["repair-compute"],
                    tiebreak=w,
                )
            elif event.kind == "repair-compute":
                arrive = topology.send_up(w, event.time, event.payload, factors[w])
                loop.schedule(
                    Event(time=arrive, kind="repair-arrival", worker=w),
                    _PRIORITY["repair-arrival"],
                    tiebreak=w,
                )
            elif event.kind == "repair-arrival":
                repair_arrivals[w] = event.time

        natural, done = self._natural_cover(profile, arrivals)
        finish = None
        if repair is not None:
            finish = max([repair.cutoff, *(repair_arrivals[v] for v in repair.extra)])
        outcome = self._settle(
            profile, speeds, failed_workers, starts, arrivals, natural, done,
            deadline, repair, finish,
        )

        # --- Optional result shuffle back to the workers. -------------------
        if self.config.shuffle_output:
            result_bytes = (
                self.grid.rows * self.width_out * self.cost.bytes_per_element
            )
            for w in profile.active:
                arrive = topology.send_down(
                    w, outcome.completion_time, result_bytes, factors[w]
                )
                outcome.completion_time = max(outcome.completion_time, arrive)

        # --- Task ledger: every dispatched task terminates exactly once. ----
        for w in profile.active:
            key = f"natural:{w}"
            if key in tasks:
                tasks[key] = (
                    "cancelled" if outcome.workers[w].cancelled else "completed"
                )
        if repair is not None:
            for v in repair.extra:
                tasks[f"repair:{v}"] = (
                    "completed" if outcome.repaired else "cancelled"
                )

        trace = EventTrace(
            loop=loop,
            topology=topology,
            tasks=tasks,
            arrivals=arrived,
            done_time=finish if outcome.repaired else done,
            deadline=deadline,
            repaired=outcome.repaired,
        )
        return outcome, trace

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
        """Batched event simulation, bitwise-equal to looping :meth:`run`.

        The event loop's broadcast receipts and reply bandwidths become
        ``(trials, workers)`` arrays for the parent's batched kernel
        (queue-free on dedicated links, see the module docstring); trials
        whose event ordering can diverge from that schedule replay
        through :meth:`run` on the plan ``batch[t]`` builds.
        ``link_factors`` is a ``(trials, workers)`` matrix (or ``None``).
        """
        batch, speeds, failed_list = self._batch_inputs(
            plans, speeds, failed_workers
        )
        factors = self._check_factors(link_factors, *speeds.shape)
        with span("broadcast"):
            bandwidth = self.network.bandwidth * factors
            encode_end = self.config.encode_flops / self.cost.master_flops
            recv = encode_end + (
                self.network.latency + self._broadcast_bytes / bandwidth
            )
        # The repair round is queue-free, and mirrors the closed form's
        # dispatch bitwise, only with unit links and free encode/requests.
        queue_free_repair = (
            self.config.encode_flops == 0.0
            and self.config.repair_request_bytes == 0.0
        ) & np.all(factors == 1.0, axis=1)
        return self._batch_kernel(
            batch,
            speeds,
            failed_list,
            recv=recv,
            bandwidth=bandwidth,
            replay=lambda t: self.run(
                batch[t], speeds[t], failed_list[t], factors[t]
            ),
            # Shared ToR links queue repair behind result traffic, and the
            # shuffle reuses down-links: event ordering genuinely matters.
            replay_all=(
                self.config.rack_size is not None or self.config.shuffle_output
            ),
            replay_armed=~queue_free_repair,
        )
