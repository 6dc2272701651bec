"""The per-trial discrete-event loop: the oracle of the event backend's kernel.

``EventDrivenIterationSim.run_batch`` evaluates one coded iteration as
``(trials, workers)`` arrays — broadcast receipts and reply bandwidths from
each worker's link factor, fed to ``CodedIterationSim``'s batched kernel.
This module is the loop that array schedule replaces, frozen here so the
equivalence suites can pin the kernel against it: a priority-queue
:class:`EventLoop`, FIFO :class:`Link`\\ s with per-transfer bandwidth
factors, a :class:`Topology` of dedicated duplex links (one down- and one
uplink per worker, no shared tier), and :func:`run_event_loop`, which walks
one iteration through them — broadcast, compute, reply, the §4.3 timeout
and the repair traffic — with no encode cost, zero-byte repair requests
and no result shuffle.

The coded iteration's rules (coverage completion, the cutoff search, the
opportunistic acceptance and the accounting) are the frozen scalar walk's
(``coded_reference.py``); the loop only decides *when* each event happens.
It arms the §4.3 deadline itself, from the first ``k`` responses of the
workers that can respond at all, as a master watching arrivals would.

Three properties of the loop carry the suites' invariants:

* **Nondecreasing pops.**  ``schedule`` clamps the *heap* key to the loop's
  current time (an event decided now cannot fire in the past), while the
  event keeps its analytic timestamp.
* **Deterministic tie-breaks.**  Events at the same instant order by
  ``priority`` (event kind), then ``tiebreak`` (worker index, mirroring the
  closed form's ``(arrivals[w], w)`` sort), then insertion sequence.
* **Auditability.**  Every pop is logged in :attr:`EventLoop.history`, every
  transmission in its link's ``log``, and every dispatched task's terminal
  status in :attr:`EventTrace.tasks`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.network import NetworkModel
from repro.cluster.simulator import CodedIterationOutcome, _checked_speeds

import coded_reference as walk

#: Deterministic pop priorities for simultaneous events.  Result arrivals
#: precede the timeout at the same instant (a response at exactly the
#: deadline counts as finished, mirroring ``arrivals[w] <= cutoff``).
PRIORITY = {
    "recv": 0,
    "compute": 1,
    "arrival": 2,
    "timeout": 3,
    "repair-recv": 4,
    "repair-compute": 5,
    "repair-arrival": 6,
}


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence at its analytic ``time``.

    ``kind`` is a short tag (``"recv"``, ``"compute"``, ``"arrival"``, …)
    and ``worker`` the node it concerns (``-1`` for master-side events).
    """

    time: float
    kind: str
    worker: int = -1
    payload: Any = None


@dataclass
class EventLoop:
    """Deterministic priority-queue scheduler."""

    now: float = 0.0
    #: Pop audit log: ``(heap_time, priority, tiebreak, seq, kind)``.
    history: list[tuple[float, int, int, int, str]] = field(default_factory=list)
    _heap: list[tuple[float, int, int, int, Event]] = field(default_factory=list)
    _seq: int = 0

    def schedule(self, event: Event, priority: int, tiebreak: int = 0) -> None:
        """Queue ``event``; its heap time is ``max(event.time, now)``."""
        heap_time = event.time if event.time >= self.now else self.now
        heapq.heappush(
            self._heap, (heap_time, priority, tiebreak, self._seq, event)
        )
        self._seq += 1

    def pop(self) -> Event:
        """Remove and return the next event, advancing ``now``."""
        heap_time, priority, tiebreak, seq, event = heapq.heappop(self._heap)
        self.now = heap_time
        self.history.append((heap_time, priority, tiebreak, seq, event.kind))
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class Link:
    """One FIFO store-and-forward link with full occupancy accounting.

    A message sent at ``start`` departs once the link is free and occupies
    it for ``latency + nbytes / (bandwidth · factor)`` — so an uncontended
    transmission at factor 1 arrives at exactly
    ``start + NetworkModel.transfer_time(nbytes)``, bitwise.
    """

    name: str
    latency: float
    bandwidth: float
    free_at: float = 0.0
    bytes_carried: float = 0.0
    #: Transmission log: ``(depart_time, nbytes)`` per message, in order.
    log: list[tuple[float, float]] = field(default_factory=list)

    def transmit(self, start: float, nbytes: float, factor: float = 1.0) -> float:
        """Send ``nbytes`` at ``start``; return the arrival time."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if not factor > 0:
            raise ValueError(f"link factor must be > 0, got {factor}")
        depart = start if self.free_at <= start else self.free_at
        duration = self.latency + nbytes / (self.bandwidth * factor)
        arrive = depart + duration
        self.free_at = arrive
        self.bytes_carried += nbytes
        self.log.append((depart, nbytes))
        return arrive

    @property
    def message_count(self) -> int:
        return len(self.log)


@dataclass
class Topology:
    """Master + ``n_workers`` nodes, each on a dedicated duplex link pair."""

    n_workers: int
    network: NetworkModel

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        latency, bandwidth = self.network.latency, self.network.bandwidth
        self.down = [
            Link(f"down[{w}]", latency, bandwidth) for w in range(self.n_workers)
        ]
        self.up = [
            Link(f"up[{w}]", latency, bandwidth) for w in range(self.n_workers)
        ]

    def send_down(self, worker: int, start: float, nbytes: float,
                  factor: float = 1.0) -> float:
        """Master → worker transmission; returns the worker receive time."""
        return self.down[worker].transmit(start, nbytes, factor)

    def send_up(self, worker: int, start: float, nbytes: float,
                factor: float = 1.0) -> float:
        """Worker → master transmission; returns the master receive time."""
        return self.up[worker].transmit(start, nbytes, factor)

    def links(self) -> list[Link]:
        """Every link in the topology (for conservation audits)."""
        return [*self.down, *self.up]


@dataclass
class EventTrace:
    """Audit record of one event-driven iteration.

    ``tasks`` maps every dispatched task (``"natural:w"`` / ``"repair:w"``)
    to its terminal status — exactly one of ``"completed"`` or
    ``"cancelled"`` — and ``loop.history`` carries the pop order.
    """

    loop: EventLoop
    topology: Topology
    tasks: dict[str, str]
    arrivals: dict[int, float]
    done_time: float
    deadline: float | None
    repaired: bool


def _deadline(sim, responses: np.ndarray, coverage: int, responders: int):
    """§4.3: the deadline armed after the first ``k`` responses, or None.

    ``responders`` is how many workers can respond at all; when fewer than
    ``k`` can, the deadline arms from every response that does arrive.
    """
    if sim.timeout is None:
        return None
    k = min(sim.timeout.min_responses or coverage, responders)
    if k == 0 or len(responses) < k:
        return None
    return sim.timeout.deadline(float(np.mean(responses[:k])))


def run_event_loop(
    sim,
    plan,
    speeds: np.ndarray,
    failed_workers: frozenset[int] = frozenset(),
    link_factors: np.ndarray | None = None,
) -> tuple[CodedIterationOutcome, EventTrace]:
    """Simulate one iteration of ``sim`` through the event loop.

    Returns the outcome the frozen walk (``coded_reference.py``) reports for
    the same timeline, plus the audit trace.  ``link_factors`` scale each
    worker's link bandwidth (``None``: all ones).
    """
    n = plan.n_workers
    speeds = _checked_speeds(speeds, n, batch=False)
    factors = np.ones(n) if link_factors is None else np.asarray(
        link_factors, dtype=np.float64
    )
    profile = walk.profile(sim, plan)
    loop = EventLoop()
    topology = Topology(n, sim.network)

    # --- Broadcast transmissions. -------------------------------------------
    for w in range(n):
        recv = topology.send_down(w, 0.0, sim._broadcast_bytes, factors[w])
        loop.schedule(
            Event(time=recv, kind="recv", worker=w), PRIORITY["recv"], tiebreak=w
        )

    reply_bytes = float(sim.cost.row_bytes(sim.width_out))
    responders = sum(1 for w in profile.active if w not in failed_workers)
    starts = np.zeros(n)  # broadcast receipt: when each task starts
    projected = np.full(n, np.inf)  # the uncontended reply arrival
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
            compute_end = walk.compute_end(sim, rows, float(speeds[w]), event.time)
            nbytes = rows * reply_bytes
            projected[w] = compute_end + (
                sim.network.latency
                + nbytes / (sim.network.bandwidth * factors[w])
            )
            tasks[f"natural:{w}"] = "dispatched"
            loop.schedule(
                Event(time=compute_end, kind="compute", worker=w, payload=nbytes),
                PRIORITY["compute"],
                tiebreak=w,
            )
        elif event.kind == "compute":
            arrive = topology.send_up(w, event.time, event.payload, factors[w])
            loop.schedule(
                Event(time=arrive, kind="arrival", worker=w),
                PRIORITY["arrival"],
                tiebreak=w,
            )
        elif event.kind == "arrival":
            arrivals[w] = arrived[w] = event.time
            if deadline is None:
                deadline = _deadline(
                    sim,
                    np.sort(arrivals[np.isfinite(arrivals)]),
                    plan.coverage,
                    responders,
                )
                if deadline is not None:
                    loop.schedule(
                        Event(time=deadline, kind="timeout"), PRIORITY["timeout"]
                    )
        elif event.kind == "timeout":
            if walk.natural_cover(sim, profile, arrivals)[1] <= event.time:
                continue  # coverage met by the deadline: no repair
            # Realised pop times where available, the link projection
            # otherwise (identical on dedicated links).
            estimates = np.where(np.isfinite(arrivals), arrivals, projected)
            repair = walk.search_repair(
                sim, profile, speeds, estimates, event.time, failed_workers
            )
            if repair is None:
                continue
            for v, rows in repair.extra_rows.items():
                recv = topology.send_down(v, repair.cutoff, 0.0, factors[v])
                tasks[f"repair:{v}"] = "dispatched"
                loop.schedule(
                    Event(time=recv, kind="repair-recv", worker=v, payload=rows),
                    PRIORITY["repair-recv"],
                    tiebreak=v,
                )
        elif event.kind == "repair-recv":
            rows = int(event.payload)
            compute_end = walk.compute_end(sim, rows, float(speeds[w]), event.time)
            loop.schedule(
                Event(time=compute_end, kind="repair-compute", worker=w,
                      payload=rows * reply_bytes),
                PRIORITY["repair-compute"],
                tiebreak=w,
            )
        elif event.kind == "repair-compute":
            arrive = topology.send_up(w, event.time, event.payload, factors[w])
            loop.schedule(
                Event(time=arrive, kind="repair-arrival", worker=w),
                PRIORITY["repair-arrival"],
                tiebreak=w,
            )
        elif event.kind == "repair-arrival":
            repair_arrivals[w] = event.time

    natural, done = walk.natural_cover(sim, profile, arrivals)
    finish = None
    if repair is not None:
        finish = max([repair.cutoff, *(repair_arrivals[v] for v in repair.extra)])
    outcome = walk.settle(
        sim, profile, speeds, failed_workers, starts, arrivals, natural, done,
        deadline, repair, finish,
    )

    # --- Task ledger: every dispatched task terminates exactly once. --------
    for w in profile.active:
        key = f"natural:{w}"
        if key in tasks:
            tasks[key] = "cancelled" if outcome.workers[w].cancelled else "completed"
    if repair is not None:
        for v in repair.extra:
            tasks[f"repair:{v}"] = "completed" if outcome.repaired else "cancelled"

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


def event_loop_outcome(sim, plan, speeds, failed_workers=frozenset(),
                       link_factors=None) -> CodedIterationOutcome:
    """:func:`run_event_loop`'s outcome alone."""
    return run_event_loop(sim, plan, speeds, failed_workers, link_factors)[0]
