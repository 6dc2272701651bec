"""The per-trial speed processes: the oracle of the draw surface.

Every scenario used to be a Python model stepped one trial and one round
at a time: ``speeds(i)`` on a :class:`GeneratedSpeeds` subclass (two
``random(n)`` calls per round for ``bursty``), the sequential
:class:`ControlledSpeeds`, a :class:`TraceSpeeds` replay of a whole
``horizon``-step trace, the combinator wrappers, and
:func:`link_factors_of` routing link factors through them.  The draw
surface (:class:`repro.cluster.speed_models.SpeedDraws`) replaces them
with per-row bulk draws and arithmetic across rows; this module freezes
the per-step code so the equivalence suites can pin the surface against
it bit for bit, factors included.

:func:`reference_model` builds the frozen per-trial model of any
scenario name — built-in, leaf override or composed expression — with the
registry's declared defaults and the composition's operand seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive_int, check_probability
from repro.cluster.compose import OPERAND_SEED_STRIDE, parse_scenario_name
from repro.cluster.scenarios import get_scenario
from repro.prediction.traces import BURSTY, MEASURED, STABLE, VOLATILE, TraceConfig


def generate_speed_traces(
    n_nodes: int,
    length: int,
    config: TraceConfig = STABLE,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Generate ``(n_nodes, length)`` speed traces in ``(0, 1]``.

    Each node's trace is an independent draw of the regime-switching
    process described by ``config``; speed 1.0 is the node's peak speed
    (the paper normalises Fig 2 the same way).
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive_int(length, "length")
    rng = as_rng(seed)
    levels = rng.uniform(config.level_low, config.level_high, size=n_nodes)
    noise_state = np.zeros(n_nodes)
    scale = np.sqrt(1.0 - config.noise_persistence**2)
    out = np.empty((n_nodes, length))
    for t in range(length):
        switches = rng.random(n_nodes) < config.switch_prob
        if switches.any():
            levels[switches] = rng.uniform(
                config.level_low, config.level_high, size=int(switches.sum())
            )
        noise_state = (
            config.noise_persistence * noise_state
            + scale * rng.standard_normal(n_nodes)
        )
        speed = levels * (1.0 + config.noise * noise_state)
        dips = rng.random(n_nodes) < config.dip_prob
        if dips.any():
            speed[dips] *= config.dip_depth
        out[:, t] = np.clip(speed, config.floor, 1.0)
    return out


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

    def link_factors_batch(self, iteration: int) -> np.ndarray | None:
        return link_factors_batch(self, iteration)


@dataclass
class GeneratedSpeeds:
    """Base class: seeded iteration-by-iteration generation with replay.

    Subclasses implement :meth:`_step` drawing one ``(n_workers,)`` speed
    vector from ``self._rng``; draws are memoised so any iteration can be
    re-queried (unlike :class:`~repro.cluster.speed_models.ControlledSpeeds`,
    which is strictly sequential).
    """

    n_workers: int
    seed: int | None = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _history: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")
        self._validate()
        self._rng = as_rng(self.seed)
        self._history = []

    def _validate(self) -> None:
        """Subclass hook for parameter validation (runs before the RNG)."""

    def speeds(self, iteration: int) -> np.ndarray:
        """Speeds for ``iteration`` (generated on demand, then replayed)."""
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        while len(self._history) <= iteration:
            self._history.append(self._step(len(self._history)))
        return self._history[iteration].copy()

    def _step(self, iteration: int) -> np.ndarray:
        raise NotImplementedError


@dataclass
class BurstySpeeds(GeneratedSpeeds):
    """Transient, memoryless co-tenant bursts (deep one-iteration dips).

    Every worker independently dips to ``dip_depth`` of its speed with
    probability ``dip_prob`` per iteration; undipped speeds carry a uniform
    ``[1 - jitter, 1]`` wobble.  Models the short interference bursts of
    shared cloud instances (the ``dip_prob`` / ``dip_depth`` knobs of the
    paper's trace generator, isolated from regime drift).
    """

    dip_prob: float = 0.08
    dip_depth: float = 0.25
    jitter: float = 0.1

    def _validate(self) -> None:
        check_probability(self.dip_prob, "dip_prob")
        if not 0 < self.dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def _step(self, iteration: int) -> np.ndarray:
        level = 1.0 - self.jitter * self._rng.random(self.n_workers)
        dips = self._rng.random(self.n_workers) < self.dip_prob
        return np.where(dips, level * self.dip_depth, level)


@dataclass
class MarkovOnOffSpeeds(GeneratedSpeeds):
    """Per-worker two-state (fast/slow) Markov chain.

    A fast worker enters the slow state with probability ``slow_prob`` per
    iteration and recovers with probability ``recover_prob``; slow workers
    run at ``slow_speed``.  Geometric sojourn times make this the minimal
    model of *persistent-but-finite* stragglers (the paper's §7.1
    stragglers are the ``recover_prob → 0`` limit), with stationary slow
    fraction ``slow_prob / (slow_prob + recover_prob)``.
    """

    slow_prob: float = 0.05
    recover_prob: float = 0.3
    slow_speed: float = 0.2
    _slow: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_probability(self.slow_prob, "slow_prob")
        check_probability(self.recover_prob, "recover_prob")
        if not 0 < self.slow_speed <= 1:
            raise ValueError("slow_speed must be in (0, 1]")
        self._slow = np.zeros(self.n_workers, dtype=bool)

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_workers)
        self._slow = np.where(
            self._slow, u >= self.recover_prob, u < self.slow_prob
        )
        return np.where(self._slow, self.slow_speed, 1.0)


@dataclass
class RackSlowdownSpeeds(GeneratedSpeeds):
    """Correlated rack-level slowdowns (shared ToR switch / power event).

    Workers are split into ``n_racks`` contiguous racks; each *rack* runs
    the two-state Markov chain of :class:`MarkovOnOffSpeeds`, so all
    workers of an affected rack slow to ``slow_speed`` together.
    Correlated straggling is the adversarial case for coded computation —
    a whole rack can exceed ``n - k`` — and is invisible to per-worker
    scenario models.
    """

    n_racks: int = 3
    slow_prob: float = 0.05
    recover_prob: float = 0.25
    slow_speed: float = 0.25
    _slow: np.ndarray = field(init=False, repr=False)
    _rack_of: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_positive_int(self.n_racks, "n_racks")
        if self.n_racks > self.n_workers:
            raise ValueError("n_racks must be <= n_workers")
        check_probability(self.slow_prob, "slow_prob")
        check_probability(self.recover_prob, "recover_prob")
        if not 0 < self.slow_speed <= 1:
            raise ValueError("slow_speed must be in (0, 1]")
        self._slow = np.zeros(self.n_racks, dtype=bool)
        self._rack_of = (
            np.arange(self.n_workers) * self.n_racks // self.n_workers
        )

    @property
    def rack_of(self) -> np.ndarray:
        """Worker → rack index map (contiguous, near-even racks)."""
        return self._rack_of.copy()

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_racks)
        self._slow = np.where(
            self._slow, u >= self.recover_prob, u < self.slow_prob
        )
        return np.where(self._slow[self._rack_of], self.slow_speed, 1.0)


@dataclass
class SpotPreemptionSpeeds(GeneratedSpeeds):
    """Spot/preemptible instances: near-total loss, later replacement.

    A worker is preempted with probability ``preempt_prob`` per iteration;
    a preempted slot crawls at ``floor`` speed (the simulators require
    positive speeds — ``floor`` makes the worker *effectively* dead, which
    is exactly what the §4.3 timeout repair and the conventional-code
    n−k slack are there to absorb) until a replacement arrives with
    probability ``restore_prob`` per iteration at full speed.
    """

    preempt_prob: float = 0.03
    restore_prob: float = 0.2
    floor: float = 0.02
    _down: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_probability(self.preempt_prob, "preempt_prob")
        check_probability(self.restore_prob, "restore_prob")
        if not 0 < self.floor < 1:
            raise ValueError("floor must be in (0, 1)")
        self._down = np.zeros(self.n_workers, dtype=bool)

    def _step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_workers)
        self._down = np.where(
            self._down, u >= self.restore_prob, u < self.preempt_prob
        )
        return np.where(self._down, self.floor, 1.0)


@dataclass
class LinkDegradedSpeeds(GeneratedSpeeds):
    """Base class for *network* scenarios: healthy compute, degraded links.

    Compute speeds are exactly ``1.0`` every iteration — the closed-form
    simulator sees a no-straggler environment — while
    :meth:`link_factors` exposes a seeded per-worker process of effective
    link-bandwidth multipliers (``1.0`` healthy, ``< 1`` congested) that
    only the event backend (:mod:`repro.cluster.events`) consumes.  Factor
    draws are memoised independently of speed draws, so interleaved
    ``speeds``/``link_factors`` queries replay identically and the RNG is
    consumed by the factor process alone.
    """

    _factor_history: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._factor_history = []

    def _step(self, iteration: int) -> np.ndarray:
        return np.ones(self.n_workers)

    def link_factors(self, iteration: int) -> np.ndarray:
        """Per-worker link factors for ``iteration`` (memoised replay)."""
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        while len(self._factor_history) <= iteration:
            self._factor_history.append(
                self._factor_step(len(self._factor_history))
            )
        return self._factor_history[iteration].copy()

    def _factor_step(self, iteration: int) -> np.ndarray:
        raise NotImplementedError


@dataclass
class NetworkSlowSpeeds(LinkDegradedSpeeds):
    """Persistent per-worker link degradation (``netslow``).

    ``num_slow`` workers — drawn once per seed — run their links at
    ``1/slowdown`` for the whole run: the network twin of the paper's
    persistent compute stragglers (an oversubscribed NIC or a flaky cable
    instead of a slow core).
    """

    num_slow: int = 2
    slowdown: float = 4.0
    _slow_links: np.ndarray | None = field(
        init=False, repr=False, default=None
    )

    def _validate(self) -> None:
        if not isinstance(self.num_slow, (int, np.integer)) or self.num_slow < 0:
            raise ValueError(f"num_slow must be an int >= 0, got {self.num_slow!r}")
        if self.num_slow > self.n_workers:
            raise ValueError("num_slow must be <= n_workers")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")

    def _factor_step(self, iteration: int) -> np.ndarray:
        if self._slow_links is None:
            slow = self._rng.permutation(self.n_workers)[: self.num_slow]
            mask = np.zeros(self.n_workers, dtype=bool)
            mask[slow] = True
            self._slow_links = mask
        return np.where(self._slow_links, 1.0 / self.slowdown, 1.0)


@dataclass
class RackCongestSpeeds(LinkDegradedSpeeds):
    """Rack-correlated Markov link congestion (``rackcongest``).

    Each of ``n_racks`` contiguous racks enters a congested state with
    probability ``congest_prob`` per iteration and recovers with
    ``recover_prob``; every worker of a congested rack sees its link run
    at ``1/slowdown``.  The network twin of :class:`RackSlowdownSpeeds` —
    a saturated ToR uplink slows a whole rack's transfers together.
    """

    n_racks: int = 3
    congest_prob: float = 0.08
    recover_prob: float = 0.3
    slowdown: float = 4.0
    _congested: np.ndarray = field(init=False, repr=False)
    _rack_of: np.ndarray = field(init=False, repr=False)

    def _validate(self) -> None:
        check_positive_int(self.n_racks, "n_racks")
        if self.n_racks > self.n_workers:
            raise ValueError("n_racks must be <= n_workers")
        check_probability(self.congest_prob, "congest_prob")
        check_probability(self.recover_prob, "recover_prob")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        self._congested = np.zeros(self.n_racks, dtype=bool)
        self._rack_of = (
            np.arange(self.n_workers) * self.n_racks // self.n_workers
        )

    def _factor_step(self, iteration: int) -> np.ndarray:
        u = self._rng.random(self.n_racks)
        self._congested = np.where(
            self._congested, u >= self.recover_prob, u < self.congest_prob
        )
        return np.where(
            self._congested[self._rack_of], 1.0 / self.slowdown, 1.0
        )


@dataclass
class LinkBurstySpeeds(LinkDegradedSpeeds):
    """Memoryless per-worker link dips (``linkbursty``).

    Every worker's link independently dips to ``dip_depth`` of its
    bandwidth with probability ``dip_prob`` per iteration — transient
    cross-traffic bursts, the network twin of :class:`BurstySpeeds`.
    """

    dip_prob: float = 0.1
    dip_depth: float = 0.2

    def _validate(self) -> None:
        check_probability(self.dip_prob, "dip_prob")
        if not 0 < self.dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")

    def _factor_step(self, iteration: int) -> np.ndarray:
        dips = self._rng.random(self.n_workers) < self.dip_prob
        return np.where(dips, self.dip_depth, 1.0)


@dataclass
class ConcatSpeeds:
    """Play each operand model for ``segment`` iterations, in order.

    Operand ``i`` is queried with *local* iteration indices (it starts
    from its own iteration 0 when its segment begins); the last operand's
    segment extends indefinitely.  Local indexing keeps each segment a
    faithful replay of its scenario and preserves the ``concat(a) ≡ a``
    identity for a single operand.
    """

    models: tuple[SpeedModel, ...]
    segment: int

    def __post_init__(self) -> None:
        self.models = tuple(self.models)
        if not self.models:
            raise ValueError("concat needs at least one operand model")
        check_positive_int(self.segment, "segment")

    @property
    def n_workers(self) -> int:
        return self.models[0].n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        index = min(iteration // self.segment, len(self.models) - 1)
        return self.models[index].speeds(iteration - index * self.segment)


@dataclass
class MixSpeeds:
    """Per-iteration convex combination ``w·a + (1−w)·b``.

    ``weight=1.0`` reproduces ``a`` bitwise (``1·x + 0·y == x`` exactly
    for the positive finite speeds the models guarantee) — the algebra's
    mix identity law.
    """

    a: SpeedModel
    b: SpeedModel
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")

    @property
    def n_workers(self) -> int:
        return self.a.n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        return self.weight * self.a.speeds(iteration) + (
            1.0 - self.weight
        ) * self.b.speeds(iteration)


@dataclass
class OverlaySpeeds:
    """Element-wise minimum of the operands' speeds.

    Models independent interference sources acting on the same workers:
    each worker runs at the speed its *worst* affliction allows.
    """

    models: tuple[SpeedModel, ...]

    def __post_init__(self) -> None:
        self.models = tuple(self.models)
        if not self.models:
            raise ValueError("overlay needs at least one operand model")

    @property
    def n_workers(self) -> int:
        return self.models[0].n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        return np.minimum.reduce([m.speeds(iteration) for m in self.models])


@dataclass
class TimeShiftSpeeds:
    """Query the operand ``shift`` iterations ahead (phase shift)."""

    model: SpeedModel
    shift: int

    def __post_init__(self) -> None:
        if not isinstance(self.shift, (int, np.integer)) or self.shift < 0:
            raise ValueError(f"shift must be an int >= 0, got {self.shift!r}")

    @property
    def n_workers(self) -> int:
        return self.model.n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        return self.model.speeds(iteration + self.shift)


@dataclass
class ScaleSpeeds:
    """Multiply the operand's speeds by a positive ``factor``.

    ``factor <= 1`` keeps the registry's unit-speed convention; larger
    factors are allowed for callers that model over-provisioned nodes.
    """

    model: SpeedModel
    factor: float

    def __post_init__(self) -> None:
        if not self.factor > 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")

    @property
    def n_workers(self) -> int:
        return self.model.n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        return self.factor * self.model.speeds(iteration)



def link_factors_of(model, iteration: int) -> np.ndarray | None:
    """Per-worker link factors of ``model`` at ``iteration`` (or ``None``)."""
    method = getattr(model, "link_factors", None)
    if callable(method):
        return np.asarray(method(iteration), dtype=np.float64)
    if isinstance(model, ConcatSpeeds):
        index = min(iteration // model.segment, len(model.models) - 1)
        return link_factors_of(
            model.models[index], iteration - index * model.segment
        )
    if isinstance(model, MixSpeeds):
        fa = link_factors_of(model.a, iteration)
        fb = link_factors_of(model.b, iteration)
        if fa is None and fb is None:
            return None
        if fa is None:
            fa = np.ones(model.a.n_workers)
        if fb is None:
            fb = np.ones(model.b.n_workers)
        return model.weight * fa + (1.0 - model.weight) * fb
    if isinstance(model, OverlaySpeeds):
        parts = [link_factors_of(m, iteration) for m in model.models]
        if all(p is None for p in parts):
            return None
        n = model.n_workers
        return np.minimum.reduce(
            [np.ones(n) if p is None else p for p in parts]
        )
    if isinstance(model, TimeShiftSpeeds):
        return link_factors_of(model.model, iteration + model.shift)
    if isinstance(model, ScaleSpeeds):
        return link_factors_of(model.model, iteration)
    return None


def link_factors_batch(model, iteration: int) -> np.ndarray | None:
    """``(trials, workers)`` factor matrix for a batched speed model.

    :class:`StackedSpeeds` rows are extracted per submodel; any row with
    no degradation contributes unit factors.  Returns ``None`` when no
    row degrades anything (the common compute-only case).
    """
    if isinstance(model, StackedSpeeds):
        rows = [link_factors_of(m, iteration) for m in model.models]
        if all(r is None for r in rows):
            return None
        n = model.n_workers
        return np.stack([np.ones(n) if r is None else r for r in rows])
    factors = link_factors_of(model, iteration)
    if factors is None:
        return None
    return factors[np.newaxis, :]


# ---------------------------------------------------------------------------
# The per-trial builders of the scenario registry, frozen
# ---------------------------------------------------------------------------

TRACE_PRESETS = {
    "stable": STABLE,
    "volatile": VOLATILE,
    "bursty": BURSTY,
    "measured": MEASURED,
}


def _constant(n_workers, seed, spread):
    if not 0 <= spread < 1:
        raise ValueError("spread must be in [0, 1)")
    return ConstantSpeeds(1.0 - spread * as_rng(seed).random(n_workers))


def _traces(n_workers, seed, preset, horizon):
    check_positive_int(horizon, "horizon")
    config: TraceConfig = TRACE_PRESETS[preset]
    return TraceSpeeds(generate_speed_traces(n_workers, horizon, config, seed=seed))


_BUILDERS = {
    "constant": _constant,
    "controlled": lambda n_workers, seed, **p: ControlledSpeeds(
        n_workers, seed=seed, **p
    ),
    "bursty": lambda n_workers, seed, **p: BurstySpeeds(n_workers, seed=seed, **p),
    "markov": lambda n_workers, seed, slowdown, **p: MarkovOnOffSpeeds(
        n_workers, seed=seed, slow_speed=1.0 / slowdown, **p
    ),
    "rack": lambda n_workers, seed, slowdown, **p: RackSlowdownSpeeds(
        n_workers, seed=seed, slow_speed=1.0 / slowdown, **p
    ),
    "spot": lambda n_workers, seed, **p: SpotPreemptionSpeeds(
        n_workers, seed=seed, **p
    ),
    "traces": _traces,
    "netslow": lambda n_workers, seed, **p: NetworkSlowSpeeds(
        n_workers, seed=seed, **p
    ),
    "rackcongest": lambda n_workers, seed, **p: RackCongestSpeeds(
        n_workers, seed=seed, **p
    ),
    "linkbursty": lambda n_workers, seed, **p: LinkBurstySpeeds(
        n_workers, seed=seed, **p
    ),
}

_COMBINATORS = {
    "concat": lambda models, segment: ConcatSpeeds(models, segment=segment),
    "mix": lambda models, weight: MixSpeeds(models[0], models[1], weight=weight),
    "overlay": lambda models: OverlaySpeeds(models),
    "time_shift": lambda models, shift: TimeShiftSpeeds(models[0], shift=shift),
    "scale": lambda models, factor: ScaleSpeeds(models[0], factor=factor),
}


def _leaf(name, n_workers, seed, overrides):
    spec = get_scenario(name)
    params = {**dict(spec.defaults), **dict(overrides)}
    if spec.compose is not None:  # a registered composition as an operand
        return _node(spec.compose, n_workers, seed, params)
    builder = _BUILDERS.get(name)
    if builder is None or spec.batched is False:
        return spec.builder(n_workers=n_workers, seed=seed, **params)
    return builder(n_workers, seed, **params)


def _node(node, n_workers, seed, params=None):
    if node.kind == "leaf":
        return _leaf(node.name, n_workers, seed, node.params)
    models = tuple(
        _node(op, n_workers, None if seed is None else seed + OPERAND_SEED_STRIDE * i)
        for i, op in enumerate(node.operands)
    )
    return _COMBINATORS[node.name](models, **dict(params or node.params))


def reference_model(name: str, n_workers: int, seed: int | None = 0, **overrides):
    """The frozen per-trial model of a scenario name (base or composed)."""
    if "(" in name:
        node = parse_scenario_name(name)
        if node.kind == "leaf":
            return _leaf(node.name, n_workers, seed, {**dict(node.params), **overrides})
        return _node(node, n_workers, seed, {**dict(node.params), **overrides})
    return _leaf(name, n_workers, seed, overrides)


def reference_rows(rows, n_workers: int) -> StackedSpeeds:
    """The frozen stack of per-trial models over ``(scenario, seed)`` rows."""
    return StackedSpeeds(
        tuple(reference_model(scenario, n_workers, seed) for scenario, seed in rows)
    )
