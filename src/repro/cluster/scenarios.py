"""Pluggable straggler-scenario library: named, declarative speed processes.

The paper evaluates two environments (the controlled cluster of §7.1 and
the drifting commercial cloud of §7.2), but straggling in the wild comes in
many more shapes — transient co-tenant bursts, correlated rack-level
slowdowns, spot-instance preemption.  This module turns "which straggler
environment" into a *named scenario* that experiments can sweep over:

* a **registry** maps a scenario name to a builder producing a
  :class:`~repro.cluster.speed_models.SpeedModel` for ``(n_workers, seed)``
  plus declared default parameters;
* :func:`scenario_speed_model` builds the single-trial model,
  :func:`scenario_batch` stacks per-trial-seeded models into the
  ``(trials, workers)`` batch form the batched simulators consume —
  the same scenario therefore drives the scalar *and* the batched paths;
* scenario names are plain strings, so a scenario is directly usable as a
  :class:`~repro.engine.plan.SweepSpec` axis value (JSON-serialisable,
  picklable across the process pool) and from the CLI
  (``python -m repro scenarios`` lists the registry).

Because the built-in generators are part of the ``repro`` package, editing
one already invalidates the sweep cache via the package source digest;
:func:`registry_digest` additionally folds in *runtime* registrations
(scenarios defined in user code) so
:class:`~repro.engine.runner.ExecutionEngine` never serves a cached cell
computed under a different registry.

Scenario processes built on :class:`GeneratedSpeeds` (or trace replay)
support **random access**: ``speeds(iteration)`` memoises the generated
draws, so earlier iterations can be re-queried (predictors and sweep
cells interleave reads) and a given ``(scenario, seed)`` pair always
replays the identical trajectory.  The one exception is ``controlled``,
which wraps the strictly sequential
:class:`~repro.cluster.speed_models.ControlledSpeeds` — create a fresh
model to replay it.

See ``docs/scenarios.md`` for the authoring guide and the paper phenomenon
each built-in models.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro._util import (
    as_rng,
    builder_source,
    check_positive_int,
    check_probability,
)
from repro.cluster.speed_models import (
    ConstantSpeeds,
    ControlledSpeeds,
    SpeedModel,
    StackedSpeeds,
    TraceSpeeds,
)
from repro.prediction.traces import (
    BURSTY,
    MEASURED,
    STABLE,
    VOLATILE,
    TraceConfig,
    generate_speed_traces,
)

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "available_scenarios",
    "get_scenario",
    "scenario_speed_model",
    "scenario_batch",
    "registry_digest",
    "GeneratedSpeeds",
    "BurstySpeeds",
    "MarkovOnOffSpeeds",
    "RackSlowdownSpeeds",
    "SpotPreemptionSpeeds",
    "LinkDegradedSpeeds",
    "NetworkSlowSpeeds",
    "RackCongestSpeeds",
    "LinkBurstySpeeds",
    "TRACE_PRESETS",
]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: metadata plus the model builder.

    Attributes
    ----------
    name:
        Registry key (also the sweep-axis / CLI value).
    summary:
        One-line description for listings.
    models:
        The phenomenon (and paper section, where applicable) the scenario
        reproduces.
    builder:
        ``builder(n_workers=..., seed=..., **params) -> SpeedModel``.
    defaults:
        Declared ``(param, value)`` defaults; overrides outside this set
        are rejected, keeping sweep axes typo-safe.
    compose:
        For composed scenarios (built by :mod:`repro.cluster.compose`),
        the resolved composition tree; ``None`` for base scenarios.  The
        digest of a composed spec hashes this structure plus the digests
        of every scenario it is built from, recursively.
    """

    name: str
    summary: str
    models: str
    builder: Callable[..., SpeedModel]
    defaults: tuple[tuple[str, Any], ...] = ()
    compose: Any = None


_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str, summary: str, models: str = "", **defaults: Any
):
    """Decorator: register ``builder(n_workers, seed, **params)`` by name.

    ``defaults`` declare the scenario's tunable parameters and their
    default values — the only keyword overrides
    :func:`scenario_speed_model` will accept.
    """

    def decorator(builder: Callable[..., SpeedModel]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            summary=summary,
            models=models,
            builder=builder,
            defaults=tuple(sorted(defaults.items())),
        )
        return builder

    return decorator


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario; ``KeyError`` lists the registry on a miss.

    Composition expressions (``overlay(rack,bursty)``,
    ``mix(bursty,constant,weight=0.7)`` — see
    :mod:`repro.cluster.compose`) resolve **on demand** without prior
    registration, so composed names work anywhere a base name does — CLI
    flags, sweep axes, and pool worker processes, which never see runtime
    registrations.  Malformed or unknown expressions raise the same
    registry-listing ``KeyError`` shape as a plain miss.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if "(" in name:
        from repro.cluster.compose import composed_spec

        return composed_spec(name)
    raise KeyError(
        f"unknown scenario {name!r}; available: "
        f"{', '.join(available_scenarios())}"
    )


def scenario_speed_model(
    name: str, n_workers: int, seed: int | None = 0, **overrides: Any
) -> SpeedModel:
    """Build the named scenario's single-trial speed model."""
    spec = get_scenario(name)
    params = dict(spec.defaults)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(
            f"scenario {name!r} has no parameter(s) {sorted(unknown)}; "
            f"tunable: {sorted(params)}"
        )
    params.update(overrides)
    return spec.builder(n_workers=n_workers, seed=seed, **params)


def scenario_batch(
    name: str, n_workers: int, seeds: Sequence[int], **overrides: Any
) -> StackedSpeeds:
    """Stack one per-seed model per trial into the batch speed form.

    Trial ``t`` replays exactly what ``scenario_speed_model(name,
    n_workers, seeds[t])`` would produce — the property the batched-vs-loop
    equivalence tests rely on.
    """
    return StackedSpeeds(
        tuple(
            scenario_speed_model(name, n_workers, seed=s, **overrides)
            for s in seeds
        )
    )


def _spec_digest(spec: ScenarioSpec) -> str:
    """Content hash of one *base* spec: name, defaults, builder source.

    Falls back to the builder's ``repr`` when its source is not
    retrievable, so runtime registrations still perturb the digest.
    """
    digest = hashlib.sha256()
    digest.update(spec.name.encode())
    digest.update(repr(spec.defaults).encode())
    digest.update(builder_source(spec.builder).encode())
    return digest.hexdigest()


def registry_digest() -> str:
    """Content hash of the scenario registry (a sweep-cache key input).

    Base scenarios hash names, defaults, and builder source (falling back
    to the builder's ``repr`` for builders without retrievable source), so
    registering or editing a scenario at runtime invalidates cached sweep
    cells even when the builder lives outside the ``repro`` package tree.
    Composed scenarios (:mod:`repro.cluster.compose`) fold
    **compositionally**: their digest hashes the combinator structure plus
    the digests of every operand, recursively — editing a base scenario
    therefore re-keys every registered composition built on it.
    """
    digest = hashlib.sha256()
    composed = [
        spec for spec in _REGISTRY.values() if spec.compose is not None
    ]
    if composed:
        from repro.cluster.compose import _leaf_digest, node_digest

    for name in available_scenarios():
        spec = _REGISTRY[name]
        if spec.compose is not None:
            digest.update(name.encode())
            digest.update(node_digest(spec.compose, _leaf_digest).encode())
        else:
            digest.update(_spec_digest(spec).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Scenario speed processes
# ---------------------------------------------------------------------------


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


#: Named presets for the ``traces`` scenario, mapping to the calibrated
#: :class:`~repro.prediction.traces.TraceConfig` instances.
TRACE_PRESETS: dict[str, TraceConfig] = {
    "stable": STABLE,
    "volatile": VOLATILE,
    "bursty": BURSTY,
    "measured": MEASURED,
}


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------


@register_scenario(
    "constant",
    "fixed (optionally heterogeneous) speeds every iteration",
    models="no-straggler control; spread>0 adds static heterogeneity",
    spread=0.0,
)
def _build_constant(n_workers: int, seed: int | None, spread: float):
    if not 0 <= spread < 1:
        raise ValueError("spread must be in [0, 1)")
    rng = as_rng(seed)
    return ConstantSpeeds(1.0 - spread * rng.random(n_workers))


@register_scenario(
    "controlled",
    "persistent >=5x stragglers plus +/-20% AR(1) jitter",
    models="the paper's controlled cluster (paper section 7.1)",
    num_stragglers=2,
    slowdown=5.0,
    jitter=0.2,
)
def _build_controlled(
    n_workers: int,
    seed: int | None,
    num_stragglers: int,
    slowdown: float,
    jitter: float,
):
    return ControlledSpeeds(
        n_workers,
        num_stragglers=num_stragglers,
        slowdown=slowdown,
        jitter=jitter,
        seed=seed,
    )


@register_scenario(
    "bursty",
    "memoryless one-iteration co-tenant dips",
    models="transient interference bursts (paper section 3.2 dips)",
    dip_prob=0.08,
    dip_depth=0.25,
    jitter=0.1,
)
def _build_bursty(
    n_workers: int,
    seed: int | None,
    dip_prob: float,
    dip_depth: float,
    jitter: float,
):
    return BurstySpeeds(
        n_workers, seed=seed, dip_prob=dip_prob, dip_depth=dip_depth, jitter=jitter
    )


@register_scenario(
    "markov",
    "per-worker fast/slow Markov chain (geometric straggle spells)",
    models="persistent-but-finite stragglers (paper section 7.1 generalised)",
    slow_prob=0.05,
    recover_prob=0.3,
    slowdown=5.0,
)
def _build_markov(
    n_workers: int,
    seed: int | None,
    slow_prob: float,
    recover_prob: float,
    slowdown: float,
):
    if slowdown < 1:
        raise ValueError("slowdown must be >= 1")
    return MarkovOnOffSpeeds(
        n_workers,
        seed=seed,
        slow_prob=slow_prob,
        recover_prob=recover_prob,
        slow_speed=1.0 / slowdown,
    )


@register_scenario(
    "rack",
    "correlated rack-level slowdown (whole racks straggle together)",
    models="shared ToR-switch / power events; adversarial for n-k slack",
    n_racks=3,
    slow_prob=0.05,
    recover_prob=0.25,
    slowdown=4.0,
)
def _build_rack(
    n_workers: int,
    seed: int | None,
    n_racks: int,
    slow_prob: float,
    recover_prob: float,
    slowdown: float,
):
    if slowdown < 1:
        raise ValueError("slowdown must be >= 1")
    return RackSlowdownSpeeds(
        n_workers,
        seed=seed,
        n_racks=n_racks,
        slow_prob=slow_prob,
        recover_prob=recover_prob,
        slow_speed=1.0 / slowdown,
    )


@register_scenario(
    "spot",
    "spot-instance preemption with delayed replacement",
    models="preemptible VMs: near-dead slots until a replacement arrives",
    preempt_prob=0.03,
    restore_prob=0.2,
    floor=0.02,
)
def _build_spot(
    n_workers: int,
    seed: int | None,
    preempt_prob: float,
    restore_prob: float,
    floor: float,
):
    return SpotPreemptionSpeeds(
        n_workers,
        seed=seed,
        preempt_prob=preempt_prob,
        restore_prob=restore_prob,
        floor=floor,
    )


@register_scenario(
    "traces",
    "regime-switching cloud trace replay (stable/volatile/bursty/measured)",
    models="the paper's measured cloud environments (paper section 3.2, 7.2)",
    preset="volatile",
    horizon=64,
)
def _build_traces(
    n_workers: int, seed: int | None, preset: str, horizon: int
):
    try:
        config = TRACE_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown trace preset {preset!r}; available: "
            f"{', '.join(sorted(TRACE_PRESETS))}"
        ) from None
    check_positive_int(horizon, "horizon")
    return TraceSpeeds(generate_speed_traces(n_workers, horizon, config, seed=seed))


@register_scenario(
    "netslow",
    "persistent per-worker link slowdown; compute stays healthy",
    models="oversubscribed NICs / flaky cables — event backend only "
    "(closed form sees constant speeds)",
    num_slow=2,
    slowdown=4.0,
)
def _build_netslow(
    n_workers: int, seed: int | None, num_slow: int, slowdown: float
):
    return NetworkSlowSpeeds(
        n_workers, seed=seed, num_slow=num_slow, slowdown=slowdown
    )


@register_scenario(
    "rackcongest",
    "rack-correlated Markov link congestion (whole racks' transfers stall)",
    models="saturated ToR uplinks — event backend only (closed form sees "
    "constant speeds)",
    n_racks=3,
    congest_prob=0.08,
    recover_prob=0.3,
    slowdown=4.0,
)
def _build_rackcongest(
    n_workers: int,
    seed: int | None,
    n_racks: int,
    congest_prob: float,
    recover_prob: float,
    slowdown: float,
):
    return RackCongestSpeeds(
        n_workers,
        seed=seed,
        n_racks=n_racks,
        congest_prob=congest_prob,
        recover_prob=recover_prob,
        slowdown=slowdown,
    )


@register_scenario(
    "linkbursty",
    "memoryless one-iteration link-bandwidth dips",
    models="transient cross-traffic bursts — event backend only (closed "
    "form sees constant speeds)",
    dip_prob=0.1,
    dip_depth=0.2,
)
def _build_linkbursty(
    n_workers: int, seed: int | None, dip_prob: float, dip_depth: float
):
    return LinkBurstySpeeds(
        n_workers, seed=seed, dip_prob=dip_prob, dip_depth=dip_depth
    )
