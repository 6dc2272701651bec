"""Pluggable straggler-scenario library: named, declarative speed processes.

The paper evaluates two environments (the controlled cluster of §7.1 and
the drifting commercial cloud of §7.2), but straggling in the wild comes in
many more shapes — transient co-tenant bursts, correlated rack-level
slowdowns, spot-instance preemption.  This module turns "which straggler
environment" into a *named scenario* that experiments can sweep over:

* a **registry** maps a scenario name to a builder plus declared default
  parameters;
* :func:`scenario_batch` draws a scenario's ``(seed)`` rows through one
  :class:`~repro.cluster.speed_models.SpeedDraws` surface — the
  ``(rows, workers, rounds)`` tensors the batched simulators read — and
  :func:`scenario_speed_model` is its one-row view, the single-trial
  :class:`~repro.cluster.speed_models.SpeedModel`; row ``t`` of a batch
  is bit for bit the single-trial model seeded ``seeds[t]``;
* scenario names are plain strings, so a scenario is directly usable as a
  :class:`~repro.engine.plan.SweepSpec` axis value (JSON-serialisable,
  picklable across the process pool) and from the CLI
  (``python -m repro scenarios`` lists the registry).

The built-ins draw lazily, only the rounds that are read: each row's
per-round uniforms or normals come from one bulk call on the row's own
generator per extension — the same bits, in the same order, as stepping
a per-trial model round by round — and the arithmetic runs across all
rows at once.  ``traces`` steps each row (a regime switch draws a
data-dependent number of levels) but generates only the steps a run
reads, wrapping at ``horizon``.  Building a scenario validates its
parameters and draws nothing.

A scenario registered with :func:`register_scenario` builds one
per-trial model per seed — typically a :class:`GeneratedSpeeds`
subclass, which only defines ``_step`` — and goes through the same
surface, one ``speeds(i)`` per row and round
(:class:`~repro.cluster.speed_models.StackedSpeeds`).

Because the built-in generators are part of the ``repro`` package, editing
one already invalidates the sweep cache via the package source digest;
:func:`registry_digest` additionally folds in *runtime* registrations
(scenarios defined in user code) so
:class:`~repro.engine.runner.ExecutionEngine` never serves a cached cell
computed under a different registry.

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
    ControlledDraws,
    SeededDraws,
    SpeedDraws,
    SpeedModel,
    StackedSpeeds,
)
from repro.prediction.traces import (
    BURSTY,
    MEASURED,
    STABLE,
    VOLATILE,
    TraceConfig,
    advance_traces,
    initial_levels,
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
    "ConstantDraws",
    "DipDraws",
    "MarkovDraws",
    "NetSlowDraws",
    "TracesDraws",
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
        ``builder(n_workers=..., seed=..., **params) -> SpeedModel``, or
        with ``batched``, ``builder(n_workers=..., seeds=..., **params)
        -> SpeedDraws``.
    defaults:
        Declared ``(param, value)`` defaults; overrides outside this set
        are rejected, keeping sweep axes typo-safe.
    compose:
        For composed scenarios (built by :mod:`repro.cluster.compose`),
        the resolved composition tree; ``None`` for base scenarios.  The
        digest of a composed spec hashes this structure plus the digests
        of every scenario it is built from, recursively.
    batched:
        Whether ``builder`` draws all rows of a batch at once (the
        built-in and composed scenarios).
    """

    name: str
    summary: str
    models: str
    builder: Callable[..., Any]
    defaults: tuple[tuple[str, Any], ...] = ()
    compose: Any = None
    batched: bool = False


_REGISTRY: dict[str, ScenarioSpec] = {}


def _registrar(name: str, summary: str, models: str, batched: bool, defaults):
    def decorator(builder: Callable[..., Any]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            summary=summary,
            models=models,
            builder=builder,
            defaults=tuple(sorted(defaults.items())),
            batched=batched,
        )
        return builder

    return decorator


def register_scenario(
    name: str, summary: str, models: str = "", **defaults: Any
):
    """Decorator: register ``builder(n_workers, seed, **params)`` by name.

    ``defaults`` declare the scenario's tunable parameters and their
    default values — the only keyword overrides
    :func:`scenario_speed_model` will accept.
    """
    return _registrar(name, summary, models, False, defaults)


def _builtin(name: str, summary: str, models: str, **defaults: Any):
    """Register a built-in ``builder(n_workers, seeds, **params) -> SpeedDraws``."""
    return _registrar(name, summary, models, True, defaults)


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
    registry-listing ``KeyError`` shape as a plain miss; a parameter value
    of the wrong type (``controlled(slowdown=nan)`` parses ``nan`` as a
    name) raises ``ValueError``.
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


def _check_override(scenario: str, owner: str, key: str, value: Any, default: Any):
    """Reject a parameter value whose type does not match its default's.

    Ints are acceptable where floats are declared (3 == 3.0); a string
    is acceptable only where a string is declared.
    """
    if isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    elif isinstance(default, (int, float)) and not isinstance(default, bool):
        whole = isinstance(default, int)
        kind = "an int" if whole else "a number"
        allowed = (int, np.integer) if whole else (int, float, np.integer, np.floating)
        ok = isinstance(value, allowed) and not isinstance(value, bool)
    else:
        return
    if not ok:
        where = "" if owner == scenario else f"{owner!r} "
        raise ValueError(
            f"scenario {scenario!r}: {where}parameter {key!r} expects {kind}, "
            f"got {value!r}"
        )


def _declared(spec: ScenarioSpec) -> dict[str, Any]:
    """The defaults a spec's parameters were declared with.

    A composed spec's defaults are the values its expression spells
    (``controlled(slowdown=5)`` holds an int), so its overrides are
    checked against the combinator's or base scenario's declaration.
    """
    node = spec.compose
    if node is None:
        return dict(spec.defaults)
    if node.kind == "combinator":
        from repro.cluster.compose import get_combinator

        return dict(get_combinator(node.name).defaults)
    return _declared(get_scenario(node.name))


def _resolved(name: str, overrides: dict[str, Any]):
    spec = get_scenario(name)
    params = dict(spec.defaults)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(
            f"scenario {name!r} has no parameter(s) {sorted(unknown)}; "
            f"tunable: {sorted(params)}"
        )
    declared = _declared(spec) if overrides else {}
    for key, value in overrides.items():
        _check_override(name, name, key, value, declared[key])
    params.update(overrides)
    return spec, params


def scenario_speed_model(
    name: str, n_workers: int, seed: int | None = 0, **overrides: Any
) -> SpeedModel:
    """Build the named scenario's single-trial speed model (a one-row view)."""
    spec, params = _resolved(name, overrides)
    if spec.batched:
        return spec.builder(n_workers=n_workers, seeds=(seed,), **params).row(0)
    return spec.builder(n_workers=n_workers, seed=seed, **params)


def scenario_batch(
    name: str, n_workers: int, seeds: Sequence[int], **overrides: Any
) -> SpeedDraws:
    """The named scenario's draw surface, one row per entry of ``seeds``.

    Row ``t`` replays exactly what ``scenario_speed_model(name,
    n_workers, seeds[t])`` would produce — the property the
    batched-vs-loop equivalence tests rely on.  Nothing is drawn until a
    round is read.
    """
    spec, params = _resolved(name, overrides)
    seeds = tuple(seeds)
    if spec.batched:
        return spec.builder(n_workers=n_workers, seeds=seeds, **params)
    return StackedSpeeds(
        [spec.builder(n_workers=n_workers, seed=s, **params) for s in seeds]
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
    """Base class of user scenarios: seeded round-by-round generation with replay.

    Subclasses implement :meth:`_step` drawing one ``(n_workers,)`` speed
    vector from ``self._rng``; draws are memoised so any iteration can be
    re-queried.  A batch of such models is read one ``_step`` per row and
    round; the built-in scenarios draw whole blocks of rounds instead.
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


def _unit_factors(factors: np.ndarray):
    """A network scenario's ``_block``: unit speeds, ``factors`` on every link."""
    return np.ones_like(factors), factors, np.ones(factors.shape[:2], dtype=bool)


class ConstantDraws(SeededDraws):
    """``constant``: each row's speeds ``1 - spread·U[0, 1)``, drawn once."""

    def __init__(self, n_workers: int, seeds: Sequence, spread: float):
        if not 0 <= spread < 1:
            raise ValueError("spread must be in [0, 1)")
        super().__init__(n_workers, seeds)
        self.spread = spread
        self._values: np.ndarray | None = None

    def _block(self, start: int, stop: int):
        if self._values is None:
            # 1 - 0·u is exactly 1.0, so no spread needs no generator.
            self._values = (
                np.ones((self.n_trials, self.n_workers))
                if self.spread == 0
                else 1.0 - self.spread * self._uniform(self.n_workers)
            )
        shape = (stop - start, *self._values.shape)
        return np.broadcast_to(self._values, shape).copy(), None, None


class DipDraws(SeededDraws):
    """Memoryless one-round dips: ``bursty`` speeds, or ``linkbursty`` links.

    Every worker independently dips to ``dip_depth`` with probability
    ``dip_prob`` per round.  Speeds (``links`` unset) carry a uniform
    ``[1 - jitter, 1]`` wobble, drawn before the dips; link factors
    (``links`` set) are ``1.0`` when undipped.
    """

    def __init__(
        self,
        n_workers: int,
        seeds: Sequence,
        dip_prob: float,
        dip_depth: float,
        jitter: float = 0.0,
        links: bool = False,
    ):
        check_probability(dip_prob, "dip_prob")
        if not 0 < dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")
        if not 0 <= jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        super().__init__(n_workers, seeds, links)
        self.dip_prob, self.dip_depth, self.jitter = dip_prob, dip_depth, jitter

    def _block(self, start: int, stop: int):
        if self.links:
            dipped = self._uniform(stop - start, self.n_workers) < self.dip_prob
            return _unit_factors(
                np.where(dipped.transpose(1, 0, 2), self.dip_depth, 1.0)
            )
        u = self._uniform(stop - start, 2, self.n_workers).transpose(1, 2, 0, 3)
        level = 1.0 - self.jitter * u[:, 0]
        dipped = u[:, 1] < self.dip_prob
        return np.where(dipped, level * self.dip_depth, level), None, None


class MarkovDraws(SeededDraws):
    """Two-state Markov chains: ``markov``/``rack``/``spot``/``rackcongest``.

    One chain per worker — or per rack, when ``n_racks`` splits the
    workers into contiguous near-even racks that slow together.  A chain
    enters its slow state with probability ``enter_prob`` per round and
    leaves it with ``leave_prob``; the workers of a slow chain run at
    ``slow`` (their speed, or with ``links`` their link factor).
    """

    def __init__(
        self,
        n_workers: int,
        seeds: Sequence,
        enter_prob: float,
        leave_prob: float,
        slow: float,
        n_racks: int | None = None,
        links: bool = False,
    ):
        super().__init__(n_workers, seeds, links)
        units = n_workers if n_racks is None else n_racks
        self.enter_prob, self.leave_prob, self.slow = enter_prob, leave_prob, slow
        self._unit_of = np.arange(n_workers) * units // n_workers
        self._state = np.zeros((self.n_trials, units), dtype=bool)

    def _block(self, start: int, stop: int):
        u = self._uniform(stop - start, self._state.shape[1])
        chains = np.empty((stop - start, *self._state.shape), dtype=bool)
        state = self._state
        for j in range(stop - start):
            stays, enters = u[:, j] >= self.leave_prob, u[:, j] < self.enter_prob
            state = np.where(state, stays, enters)
            chains[j] = state
        self._state = state
        values = np.where(chains[:, :, self._unit_of], self.slow, 1.0)
        return _unit_factors(values) if self.links else (values, None, None)


class NetSlowDraws(SeededDraws):
    """``netslow``: ``num_slow`` links per row run at ``1/slowdown`` all run.

    Each row picks its slow links once, by one ``permutation`` of its
    workers — the network twin of the persistent compute stragglers.
    """

    def __init__(self, n_workers: int, seeds: Sequence, num_slow: int, slowdown: float):
        if not isinstance(num_slow, (int, np.integer)) or num_slow < 0:
            raise ValueError(f"num_slow must be an int >= 0, got {num_slow!r}")
        if num_slow > n_workers:
            raise ValueError("num_slow must be <= n_workers")
        super().__init__(n_workers, seeds, links=True)
        self.num_slow, self.slowdown = num_slow, _checked_slowdown(slowdown)
        self._row_factors: np.ndarray | None = None

    def _block(self, start: int, stop: int):
        if self._row_factors is None:
            mask = np.zeros((self.n_trials, self.n_workers), dtype=bool)
            for rng, row in zip(self.rngs, mask):
                row[rng.permutation(self.n_workers)[: self.num_slow]] = True
            self._row_factors = np.where(mask, 1.0 / self.slowdown, 1.0)
        shape = (stop - start, *self._row_factors.shape)
        return _unit_factors(np.broadcast_to(self._row_factors, shape).copy())


class TracesDraws(SeededDraws):
    """``traces``: regime-switching cloud traces, generated as far as read.

    Round ``i`` replays trace step ``i % horizon``; steps are generated
    on demand (:func:`~repro.prediction.traces.advance_traces`), so a run
    that reads 8 rounds generates 8 steps, bit for bit the first 8
    columns of the ``(n_workers, horizon)`` trace.
    """

    def __init__(
        self, n_workers: int, seeds: Sequence, config: TraceConfig, horizon: int
    ):
        check_positive_int(horizon, "horizon")
        super().__init__(n_workers, seeds)
        self.config, self.horizon = config, horizon
        self._levels: np.ndarray | None = None
        self._noise = np.zeros((self.n_trials, n_workers))

    def _block(self, start: int, stop: int):
        fresh = max(min(stop, self.horizon) - start, 0)
        if fresh and self._levels is None:
            self._levels = initial_levels(self.rngs, self.n_workers, self.config)
        steps = np.concatenate(
            [
                self._speeds[: self.horizon],
                advance_traces(
                    self.rngs, self.config, self._levels, self._noise, fresh
                ),
            ]
        )
        return steps[np.arange(start, stop) % self.horizon], None, None


def _checked_slowdown(slowdown: float) -> float:
    if not 1 <= slowdown < np.inf:
        raise ValueError(f"slowdown must be finite and >= 1, got {slowdown}")
    return slowdown


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


@_builtin(
    "constant",
    "fixed (optionally heterogeneous) speeds every iteration",
    models="no-straggler control; spread>0 adds static heterogeneity",
    spread=0.0,
)
def _build_constant(n_workers: int, seeds, spread: float):
    return ConstantDraws(n_workers, seeds, spread)


@_builtin(
    "controlled",
    "persistent >=5x stragglers plus +/-20% AR(1) jitter",
    models="the paper's controlled cluster (paper section 7.1)",
    num_stragglers=2,
    slowdown=5.0,
    jitter=0.2,
)
def _build_controlled(
    n_workers: int, seeds, num_stragglers: int, slowdown: float, jitter: float
):
    return ControlledDraws(
        n_workers,
        seeds,
        num_stragglers=num_stragglers,
        slowdown=slowdown,
        jitter=jitter,
    )


@_builtin(
    "bursty",
    "memoryless one-iteration co-tenant dips",
    models="transient interference bursts (paper section 3.2 dips)",
    dip_prob=0.08,
    dip_depth=0.25,
    jitter=0.1,
)
def _build_bursty(
    n_workers: int, seeds, dip_prob: float, dip_depth: float, jitter: float
):
    return DipDraws(n_workers, seeds, dip_prob, dip_depth, jitter)


@_builtin(
    "markov",
    "per-worker fast/slow Markov chain (geometric straggle spells)",
    models="persistent-but-finite stragglers (paper section 7.1 generalised)",
    slow_prob=0.05,
    recover_prob=0.3,
    slowdown=5.0,
)
def _build_markov(
    n_workers: int, seeds, slow_prob: float, recover_prob: float, slowdown: float
):
    check_probability(slow_prob, "slow_prob")
    check_probability(recover_prob, "recover_prob")
    slow = 1.0 / _checked_slowdown(slowdown)
    return MarkovDraws(n_workers, seeds, slow_prob, recover_prob, slow)


@_builtin(
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
    seeds,
    n_racks: int,
    slow_prob: float,
    recover_prob: float,
    slowdown: float,
):
    _check_racks(n_racks, n_workers)
    check_probability(slow_prob, "slow_prob")
    check_probability(recover_prob, "recover_prob")
    slow = 1.0 / _checked_slowdown(slowdown)
    return MarkovDraws(n_workers, seeds, slow_prob, recover_prob, slow, n_racks)


def _check_racks(n_racks: int, n_workers: int) -> None:
    check_positive_int(n_racks, "n_racks")
    if n_racks > n_workers:
        raise ValueError("n_racks must be <= n_workers")


@_builtin(
    "spot",
    "spot-instance preemption with delayed replacement",
    models="preemptible VMs: near-dead slots until a replacement arrives",
    preempt_prob=0.03,
    restore_prob=0.2,
    floor=0.02,
)
def _build_spot(
    n_workers: int, seeds, preempt_prob: float, restore_prob: float, floor: float
):
    check_probability(preempt_prob, "preempt_prob")
    check_probability(restore_prob, "restore_prob")
    if not 0 < floor < 1:
        raise ValueError("floor must be in (0, 1)")
    return MarkovDraws(n_workers, seeds, preempt_prob, restore_prob, floor)


@_builtin(
    "traces",
    "regime-switching cloud trace replay (stable/volatile/bursty/measured)",
    models="the paper's measured cloud environments (paper section 3.2, 7.2)",
    preset="volatile",
    horizon=64,
)
def _build_traces(n_workers: int, seeds, preset: str, horizon: int):
    try:
        config = TRACE_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown trace preset {preset!r}; available: "
            f"{', '.join(sorted(TRACE_PRESETS))}"
        ) from None
    return TracesDraws(n_workers, seeds, config, horizon)


@_builtin(
    "netslow",
    "persistent per-worker link slowdown; compute stays healthy",
    models="oversubscribed NICs / flaky cables — event backend only "
    "(closed form sees constant speeds)",
    num_slow=2,
    slowdown=4.0,
)
def _build_netslow(n_workers: int, seeds, num_slow: int, slowdown: float):
    return NetSlowDraws(n_workers, seeds, num_slow, slowdown)


@_builtin(
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
    seeds,
    n_racks: int,
    congest_prob: float,
    recover_prob: float,
    slowdown: float,
):
    _check_racks(n_racks, n_workers)
    check_probability(congest_prob, "congest_prob")
    check_probability(recover_prob, "recover_prob")
    factor = 1.0 / _checked_slowdown(slowdown)
    return MarkovDraws(
        n_workers, seeds, congest_prob, recover_prob, factor, n_racks, links=True
    )


@_builtin(
    "linkbursty",
    "memoryless one-iteration link-bandwidth dips",
    models="transient cross-traffic bursts — event backend only (closed "
    "form sees constant speeds)",
    dip_prob=0.1,
    dip_depth=0.2,
)
def _build_linkbursty(n_workers: int, seeds, dip_prob: float, dip_depth: float):
    return DipDraws(n_workers, seeds, dip_prob, dip_depth, links=True)
