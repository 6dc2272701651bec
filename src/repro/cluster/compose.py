"""Scenario composition algebra: combinators over registered scenarios.

The scenario registry (:mod:`repro.cluster.scenarios`) names a dozen
hand-built straggler processes; this module makes the scenario space
*compositional*.  Five combinators build new scenarios out of existing
ones:

* :func:`concat` — play each operand for ``segment`` iterations in turn
  (the last operand extends forever): regime changes between scenarios;
* :func:`mix` — per-iteration convex combination ``w·a + (1−w)·b``:
  blend two interference processes;
* :func:`time_shift` — start an operand ``shift`` iterations into its
  trajectory: phase-shift a process against the computation;
* :func:`overlay` — element-wise minimum of the operands: independent
  interference sources where the *worst* one governs each worker;
* :func:`scale` — multiply every speed by ``factor``: uniform derating.

A composed scenario is an ordinary :class:`~repro.cluster.scenarios.ScenarioSpec`
whose **name is its expression** — ``overlay(rack,bursty)``,
``mix(bursty,constant,weight=0.7)``, ``concat(spot,traces(preset=stable))``
— written in a tiny grammar:

```
expr    := NAME | NAME "(" item ("," item)* ")"
item    := expr            # operand (combinator calls only)
         | NAME "=" value  # parameter (always after the operands)
value   := INT | FLOAT | NAME
```

``NAME(...)`` is a combinator application when ``NAME`` is a registered
combinator, and a *leaf override* (a base scenario with non-default
parameters, e.g. ``bursty(dip_prob=0.2)``) when ``NAME`` is a registered
scenario.  Because the expression fully describes the composition,
:func:`repro.cluster.scenarios.get_scenario` resolves composed names **on
demand** — no prior registration needed — so composed names travel as
plain strings through sweep axes, the CLI, the run store, and pool worker
processes exactly like base names.  The seeded fuzzer
(:mod:`repro.cluster.fuzz`) leans on this: generated scenarios are just
expression strings.

Combinator functions also *register* their result (idempotently) so a
composed scenario can join the default registry — and therefore the
``matrix`` sweep — like any hand-written one.  Digests fold
**compositionally**: :func:`scenario_digest` hashes a composed spec's
structure together with the digests of its operands, recursively, so
editing a base scenario's builder re-keys every stored sweep shard of
every composition built on it (see
:func:`repro.cluster.scenarios.registry_digest`).

Operand seeding: operand ``i`` of a composition derives its seed as
``seed + OPERAND_SEED_STRIDE · i``, so two operands of the same base
scenario draw independent trajectories while single-operand combinators
(and operand 0) keep the parent seed exactly — the bitwise identity the
algebra laws (``concat(a) ≡ a``, weight-1 ``mix``, ``time_shift(0)``)
rely on.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro._util import check_positive_int
from repro.cluster.scenarios import _check_override
from repro.cluster.speed_models import SpeedDraws, joined

__all__ = [
    "CombinatorSpec",
    "available_combinators",
    "get_combinator",
    "concat",
    "mix",
    "time_shift",
    "overlay",
    "scale",
    "compose_scenario",
    "parse_scenario_name",
    "is_composed_name",
    "composed_spec",
    "scenario_digest",
    "ConcatDraws",
    "MixDraws",
    "OverlayDraws",
    "TimeShiftDraws",
    "ScaleDraws",
    "OPERAND_SEED_STRIDE",
]

#: Seed gap between a composition's operands: operand ``i`` is seeded
#: ``seed + OPERAND_SEED_STRIDE * i``.  Distinct from (and much smaller
#: than) the trial stride, so operand streams of one trial never alias
#: another trial's operand streams for realistic operand counts.
OPERAND_SEED_STRIDE = 9_973


# ---------------------------------------------------------------------------
# Composed draws
# ---------------------------------------------------------------------------


def _links(models) -> bool:
    return any(model.links for model in models)


class ConcatDraws(SpeedDraws):
    """Play each operand for ``segment`` rounds, in order.

    Operand ``i`` is read at *local* rounds (it starts from its own round
    0 when its segment begins); the last operand's segment extends
    indefinitely.  Local indexing keeps each segment a faithful replay of
    its scenario and preserves the ``concat(a) ≡ a`` identity for a
    single operand.
    """

    def __init__(self, models: Sequence[SpeedDraws], segment: int):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("concat needs at least one operand model")
        check_positive_int(segment, "segment")
        self.segment = segment
        first = self.models[0]
        super().__init__(first.n_trials, first.n_workers, _links(self.models))

    def _block(self, start: int, stop: int):
        rounds = np.arange(start, stop)
        index = np.minimum(rounds // self.segment, len(self.models) - 1)
        return joined(
            [
                model._take(rounds[index == i] - i * self.segment, self.links)
                for i, model in enumerate(self.models)
            ],
            axis=0,
        )


class MixDraws(SpeedDraws):
    """Per-round convex combination ``w·a + (1−w)·b`` of speeds and factors.

    ``weight=1.0`` reproduces ``a`` bitwise (``1·x + 0·y == x`` exactly
    for the positive finite speeds the models guarantee) — the algebra's
    mix identity law.  Factors blend where either operand degrades its
    links (a healthy side contributes unit factors).
    """

    def __init__(self, a: SpeedDraws, b: SpeedDraws, weight: float):
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
        self.a, self.b, self.weight = a, b, weight
        super().__init__(a.n_trials, a.n_workers, _links((a, b)))

    def _block(self, start: int, stop: int):
        rounds = np.arange(start, stop)
        sa, fa, pa = self.a._take(rounds, self.links)
        sb, fb, pb = self.b._take(rounds, self.links)
        w = self.weight
        speeds = w * sa + (1.0 - w) * sb
        if not self.links:
            return speeds, None, None
        present = pa | pb
        factors = np.where(present[:, :, None], w * fa + (1.0 - w) * fb, 1.0)
        return speeds, factors, present


class OverlayDraws(SpeedDraws):
    """Element-wise minimum of the operands' speeds (and link factors).

    Models independent interference sources acting on the same workers:
    each worker runs at the speed its *worst* affliction allows.
    """

    def __init__(self, models: Sequence[SpeedDraws]):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("overlay needs at least one operand model")
        first = self.models[0]
        super().__init__(first.n_trials, first.n_workers, _links(self.models))

    def _block(self, start: int, stop: int):
        rounds = np.arange(start, stop)
        parts = [model._take(rounds, self.links) for model in self.models]
        speeds = np.minimum.reduce([p[0] for p in parts])
        if not self.links:
            return speeds, None, None
        return (
            speeds,
            np.minimum.reduce([p[1] for p in parts]),
            np.logical_or.reduce([p[2] for p in parts]),
        )


class TimeShiftDraws(SpeedDraws):
    """Read the operand ``shift`` rounds ahead (phase shift)."""

    def __init__(self, model: SpeedDraws, shift: int):
        if not isinstance(shift, (int, np.integer)) or shift < 0:
            raise ValueError(f"shift must be an int >= 0, got {shift!r}")
        self.model, self.shift = model, shift
        super().__init__(model.n_trials, model.n_workers, model.links)

    def _block(self, start: int, stop: int):
        return self.model._take(np.arange(start, stop) + self.shift, self.links)


class ScaleDraws(SpeedDraws):
    """Multiply the operand's speeds by a positive finite ``factor``.

    ``factor <= 1`` keeps the registry's unit-speed convention; larger
    factors are allowed for callers that model over-provisioned nodes.
    Link factors pass through unscaled.
    """

    def __init__(self, model: SpeedDraws, factor: float):
        if not 0 < factor < np.inf:
            raise ValueError(f"factor must be > 0 and finite, got {factor}")
        self.model, self.factor = model, factor
        super().__init__(model.n_trials, model.n_workers, model.links)

    def _block(self, start: int, stop: int):
        speeds, factors, present = self.model._take(np.arange(start, stop), self.links)
        return self.factor * speeds, factors, present


# ---------------------------------------------------------------------------
# Combinator registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinatorSpec:
    """One registered combinator: arity, parameters, and the draws factory.

    ``build(models, **params)`` assembles the composed draw surface from
    the already-built operand surfaces (same rows, operand seeds).
    """

    name: str
    summary: str
    min_operands: int
    max_operands: int | None  #: ``None`` = unbounded
    defaults: tuple[tuple[str, Any], ...]
    build: Callable[..., SpeedDraws]


_COMBINATORS: dict[str, CombinatorSpec] = {}


def _register_combinator(spec: CombinatorSpec) -> CombinatorSpec:
    _COMBINATORS[spec.name] = spec
    return spec


def available_combinators() -> tuple[str, ...]:
    """Registered combinator names, sorted."""
    return tuple(sorted(_COMBINATORS))


def get_combinator(name: str) -> CombinatorSpec:
    """Look up one combinator; ``KeyError`` lists the registry on a miss."""
    try:
        return _COMBINATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown combinator {name!r}; available: "
            f"{', '.join(available_combinators())}"
        ) from None


_register_combinator(
    CombinatorSpec(
        name="concat",
        summary="play each operand for `segment` iterations, last one forever",
        min_operands=1,
        max_operands=None,
        defaults=(("segment", 8),),
        build=lambda models, segment: ConcatDraws(models, segment=segment),
    )
)
_register_combinator(
    CombinatorSpec(
        name="mix",
        summary="per-iteration convex combination `w*a + (1-w)*b`",
        min_operands=2,
        max_operands=2,
        defaults=(("weight", 0.5),),
        build=lambda models, weight: MixDraws(models[0], models[1], weight=weight),
    )
)
_register_combinator(
    CombinatorSpec(
        name="overlay",
        summary="element-wise minimum of the operands (worst source governs)",
        min_operands=1,
        max_operands=None,
        defaults=(),
        build=lambda models: OverlayDraws(models),
    )
)
_register_combinator(
    CombinatorSpec(
        name="time_shift",
        summary="query the operand `shift` iterations ahead",
        min_operands=1,
        max_operands=1,
        defaults=(("shift", 0),),
        build=lambda models, shift: TimeShiftDraws(models[0], shift=shift),
    )
)
_register_combinator(
    CombinatorSpec(
        name="scale",
        summary="multiply the operand's speeds by `factor`",
        min_operands=1,
        max_operands=1,
        defaults=(("factor", 0.5),),
        build=lambda models, factor: ScaleDraws(models[0], factor=factor),
    )
)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")


def is_composed_name(name: str) -> bool:
    """Whether ``name`` is a composition expression (vs a plain name)."""
    return "(" in name


def _fail(name: str, detail: str) -> "KeyError":
    """Malformed expressions fail with the registry-listing ``KeyError``
    shape every scenario miss uses, so the CLI's exit-2 contract (and its
    callers' ``except KeyError``) covers composed names uniformly."""
    from repro.cluster.scenarios import available_scenarios

    return KeyError(
        f"unknown scenario {name!r} ({detail}); available: "
        f"{', '.join(available_scenarios())}; combinators: "
        f"{', '.join(available_combinators())}"
    )


class _Parser:
    """Recursive-descent parser for scenario expressions (whitespace-free
    after normalisation; see the module docstring for the grammar)."""

    def __init__(self, name: str):
        self.name = name
        self.text = name.replace(" ", "")
        self.pos = 0

    def error(self, detail: str) -> KeyError:
        return _fail(self.name, detail)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r} at position {self.pos}")
        self.pos += 1

    def parse(self) -> "_Node":
        node = self.parse_expr()
        if self.pos != len(self.text):
            raise self.error(f"trailing input at position {self.pos}")
        return node

    def parse_name(self) -> str:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error(f"expected a name at position {self.pos}")
        self.pos = match.end()
        return match.group()

    def parse_value(self) -> Any:
        match = _NUMBER.match(self.text, self.pos)
        if match is not None:
            self.pos = match.end()
            token = match.group()
            return float(token) if ("." in token or "e" in token) else int(token)
        return self.parse_name()

    def parse_expr(self) -> "_Node":
        name = self.parse_name()
        if self.peek() != "(":
            return _Node(kind="ref", name=name)
        self.expect("(")
        operands: list[_Node] = []
        params: list[tuple[str, Any]] = []
        while True:
            if self.peek() == ")" and not operands and not params:
                break  # empty argument list, e.g. overlay()
            mark = self.pos
            item_name = self.parse_name()
            if self.peek() == "=":
                self.pos += 1
                params.append((item_name, self.parse_value()))
            else:
                if params:
                    raise self.error(
                        f"operand after parameters at position {mark}"
                    )
                self.pos = mark
                operands.append(self.parse_expr())
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        return _Node(
            kind="call", name=name, operands=tuple(operands), params=tuple(params)
        )


@dataclass(frozen=True)
class _Node:
    """One parsed expression node (pre-resolution)."""

    kind: str  #: ``ref`` (bare name) or ``call`` (``name(...)``)
    name: str
    operands: tuple["_Node", ...] = ()
    params: tuple[tuple[str, Any], ...] = ()


def _format_value(value: Any) -> str:
    """Deterministic value rendering for canonical names (round-trips)."""
    if isinstance(value, bool):  # pragma: no cover - no bool params today
        raise ValueError("boolean parameters are not expressible in names")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve_params(
    expr: str,
    name: str,
    defaults: tuple[tuple[str, Any], ...],
    given: tuple[tuple[str, Any], ...],
) -> dict[str, Any]:
    params = dict(defaults)
    seen: set[str] = set()
    for key, value in given:
        if key not in params:
            raise _fail(
                expr,
                f"{name!r} has no parameter {key!r}; tunable: "
                f"{sorted(params) or '(none)'}",
            )
        if key in seen:
            raise _fail(expr, f"duplicate parameter {key!r} for {name!r}")
        seen.add(key)
        # Ints are acceptable where floats are declared (3 == 3.0, and the
        # canonical name keeps whichever spelling round-trips).
        _check_override(expr, name, key, value, params[key])
        params[key] = value
    return params


def parse_scenario_name(name: str) -> "ComposedNode":
    """Parse and resolve a composition expression into its tree.

    Raises ``KeyError`` — message shape matching
    :func:`repro.cluster.scenarios.get_scenario` — for malformed
    expressions, unknown combinators, unknown leaf scenarios, and unknown
    parameters, so the CLI exit-2 contract holds for composed names.
    """
    return _resolve(name, _Parser(name).parse())


@dataclass(frozen=True)
class ComposedNode:
    """One resolved composition node: a combinator application or a leaf.

    ``kind`` is ``"combinator"`` (operands are nested nodes) or ``"leaf"``
    (a base scenario, possibly with parameter overrides).  ``canonical``
    is the node's normalised expression: parameters sorted by key and
    rendered deterministically, so structurally equal compositions share
    one name (and one digest) regardless of how they were spelled.
    """

    kind: str
    name: str
    operands: tuple["ComposedNode", ...] = ()
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def canonical(self) -> str:
        parts = [op.canonical for op in self.operands]
        parts += [f"{k}={_format_value(v)}" for k, v in self.params]
        if self.kind == "leaf" and not self.params:
            return self.name
        return f"{self.name}({','.join(parts)})"


def _resolve(expr: str, node: _Node) -> ComposedNode:
    from repro.cluster.scenarios import _REGISTRY as _SCENARIOS

    base = _SCENARIOS.get(node.name)
    if node.kind == "ref":
        if base is None:
            raise _fail(expr, f"unknown leaf scenario {node.name!r}")
        return ComposedNode(kind="leaf", name=node.name)
    if node.operands:
        # Positional operands: only a combinator can take them.
        try:
            comb = get_combinator(node.name)
        except KeyError as error:
            raise KeyError(error.args[0]) from None
        count = len(node.operands)
        if count < comb.min_operands or (
            comb.max_operands is not None and count > comb.max_operands
        ):
            bound = (
                f"exactly {comb.min_operands}"
                if comb.min_operands == comb.max_operands
                else f"at least {comb.min_operands}"
                if comb.max_operands is None
                else f"{comb.min_operands}..{comb.max_operands}"
            )
            raise _fail(
                expr,
                f"{node.name!r} takes {bound} operand(s), got {count}",
            )
        params = _resolve_params(expr, node.name, comb.defaults, node.params)
        return ComposedNode(
            kind="combinator",
            name=node.name,
            operands=tuple(_resolve(expr, op) for op in node.operands),
            params=tuple(sorted(params.items())),
        )
    # Parameters only (or an empty call): a leaf override — unless the
    # name is a combinator, which is then short of operands.
    if node.name in _COMBINATORS:
        comb = _COMBINATORS[node.name]
        raise _fail(
            expr,
            f"{node.name!r} takes at least {comb.min_operands} operand(s), got 0",
        )
    if base is None:
        raise _fail(expr, f"unknown leaf scenario {node.name!r}")
    params = _resolve_params(expr, node.name, base.defaults, node.params)
    overrides = tuple(
        sorted((k, v) for k, v in node.params)
    )
    return ComposedNode(kind="leaf", name=node.name, params=overrides)


# ---------------------------------------------------------------------------
# Spec building
# ---------------------------------------------------------------------------


def _operand_seed(seed: int | None, index: int) -> int | None:
    return None if seed is None else seed + OPERAND_SEED_STRIDE * index


def _build_node(node: ComposedNode, n_workers: int, seeds: tuple) -> SpeedDraws:
    from repro.cluster.scenarios import scenario_batch

    if node.kind == "leaf":
        return scenario_batch(node.name, n_workers, seeds, **dict(node.params))
    comb = get_combinator(node.name)
    models = tuple(
        _build_node(op, n_workers, tuple(_operand_seed(s, i) for s in seeds))
        for i, op in enumerate(node.operands)
    )
    return comb.build(models, **dict(node.params))


#: Memo of specs resolved from composed names (parsing is pure, so the
#: entry for a name never changes within a process).
_PARSED_SPECS: dict[str, Any] = {}


def composed_spec(name: str):
    """The :class:`~repro.cluster.scenarios.ScenarioSpec` a composed name
    denotes, built on demand (and memoised) without touching the registry.

    This is the resolution fallback :func:`repro.cluster.scenarios.get_scenario`
    uses for expression names, which is what makes composed names usable
    anywhere a base name is: pool workers resolve them from the string
    alone, so runtime registration never needs to cross process
    boundaries.
    """
    spec = _PARSED_SPECS.get(name)
    if spec is None:
        spec = _spec_of(parse_scenario_name(name))
        _PARSED_SPECS[name] = spec
    return spec


def _spec_of(node: ComposedNode):
    from repro.cluster.scenarios import ScenarioSpec

    if node.kind == "combinator":
        summary = f"composed: {get_combinator(node.name).summary}"
        defaults = node.params
    else:
        base_summary = ""
        from repro.cluster.scenarios import _REGISTRY as _SCENARIOS

        base = _SCENARIOS.get(node.name)
        if base is not None:
            base_summary = base.summary
        summary = f"composed: {node.name} with overrides — {base_summary}"
        defaults = node.params

    def builder(n_workers: int, seeds: tuple, **params):
        bound = (
            node
            if not params
            else ComposedNode(
                kind=node.kind,
                name=node.name,
                operands=node.operands,
                params=tuple(sorted(params.items())),
            )
        )
        return _build_node(bound, n_workers, seeds)

    return ScenarioSpec(
        name=node.canonical,
        summary=summary,
        models="composition of registered scenarios (see docs/scenarios.md)",
        builder=builder,
        defaults=defaults,
        compose=node,
        batched=True,
    )


# ---------------------------------------------------------------------------
# Compositional digests
# ---------------------------------------------------------------------------


def node_digest(node: ComposedNode, digest_of_leaf: Callable[[str], str]) -> str:
    """Structural hash of a composition, folding operand digests in order.

    ``digest_of_leaf(name)`` supplies the digest of a *base* scenario (the
    scenario registry's per-spec hash), so a composed digest changes
    whenever any scenario it is built from changes — and differs for
    distinct operand orders, distinct parameters, and distinct combinator
    trees, while staying byte-identical across process restarts (it hashes
    only names, parameter renderings, and leaf digests; never object
    identities).
    """
    digest = hashlib.sha256()
    digest.update(node.kind.encode())
    digest.update(node.name.encode())
    digest.update(
        ",".join(f"{k}={_format_value(v)}" for k, v in node.params).encode()
    )
    if node.kind == "leaf":
        digest.update(digest_of_leaf(node.name).encode())
    for operand in node.operands:
        digest.update(node_digest(operand, digest_of_leaf).encode())
    return digest.hexdigest()


def scenario_digest(name: str) -> str:
    """Content digest of one scenario name, composed or base.

    Base names hash their registered builder (via the scenario module's
    per-spec digest); composed names hash their resolved structure plus
    every leaf's digest, recursively.
    """
    from repro.cluster.scenarios import _spec_digest, get_scenario

    spec = get_scenario(name)
    if spec.compose is not None:
        return node_digest(spec.compose, _leaf_digest)
    return _spec_digest(spec)


def _leaf_digest(name: str) -> str:
    from repro.cluster.scenarios import _spec_digest, get_scenario

    spec = get_scenario(name)
    if spec.compose is not None:  # a registered composition as an operand
        return node_digest(spec.compose, _leaf_digest)
    return _spec_digest(spec)


# ---------------------------------------------------------------------------
# Python combinator API
# ---------------------------------------------------------------------------


def _as_name(operand) -> str:
    if isinstance(operand, str):
        return operand
    name = getattr(operand, "name", None)
    if isinstance(name, str):
        return name
    raise TypeError(
        f"operand must be a scenario name or ScenarioSpec, got {operand!r}"
    )


def compose_scenario(
    combinator: str,
    operands: Sequence[Any],
    register: bool = True,
    **params: Any,
):
    """Apply a named combinator to scenario operands; return the spec.

    ``operands`` are scenario names (base or composed expressions) or
    :class:`~repro.cluster.scenarios.ScenarioSpec` instances.  The result
    is the composed spec under its canonical expression name; with
    ``register=True`` (the default) it also joins the scenario registry —
    idempotently, structural duplicates are returned as-is — so it shows
    up in ``available_scenarios()`` and the default ``matrix`` sweep, and
    its digest folds into ``registry_digest()``.
    """
    get_combinator(combinator)  # unknown-combinator KeyError first
    rendered = ",".join([_as_name(op) for op in operands])
    suffix = ",".join(
        f"{k}={_format_value(v)}" for k, v in sorted(params.items())
    )
    expression = f"{combinator}({rendered}{',' + suffix if suffix else ''})"
    spec = composed_spec(expression)
    if register:
        from repro.cluster import scenarios as _scenarios

        existing = _scenarios._REGISTRY.get(spec.name)
        if existing is None:
            _scenarios._REGISTRY[spec.name] = spec
        elif existing.compose != spec.compose:
            raise ValueError(
                f"scenario {spec.name!r} already registered with a "
                "different structure"
            )
        else:
            spec = existing
    return spec


def concat(*operands, segment: int = 8, register: bool = True):
    """``concat(a, b, …)``: play each operand for ``segment`` iterations."""
    return compose_scenario(
        "concat", operands, register=register, segment=segment
    )


def mix(a, b, weight: float = 0.5, register: bool = True):
    """``mix(a, b)``: the convex combination ``weight·a + (1−weight)·b``."""
    return compose_scenario("mix", (a, b), register=register, weight=weight)


def overlay(*operands, register: bool = True):
    """``overlay(a, b, …)``: element-wise minimum of the operands."""
    return compose_scenario("overlay", operands, register=register)


def time_shift(operand, shift: int = 0, register: bool = True):
    """``time_shift(spot,shift=8)``: start the operand mid-trajectory."""
    return compose_scenario(
        "time_shift", (operand,), register=register, shift=shift
    )


def scale(operand, factor: float = 0.5, register: bool = True):
    """``scale(markov,factor=0.5)``: multiply the operand's speeds."""
    return compose_scenario(
        "scale", (operand,), register=register, factor=factor
    )
