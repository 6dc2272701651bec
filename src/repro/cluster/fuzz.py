"""Seeded scenario fuzzer: structured random draws from the composition grammar.

The registry names a dozen hand-built straggler processes and the algebra
(:mod:`repro.cluster.compose`) makes them composable; this module makes
the scenario space a *population to sample from*.  :func:`generate_scenario`
draws one structured scenario — a leaf with randomised parameters, or a
depth-limited composition of such leaves — as a plain expression string
that :func:`repro.cluster.scenarios.get_scenario` resolves anywhere (CLI,
sweep axes, pool workers).

Reproducibility is the contract: scenario ``(seed, index)`` is produced by
a fresh ``numpy.random.default_rng((seed, index))`` and nothing else, so

* the same pair always yields the identical expression string, in any
  process, regardless of how many other scenarios were drawn before it;
* a population is embarrassingly shardable — workers can each generate
  their own slice without coordination;
* tournament runs (:mod:`repro.experiments.tournament`) are re-runnable
  and resumable byte-for-byte: the generated names land in sweep axes and
  the run-store cache keys like any hand-written scenario name.

The draw structure is deliberately *grammar-shaped* rather than a flat
parameter jitter: regime counts (``concat`` segments), burst shapes
(``bursty`` dip probability/depth), rack/spot structure (``rack`` counts,
preemption rates), interference stacking (``overlay``/``mix``), and phase
(``time_shift``) are sampled as independent grammar choices, which is what
lets the tournament probe policy behaviour far outside the hand-named
scenarios.  All parameter draws are rounded to short decimals so the
expression strings stay readable and canonical (``repr`` of the rounded
float round-trips through the expression parser).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.cluster.compose import ComposedNode, parse_scenario_name

__all__ = ["generate_scenario", "generate_scenarios", "LEAF_NAMES"]


#: Base scenarios the fuzzer draws leaves from.  ``controlled`` is not one
#: of them: the list is part of what a fuzz seed means, and adding a leaf
#: would change every generated population.
LEAF_NAMES: tuple[str, ...] = (
    "constant",
    "bursty",
    "markov",
    "rack",
    "spot",
    "traces",
    "netslow",
    "rackcongest",
    "linkbursty",
)

_TRACE_PRESET_POOL = ("stable", "volatile", "bursty", "measured")
_HORIZON_POOL = (32, 64, 128)
_SEGMENT_POOL = (4, 8, 16)

#: Probability of expanding a composition (vs emitting a leaf) at depth 0;
#: halves per depth level so trees stay shallow and names readable.
_P_COMPOSE = 0.6
_MAX_DEPTH = 2


def _round(value: float, digits: int = 3) -> float:
    return float(round(float(value), digits))


def _uniform(rng: np.random.Generator, lo: float, hi: float, digits: int = 3) -> float:
    return _round(lo + (hi - lo) * rng.random(), digits)


def _leaf(rng: np.random.Generator) -> str:
    """One leaf scenario with randomised (rounded) parameters."""
    name = LEAF_NAMES[int(rng.integers(len(LEAF_NAMES)))]
    if name == "constant":
        return f"constant(spread={_uniform(rng, 0.0, 0.6)})"
    if name == "bursty":
        dip_prob = _uniform(rng, 0.02, 0.2)
        dip_depth = _uniform(rng, 0.1, 0.5)
        jitter = _uniform(rng, 0.0, 0.3)
        return (
            f"bursty(dip_depth={dip_depth},dip_prob={dip_prob},jitter={jitter})"
        )
    if name == "markov":
        slow_prob = _uniform(rng, 0.02, 0.15)
        recover_prob = _uniform(rng, 0.1, 0.5)
        slowdown = _uniform(rng, 2.0, 8.0, digits=1)
        return (
            f"markov(recover_prob={recover_prob},slow_prob={slow_prob},"
            f"slowdown={slowdown})"
        )
    if name == "rack":
        n_racks = int(rng.integers(2, 6))
        slow_prob = _uniform(rng, 0.02, 0.12)
        recover_prob = _uniform(rng, 0.1, 0.4)
        slowdown = _uniform(rng, 2.0, 6.0, digits=1)
        return (
            f"rack(n_racks={n_racks},recover_prob={recover_prob},"
            f"slow_prob={slow_prob},slowdown={slowdown})"
        )
    if name == "spot":
        preempt_prob = _uniform(rng, 0.01, 0.08)
        restore_prob = _uniform(rng, 0.1, 0.4)
        return f"spot(preempt_prob={preempt_prob},restore_prob={restore_prob})"
    if name == "netslow":
        num_slow = int(rng.integers(1, 4))
        slowdown = _uniform(rng, 2.0, 8.0, digits=1)
        return f"netslow(num_slow={num_slow},slowdown={slowdown})"
    if name == "rackcongest":
        n_racks = int(rng.integers(2, 6))
        congest_prob = _uniform(rng, 0.03, 0.15)
        recover_prob = _uniform(rng, 0.1, 0.5)
        slowdown = _uniform(rng, 2.0, 6.0, digits=1)
        return (
            f"rackcongest(congest_prob={congest_prob},n_racks={n_racks},"
            f"recover_prob={recover_prob},slowdown={slowdown})"
        )
    if name == "linkbursty":
        dip_prob = _uniform(rng, 0.03, 0.25)
        dip_depth = _uniform(rng, 0.1, 0.5)
        return f"linkbursty(dip_depth={dip_depth},dip_prob={dip_prob})"
    preset = _TRACE_PRESET_POOL[int(rng.integers(len(_TRACE_PRESET_POOL)))]
    horizon = _HORIZON_POOL[int(rng.integers(len(_HORIZON_POOL)))]
    return f"traces(horizon={horizon},preset={preset})"


def _expression(rng: np.random.Generator, depth: int) -> str:
    """One expression: a leaf, or a combinator over recursive draws."""
    compose_prob = _P_COMPOSE / (2.0**depth)
    if depth >= _MAX_DEPTH or rng.random() >= compose_prob:
        return _leaf(rng)
    choice = int(rng.integers(5))
    if choice == 0:  # concat: regime changes between scenarios
        count = int(rng.integers(2, 4))
        segment = _SEGMENT_POOL[int(rng.integers(len(_SEGMENT_POOL)))]
        operands = ",".join(_expression(rng, depth + 1) for _ in range(count))
        return f"concat({operands},segment={segment})"
    if choice == 1:  # mix: blended interference processes
        weight = _uniform(rng, 0.2, 0.8, digits=2)
        a = _expression(rng, depth + 1)
        b = _expression(rng, depth + 1)
        return f"mix({a},{b},weight={weight})"
    if choice == 2:  # overlay: independent sources, worst governs
        count = int(rng.integers(2, 4))
        operands = ",".join(_expression(rng, depth + 1) for _ in range(count))
        return f"overlay({operands})"
    if choice == 3:  # time_shift: phase the process against the run
        shift = int(rng.integers(1, 17))
        return f"time_shift({_expression(rng, depth + 1)},shift={shift})"
    factor = _uniform(rng, 0.3, 0.9, digits=2)  # scale: uniform derating
    return f"scale({_expression(rng, depth + 1)},factor={factor})"


def generate_scenario(seed: int, index: int) -> str:
    """The ``index``-th generated scenario of population ``seed``.

    Returns a canonical composition-expression string, fully determined by
    ``(seed, index)`` — resolvable via
    :func:`repro.cluster.scenarios.get_scenario` in any process with no
    prior registration.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    rng = np.random.default_rng((seed, index))
    name = _expression(rng, 0)
    # Canonicalise through the parser: validates the draw and normalises
    # parameter order, so the generator can never emit an unresolvable or
    # non-canonical name.
    node: ComposedNode = parse_scenario_name(name)
    return node.canonical


def generate_scenarios(seed: int, count: int) -> tuple[str, ...]:
    """The first ``count`` scenarios of population ``seed``, deduplicated.

    Duplicate draws (rare, but possible for shallow leaves) are replaced
    by continuing the index sequence, so the result is ``count`` *distinct*
    scenario names that any process can regenerate from ``seed`` alone.
    """
    check_positive_int(count, "count")
    names: list[str] = []
    seen: set[str] = set()
    index = 0
    while len(names) < count:
        name = generate_scenario(seed, index)
        index += 1
        if name in seen:
            continue
        seen.add(name)
        names.append(name)
    return tuple(names)
