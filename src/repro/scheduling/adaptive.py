"""Closed-loop adaptive policy tuning: online knob control + ``policy-auto``.

Every registered mitigation policy runs with fixed knobs (timeout slack,
over-decomposition factor, …), while the paper's own premise is that
straggler behaviour drifts *within* a job.  This module closes the
predict → execute → feedback loop of ROADMAP item 3 on top of the batched
engines, in three layers:

* :class:`AdaptiveController` — one per trial — observes per-round
  outcomes (completion latencies), maintains a conformal band
  (:func:`~repro.prediction.predictor.conformal_interval`, Papadopoulos et
  al.) over every candidate knob setting, and retunes on a fixed cadence:
  a seeded exploration pass tries each candidate once, then every segment
  commits to the candidate with the smallest conformal *upper* bound
  (risk-calibrated, not point-estimate-greedy).  All state is a pure
  function of ``(trial seed, observed rounds)``, so decisions shard,
  cache, and ``--resume`` bitwise under the execution engine.

* :class:`AdaptivePolicyRunner` — the ``adaptive(<base>, knob=v1:v2, …)``
  wrapper.  The scenarios' speed draws (and, on the event backend, their
  link factors) are drawn once for every ``(scenario, seed)`` trial row
  — the draw surface a monolithic run reads, one ``draw`` call — then
  served back through replay windows (``ReplaySpeeds``), so the run can
  be split into cadence-sized segments whose knobs differ per row
  without perturbing a single draw.  Each segment re-enters the base
  policy's own ``run_batch`` path for the rows that chose each
  candidate; fresh per-segment forecasters are warmed with the full
  replayed measurement history, and the per-round measurements are
  scattered back into one master
  :class:`~repro.runtime.batch.BatchRunMetrics`, so totals and
  waste aggregate exactly as a monolithic run's.  With a single candidate and a
  cadence covering the whole run, the wrapper is bitwise identical to its
  base policy (pinned in ``tests/scheduling/test_adaptive.py``).

* :class:`AutoPolicyRunner` — the ``policy-auto`` meta-policy.  A short
  seeded probe phase (probe seeds are offset from ``base_seed`` exactly
  like the forecaster-training traces, so they can never collide with a
  trial seed) runs every fixed registry policy on the scenarios, scores
  each by the conformal upper bound of its mean total latency, and
  commits to the best *per scenario*; the committed policy then handles
  the real trials untouched.  The commitment is trial-independent shared
  work — identical in every shard — and memoised per run.  One stacked
  call probes each candidate once over all its uncommitted scenarios.

Expressions are resolved on demand by
:func:`~repro.scheduling.policies.get_policy` — mirroring composed
scenario names — so ``adaptive(timeout-repair,slack=0.05:0.15:0.3)`` works
anywhere a registered policy name does: CLI flags, sweep axes, and pool
worker processes.  The expression string travels as the sweep-axis value,
so the controller configuration folds into every shard and cache digest
without engine changes; the named registrations (``adaptive-timeout``,
``adaptive-overdecomp``, ``policy-auto``) carry their configuration in
their registry defaults, which the registry digest already covers.

Grammar::

    adaptive(<base-policy>[, <knob>=<v1>[:<v2>…]]…[, cadence=N][, alpha=A])

``cadence`` is the retune period in LR-like iterations (each iteration is
an ``A`` and an ``Aᵀ`` round); ``alpha`` the conformal mis-coverage level.
Any other key must name a tunable knob of the base policy; values are
coerced to the declared default's type.  Unknown or invalid knobs raise
the registry-listing ``KeyError`` shape — naming the offending knob and
listing the valid ones — which the CLI turns into a clean exit 2, exactly
like an unknown policy or scenario name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util import check_positive_int
from repro.engine.runner import register_run_scoped_cache
from repro.scheduling.policies import _ScenarioRunner

__all__ = [
    "AdaptiveController",
    "AdaptivePolicyRunner",
    "AutoPolicyRunner",
    "adaptive_spec",
    "make_adaptive",
    "clear_memos",
    "CONTROLLER_KEYS",
    "PROBE_SEED_OFFSET",
]

#: Expression keys that configure the controller rather than a base knob.
CONTROLLER_KEYS = ("alpha", "cadence")

#: Probe-phase seed offset from ``base_seed``.  Trial seeds are
#: ``base_seed + SEED_STRIDE·t`` with a ~1e6 stride, so a small fixed
#: offset can never collide with a replayed trial — the same construction
#: the forecaster-training traces use (``seed + 4000``).
PROBE_SEED_OFFSET = 4271

#: Seed salt of the per-trial exploration-order permutation, so the
#: controller's exploration stream is decoupled from the scenario draws
#: made from the same trial seed.
_EXPLORE_SALT = 0x5EED


def _rng_for_trial(seed: int, salt: int) -> np.random.Generator:
    """Deterministic per-trial generator (negative seeds mapped via 2^64)."""
    return np.random.default_rng([salt, seed & 0xFFFFFFFFFFFFFFFF])


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass
class AdaptiveController:
    """Explore-then-exploit knob selection for one trial, conformal-scored.

    ``choose(segment)`` walks a seeded permutation of the candidates for
    the first ``n_candidates`` segments (every candidate gets observed
    when the run is long enough), then returns the candidate whose
    observed per-round latencies have the smallest conformal upper bound
    on their mean — ties break toward the lowest candidate index, so the
    whole decision sequence is a pure function of ``(seed, observations)``
    and shards bitwise.
    """

    n_candidates: int
    seed: int
    alpha: float = 0.2
    _order: tuple[int, ...] = field(init=False, repr=False)
    _observed: list[list[float]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n_candidates, "n_candidates")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        rng = _rng_for_trial(self.seed, _EXPLORE_SALT)
        self._order = tuple(int(i) for i in rng.permutation(self.n_candidates))
        self._observed = [[] for _ in range(self.n_candidates)]

    def observe(self, candidate: int, latencies) -> None:
        """Record one segment's per-round completion latencies."""
        self._observed[candidate].extend(float(v) for v in latencies)

    def upper_bound(self, candidate: int) -> float:
        """Conformal upper bound on the candidate's mean round latency."""
        from repro.prediction.predictor import conformal_interval

        observed = np.asarray(self._observed[candidate], dtype=np.float64)
        mean = float(observed.mean())
        _, upper = conformal_interval(
            observed - mean, np.array([mean]), alpha=self.alpha
        )
        return float(upper[0])

    def best(self) -> int:
        """The observed candidate with the smallest conformal upper bound."""
        scored = [
            (self.upper_bound(c), c)
            for c in range(self.n_candidates)
            if self._observed[c]
        ]
        if not scored:
            return self._order[0]
        return min(scored)[1]

    def choose(self, segment: int) -> int:
        """The candidate to run for ``segment`` (0-based)."""
        if segment < 0:
            raise ValueError(f"segment must be >= 0, got {segment}")
        if segment < self.n_candidates:
            return self._order[segment]
        return self.best()

    def bands(self) -> list[dict]:
        """JSON-ready per-candidate summaries (the ``repro tune`` trace)."""
        out = []
        for c in range(self.n_candidates):
            observed = self._observed[c]
            if not observed:
                continue
            out.append(
                {
                    "candidate": c,
                    "rounds": len(observed),
                    "mean": float(np.mean(observed)),
                    "upper": self.upper_bound(c),
                }
            )
        return out


# ---------------------------------------------------------------------------
# The adaptive(<base>, ...) wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptivePolicyRunner(_ScenarioRunner):
    """A tunable base policy driven by per-trial adaptive controllers.

    Every ``(scenario, seed)`` trial row of a stacked call gets its own
    controller, seeded by the row's trial seed.  The run is split into
    ``cadence``-iteration segments.  Before each segment every row's
    controller picks a candidate knob setting; the rows that chose the
    same candidate are re-batched and played through the base policy's
    own ``run_batch`` over a replay window of the pre-materialised
    scenario draws, with a fresh forecaster warmed on the full replayed
    measurement history.  Per-round measurements are
    scattered back into one master metrics object, so the reported totals
    and waste aggregate exactly as a monolithic run's.  Forecaster and
    (for over-decomposition) placement state restart at segment
    boundaries — the cost a real system pays for reconfiguring — which is
    why the identity case (one candidate, one segment) is bitwise equal to
    the base policy.
    """

    policy: str
    n_workers: int
    k: int
    base: str
    grid: tuple[tuple[str, tuple[Any, ...]], ...]
    cadence: int = 1
    alpha: float = 0.2
    backend: str = "closed"
    network: Any = None

    def candidates(self) -> tuple[dict, ...]:
        """Every knob setting: the Cartesian product of the grid axes."""
        names = [name for name, _ in self.grid]
        values = [vals for _, vals in self.grid]
        return tuple(
            dict(zip(names, combo)) for combo in itertools.product(*values)
        )

    def _base_runner(self, overrides: dict):
        from repro.scheduling.policies import build_policy

        return build_policy(
            self.base,
            self.n_workers,
            self.k,
            backend=self.backend,
            network=self.network,
            **overrides,
        )

    def run_scenarios(
        self, scenarios, ctx, *, rows, cols, iterations, trace=None
    ):
        from repro.cluster.speed_models import ReplaySpeeds
        from repro.runtime.batch import BatchRunMetrics
        from repro.scheduling.policies import _row_draws, _split_metrics, trial_rows

        check_positive_int(self.cadence, "cadence")
        candidates = self.candidates()
        runners = [self._base_runner(c) for c in candidates]
        stacked = trial_rows(scenarios, ctx.seeds)
        n_rows = len(stacked)
        rounds = 2 * iterations  # each LR-like iteration plays A then Aᵀ
        # Every round of every row, drawn once: the sequential scenario
        # processes cannot be re-read per segment, and the simulators
        # consume values only, so replaying windows is bitwise faithful.
        speeds, factors = _row_draws(stacked, self.n_workers).draw(rounds)
        if self.backend != "event":
            factors = None  # the closed form never reads them
        controllers = [
            AdaptiveController(len(candidates), seed=s, alpha=self.alpha)
            for _, s in stacked
        ]
        master = BatchRunMetrics(n_trials=n_rows, n_workers=self.n_workers)
        for segment, lo in enumerate(range(0, iterations, self.cadence)):
            hi = min(lo + self.cadence, iterations)
            seg_rounds = 2 * (hi - lo)
            choices = [c.choose(segment) for c in controllers]
            full = {
                "latency": np.zeros((seg_rounds, n_rows)),
                "computed": np.zeros((seg_rounds, n_rows, self.n_workers)),
                "used": np.zeros((seg_rounds, n_rows, self.n_workers)),
                "assigned": np.zeros((seg_rounds, n_rows, self.n_workers)),
                "predicted": np.zeros((seg_rounds, n_rows, self.n_workers)),
                "actual": np.zeros((seg_rounds, n_rows, self.n_workers)),
                "repaired": np.zeros((seg_rounds, n_rows), dtype=bool),
            }
            for candidate in sorted(set(choices)):
                selected = [t for t, ch in enumerate(choices) if ch == candidate]
                window = ReplaySpeeds(
                    speeds[selected, :, 2 * lo :],
                    None if factors is None else factors[selected, :, 2 * lo :],
                )
                predictor = runners[candidate].predictor_factory(
                    tuple(stacked[t] for t in selected), ctx, self.n_workers
                )
                for r in range(2 * lo):  # warm start: replayed history
                    predictor.update(speeds[selected, :, r])
                metrics = runners[candidate].run_batch(
                    window,
                    predictor,
                    rows=rows,
                    cols=cols,
                    iterations=hi - lo,
                )
                arrays = metrics.round_arrays()
                for i, t in enumerate(selected):
                    controllers[t].observe(candidate, arrays["latency"][:, i])
                for key, tensor in full.items():
                    tensor[:, selected] = arrays[key]
            for j in range(seg_rounds):
                master.add_round(
                    latency=full["latency"][j],
                    computed=full["computed"][j],
                    used=full["used"][j],
                    assigned=full["assigned"][j],
                    predicted=full["predicted"][j],
                    actual=full["actual"][j],
                    repaired=full["repaired"][j],
                )
            if trace is not None:
                trace.append(
                    {
                        "segment": segment,
                        "iterations": [lo, hi],
                        "choices": [int(c) for c in choices],
                        "candidates": [
                            {k: v for k, v in sorted(c.items())}
                            for c in candidates
                        ],
                        "bands": [c.bands() for c in controllers],
                    }
                )
        return _split_metrics(master, ctx.trials)


# ---------------------------------------------------------------------------
# The policy-auto meta-policy
# ---------------------------------------------------------------------------


#: Run-scoped memo of per-scenario probe commitments: identical in every
#: shard (the probe depends only on ``base_seed``, the cell geometry and
#: the runner's configuration), so memoising it per worker process only
#: avoids repeated shared work — never changes a decision.  Cleared at
#: every sweep-run boundary exactly like the trained-forecaster memo in
#: :mod:`repro.scheduling.policies`.
_COMMIT_MEMO: dict[tuple, tuple] = {}


@register_run_scoped_cache
def clear_memos() -> None:
    """Drop the probe-commitment memo (run-boundary hook)."""
    _COMMIT_MEMO.clear()


@dataclass(frozen=True)
class AutoPolicyRunner(_ScenarioRunner):
    """``policy-auto``: probe the fixed registry, commit per scenario.

    The probe phase runs every fixed (non-adaptive) registry policy on
    ``probe_trials`` held-out seeds at the cell's own geometry, scores
    each by the conformal upper bound of its mean total latency, and
    commits to the smallest — ties toward the alphabetically first name.
    The committed policy then runs the real trials untouched, so trial
    ``t`` of a policy-auto cell is bitwise trial ``t`` of the committed
    policy's cell.  A stacked call probes each candidate once over every
    scenario not yet committed, then runs each committed policy once over
    its group of scenarios.
    """

    policy: str
    n_workers: int
    k: int
    probe_trials: int = 3
    alpha: float = 0.2
    backend: str = "closed"
    network: Any = None

    def candidates(self) -> tuple[str, ...]:
        """The fixed (non-adaptive, non-meta) registry policies."""
        from repro.scheduling.policies import available_policies, get_policy

        return tuple(
            name
            for name in available_policies()
            if "adaptive" not in get_policy(name).tags
        )

    def _build(self, name: str):
        from repro.scheduling.policies import build_policy

        return build_policy(
            name,
            self.n_workers,
            self.k,
            backend=self.backend,
            network=self.network,
        )

    def commit(self, scenarios, ctx, *, rows, cols, iterations):
        """Probe the candidates; ``(committed_name, scores)`` per scenario."""
        from repro.engine.plan import SEED_STRIDE, SweepContext
        from repro.prediction.predictor import conformal_interval

        check_positive_int(self.probe_trials, "probe_trials")
        candidates = self.candidates()
        keys = {
            scenario: (
                "policy-auto",
                scenario,
                ctx.base_seed,
                ctx.quick,
                rows,
                cols,
                iterations,
                self.backend,
                self.network,
                self.probe_trials,
                self.alpha,
                candidates,
            )
            for scenario in scenarios
        }
        pending = tuple(s for s, key in keys.items() if key not in _COMMIT_MEMO)
        if pending:
            probe_ctx = SweepContext(
                quick=ctx.quick,
                base_seed=ctx.base_seed,
                seeds=tuple(
                    ctx.base_seed + PROBE_SEED_OFFSET + SEED_STRIDE * j
                    for j in range(self.probe_trials)
                ),
            )
            probed = {
                name: self._build(name).run_scenarios(
                    pending, probe_ctx, rows=rows, cols=cols,
                    iterations=iterations,
                )
                for name in candidates
            }
            for i, scenario in enumerate(pending):
                scores: dict[str, float] = {}
                for name in candidates:
                    totals = np.asarray(probed[name][i]["total"], dtype=np.float64)
                    mean = float(totals.mean())
                    _, upper = conformal_interval(
                        totals - mean, np.array([mean]), alpha=self.alpha
                    )
                    scores[name] = float(upper[0])
                committed = min(candidates, key=lambda n: (scores[n], n))
                _COMMIT_MEMO[keys[scenario]] = (committed, scores)
        return [_COMMIT_MEMO[keys[s]] for s in scenarios]

    def run_scenarios(
        self, scenarios, ctx, *, rows, cols, iterations, trace=None
    ):
        commitments = self.commit(
            scenarios, ctx, rows=rows, cols=cols, iterations=iterations
        )
        groups: dict[str, list[int]] = {}
        for i, (committed, scores) in enumerate(commitments):
            groups.setdefault(committed, []).append(i)
            if trace is not None:
                trace.append(
                    {
                        "probe": {
                            "trials": self.probe_trials,
                            "alpha": self.alpha,
                            "scores": {n: scores[n] for n in sorted(scores)},
                        },
                        "committed": committed,
                    }
                )
        out: list[dict] = [None] * len(scenarios)
        for committed, indices in groups.items():
            values = self._build(committed).run_scenarios(
                tuple(scenarios[i] for i in indices),
                ctx,
                rows=rows,
                cols=cols,
                iterations=iterations,
            )
            for i, value in zip(indices, values):
                out[i] = value
        return out


# ---------------------------------------------------------------------------
# Expression parsing (adaptive(<base>, knob=v1:v2, ...))
# ---------------------------------------------------------------------------


def _fail(expr: str, detail: str) -> KeyError:
    """Registry-listing ``KeyError`` shape, matching composed scenarios."""
    from repro.scheduling.policies import available_policies

    return KeyError(
        f"unknown policy {expr!r}: {detail}; available policies: "
        f"{', '.join(available_policies())}"
    )


def _coerce(expr: str, base: str, key: str, text: str, default: Any) -> Any:
    """One knob value, coerced to the declared default's type."""
    try:
        if isinstance(default, bool):
            lowered = text.lower()
            if lowered not in ("true", "false"):
                raise ValueError(text)
            return lowered == "true"
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise _fail(
            expr,
            f"knob {key!r} of {base!r} expects "
            f"{type(default).__name__} values, got {text!r}",
        ) from None


def _tunable_knobs(spec) -> dict[str, Any]:
    return dict(spec.defaults)


def _check_tunable_base(expr: str, base_spec) -> None:
    """Reject bases without the batched engine (or already-adaptive ones)."""
    if "adaptive" in base_spec.tags:
        raise _fail(
            expr, f"{base_spec.name!r} is already adaptive and cannot be wrapped"
        )
    probe = base_spec.builder(n_workers=2, k=1, **dict(base_spec.defaults))
    if not (hasattr(probe, "run_batch") and hasattr(probe, "predictor_factory")):
        from repro.scheduling.policies import available_policies, get_policy

        tunable = ", ".join(
            name
            for name in available_policies()
            if "adaptive" not in get_policy(name).tags
            and hasattr(
                get_policy(name).builder(
                    n_workers=2, k=1, **dict(get_policy(name).defaults)
                ),
                "run_batch",
            )
        )
        raise _fail(
            expr,
            f"base policy {base_spec.name!r} has no batched engine and "
            f"cannot be tuned online; tunable bases: {tunable}",
        )


def _parse_adaptive(expr: str):
    """Parse one canonical expression into its configuration pieces.

    Returns ``(base, grid, cadence, alpha)``; raises the registry-listing
    ``KeyError`` naming the offending knob and listing the valid ones.
    """
    from repro.scheduling.policies import get_policy

    inner = expr[len("adaptive(") : -1]
    parts = [p.strip() for p in inner.split(",")]
    if not parts or not parts[0]:
        raise _fail(expr, "adaptive(...) needs a base policy name")
    base = parts[0]
    base_spec = get_policy(base)  # unknown base → registry-listing KeyError
    _check_tunable_base(expr, base_spec)
    knobs = _tunable_knobs(base_spec)
    grid: list[tuple[str, tuple]] = []
    cadence, alpha = 1, 0.2
    seen: set[str] = set()
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise _fail(expr, f"expected knob=value, got {part!r}")
        if key in seen:
            raise _fail(expr, f"duplicate knob {key!r}")
        seen.add(key)
        if key == "cadence":
            cadence = _coerce(expr, base, key, value, 1)
            if cadence < 1:
                raise _fail(expr, f"cadence must be >= 1, got {cadence}")
            continue
        if key == "alpha":
            alpha = _coerce(expr, base, key, value, 0.2)
            if not 0 < alpha < 1:
                raise _fail(expr, f"alpha must be in (0, 1), got {alpha}")
            continue
        if key not in knobs:
            raise _fail(
                expr,
                f"policy {base!r} has no tunable knob {key!r}; tunable: "
                f"{', '.join(sorted(knobs))}; controller keys: "
                f"{', '.join(CONTROLLER_KEYS)}",
            )
        values = tuple(
            _coerce(expr, base, key, v.strip(), knobs[key])
            for v in value.split(":")
            if v.strip()
        )
        if not values:
            raise _fail(expr, f"knob {key!r} needs at least one value")
        grid.append((key, values))
    # Reject candidate settings the base policy's own builder rejects, so
    # a bad bound fails at name-resolution time (CLI exit 2), not inside a
    # sweep cell.
    names = [name for name, _ in grid]
    for combo in itertools.product(*(vals for _, vals in grid)):
        overrides = dict(zip(names, combo))
        try:
            base_spec.builder(
                n_workers=2, k=1, **{**dict(base_spec.defaults), **overrides}
            )
        except ValueError as error:
            shown = ", ".join(f"{k}={v!r}" for k, v in overrides.items())
            raise _fail(
                expr, f"invalid knob setting ({shown}) for {base!r}: {error}"
            ) from None
    return base, tuple(grid), cadence, alpha


def _canonical(expr: str) -> str:
    return "".join(expr.split())


#: Parsed expression specs, memoised per canonical name: parsing is pure
#: given the (append-only) policy registry, and sweep cells resolve their
#: axis value on every call.
_PARSED_SPECS: dict[str, Any] = {}


def adaptive_spec(name: str):
    """Resolve an ``adaptive(...)`` expression into a :class:`PolicySpec`.

    The on-demand twin of the composed-scenario resolver: the expression
    *is* the policy name, so it works as a sweep-axis value and a CLI
    flag, and the configuration rides the axis value into every shard and
    cache digest.  Malformed expressions raise the registry-listing
    ``KeyError`` shape (→ CLI exit 2).
    """
    from repro.scheduling.policies import PolicySpec

    expr = _canonical(name)
    cached = _PARSED_SPECS.get(expr)
    if cached is not None:
        return cached
    if not (expr.startswith("adaptive(") and expr.endswith(")")):
        raise _fail(
            name,
            "only adaptive(<base>, knob=v1:v2, ..., cadence=N, alpha=A) "
            "expressions are supported",
        )
    base, grid, cadence, alpha = _parse_adaptive(expr)

    def _build(n_workers: int, k: int) -> AdaptivePolicyRunner:
        return AdaptivePolicyRunner(
            policy=expr,
            n_workers=n_workers,
            k=k,
            base=base,
            grid=grid,
            cadence=cadence,
            alpha=alpha,
        )

    spec = PolicySpec(
        name=expr,
        summary=f"online conformal knob controller over {base!r}",
        paper="beyond paper: ROADMAP closed-loop adaptive tuning",
        figures=(),
        builder=_build,
        defaults=(),
        tags=("adaptive", "expression"),
    )
    _PARSED_SPECS[expr] = spec
    return spec


def make_adaptive(
    policy: str,
    base: str,
    n_workers: int,
    k: int,
    *,
    knobs: str,
    cadence: int = 1,
    alpha: float = 0.2,
) -> AdaptivePolicyRunner:
    """Build a named adaptive wrapper from a compact knob-grid string.

    ``knobs`` is ``"slack=0.05:0.15:0.3"`` (``;``-separated for several
    knobs) — the same grammar as the expression form, so the named
    registrations (``adaptive-timeout`` …) and on-demand expressions
    cannot drift apart.
    """
    parts = [p.strip() for p in knobs.split(";") if p.strip()]
    expr = _canonical(
        "adaptive(" + ",".join([base, *parts]) + f",cadence={cadence},alpha={alpha})"
    )
    parsed_base, grid, cadence, alpha = _parse_adaptive(expr)
    return AdaptivePolicyRunner(
        policy=policy,
        n_workers=n_workers,
        k=k,
        base=parsed_base,
        grid=grid,
        cadence=cadence,
        alpha=alpha,
    )
