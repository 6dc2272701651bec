"""Pluggable mitigation-policy library: named, parameterised strategies.

The paper's core claim is *comparative* — S2C2 against uncoded
replication, conventional MDS, over-decomposition, and repair/prediction
ablations — yet "which mitigation policy" used to be hard-wired per
experiment module while straggler environments already travelled as named
:mod:`~repro.cluster.scenarios`.  This module mirrors the scenario
registry on the strategy side:

* a **registry** maps a policy name to a builder producing a configured
  :class:`PolicyRunner` for ``(n_workers, k)`` plus declared default
  parameters (knobs outside the declared set are rejected, keeping sweep
  axes typo-safe);
* :func:`build_policy` is the uniform factory — every runner exposes
  :meth:`~PolicyRunner.run_scenarios` (resolve named straggler scenarios,
  simulate every ``(scenario, seed)`` trial row at once on the batched
  engine, return per-trial totals and waste per scenario) plus a
  lower-level ``run_batch`` for callers that wire their own speed models
  and predictors (the cloud suite's trained LSTM, Fig 6's oracle);
* policy names are plain strings, so a policy is directly usable as a
  :class:`~repro.engine.plan.SweepSpec` axis value (the ``matrix``
  experiment sweeps policy × scenario) and from the CLI
  (``python -m repro policies`` lists the registry, ``python -m repro
  matrix`` sweeps it);
* :func:`registry_digest` folds runtime registrations into every sweep
  cache key — exactly like the scenario digest — so
  :class:`~repro.engine.runner.ExecutionEngine` never serves a cached
  cell computed under a different policy registry.

The built-ins cover the paper end to end: the §3 baselines (``uncoded``,
``replication``, ``overdecomp``, ``mds``), the §4.1/§4.2 schedulers
(``s2c2-basic``, ``s2c2-general``), the §4.3 repair (``timeout-repair``),
and the §6 prediction-backed variants (``s2c2-lstm`` / ``s2c2-ar`` /
``s2c2-lastvalue`` / ``s2c2-oracle`` / ``s2c2-stale``).  Beyond the
paper, the closed-loop adaptive layer (:mod:`repro.scheduling.adaptive`)
registers ``adaptive-timeout`` and ``adaptive-overdecomp`` — online
conformal knob tuning over a base policy — plus the ``policy-auto``
meta-policy, and :func:`get_policy` resolves ad-hoc
``adaptive(<base>, knob=v1:v2, ...)`` expressions the same way the
scenario registry resolves composition expressions.  See
``docs/policies.md`` for the paper mapping of each and
``docs/results.md`` for the generated policy × scenario results handbook.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro._util import builder_source, check_positive_int, check_probability
from repro.engine.runner import register_run_scoped_cache
from repro.scheduling.replication import SpeculationConfig
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

__all__ = [
    "PolicySpec",
    "PolicyRunner",
    "register_policy",
    "available_policies",
    "get_policy",
    "build_policy",
    "registry_digest",
    "CodedPolicyRunner",
    "OverDecompositionPolicyRunner",
    "ReplicationPolicyRunner",
    "trial_rows",
    "clear_memos",
]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: metadata plus the runner builder.

    Attributes
    ----------
    name:
        Registry key (also the sweep-axis / CLI value).
    summary:
        One-line description for listings.
    paper:
        The paper section/mechanism the policy reproduces.
    figures:
        Experiment names that exercise this policy's mechanism (most
        build their runners from the registry; the prediction-backed
        variants also anchor the experiments that study their forecaster)
        — the cross-reference ``docs/policies.md`` and the results
        handbook use.
    builder:
        ``builder(n_workers=..., k=..., **params) -> PolicyRunner``.
    defaults:
        Declared ``(param, value)`` defaults; overrides outside this set
        are rejected, keeping sweep axes typo-safe.
    tags:
        Free-form labels; ``"adaptive"`` marks the closed-loop entries
        (:mod:`repro.scheduling.adaptive`), which the ``policy-auto``
        probe and the matrix's adaptive-vs-best-fixed grid use to split
        the registry into fixed and adaptive rows.
    """

    name: str
    summary: str
    paper: str
    figures: tuple[str, ...]
    builder: Callable[..., "PolicyRunner"]
    defaults: tuple[tuple[str, Any], ...] = ()
    tags: tuple[str, ...] = ()


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(
    name: str,
    summary: str,
    paper: str = "",
    figures: tuple[str, ...] = (),
    tags: tuple[str, ...] = (),
    **defaults: Any,
):
    """Decorator: register ``builder(n_workers, k, **params)`` by name.

    ``defaults`` declare the policy's tunable parameters and their default
    values — the only keyword overrides :func:`build_policy` will accept.
    """

    def decorator(builder: Callable[..., "PolicyRunner"]):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} already registered")
        _REGISTRY[name] = PolicySpec(
            name=name,
            summary=summary,
            paper=paper,
            figures=tuple(figures),
            builder=builder,
            defaults=tuple(sorted(defaults.items())),
            tags=tuple(tags),
        )
        return builder

    return decorator


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_policy(name: str) -> PolicySpec:
    """Look up one policy; ``KeyError`` lists the registry on a miss.

    ``adaptive(<base>, knob=v1:v2, …)`` expressions (see
    :mod:`repro.scheduling.adaptive`) resolve **on demand** without prior
    registration — mirroring composed scenario names — so adaptive
    wrappers work anywhere a base name does: CLI flags, sweep axes, and
    pool worker processes.  Malformed expressions (unknown base, unknown
    knob, invalid bound) raise the same registry-listing ``KeyError``
    shape as a plain miss, naming the offending knob.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if "(" in name:
        from repro.scheduling.adaptive import adaptive_spec

        return adaptive_spec(name)
    raise KeyError(
        f"unknown policy {name!r}; available: "
        f"{', '.join(available_policies())}"
    )


def build_policy(
    name: str,
    n_workers: int,
    k: int,
    *,
    backend: str = "closed",
    network: Any = None,
    **overrides: Any,
) -> "PolicyRunner":
    """Build the named policy's configured runner for an ``(n, k)`` cluster.

    ``k`` is the decoding threshold of the coded policies; the uncoded
    baselines accept and ignore it, so one uniform factory drives the whole
    registry (the property the policy × scenario matrix sweeps on).

    ``backend`` selects the simulator core for the coded runners
    (``"closed"`` or ``"event"`` — see :mod:`repro.cluster.events`), and
    ``network`` overrides their :class:`~repro.cluster.network.NetworkModel`
    (the zero-network equivalence suite injects the limit here).  The
    uncoded baselines have no closed-form/event split, so both settings
    pass through them unchanged.
    """
    spec = get_policy(name)
    check_positive_int(n_workers, "n_workers")
    check_positive_int(k, "k")
    if k > n_workers:
        raise ValueError(f"k {k} exceeds n_workers {n_workers}")
    params = dict(spec.defaults)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(
            f"policy {name!r} has no parameter(s) {sorted(unknown)}; "
            f"tunable: {sorted(params)}"
        )
    params.update(overrides)
    runner = spec.builder(n_workers=n_workers, k=k, **params)
    if backend != "closed" or network is not None:
        import dataclasses

        from repro.cluster.events import check_backend

        check_backend(backend)
        fields = (
            {f.name for f in dataclasses.fields(runner)}
            if dataclasses.is_dataclass(runner)
            else set()
        )
        updates: dict[str, Any] = {}
        if "backend" in fields:
            updates["backend"] = backend
        if network is not None and "network" in fields:
            updates["network"] = network
        if updates:
            runner = dataclasses.replace(runner, **updates)
    return runner


def registry_digest() -> str:
    """Content hash of the policy registry (a sweep-cache key input).

    Covers names, defaults, and each builder's source (falling back to
    its ``repr`` for builders without retrievable source), so registering
    or editing a policy at runtime invalidates cached sweep cells even
    when the builder lives outside the ``repro`` package tree.  Doc-only
    metadata (summary, paper, figures) is deliberately excluded — exactly
    as in the scenario digest — so editing a cross-reference never
    invalidates numerically unchanged cells.
    """
    digest = hashlib.sha256()
    for name in available_policies():
        spec = _REGISTRY[name]
        digest.update(name.encode())
        digest.update(repr(spec.defaults).encode())
        digest.update(builder_source(spec.builder).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Configured runners
# ---------------------------------------------------------------------------


@runtime_checkable
class PolicyRunner(Protocol):
    """What :func:`build_policy` returns: a policy bound to its knobs.

    ``run_scenarios`` is the uniform surface the policy × scenario matrix
    sweeps: resolve every named straggler scenario for every trial seed,
    simulate the LR-like round pattern over all those stacked trial rows
    at once, and return one JSON-ready ``{"total": [...], "wasted":
    [...]}`` per scenario (per-trial total time, and mean wasted fraction
    of assigned work across workers).  Rows are independent, so each
    scenario's value equals a run of that scenario alone, bit for bit;
    ``run_scenario`` is that run, the stacked call with one scenario.
    """

    policy: str
    n_workers: int

    def run_scenarios(
        self,
        scenarios: Sequence[str],
        ctx,
        *,
        rows: int,
        cols: int,
        iterations: int,
    ) -> list[dict]:
        """Evaluate the policy against registered scenarios, per trial."""
        ...

    def run_scenario(
        self, scenario: str, ctx, *, rows: int, cols: int, iterations: int
    ) -> dict:
        """``run_scenarios`` with one scenario."""
        ...


def trial_rows(
    scenarios: Sequence[str], seeds: Sequence[int]
) -> tuple[tuple[str, int], ...]:
    """The stacked ``(scenario, seed)`` trial rows, scenario-major."""
    return tuple((scenario, seed) for scenario in scenarios for seed in seeds)


def _row_draws(rows: Sequence[tuple[str, int]], n_workers: int):
    """One draw surface over ``(scenario, seed)`` rows, in order.

    Each run of adjacent rows that share a scenario is one
    :func:`~repro.cluster.scenarios.scenario_batch`, so a cell call draws
    each scenario's rows in bulk, and row ``t`` is bit for bit
    ``scenario_speed_model(*rows[t])``.
    """
    from repro.cluster.scenarios import scenario_batch
    from repro.cluster.speed_models import StackedSpeeds

    parts = [
        scenario_batch(scenario, n_workers, [seed for _, seed in group])
        for scenario, group in itertools.groupby(rows, key=lambda row: row[0])
    ]
    return parts[0] if len(parts) == 1 else StackedSpeeds(parts)


def _split_metrics(metrics, trials: int) -> list[dict]:
    """Per-scenario ``{"total", "wasted"}`` lists from stacked-row metrics."""
    wasted = np.asarray(metrics.wasted_fraction_of_assigned(), dtype=np.float64)
    total = [float(v) for v in metrics.total_time]
    waste = [float(v) for v in wasted.mean(axis=1)]
    return [
        {"total": total[lo : lo + trials], "wasted": waste[lo : lo + trials]}
        for lo in range(0, len(total), trials)
    ]


class _ScenarioRunner:
    """``run_scenario``: the stacked ``run_scenarios`` call, one scenario."""

    def run_scenario(self, scenario, ctx, *, rows, cols, iterations, **extra):
        (value,) = self.run_scenarios(
            (scenario,), ctx, rows=rows, cols=cols, iterations=iterations,
            **extra,
        )
        return value


class _BatchedPolicyRunner(_ScenarioRunner):
    """The shared ``run_scenarios`` of every fixed runner.

    Stacks every ``(scenario, seed)`` row into one batch speed form, wires
    the runner's own forecaster for those rows into one ``run_batch``
    call, and splits the metrics into the matrix cell contract.
    """

    def run_scenarios(self, scenarios, ctx, *, rows, cols, iterations):
        metrics = self.run_batch(
            _row_draws(trial_rows(scenarios, ctx.seeds), self.n_workers),
            self.predictor_factory(
                trial_rows(scenarios, ctx.seeds), ctx, self.n_workers
            ),
            rows=rows,
            cols=cols,
            iterations=iterations,
        )
        return _split_metrics(metrics, ctx.trials)


@dataclass(frozen=True)
class CodedPolicyRunner(_BatchedPolicyRunner):
    """A coded-computation policy: scheduler family + forecaster + repair.

    ``scheduler_factory()`` builds a fresh per-run scheduler (schedulers
    are stateless, but sharing instances across runs is needless coupling);
    ``predictor_factory(rows, ctx, n_workers)`` wires the policy's
    forecaster for the stacked :func:`trial_rows` of a scenario sweep
    (trained models key on ``ctx.quick`` and ``ctx.base_seed``), while
    :meth:`run_batch` lets callers substitute their own predictor and
    speed model (the cloud suite's trained LSTM, Fig 6's oracle) without
    leaving the registry.
    """

    policy: str
    n_workers: int
    k: int
    scheduler_factory: Callable[[], Any]
    predictor_factory: Callable[[tuple, Any, int], Any]
    timeout: TimeoutPolicy | None = None
    #: Simulator core ("closed" or "event") and an optional NetworkModel
    #: override — both applied by :func:`build_policy`, never by builders.
    backend: str = "closed"
    network: Any = None

    def make_scheduler(self):
        """A fresh scheduler instance configured with the policy's knobs."""
        return self.scheduler_factory()

    def run_batch(self, speed_model, predictor, *, rows, cols, iterations):
        """All trials at once on the batched coded engine; returns metrics."""
        from repro.experiments.harness import run_lr_like_batch

        return run_lr_like_batch(
            "coded",
            rows,
            cols,
            speed_model,
            predictor,
            iterations,
            operator=(self.k, self.make_scheduler()),
            network=self.network,
            timeout=self.timeout,
            backend=self.backend,
        )


@dataclass(frozen=True)
class OverDecompositionPolicyRunner(_BatchedPolicyRunner):
    """The Charm++-like over-decomposition baseline as a policy."""

    policy: str
    n_workers: int
    factor: int
    replication: float
    predictor_factory: Callable[[tuple, Any, int], Any]

    def run_batch(self, speed_model, predictor, *, rows, cols, iterations):
        """All trials at once on the batched over-decomposition engine."""
        from repro.experiments.harness import run_lr_like_batch

        return run_lr_like_batch(
            "overdecomposition",
            rows,
            cols,
            speed_model,
            predictor,
            iterations,
            factor=self.factor,
            replication=self.replication,
        )


@dataclass(frozen=True)
class ReplicationPolicyRunner(_BatchedPolicyRunner):
    """Uncoded r-replication + speculation as a policy.

    Runs every trial at once on the batched replication engine (see
    :class:`~repro.runtime.batch.BatchReplicationRunner`), like the other
    families.  The forecaster never shapes a replication round — there is
    no plan — so ``predictor_factory`` only supplies the predictions the
    metrics record.
    """

    policy: str
    n_workers: int
    config: SpeculationConfig
    predictor_factory: Callable[[tuple, Any, int], Any]

    def run_batch(self, speed_model, predictor, *, rows, cols, iterations):
        """All trials at once on the batched replication engine."""
        from repro.experiments.harness import run_lr_like_batch

        return run_lr_like_batch(
            "replication",
            rows,
            cols,
            speed_model,
            predictor,
            iterations,
            config=self.config,
        )


# ---------------------------------------------------------------------------
# Forecaster wiring (the prediction-backed variants)
# ---------------------------------------------------------------------------


#: In-process memo for trained forecasting models and the held-out traces
#: they train on, explicitly keyed and scoped to one sweep run (cleared
#: whenever a :class:`~repro.engine.runner.ExecutionEngine` is built) so
#: long-lived pool workers neither pin stale models nor leak one run's
#: models into an unrelated later run.
_MODEL_MEMO: dict[tuple, Any] = {}


@register_run_scoped_cache
def clear_memos() -> None:
    """Drop the trained forecaster memo (run-boundary hook)."""
    _MODEL_MEMO.clear()


def _training_traces(quick: bool, seed: int) -> np.ndarray:
    """Held-out §6.1-style measured traces, disjoint from every trial seed.

    Trial seeds are ``base_seed + SEED_STRIDE·t`` with a ~1e6 stride, so a
    small fixed offset can never collide with a replayed trial.  Memoised
    for the run (the AR and LSTM forecasters train on the same traces)
    and read-only, so no fit can alter what the next one sees.
    """
    key = ("traces", quick, seed)
    traces = _MODEL_MEMO.get(key)
    if traces is None:
        from repro.prediction.traces import MEASURED, generate_speed_traces

        length = 200 if quick else 500
        traces = generate_speed_traces(30, length, MEASURED, seed=seed + 4000)
        traces.setflags(write=False)
        _MODEL_MEMO[key] = traces
    return traces


def _trained_lstm(hidden: int, quick: bool, seed: int):
    """Train (or fetch) the shared §6.1 LSTM forecaster."""
    key = ("lstm", hidden, quick, seed)
    model = _MODEL_MEMO.get(key)
    if model is None:
        from repro.prediction.lstm import LSTMSpeedModel

        model = LSTMSpeedModel(hidden=hidden, seed=seed)
        model.fit(
            _training_traces(quick, seed),
            epochs=80 if quick else 250,
            window=40,
        )
        _MODEL_MEMO[key] = model
    return model


def _fitted_ar(p: int, quick: bool, seed: int):
    """Fit (or fetch) the shared AR(p) forecaster."""
    key = ("ar", p, quick, seed)
    model = _MODEL_MEMO.get(key)
    if model is None:
        from repro.prediction.arima import ARModel

        model = ARModel(p=p).fit(_training_traces(quick, seed))
        _MODEL_MEMO[key] = model
    return model


def _last_value_predictor(rows, ctx, n_workers: int):
    """The §6.2 naive floor, natively batched."""
    from repro.prediction.predictor import BatchLastValuePredictor

    return BatchLastValuePredictor(len(rows), n_workers)


def _oracle_predictor(rows, ctx, n_workers: int):
    """Per-row perfect forecasts: a fresh seeded replay of the row's scenario."""
    from repro.prediction.predictor import OraclePredictor, StackedPredictor

    replay = _row_draws(rows, n_workers)
    return StackedPredictor(
        [OraclePredictor(speed_model=replay.row(t)) for t in range(len(rows))]
    )


def _stale_predictor(rows, ctx, n_workers: int, miss_rate: float):
    """Per-row adversarial oracle (wrong with ``miss_rate`` per node)."""
    from repro.prediction.predictor import StackedPredictor, StalePredictor

    replay = _row_draws(rows, n_workers)
    return StackedPredictor(
        [
            StalePredictor(speed_model=replay.row(t), miss_rate=miss_rate, seed=s)
            for t, (_, s) in enumerate(rows)
        ]
    )


def _ar_predictor(rows, ctx, n_workers: int, p: int):
    from repro.prediction.predictor import BatchARPredictor

    return BatchARPredictor(
        _fitted_ar(p, ctx.quick, ctx.base_seed), len(rows), n_workers
    )


def _lstm_predictor(rows, ctx, n_workers: int, hidden: int):
    from repro.prediction.predictor import BatchLSTMPredictor

    return BatchLSTMPredictor(
        _trained_lstm(hidden, ctx.quick, ctx.base_seed), len(rows), n_workers
    )


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------


def _coded(
    name: str,
    n_workers: int,
    k: int,
    num_chunks: int,
    scheduler_factory,
    predictor_factory,
    timeout: TimeoutPolicy | None,
) -> CodedPolicyRunner:
    check_positive_int(num_chunks, "num_chunks")
    return CodedPolicyRunner(
        policy=name,
        n_workers=n_workers,
        k=k,
        scheduler_factory=scheduler_factory,
        predictor_factory=predictor_factory,
        timeout=timeout,
    )


@register_policy(
    "uncoded",
    "uncoded r-replication, strict-locality speculation (classic Hadoop)",
    paper="section 3 / Fig 1 baseline (no data movement)",
    figures=("fig01",),
    replication=3,
    max_speculative=6,
)
def _build_uncoded(
    n_workers: int, k: int, replication: int, max_speculative: int
):
    return ReplicationPolicyRunner(
        policy="uncoded",
        n_workers=n_workers,
        predictor_factory=_last_value_predictor,
        config=SpeculationConfig(
            replication=replication,
            max_speculative=max_speculative,
            allow_data_movement=False,
        ),
    )


@register_policy(
    "replication",
    "uncoded r-replication + LATE-style speculation with data movement",
    paper="section 3 / Fig 6 'enhanced Hadoop' baseline",
    figures=("fig06", "fig07"),
    replication=3,
    max_speculative=6,
)
def _build_replication(
    n_workers: int, k: int, replication: int, max_speculative: int
):
    return ReplicationPolicyRunner(
        policy="replication",
        n_workers=n_workers,
        predictor_factory=_last_value_predictor,
        config=SpeculationConfig(
            replication=replication,
            max_speculative=max_speculative,
            allow_data_movement=True,
        ),
    )


@register_policy(
    "overdecomp",
    "Charm++-like over-decomposition with prediction-driven migration",
    paper="section 3 / section 7.2 baseline",
    figures=("fig08", "fig09", "fig10", "fig11"),
    factor=4,
    replication=1.42,
)
def _build_overdecomp(n_workers: int, k: int, factor: int, replication: float):
    check_positive_int(factor, "factor")
    if replication < 1:
        raise ValueError("replication must be >= 1")
    return OverDecompositionPolicyRunner(
        policy="overdecomp",
        n_workers=n_workers,
        factor=factor,
        replication=replication,
        predictor_factory=_last_value_predictor,
    )


@register_policy(
    "mds",
    "conventional (n, k)-MDS coded computation (full partitions, fastest-k)",
    paper="section 3 conventional coded computation",
    figures=(
        "fig01", "fig06", "fig07", "fig08", "fig10", "fig12", "fig13",
        "scenlat",
    ),
    num_chunks=10_000,
    repair=False,
)
def _build_mds(n_workers: int, k: int, num_chunks: int, repair: bool):
    return _coded(
        "mds",
        n_workers,
        k,
        num_chunks,
        lambda: StaticCodedScheduler(coverage=k, num_chunks=num_chunks),
        _last_value_predictor,
        TimeoutPolicy() if repair else None,
    )


@register_policy(
    "s2c2-basic",
    "basic S2C2: binary fast/straggler split, equal shares for the fast",
    paper="section 4.1",
    figures=("fig06", "fig07"),
    num_chunks=10_000,
    straggler_threshold=0.5,
    repair=False,
)
def _build_s2c2_basic(
    n_workers: int,
    k: int,
    num_chunks: int,
    straggler_threshold: float,
    repair: bool,
):
    return _coded(
        "s2c2-basic",
        n_workers,
        k,
        num_chunks,
        lambda: BasicS2C2Scheduler(
            coverage=k,
            num_chunks=num_chunks,
            straggler_threshold=straggler_threshold,
        ),
        _last_value_predictor,
        TimeoutPolicy() if repair else None,
    )


@register_policy(
    "s2c2-general",
    "general S2C2: speed-proportional slack squeeze (Algorithm 1)",
    paper="section 4.2",
    figures=("fig06", "fig07", "scenrepair"),
    num_chunks=10_000,
    repair=False,
)
def _build_s2c2_general(n_workers: int, k: int, num_chunks: int, repair: bool):
    return _coded(
        "s2c2-general",
        n_workers,
        k,
        num_chunks,
        lambda: GeneralS2C2Scheduler(coverage=k, num_chunks=num_chunks),
        _last_value_predictor,
        TimeoutPolicy() if repair else None,
    )


def _s2c2_with_repair(
    name: str,
    n_workers: int,
    k: int,
    num_chunks: int,
    slack: float,
    predictor_factory,
) -> CodedPolicyRunner:
    if slack < 0:
        raise ValueError("slack must be >= 0")
    return _coded(
        name,
        n_workers,
        k,
        num_chunks,
        lambda: GeneralS2C2Scheduler(coverage=k, num_chunks=num_chunks),
        predictor_factory,
        TimeoutPolicy(slack=slack),
    )


@register_policy(
    "timeout-repair",
    "general S2C2 armed with the timeout repair (the full system)",
    paper="section 4.3",
    figures=("fig08", "fig10", "fig12", "fig13", "scenlat", "scenrepair"),
    num_chunks=10_000,
    slack=0.15,
)
def _build_timeout_repair(n_workers: int, k: int, num_chunks: int, slack: float):
    return _s2c2_with_repair(
        "timeout-repair", n_workers, k, num_chunks, slack, _last_value_predictor
    )


@register_policy(
    "s2c2-lastvalue",
    "repair-armed S2C2 forecasting with the last observed speeds",
    paper="section 6.2 naive floor",
    figures=("sec61",),
    num_chunks=10_000,
    slack=0.15,
)
def _build_s2c2_lastvalue(n_workers: int, k: int, num_chunks: int, slack: float):
    return _s2c2_with_repair(
        "s2c2-lastvalue", n_workers, k, num_chunks, slack, _last_value_predictor
    )


@register_policy(
    "s2c2-ar",
    "repair-armed S2C2 forecasting with a fitted AR(p) model",
    paper="section 6.1 best ARIMA variant (AR(1))",
    figures=("sec61",),
    num_chunks=10_000,
    slack=0.15,
    p=1,
)
def _build_s2c2_ar(n_workers: int, k: int, num_chunks: int, slack: float, p: int):
    check_positive_int(p, "p")
    return _s2c2_with_repair(
        "s2c2-ar",
        n_workers,
        k,
        num_chunks,
        slack,
        lambda rows, ctx, n: _ar_predictor(rows, ctx, n, p),
    )


@register_policy(
    "s2c2-lstm",
    "repair-armed S2C2 forecasting with the trained section 6.1 LSTM",
    paper="section 6.1",
    figures=("fig08", "fig09", "fig10", "fig11", "sec61"),
    num_chunks=10_000,
    slack=0.15,
    hidden=4,
)
def _build_s2c2_lstm(
    n_workers: int, k: int, num_chunks: int, slack: float, hidden: int
):
    check_positive_int(hidden, "hidden")
    return _s2c2_with_repair(
        "s2c2-lstm",
        n_workers,
        k,
        num_chunks,
        slack,
        lambda rows, ctx, n: _lstm_predictor(rows, ctx, n, hidden),
    )


@register_policy(
    "s2c2-oracle",
    "repair-armed S2C2 knowing the exact next-iteration speeds",
    paper="Fig 6/7 'knowing the exact speeds' upper bound",
    figures=("fig06", "fig07"),
    num_chunks=10_000,
    slack=0.15,
)
def _build_s2c2_oracle(n_workers: int, k: int, num_chunks: int, slack: float):
    return _s2c2_with_repair(
        "s2c2-oracle", n_workers, k, num_chunks, slack, _oracle_predictor
    )


@register_policy(
    "s2c2-stale",
    "repair-armed S2C2 under an oracle corrupted at a dialled miss rate",
    paper="section 7.2 controlled mis-prediction environments",
    figures=("fig13",),
    num_chunks=10_000,
    slack=0.15,
    miss_rate=0.15,
)
def _build_s2c2_stale(
    n_workers: int, k: int, num_chunks: int, slack: float, miss_rate: float
):
    check_probability(miss_rate, "miss_rate")
    return _s2c2_with_repair(
        "s2c2-stale",
        n_workers,
        k,
        num_chunks,
        slack,
        lambda rows, ctx, n: _stale_predictor(rows, ctx, n, miss_rate),
    )


# ---------------------------------------------------------------------------
# Closed-loop adaptive entries (see repro.scheduling.adaptive)
# ---------------------------------------------------------------------------


@register_policy(
    "adaptive-timeout",
    "timeout-repair with the online conformal controller tuning slack",
    paper="beyond paper: ROADMAP closed-loop adaptive tuning",
    figures=("matrix",),
    tags=("adaptive",),
    knobs="slack=0.05:0.15:0.3",
    cadence=1,
    alpha=0.2,
)
def _build_adaptive_timeout(
    n_workers: int, k: int, knobs: str, cadence: int, alpha: float
):
    from repro.scheduling.adaptive import make_adaptive

    return make_adaptive(
        "adaptive-timeout",
        "timeout-repair",
        n_workers,
        k,
        knobs=knobs,
        cadence=cadence,
        alpha=alpha,
    )


@register_policy(
    "adaptive-overdecomp",
    "over-decomposition with the online controller tuning the factor",
    paper="beyond paper: ROADMAP closed-loop adaptive tuning",
    figures=("matrix",),
    tags=("adaptive",),
    knobs="factor=4:5",
    cadence=1,
    alpha=0.2,
)
def _build_adaptive_overdecomp(
    n_workers: int, k: int, knobs: str, cadence: int, alpha: float
):
    from repro.scheduling.adaptive import make_adaptive

    return make_adaptive(
        "adaptive-overdecomp",
        "overdecomp",
        n_workers,
        k,
        knobs=knobs,
        cadence=cadence,
        alpha=alpha,
    )


@register_policy(
    "policy-auto",
    "seeded probe across the fixed registry, committing per scenario",
    paper="beyond paper: ROADMAP closed-loop adaptive tuning",
    figures=("matrix",),
    tags=("adaptive", "meta"),
    probe_trials=3,
    alpha=0.2,
)
def _build_policy_auto(n_workers: int, k: int, probe_trials: int, alpha: float):
    from repro.scheduling.adaptive import AutoPolicyRunner

    check_positive_int(probe_trials, "probe_trials")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return AutoPolicyRunner(
        policy="policy-auto",
        n_workers=n_workers,
        k=k,
        probe_trials=probe_trials,
        alpha=alpha,
    )
