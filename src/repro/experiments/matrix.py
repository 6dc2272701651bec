"""Policy × scenario evaluation matrix — every policy on every environment.

The paper evaluates a handful of (strategy, environment) pairs; this
experiment closes the grid: every registered mitigation policy
(:mod:`repro.scheduling.policies`) against every registered straggler
scenario (:mod:`repro.cluster.scenarios`), all trials of a cell simulated
at once on the batched engines, with results reported three ways:

* one :class:`~repro.experiments.harness.ExperimentResult` **per
  scenario** — absolute mean time, mean wasted fraction of assigned work,
  and the per-trial-paired latency ratio against the conventional ``mds``
  baseline facing the identical speed draws;
* a **normalised-latency summary grid** (policy × scenario, ×mds) — the
  table :func:`run` returns, which is what ``python -m repro experiments
  matrix`` and the registry in :data:`~repro.experiments.ALL_EXPERIMENTS`
  print;
* a **waste summary grid** (policy × scenario, absolute mean wasted
  fraction).

Expected shapes: the S2C2 family sits well below 1.0 wherever speeds are
predictable (``constant`` approaches the k/n bound), degrades toward —
and past — 1.0 where slowness arrives abruptly (``bursty``, volatile
``traces``) unless the timeout repair is armed, and the oracle variant
lower-bounds every learned forecaster.  The uncoded baselines waste
little but pay data movement; conventional ``mds`` wastes the full
``(n−k)/n`` of assigned work by construction.

``scripts/gen_results_docs.py`` renders this matrix (quick scale, fixed
seeds) into the generated ``docs/results.md`` handbook, checked fresh in
tier-1 exactly like ``docs/api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.scenarios import available_scenarios, get_scenario
from repro.engine import ExecutionEngine, SweepContext, SweepSpec, stacks_on
from repro.experiments.harness import ExperimentResult, trial_mean
from repro.scheduling.policies import available_policies, build_policy, get_policy

__all__ = [
    "run",
    "run_matrix",
    "run_cell",
    "run_cells",
    "cell_geometry",
    "MatrixResult",
    "N_WORKERS",
    "COVERAGE",
    "BASELINE",
]

N_WORKERS = 12
COVERAGE = 8

#: Normalisation baseline of the summary grid and the per-scenario ratio
#: column: conventional (n, k)-MDS coded computation — the strategy every
#: other policy is an improvement story over.  When a filtered run omits
#: it, the first selected policy takes its place.
BASELINE = "mds"


def cell_geometry(quick: bool) -> tuple[int, int, int]:
    """``(rows, cols, iterations)`` of every matrix cell at this scale."""
    return (480, 120, 4) if quick else (2400, 600, 15)


def run_cells(
    policy: str,
    scenarios: tuple[str, ...],
    ctx: SweepContext,
    backend: str = "closed",
    trace: list | None = None,
) -> list[dict]:
    """Per-trial totals and waste of one policy row, one dict per scenario.

    The one definition of a matrix cell: the policy runs once over every
    stacked ``(scenario, seed)`` trial row (``runner.run_scenarios``), and
    each scenario's value equals its cell run alone, bit for bit.  The
    sweeps (``matrix``, the tournament, ``repro stream``) reach it through
    :func:`_cell`, whose stacked form the engine calls per policy row and
    trial slice; ``repro tune`` (which passes ``trace`` to collect an
    adaptive policy's controller trace) and ``repro profile`` call
    :func:`run_cell` in-process, so their numbers line up with the matrix
    rows.
    """
    rows, cols, iterations = cell_geometry(ctx.quick)
    runner = build_policy(policy, N_WORKERS, COVERAGE, backend=backend)
    extra = {} if trace is None else {"trace": trace}
    return runner.run_scenarios(
        tuple(scenarios), ctx, rows=rows, cols=cols, iterations=iterations,
        **extra,
    )


def run_cell(
    policy: str,
    scenario: str,
    ctx: SweepContext,
    backend: str = "closed",
    trace: list | None = None,
) -> dict:
    """One (policy, scenario) matrix cell: :func:`run_cells` of one scenario."""
    (value,) = run_cells(policy, (scenario,), ctx, backend=backend, trace=trace)
    return value


def _row(params: dict, scenarios: tuple, ctx: SweepContext) -> list[dict]:
    """The stacked form of :func:`_cell`: one policy row over ``scenarios``."""
    return run_cells(
        params["policy"], scenarios, ctx, backend=params.get("backend", "closed")
    )


@stacks_on("scenario", _row)
def _cell(params: dict, ctx: SweepContext) -> dict:
    """The sweep cell of one (policy, scenario) grid point."""
    return run_cell(
        params["policy"],
        params["scenario"],
        ctx,
        backend=params.get("backend", "closed"),
    )


@dataclass
class MatrixResult:
    """The full matrix: per-scenario tables plus the summary grids.

    ``adaptive`` is the headline adaptive-vs-best-fixed grid — one row per
    ``adaptive``-tagged policy, the paired mean-latency ratio against the
    *best fixed* policy of each scenario column — present whenever the
    swept policies include both kinds.
    """

    policies: tuple[str, ...]
    scenarios: tuple[str, ...]
    baseline: str
    per_scenario: dict[str, ExperimentResult]
    summary: ExperimentResult
    waste: ExperimentResult
    backend: str = "closed"
    adaptive: ExperimentResult | None = None

    def tables(self) -> list[ExperimentResult]:
        """Every table in print order: per-scenario, then the grids."""
        tables = [self.per_scenario[s] for s in self.scenarios] + [
            self.summary,
            self.waste,
        ]
        if self.adaptive is not None:
            tables.append(self.adaptive)
        return tables


def run_matrix(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
    policies: tuple[str, ...] | None = None,
    scenarios: tuple[str, ...] | None = None,
    backend: str = "closed",
) -> MatrixResult:
    """Sweep policy × scenario × trials; return every table.

    ``policies`` / ``scenarios`` default to the full registries; unknown
    names raise ``KeyError`` listing the registry (the CLI turns that into
    a clean exit 2).  Ratios are paired per trial — every policy faces the
    identical straggler draws before normalisation — then averaged.

    ``backend`` selects the simulator core (``"closed"`` or ``"event"``)
    and participates as a sweep axis, so event-backend cells are cached
    and resumed under distinct plan digests.
    """
    from repro.cluster.events import check_backend

    check_backend(backend)
    policies = tuple(policies) if policies else available_policies()
    scenarios = tuple(scenarios) if scenarios else available_scenarios()
    for name in policies:
        get_policy(name)
    for name in scenarios:
        get_scenario(name)
    baseline = BASELINE if BASELINE in policies else policies[0]
    spec = SweepSpec(
        name="matrix",
        cell=_cell,
        axes=(
            ("policy", policies),
            ("scenario", scenarios),
            ("backend", (backend,)),
        ),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # The vs-baseline columns are paired per trial (total / base on the
        # identical draws), which needs the full trial lists — the exact
        # concat reducer, not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    # The spec keeps a repeated name once, and so do the tables.
    (_, policies), (_, scenarios) = spec.axes[:2]

    tag = "" if backend == "closed" else f", {backend} backend"
    per_scenario: dict[str, ExperimentResult] = {}
    for scenario in scenarios:
        table = ExperimentResult(
            name=f"matrix/{scenario}",
            description=(
                f"every mitigation policy under the {scenario!r} scenario, "
                f"({N_WORKERS},{COVERAGE}) code{tag}"
            ),
            columns=("policy", "total", "wasted", f"vs-{baseline}"),
        )
        base = np.asarray(
            swept.get(policy=baseline, scenario=scenario, backend=backend)["total"]
        )
        for policy in policies:
            cell = swept.get(policy=policy, scenario=scenario, backend=backend)
            total = np.asarray(cell["total"])
            table.add_row(
                policy,
                trial_mean(cell["total"]),
                trial_mean(cell["wasted"]),
                float(np.mean(total / base)),
            )
        per_scenario[scenario] = table

    summary = ExperimentResult(
        name="matrix",
        description=(
            f"normalised LR-like latency (×{baseline}, paired per trial), "
            f"policy × scenario{tag}"
        ),
        columns=("policy",) + scenarios,
    )
    waste = ExperimentResult(
        name="matrix-waste",
        description="mean wasted fraction of assigned work, policy × scenario",
        columns=("policy",) + scenarios,
    )
    for policy in policies:
        summary.add_row(
            policy,
            *(
                per_scenario[s].value(policy, f"vs-{baseline}")
                for s in scenarios
            ),
        )
        waste.add_row(
            policy,
            *(per_scenario[s].value(policy, "wasted") for s in scenarios),
        )
    summary.notes = (
        "expected: the S2C2 family well below 1 under predictable scenarios "
        "(constant approaches k/n), climbing toward 1 under abrupt ones "
        "unless repair is armed; s2c2-oracle lower-bounds the learned "
        "forecasters; mds is 1 by construction"
    )

    # The headline adaptive grid: every adaptive-tagged row against the
    # best *fixed* policy of each scenario column, paired per trial on the
    # identical draws (see repro.scheduling.adaptive).
    adaptive_rows = tuple(
        p for p in policies if "adaptive" in get_policy(p).tags
    )
    fixed_rows = tuple(p for p in policies if p not in adaptive_rows)
    adaptive_table = None
    if adaptive_rows and fixed_rows:
        best_fixed = {
            s: min(
                fixed_rows,
                key=lambda p: (per_scenario[s].value(p, "total"), p),
            )
            for s in scenarios
        }
        adaptive_table = ExperimentResult(
            name="matrix-adaptive",
            description=(
                "adaptive vs best-fixed per scenario (paired mean-latency "
                "ratio; < 1 beats the best fixed policy of that column)"
            ),
            columns=("policy",) + scenarios,
        )
        for policy in adaptive_rows:
            ratios = []
            for s in scenarios:
                total = np.asarray(
                    swept.get(policy=policy, scenario=s, backend=backend)["total"]
                )
                best = np.asarray(
                    swept.get(policy=best_fixed[s], scenario=s, backend=backend)[
                        "total"
                    ]
                )
                ratios.append(float(np.mean(total / best)))
            adaptive_table.add_row(policy, *ratios)
        adaptive_table.notes = "best fixed per scenario: " + ", ".join(
            f"{s}={best_fixed[s]}" for s in scenarios
        )

    return MatrixResult(
        policies=policies,
        scenarios=scenarios,
        baseline=baseline,
        per_scenario=per_scenario,
        summary=summary,
        waste=waste,
        backend=backend,
        adaptive=adaptive_table,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """The registry entry point: the normalised-latency summary grid."""
    return run_matrix(quick=quick, seed=seed, trials=trials, runner=runner).summary
