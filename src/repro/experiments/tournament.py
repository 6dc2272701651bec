"""Policy tournament over fuzzer-generated scenarios — worst case and Pareto.

The ``matrix`` experiment evaluates the policy registry on the dozen
hand-named scenarios; this experiment evaluates it on a *sampled
population*: ``n_scenarios`` structured scenarios drawn from the
composition grammar by the seeded fuzzer
(:func:`repro.cluster.fuzz.generate_scenarios`), every draw reproducible
from ``(population_seed, index)`` alone.  Each policy runs every generated
scenario through the sharded engine — the same
:func:`repro.experiments.matrix._cell` the matrix uses, so cells land in
the same run store and resume identically — and the results are reported
as a tournament:

* a **summary table** per policy: win count (scenarios where the policy
  has the lowest mean completion time), mean and worst paired latency
  ratio against the ``mds`` baseline, a split-conformal band
  (:func:`repro.prediction.predictor.conformal_interval`) around the mean
  ratio over the scenario population, worst-case absolute latency, and
  mean/worst wasted work;
* a **Pareto frontier** on (mean normalised latency, mean wasted
  fraction): the policies no other policy beats on both axes at once —
  the actual decision surface for choosing a mitigation under unknown
  conditions;
* a **per-scenario winners table** naming each generated scenario (its
  composition expression) and the policy that won it.

Determinism contract (the acceptance bar for ``repro fuzz``): the whole
tournament is a pure function of ``(population_seed, seed, trials)`` plus
the source digests — two runs with the same flags print byte-identical
tables, and a SIGKILL'd run resumed with ``--resume`` completes to the
identical output, because generated scenario names are ordinary sweep-axis
strings cached in the run store like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.fuzz import generate_scenarios
from repro.cluster.scenarios import get_scenario
from repro.engine import ExecutionEngine, SweepSpec
from repro.experiments.harness import ExperimentResult, trial_mean
from repro.experiments.matrix import BASELINE, _cell
from repro.prediction.predictor import conformal_interval
from repro.scheduling.policies import available_policies, get_policy

__all__ = [
    "run",
    "run_tournament",
    "TournamentResult",
    "ALPHA",
    "DEFAULT_SCENARIOS",
]

#: Mis-coverage level of the conformal band around each policy's mean
#: latency ratio: the next scenario drawn from the same population lands
#: inside the band with probability >= 1 - ALPHA (under exchangeability,
#: which holds by construction — the population is i.i.d. by index).
ALPHA = 0.2

#: Population size when the caller does not pass one (quick, full).
DEFAULT_SCENARIOS = (8, 16)


@dataclass
class TournamentResult:
    """The tournament verdict: summary, Pareto frontier, per-scenario wins."""

    policies: tuple[str, ...]
    scenarios: tuple[str, ...]
    baseline: str
    population_seed: int
    summary: ExperimentResult
    pareto: ExperimentResult
    winners: ExperimentResult

    def tables(self) -> list[ExperimentResult]:
        """Every table in print order."""
        return [self.summary, self.pareto, self.winners]


def run_tournament(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
    policies: tuple[str, ...] | None = None,
    n_scenarios: int | None = None,
    population_seed: int | None = None,
    extra_scenarios: tuple[str, ...] = (),
    backend: str = "closed",
) -> TournamentResult:
    """Run the policy registry over a generated scenario population.

    ``population_seed`` defaults to ``seed``, so one ``--seed`` flag pins
    the entire tournament; ``extra_scenarios`` appends named scenarios
    (base or composed expressions) to the generated population.  Unknown
    policy/scenario names raise ``KeyError`` listing the registry (the
    CLI turns that into exit 2).  ``backend`` selects the simulator core
    and rides along as a sweep axis, exactly as in the matrix.
    """
    from repro.cluster.events import check_backend

    check_backend(backend)
    policies = tuple(policies) if policies else available_policies()
    for name in policies:
        get_policy(name)
    for name in extra_scenarios:
        get_scenario(name)
    if n_scenarios is None:
        n_scenarios = DEFAULT_SCENARIOS[0] if quick else DEFAULT_SCENARIOS[1]
    if population_seed is None:
        population_seed = seed
    scenarios = generate_scenarios(population_seed, n_scenarios) + tuple(
        extra_scenarios
    )
    baseline = BASELINE if BASELINE in policies else policies[0]

    spec = SweepSpec(
        name="tournament",
        cell=_cell,
        axes=(
            ("policy", policies),
            ("scenario", scenarios),
            ("backend", (backend,)),
        ),
        trials=trials,
        base_seed=seed,
        quick=quick,
        # Paired ratios against the baseline need the full trial lists —
        # the exact concat reducer, not a streaming summary.
        reducer="concat",
    )
    swept = (runner or ExecutionEngine()).run(spec)
    # The spec keeps a repeated name once, and so do the tables.
    (_, policies), (_, scenarios) = spec.axes[:2]

    # Per (policy, scenario): mean total, mean waste, mean paired ratio.
    totals = np.empty((len(policies), len(scenarios)))
    wasted = np.empty_like(totals)
    ratios = np.empty_like(totals)
    for j, scenario in enumerate(scenarios):
        base = np.asarray(
            swept.get(policy=baseline, scenario=scenario, backend=backend)["total"]
        )
        for i, policy in enumerate(policies):
            cell = swept.get(policy=policy, scenario=scenario, backend=backend)
            total = np.asarray(cell["total"])
            totals[i, j] = trial_mean(cell["total"])
            wasted[i, j] = trial_mean(cell["wasted"])
            ratios[i, j] = np.mean(total / base)

    # Ties go to the earlier policy in registry order (deterministic).
    winner_idx = np.argmin(totals, axis=0)
    wins = np.bincount(winner_idx, minlength=len(policies))

    summary = ExperimentResult(
        name="tournament",
        description=(
            f"policy tournament over {len(scenarios)} generated scenarios "
            f"(population seed {population_seed}, ×{baseline} paired per "
            "trial)"
        ),
        columns=(
            "policy",
            "wins",
            "mean-vs",
            "worst-vs",
            "vs-lo",
            "vs-hi",
            "worst-total",
            "mean-wasted",
            "worst-wasted",
        ),
    )
    mean_vs = ratios.mean(axis=1)
    mean_waste = wasted.mean(axis=1)
    for i, policy in enumerate(policies):
        # Split-conformal band over the scenario population: residuals are
        # the per-scenario deviations from the policy's mean ratio.
        lo, hi = conformal_interval(
            ratios[i] - mean_vs[i], np.array([mean_vs[i]]), alpha=ALPHA
        )
        summary.add_row(
            policy,
            int(wins[i]),
            float(mean_vs[i]),
            float(ratios[i].max()),
            float(lo[0]),
            float(hi[0]),
            float(totals[i].max()),
            float(mean_waste[i]),
            float(wasted[i].max()),
        )
    summary.notes = (
        f"vs-lo/vs-hi: >= {1 - ALPHA:.0%} conformal band for the ratio on "
        "the next scenario drawn from this population; worst-*: maximum "
        "over the generated scenarios"
    )

    # Pareto frontier on (mean normalised latency, mean wasted fraction),
    # both minimised: policy i is dominated when some j is <= on both axes
    # and strictly < on at least one.
    frontier = []
    for i in range(len(policies)):
        dominated = any(
            mean_vs[j] <= mean_vs[i]
            and mean_waste[j] <= mean_waste[i]
            and (mean_vs[j] < mean_vs[i] or mean_waste[j] < mean_waste[i])
            for j in range(len(policies))
        )
        if not dominated:
            frontier.append(i)
    frontier.sort(key=lambda i: (mean_vs[i], mean_waste[i]))
    pareto = ExperimentResult(
        name="tournament-pareto",
        description=(
            "latency-vs-waste Pareto frontier (policies no other policy "
            "beats on both mean-vs and mean-wasted)"
        ),
        columns=("policy", "mean-vs", "mean-wasted", "wins"),
    )
    for i in frontier:
        pareto.add_row(
            policies[i], float(mean_vs[i]), float(mean_waste[i]), int(wins[i])
        )
    dominated_names = [
        policies[i] for i in range(len(policies)) if i not in frontier
    ]
    pareto.notes = (
        f"dominated: {', '.join(dominated_names)}"
        if dominated_names
        else "every policy is Pareto-optimal on this population"
    )

    winners = ExperimentResult(
        name="tournament-winners",
        description="per generated scenario: the fastest policy and its margin",
        columns=("scenario", "winner", "win-total", f"{baseline}-total"),
    )
    base_i = policies.index(baseline)
    for j, scenario in enumerate(scenarios):
        winners.rows.append(
            (
                scenario,
                policies[int(winner_idx[j])],
                float(totals[winner_idx[j], j]),
                float(totals[base_i, j]),
            )
        )
    return TournamentResult(
        policies=policies,
        scenarios=scenarios,
        baseline=baseline,
        population_seed=population_seed,
        summary=summary,
        pareto=pareto,
        winners=winners,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    trials: int = 1,
    runner: ExecutionEngine | None = None,
) -> ExperimentResult:
    """The registry entry point: the tournament summary table."""
    return run_tournament(
        quick=quick, seed=seed, trials=trials, runner=runner
    ).summary
