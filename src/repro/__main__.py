"""Command-line entry point: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``experiments [names...] [--quick] [--trials N] [--jobs N]
[--executor NAME] [--shard-size N] [--resume] [--no-cache]
[--cache-dir PATH] [--seed S]``
    Regenerate the paper's figures (all of them by default) and print the
    tables.  ``--quick`` uses the reduced CI-scale configurations;
    ``--trials`` averages every figure over N seeded Monte-Carlo trials
    (simulated in batches); ``--jobs`` spreads shard work units
    over the selected ``--executor`` backend (``serial`` / ``thread`` /
    ``process``) — large-trial cells are split into deterministic trial
    shards, so one fat cell scales across cores; results are persisted to
    the append-only run store keyed by content hash unless ``--no-cache``
    is given, and ``--resume`` picks an interrupted sweep up exactly where
    it stopped.
``list``
    List the available experiment names with their descriptions.
``scenarios [names...]``
    List the registered straggler scenarios (sweepable by name, e.g. as
    the scenario axis of the ``scenlat`` / ``scenrepair`` / ``matrix``
    experiments and of ``scripts/bench_sweep.py --scenario``), or just the
    named ones; an unknown name exits non-zero with the available registry
    in the error.
``policies [names...]``
    List the registered mitigation policies (the policy axis of the
    ``matrix`` experiment), or just the named ones; same error contract as
    ``scenarios``.
``matrix [--quick] [--trials N] [--jobs N] [--executor NAME]
[--shard-size N] [--resume] [--seed S] [--policy P ...] [--scenario S ...]
[--backend NAME] [--summary-only] [--no-cache] [--cache-dir PATH]``
    Evaluate the policy × scenario matrix on the batched engines: one
    table per scenario plus the normalised-latency and waste summary
    grids.  ``--policy`` / ``--scenario`` filter the registries (repeat
    the flag); an unknown name exits 2 listing the registry.
    ``--backend`` selects the simulator core (``closed`` / ``event`` —
    the discrete-event engine with explicit network links).
``tune [--policy NAME] [--scenario NAME] [--backend NAME] [--quick]
[--trials N] [--seed S]``
    Run one adaptive policy cell (see :mod:`repro.scheduling.adaptive`)
    at the matrix geometry and print its per-trial totals plus the full
    controller trace — per-segment knob choices and conformal bands for
    the ``adaptive(...)`` wrappers, the probe scores and per-scenario
    commitment for ``policy-auto`` — as sorted JSON.  ``--policy`` accepts
    a registered adaptive name or an ``adaptive(<base>, knob=v1:v2, ...)``
    expression; a non-adaptive policy, unknown knob, or invalid bound
    exits 2 naming the offender, mirroring the unknown-policy contract.
``fuzz [--scenarios N] [--population-seed S] [--policy P ...]
[--scenario S ...] [--backend NAME] [--summary-only] [--quick]
[--trials N] [--jobs N] [--executor NAME] [--shard-size N] [--resume]
[--seed S] [--no-cache] [--cache-dir PATH]``
    Policy tournament over ``--scenarios N`` fuzzer-generated straggler
    scenarios (see :mod:`repro.cluster.fuzz`): per-policy win counts,
    worst-case latency/waste, conformal bands, and the latency-vs-waste
    Pareto frontier.  The population is fully determined by
    ``--population-seed`` (default: ``--seed``), so identical flags print
    byte-identical tables and an interrupted run finishes identically
    under ``--resume``.  ``--scenario`` appends named scenarios — base
    names or composition expressions like ``overlay(rack,bursty)`` — to
    the generated population; an unknown policy/scenario/combinator name
    exits 2 listing the registry.
``stream [--policy NAME] [--scenario NAME] [--reducer NAME]
[--backend NAME] [--quick] [--trials N] [--jobs N] [--executor NAME]
[--shard-size N] [--resume] [--seed S] [--no-cache] [--cache-dir PATH]``
    Run one fat (policy, scenario) cell at any trial count through a
    streaming reducer (:mod:`repro.engine.reduce`) and print the
    finalized summary as sorted JSON.  Unlike the figure experiments —
    whose paired ratios need the exact ``concat`` trial lists — this is
    the constant-memory surface: ``--reducer stats`` (the default) or
    ``--reducer quantile`` hold a bounded state per cell however large
    ``--trials`` grows, and ``--resume`` folds completed cells from their
    persisted reducer checkpoints.
``profile [--policy P ...] [--scenario S ...] [--backend NAME]
[--quick] [--trials N] [--seed S] [--json]``
    Run a small policy × scenario grid at the matrix geometry with the
    phase profiler installed (:mod:`repro.profiling`) and print the
    per-phase hot-spot table — wall-clock seconds spent in the batched
    kernels' plan/broadcast/compute/reply/repair/decode/replay spans —
    so optimisation targets are measured, not guessed.  ``--policy`` /
    ``--scenario`` repeat to select cells (defaults: mds +
    timeout-repair over bursty + netslow); ``--backend`` picks the
    simulator core whose kernel is being profiled; ``--json`` emits the
    phase totals as sorted JSON instead of the table.  An unknown name
    exits 2 listing the registry.
``version``
    Print the package version.

Validation is uniform across subcommands: a bad ``--trials`` / ``--jobs``
/ ``--executor`` / ``--shard-size`` value exits 2 with a message naming
the flag (the shared types live in :mod:`repro.engine.options`).
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_list() -> int:
    from repro.experiments import ALL_EXPERIMENTS

    for name, runner in sorted(ALL_EXPERIMENTS.items()):
        module = sys.modules[runner.__module__]
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:8s} {headline}")
    return 0


def _cmd_scenarios(names: list[str]) -> int:
    from repro.cluster.scenarios import available_scenarios, get_scenario

    try:
        specs = [get_scenario(name) for name in (names or available_scenarios())]
    except KeyError as error:
        # get_scenario's message already lists the available registry.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    for spec in specs:
        defaults = ", ".join(f"{k}={v!r}" for k, v in spec.defaults)
        print(f"{spec.name:12s} {spec.summary}")
        print(f"{'':12s}   models: {spec.models}")
        print(f"{'':12s}   params: {defaults or '(none)'}")
    return 0


def _cmd_policies(names: list[str]) -> int:
    from repro.scheduling.policies import available_policies, get_policy

    try:
        specs = [get_policy(name) for name in (names or available_policies())]
    except KeyError as error:
        # get_policy's message already lists the available registry.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    for spec in specs:
        defaults = ", ".join(f"{k}={v!r}" for k, v in spec.defaults)
        print(f"{spec.name:16s} {spec.summary}")
        print(f"{'':16s}   paper:   {spec.paper or '(beyond paper)'}")
        print(f"{'':16s}   figures: {', '.join(spec.figures) or '(none)'}")
        print(f"{'':16s}   params:  {defaults or '(none)'}")
    return 0


def _make_runner(args: argparse.Namespace):
    """Build the SweepRunner shared sweep flags describe, or ``None`` (exit 2)."""
    from repro.experiments.sweep import SweepRunner, default_cache_dir

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    try:
        return SweepRunner(
            jobs=args.jobs,
            cache_dir=cache_dir,
            executor=args.executor,
            shard_size=args.shard_size,
            resume=args.resume,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.cluster.scenarios import get_scenario
    from repro.experiments.matrix import run_matrix
    from repro.experiments.sweep import NothingToResumeError
    from repro.scheduling.policies import get_policy

    # Validate names before running anything, so the KeyError catch is
    # scoped to the CLI contract (unknown name → exit 2 listing the
    # registry) and never masks a failure inside a sweep cell.
    try:
        for name in args.policy or ():
            get_policy(name)
        for name in args.scenario or ():
            get_scenario(name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    if runner is None:
        return 2
    start = time.perf_counter()
    try:
        result = run_matrix(
            quick=args.quick,
            seed=args.seed,
            trials=args.trials,
            runner=runner,
            policies=tuple(args.policy) if args.policy else None,
            scenarios=tuple(args.scenario) if args.scenario else None,
            backend=args.backend,
        )
    except NothingToResumeError as error:
        print(f"error: --resume: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    if args.summary_only:
        tables = [result.summary, result.waste]
        if result.adaptive is not None:
            tables.append(result.adaptive)
    else:
        tables = result.tables()
    for table in tables:
        print(table.format_table())
        print(flush=True)
    # Timing is diagnostic and lands on stderr: stdout stays
    # byte-deterministic across identical-seed re-runs.
    print(f"   [{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from repro.cluster.scenarios import get_scenario
    from repro.engine.plan import SEED_STRIDE, SweepContext
    from repro.experiments.matrix import COVERAGE, N_WORKERS
    from repro.scheduling.policies import (
        available_policies,
        build_policy,
        get_policy,
    )

    try:
        spec = get_policy(args.policy)
        get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if "adaptive" not in spec.tags:
        adaptive = ", ".join(
            n for n in available_policies() if "adaptive" in get_policy(n).tags
        )
        print(
            f"error: policy {args.policy!r} is not adaptive and records no "
            f"controller trace; adaptive policies: {adaptive}, or an "
            "adaptive(<base>, knob=v1:v2, ...) expression",
            file=sys.stderr,
        )
        return 2
    ctx = SweepContext(
        quick=args.quick,
        base_seed=args.seed,
        seeds=tuple(args.seed + SEED_STRIDE * t for t in range(args.trials)),
    )
    runner = build_policy(spec.name, N_WORKERS, COVERAGE, backend=args.backend)
    # The matrix cell geometry, so a tuned policy's totals line up with
    # its matrix rows.
    rows, cols = (480, 120) if args.quick else (2400, 600)
    iterations = 4 if args.quick else 15
    trace: list = []
    start = time.perf_counter()
    result = runner.run_scenario(
        args.scenario,
        ctx,
        rows=rows,
        cols=cols,
        iterations=iterations,
        trace=trace,
    )
    elapsed = time.perf_counter() - start
    # Sorted JSON keeps stdout byte-deterministic across identical-seed
    # re-runs (the determinism contract every sweep surface honours).
    print(
        json.dumps(
            {
                "policy": spec.name,
                "scenario": args.scenario,
                "backend": args.backend,
                "seed": args.seed,
                "trials": args.trials,
                "iterations": iterations,
                "total": result["total"],
                "wasted": result["wasted"],
                "trace": trace,
            },
            sort_keys=True,
            indent=2,
        )
    )
    print(f"   [{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.cluster.scenarios import get_scenario
    from repro.engine.plan import SEED_STRIDE, SweepContext
    from repro.experiments.matrix import COVERAGE, N_WORKERS
    from repro.profiling import PhaseProfiler, profiled
    from repro.scheduling.policies import build_policy, get_policy

    policies = tuple(args.policy or ("mds", "timeout-repair"))
    scenarios = tuple(args.scenario or ("bursty", "netslow"))
    try:
        specs = [get_policy(name) for name in policies]
        for name in scenarios:
            get_scenario(name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    ctx = SweepContext(
        quick=args.quick,
        base_seed=args.seed,
        seeds=tuple(args.seed + SEED_STRIDE * t for t in range(args.trials)),
    )
    # The matrix cell geometry, run in-process (executors would hide the
    # spans in worker processes) with the profiler installed.
    rows, cols = (480, 120) if args.quick else (2400, 600)
    iterations = 4 if args.quick else 15
    profiler = PhaseProfiler()
    start = time.perf_counter()
    with profiled(profiler):
        for spec in specs:
            runner = build_policy(
                spec.name, N_WORKERS, COVERAGE, backend=args.backend
            )
            for scenario in scenarios:
                runner.run_scenario(
                    scenario, ctx, rows=rows, cols=cols, iterations=iterations
                )
    elapsed = time.perf_counter() - start
    if args.json:
        # Sorted JSON keeps stdout byte-deterministic modulo the timings
        # themselves (which are wall-clock by nature).
        print(
            json.dumps(
                {
                    "backend": args.backend,
                    "iterations": iterations,
                    "phases": profiler.as_dict(),
                    "policies": list(policies),
                    "scenarios": list(scenarios),
                    "seed": args.seed,
                    "trials": args.trials,
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(profiler.format_table())
    print(f"   [{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.cluster.scenarios import get_scenario
    from repro.experiments.sweep import NothingToResumeError
    from repro.experiments.tournament import run_tournament
    from repro.scheduling.policies import get_policy

    # Same contract as `matrix`: validate names before running anything,
    # so the KeyError catch never masks a failure inside a sweep cell.
    try:
        for name in args.policy or ():
            get_policy(name)
        for name in args.scenario or ():
            get_scenario(name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    if runner is None:
        return 2
    start = time.perf_counter()
    try:
        result = run_tournament(
            quick=args.quick,
            seed=args.seed,
            trials=args.trials,
            runner=runner,
            policies=tuple(args.policy) if args.policy else None,
            n_scenarios=args.scenarios,
            population_seed=args.population_seed,
            extra_scenarios=tuple(args.scenario) if args.scenario else (),
            backend=args.backend,
        )
    except NothingToResumeError as error:
        print(f"error: --resume: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    tables = (
        [result.summary, result.pareto] if args.summary_only else result.tables()
    )
    for table in tables:
        print(table.format_table())
        print(flush=True)
    print(f"   [{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.cluster.scenarios import get_scenario
    from repro.experiments.matrix import _cell
    from repro.experiments.sweep import NothingToResumeError, SweepSpec
    from repro.scheduling.policies import get_policy

    try:
        get_policy(args.policy)
        get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    if runner is None:
        return 2
    spec = SweepSpec(
        name="stream",
        cell=_cell,
        axes=(
            ("policy", (args.policy,)),
            ("scenario", (args.scenario,)),
            ("backend", (args.backend,)),
        ),
        trials=args.trials,
        base_seed=args.seed,
        quick=args.quick,
        reducer=args.reducer,
    )
    start = time.perf_counter()
    try:
        swept = runner.run(spec)
    except NothingToResumeError as error:
        print(f"error: --resume: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    value = swept.get(
        policy=args.policy, scenario=args.scenario, backend=args.backend
    )
    # Sorted JSON keeps stdout byte-deterministic across identical-seed
    # re-runs (the determinism contract every sweep surface honours).
    print(json.dumps(value, sort_keys=True, indent=2))
    print(f"   [{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.sweep import NothingToResumeError

    targets = args.names or sorted(ALL_EXPERIMENTS)
    unknown = [n for n in targets if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    if runner is None:
        return 2
    for name in targets:
        start = time.perf_counter()
        try:
            result = ALL_EXPERIMENTS[name](
                quick=args.quick, seed=args.seed, trials=args.trials, runner=runner
            )
        except NothingToResumeError as error:
            print(f"error: --resume: {error}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(result.format_table())
        print(f"   [{elapsed:.1f}s]", file=sys.stderr)
        print(flush=True)
    return 0


def _sweep_flags() -> argparse.ArgumentParser:
    """Parent parser: the sweep flags every sweep-running command shares."""
    from repro.engine.options import add_execution_arguments

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--quick", action="store_true", help="reduced CI-scale configurations"
    )
    add_execution_arguments(flags)
    flags.add_argument(
        "--seed", type=int, default=0, help="base seed of trial 0 (default: 0)"
    )
    flags.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk sweep run store",
    )
    flags.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="sweep run-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweeps)",
    )
    flags.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from the run store (exits 2 when "
        "no stored run matches the current sources and parameters)",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (shared with ``scripts/``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="S2C2 (SC '19) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    sweep_flags = _sweep_flags()
    run_p = sub.add_parser(
        "experiments", help="regenerate paper figures", parents=[sweep_flags]
    )
    run_p.add_argument("names", nargs="*", help="figure ids (default: all)")
    sub.add_parser("list", help="list available experiments")
    scen_p = sub.add_parser(
        "scenarios", help="list the registered straggler scenarios"
    )
    scen_p.add_argument(
        "names",
        nargs="*",
        help="scenario names to show (default: the whole registry); an "
        "unknown name fails with the available list",
    )
    pol_p = sub.add_parser(
        "policies", help="list the registered mitigation policies"
    )
    pol_p.add_argument(
        "names",
        nargs="*",
        help="policy names to show (default: the whole registry); an "
        "unknown name fails with the available list",
    )
    mat_p = sub.add_parser(
        "matrix",
        help="policy × scenario evaluation matrix",
        parents=[sweep_flags],
    )
    mat_p.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this policy (repeatable; default: whole registry)",
    )
    mat_p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this scenario (repeatable; default: whole registry)",
    )
    from repro.engine.options import backend_name

    mat_p.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(discrete-event engine with explicit network links)",
    )
    mat_p.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the two summary grids, not the per-scenario tables",
    )
    from repro.engine.options import positive_int

    tune_p = sub.add_parser(
        "tune",
        help="run one adaptive policy cell and dump its controller trace",
    )
    tune_p.add_argument(
        "--policy",
        default="adaptive-timeout",
        metavar="NAME",
        help="adaptive policy (a registered adaptive-* name, policy-auto, "
        "or an adaptive(<base>, knob=v1:v2, ...) expression; default: "
        "adaptive-timeout)",
    )
    tune_p.add_argument(
        "--scenario",
        default="bursty",
        metavar="NAME",
        help="straggler scenario of the cell (default: bursty)",
    )
    tune_p.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(discrete-event engine with explicit network links)",
    )
    tune_p.add_argument(
        "--quick", action="store_true", help="reduced CI-scale configuration"
    )
    tune_p.add_argument(
        "--trials",
        type=positive_int,
        default=2,
        metavar="N",
        help="seeded Monte-Carlo trials (default: 2)",
    )
    tune_p.add_argument(
        "--seed", type=int, default=0, help="base seed of trial 0 (default: 0)"
    )
    prof_p = sub.add_parser(
        "profile",
        help="per-phase hot-spot profile of the batched simulator kernels",
    )
    prof_p.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="profile this policy (repeatable; default: mds and "
        "timeout-repair)",
    )
    prof_p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="profile this scenario (repeatable; default: bursty and "
        "netslow)",
    )
    prof_p.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(discrete-event engine with explicit network links)",
    )
    prof_p.add_argument(
        "--quick", action="store_true", help="reduced CI-scale configuration"
    )
    prof_p.add_argument(
        "--trials",
        type=positive_int,
        default=4,
        metavar="N",
        help="seeded Monte-Carlo trials (default: 4)",
    )
    prof_p.add_argument(
        "--seed", type=int, default=0, help="base seed of trial 0 (default: 0)"
    )
    prof_p.add_argument(
        "--json",
        action="store_true",
        help="emit the phase totals as sorted JSON instead of the table",
    )
    fuzz_p = sub.add_parser(
        "fuzz",
        help="policy tournament over fuzzer-generated scenarios",
        parents=[sweep_flags],
    )

    fuzz_p.add_argument(
        "--scenarios",
        type=positive_int,
        default=None,
        metavar="N",
        help="generated-scenario population size (default: 8 with --quick, "
        "16 otherwise)",
    )
    fuzz_p.add_argument(
        "--population-seed",
        type=int,
        default=None,
        metavar="S",
        help="seed of the generated population (default: --seed, so one "
        "seed pins the whole tournament)",
    )
    fuzz_p.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this policy (repeatable; default: whole registry)",
    )
    fuzz_p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="append this scenario to the generated population (repeatable; "
        "accepts composition expressions like 'overlay(rack,bursty)')",
    )
    fuzz_p.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(discrete-event engine with explicit network links)",
    )
    fuzz_p.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the summary and Pareto tables, not the "
        "per-scenario winners",
    )
    from repro.engine.options import reducer_name

    stream_p = sub.add_parser(
        "stream",
        help="one fat cell through a constant-memory streaming reducer",
        parents=[sweep_flags],
    )
    stream_p.add_argument(
        "--policy",
        default="mds",
        metavar="NAME",
        help="mitigation policy of the cell (default: mds)",
    )
    stream_p.add_argument(
        "--scenario",
        default="constant",
        metavar="NAME",
        help="straggler scenario of the cell (default: constant)",
    )
    stream_p.add_argument(
        "--reducer",
        type=reducer_name,
        default="stats",
        metavar="NAME",
        help="streaming reducer folding the trials (default: stats; "
        "'quantile' adds a seeded-reservoir sample and P² probes; "
        "'concat' keeps the exact per-trial lists)",
    )
    stream_p.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(discrete-event engine with explicit network links)",
    )
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "scenarios":
        return _cmd_scenarios(args.names)
    if args.command == "policies":
        return _cmd_policies(args.names)
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "version":
        from repro import __version__

        print(__version__)
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
