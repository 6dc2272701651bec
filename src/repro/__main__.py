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
    the same kernel with every transfer priced on its worker's link).
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
    kernel's plan/broadcast/compute/reply/repair/decode spans —
    so optimisation targets are measured, not guessed.  ``--policy`` /
    ``--scenario`` repeat to select cells (defaults: mds +
    timeout-repair over bursty + netslow); ``--backend`` picks the
    simulator core whose kernel is being profiled; ``--json`` emits the
    phase totals as sorted JSON instead of the table.  An unknown name
    exits 2 listing the registry.
``version``
    Print the package version.

Every command takes one path: validate, run, report.  A bad ``--trials``
/ ``--jobs`` / ``--executor`` / ``--shard-size`` / ``--seed`` value exits
2 with a message naming the flag (the shared types live in
:mod:`repro.engine.options`); an unknown experiment, policy or scenario
name, an unusable ``--cache-dir`` and a ``--resume`` with nothing stored
exit 2 with an ``error:`` line on stderr and nothing on stdout.  Each
command's timing goes to stderr, so stdout stays byte-deterministic
across identical-seed re-runs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time


class _CommandError(Exception):
    """A usage error: ``error: <message>`` on stderr, exit 2."""


def _resolve(lookup, names) -> list:
    """``lookup`` each distinct name once, in first-seen order.

    An unknown name exits 2 listing the registry.
    """
    try:
        return [lookup(name) for name in dict.fromkeys(names)]
    except KeyError as error:
        # The registries' messages already list what is available.
        raise _CommandError(error.args[0]) from None


def _check_names(policies, scenarios) -> list:
    """Resolve ``--policy`` / ``--scenario`` names; return the policy specs.

    Checked before anything runs, so the ``KeyError`` catch is scoped to
    the CLI contract and never masks a failure inside a sweep cell.  Each
    scenario is also built once at the sweep's worker count, which checks
    its parameter values (building draws nothing).
    """
    from repro.cluster.scenarios import scenario_speed_model
    from repro.experiments.matrix import N_WORKERS
    from repro.scheduling.policies import get_policy

    specs = _resolve(get_policy, policies)
    for name in _resolve(str, scenarios):
        try:
            scenario_speed_model(name, N_WORKERS)
        except KeyError as error:
            raise _CommandError(error.args[0]) from None
        except ValueError as error:
            detail = str(error)
            if repr(name) not in detail:
                detail = f"scenario {name!r}: {detail}"
            raise _CommandError(detail) from None
    return specs


def _engine(args: argparse.Namespace):
    """The :class:`~repro.engine.runner.ExecutionEngine` the sweep flags describe."""
    from repro.engine import ExecutionEngine, RunStore, default_cache_dir

    try:
        store = None if args.no_cache else RunStore(
            args.cache_dir or default_cache_dir()
        )
        return ExecutionEngine(
            jobs=args.jobs,
            executor=args.executor,
            store=store,
            shard_size=args.shard_size,
            resume=args.resume,
        )
    except ValueError as error:
        raise _CommandError(str(error)) from None


def _context(args: argparse.Namespace):
    """The in-process cell context of ``--quick`` / ``--seed`` / ``--trials``."""
    from repro.engine import SEED_STRIDE, SweepContext

    return SweepContext(
        quick=args.quick,
        base_seed=args.seed,
        seeds=tuple(args.seed + SEED_STRIDE * t for t in range(args.trials)),
    )


@contextlib.contextmanager
def _timed():
    """Run a command body; a failed ``--resume`` exits 2, timing to stderr."""
    from repro.engine import NothingToResumeError

    start = time.perf_counter()
    try:
        yield
    except NothingToResumeError as error:
        raise _CommandError(f"--resume: {error}") from None
    print(f"   [{time.perf_counter() - start:.1f}s]", file=sys.stderr)


def _print_tables(tables) -> None:
    for table in tables:
        print(table.format_table())
        print(flush=True)


def _cmd_list(args: argparse.Namespace) -> None:
    from repro.experiments import ALL_EXPERIMENTS

    for name, runner in sorted(ALL_EXPERIMENTS.items()):
        module = sys.modules[runner.__module__]
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:8s} {headline}")


def _cmd_scenarios(args: argparse.Namespace) -> None:
    from repro.cluster.scenarios import available_scenarios, get_scenario

    for spec in _resolve(get_scenario, args.names or available_scenarios()):
        defaults = ", ".join(f"{k}={v!r}" for k, v in spec.defaults)
        print(f"{spec.name:12s} {spec.summary}")
        print(f"{'':12s}   models: {spec.models}")
        print(f"{'':12s}   params: {defaults or '(none)'}")


def _cmd_policies(args: argparse.Namespace) -> None:
    from repro.scheduling.policies import available_policies, get_policy

    for spec in _resolve(get_policy, args.names or available_policies()):
        defaults = ", ".join(f"{k}={v!r}" for k, v in spec.defaults)
        print(f"{spec.name:16s} {spec.summary}")
        print(f"{'':16s}   paper:   {spec.paper or '(beyond paper)'}")
        print(f"{'':16s}   figures: {', '.join(spec.figures) or '(none)'}")
        print(f"{'':16s}   params:  {defaults or '(none)'}")


def _cmd_version(args: argparse.Namespace) -> None:
    from repro import __version__

    print(__version__)


def _cmd_experiments(args: argparse.Namespace) -> None:
    from repro.experiments import ALL_EXPERIMENTS

    names = list(dict.fromkeys(args.names))  # a repeated name runs once
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise _CommandError(
            f"unknown experiments: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(ALL_EXPERIMENTS))}"
        )
    engine = _engine(args)
    for name in names or sorted(ALL_EXPERIMENTS):
        with _timed():
            result = ALL_EXPERIMENTS[name](
                quick=args.quick, seed=args.seed, trials=args.trials, runner=engine
            )
            print(result.format_table())
        print(flush=True)


def _cmd_matrix(args: argparse.Namespace) -> None:
    from repro.experiments.matrix import run_matrix

    _check_names(args.policy or (), args.scenario or ())
    engine = _engine(args)
    with _timed():
        result = run_matrix(
            quick=args.quick,
            seed=args.seed,
            trials=args.trials,
            runner=engine,
            policies=tuple(args.policy) if args.policy else None,
            scenarios=tuple(args.scenario) if args.scenario else None,
            backend=args.backend,
        )
        if args.summary_only:
            tables = [result.summary, result.waste]
            if result.adaptive is not None:
                tables.append(result.adaptive)
        else:
            tables = result.tables()
        _print_tables(tables)


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.experiments.tournament import run_tournament

    _check_names(args.policy or (), args.scenario or ())
    engine = _engine(args)
    with _timed():
        result = run_tournament(
            quick=args.quick,
            seed=args.seed,
            trials=args.trials,
            runner=engine,
            policies=tuple(args.policy) if args.policy else None,
            n_scenarios=args.scenarios,
            population_seed=args.population_seed,
            extra_scenarios=tuple(args.scenario) if args.scenario else (),
            backend=args.backend,
        )
        _print_tables(
            [result.summary, result.pareto]
            if args.summary_only
            else result.tables()
        )


def _cmd_stream(args: argparse.Namespace) -> None:
    import json

    from repro.engine import SweepSpec
    from repro.experiments.matrix import _cell

    _check_names([args.policy], [args.scenario])
    engine = _engine(args)
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
    with _timed():
        value = engine.run(spec).get(
            policy=args.policy, scenario=args.scenario, backend=args.backend
        )
        print(json.dumps(value, sort_keys=True, indent=2))


def _cmd_tune(args: argparse.Namespace) -> None:
    import json

    from repro.experiments.matrix import cell_geometry, run_cell
    from repro.scheduling.policies import available_policies, get_policy

    (spec,) = _check_names([args.policy], [args.scenario])
    if "adaptive" not in spec.tags:
        adaptive = ", ".join(
            n for n in available_policies() if "adaptive" in get_policy(n).tags
        )
        raise _CommandError(
            f"policy {args.policy!r} is not adaptive and records no "
            f"controller trace; adaptive policies: {adaptive}, or an "
            "adaptive(<base>, knob=v1:v2, ...) expression"
        )
    trace: list = []
    with _timed():
        result = run_cell(
            spec.name, args.scenario, _context(args),
            backend=args.backend, trace=trace,
        )
        report = {
            "policy": spec.name,
            "scenario": args.scenario,
            "backend": args.backend,
            "seed": args.seed,
            "trials": args.trials,
            "iterations": cell_geometry(args.quick)[2],
            "total": result["total"],
            "wasted": result["wasted"],
            "trace": trace,
        }
        print(json.dumps(report, sort_keys=True, indent=2))


def _cmd_profile(args: argparse.Namespace) -> None:
    import json

    from repro.experiments.matrix import cell_geometry, run_cell
    from repro.profiling import PhaseProfiler, profiled

    # A repeated name is profiled once.
    policies = tuple(dict.fromkeys(args.policy or ("mds", "timeout-repair")))
    scenarios = tuple(dict.fromkeys(args.scenario or ("bursty", "netslow")))
    specs = _check_names(policies, scenarios)
    ctx = _context(args)
    profiler = PhaseProfiler()
    with _timed():
        # Matrix cells run in-process (executors would hide the spans in
        # worker processes) with the profiler installed.
        with profiled(profiler):
            for spec in specs:
                for scenario in scenarios:
                    run_cell(spec.name, scenario, ctx, backend=args.backend)
        if args.json:
            report = {
                "backend": args.backend,
                "iterations": cell_geometry(args.quick)[2],
                "phases": profiler.as_dict(),
                "policies": list(policies),
                "scenarios": list(scenarios),
                "seed": args.seed,
                "trials": args.trials,
            }
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            print(profiler.format_table())


def _scale_flags(parser: argparse.ArgumentParser, trials: int) -> None:
    """``--quick`` / ``--trials`` / ``--seed``: the scale and seeds of a cell."""
    from repro.engine.options import non_negative_int, positive_int

    parser.add_argument(
        "--quick", action="store_true", help="reduced CI-scale configurations"
    )
    parser.add_argument(
        "--trials",
        type=positive_int,
        default=trials,
        metavar="N",
        help="seeded Monte-Carlo trials per cell, simulated in batches "
        f"(default: {trials})",
    )
    parser.add_argument(
        "--seed",
        type=non_negative_int,
        default=0,
        help="base seed of trial 0 (default: 0)",
    )


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every command that runs sweeps on the engine."""
    from repro.engine.options import add_execution_arguments

    _scale_flags(parser, trials=1)
    add_execution_arguments(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk sweep run store",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="sweep run-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweeps)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from the run store (exits 2 when "
        "no stored run matches the current sources and parameters)",
    )


def _backend_flag(parser: argparse.ArgumentParser) -> None:
    from repro.engine.options import backend_name

    parser.add_argument(
        "--backend",
        type=backend_name,
        default="closed",
        metavar="NAME",
        help="simulator core: closed (analytic, default) or event "
        "(transfers priced on per-worker network links)",
    )


def _name_flags(
    parser: argparse.ArgumentParser, policy_help: str, scenario_help: str
) -> None:
    """The repeatable ``--policy`` / ``--scenario`` selections."""
    for flag, text in (("--policy", policy_help), ("--scenario", scenario_help)):
        parser.add_argument(
            flag, action="append", default=None, metavar="NAME", help=text
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (shared with ``scripts/``)."""
    from repro.engine.options import non_negative_int, positive_int, reducer_name

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="S2C2 (SC '19) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(run=run)
        return subparser

    run_p = command("experiments", _cmd_experiments, "regenerate paper figures")
    run_p.add_argument("names", nargs="*", help="figure ids (default: all)")
    _sweep_flags(run_p)
    command("list", _cmd_list, "list available experiments")
    scen_p = command(
        "scenarios", _cmd_scenarios, "list the registered straggler scenarios"
    )
    scen_p.add_argument(
        "names",
        nargs="*",
        help="scenario names to show (default: the whole registry); an "
        "unknown name fails with the available list",
    )
    pol_p = command(
        "policies", _cmd_policies, "list the registered mitigation policies"
    )
    pol_p.add_argument(
        "names",
        nargs="*",
        help="policy names to show (default: the whole registry); an "
        "unknown name fails with the available list",
    )
    mat_p = command(
        "matrix", _cmd_matrix, "policy × scenario evaluation matrix"
    )
    _sweep_flags(mat_p)
    _name_flags(
        mat_p,
        "restrict to this policy (repeatable; default: whole registry)",
        "restrict to this scenario (repeatable; default: whole registry)",
    )
    _backend_flag(mat_p)
    mat_p.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the two summary grids, not the per-scenario tables",
    )
    tune_p = command(
        "tune",
        _cmd_tune,
        "run one adaptive policy cell and dump its controller trace",
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
    _backend_flag(tune_p)
    _scale_flags(tune_p, trials=2)
    prof_p = command(
        "profile",
        _cmd_profile,
        "per-phase hot-spot profile of the batched simulator kernels",
    )
    _name_flags(
        prof_p,
        "profile this policy (repeatable; default: mds and timeout-repair)",
        "profile this scenario (repeatable; default: bursty and netslow)",
    )
    _backend_flag(prof_p)
    _scale_flags(prof_p, trials=4)
    prof_p.add_argument(
        "--json",
        action="store_true",
        help="emit the phase totals as sorted JSON instead of the table",
    )
    fuzz_p = command(
        "fuzz", _cmd_fuzz, "policy tournament over fuzzer-generated scenarios"
    )
    _sweep_flags(fuzz_p)
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
        type=non_negative_int,
        default=None,
        metavar="S",
        help="seed of the generated population (default: --seed, so one "
        "seed pins the whole tournament)",
    )
    _name_flags(
        fuzz_p,
        "restrict to this policy (repeatable; default: whole registry)",
        "append this scenario to the generated population (repeatable; "
        "accepts composition expressions like 'overlay(rack,bursty)')",
    )
    _backend_flag(fuzz_p)
    fuzz_p.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the summary and Pareto tables, not the "
        "per-scenario winners",
    )
    stream_p = command(
        "stream",
        _cmd_stream,
        "one fat cell through a constant-memory streaming reducer",
    )
    _sweep_flags(stream_p)
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
    _backend_flag(stream_p)
    command("version", _cmd_version, "print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        args.run(args)
    except _CommandError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
