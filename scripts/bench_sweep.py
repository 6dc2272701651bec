"""Benchmark: seed-style serial experiment loop vs the sweep engine.

Usage:  python scripts/bench_sweep.py [--trials N] [--jobs N] [--executor NAME]
            [--quick/--full] [--scenario NAME] [--predictor-trials N]
            [--matrix] [--engine] [--engine-trials N] [--engine-jobs N]
            [--events] [--event-trials N] [--profile]
            [--tag KEY=VALUE] [--append-json PATH]

Measures one representative controlled-cluster figure (Fig 6: 5 strategies
× 4 straggler counts), one large-cluster figure (Fig 13: 50 workers), and
one repair-heavy high-straggler iteration batch under three regimes:

* **serial sessions** — the seed repository's path: one full
  :class:`CodedSession` per (cell, trial), complete with encode / numeric
  compute / decode, strategies and trials looped in Python;
* **sweep + batched engine** — the same cells through
  ``SweepSpec``/``ExecutionEngine`` with the batched latency simulators
  (``--jobs`` controls the process pool; on a single-core machine the win
  comes from batching alone);
* **sweep, warm cache** — a re-run against the on-disk result cache.

The repair-path bench drives a mis-predicted S2C2 plan under a registered
straggler scenario (``--scenario``, see ``python -m repro scenarios``) so
that (nearly) every trial arms the §4.3 timeout, and compares the natively
batched repair resolution against the per-trial scalar loop it replaced.

The matrix micro-bench (``--matrix``) times the full policy × scenario
evaluation grid (every registered mitigation policy against every
registered straggler scenario, all trials batched per cell) cold and then
against a warm on-disk cache — the end-to-end cost of regenerating the
``docs/results.md`` handbook.

The engine micro-bench (``--engine``) times one *fat* cell — a single
(strategy, straggler-count) grid point with ``--engine-trials`` Monte-Carlo
trials — two ways at ``--engine-jobs`` pool width: **cell-granular** (the
pre-engine behaviour: the whole cell is one work unit, so a pool cannot
help and one core carries everything) and **trial-sharded** (the execution
engine's work-plan layer splits the cell into seed-strided shards that
spread over the pool).  Shard merges are asserted equal to the monolithic
value; the speedup is pure scheduling-granularity win and scales with
physical cores (on a single-core machine the two are expected to tie).

The event-backend micro-bench (``--events``) times one network-degraded
iteration batch of ``--event-trials`` trials two ways — the closed-form
``run_batch`` and the event backend's ``run_batch`` (link-priced schedules
on the same batched kernel; ``tests/cluster/test_events_batch.py`` pins
it bitwise against the per-trial event loop); the end-to-end policy ×
scenario cells on both backends ride along under the ``matrix_*`` keys.
``--profile`` additionally reruns the event kernel with the phase profiler
installed (:mod:`repro.profiling`), prints the per-phase hot-spot table,
and attaches the phase totals to the ``--append-json`` record, so the next
optimisation round is data-driven.

The prediction-path micro-bench (``--predictor-trials``) drives the §6.2
online LSTM forecasting loop — the prediction-in-the-loop side of every
cloud experiment — twice: once as a ``StackedPredictor`` of one-trial
``LSTMPredictor`` views (one Python call per trial and round) and once as
one ``BatchLSTMPredictor`` (one stacked recurrent step per round),
asserting the forecasts stay point-for-point identical.

The per-trial numbers of the compute paths are identical (the batch engine
is bitwise-equivalent by construction — see ``tests/runtime/test_batch.py``
and ``tests/cluster/test_simulator_batch.py``), so every comparison is
pure overhead.

``--append-json PATH`` appends one JSON line per run (timestamp, config,
timings) — ``scripts/smoke.sh bench`` uses it to grow ``BENCH_SWEEP.json``
so the performance trajectory is tracked across PRs.  ``--tag KEY=VALUE``
(repeatable) attaches free-form labels to that record; the pair splits on
the *first* ``=`` only, so values may themselves contain ``=`` — composed
scenario expressions like ``mix(bursty,constant,weight=0.7)`` survive
verbatim.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

#: Per-scenario overrides making the repair bench straggler-heavy enough
#: that the timeout deadline arms on (nearly) every trial.
SCENARIO_BENCH_OVERRIDES = {
    "controlled": {"num_stragglers": 3},
    "markov": {"slow_prob": 0.3},
    "spot": {"preempt_prob": 0.15},
}


def _lr_like_session(session_cls, matrix, iterations: int, *operator, **kwargs):
    """A ``session_cls`` session that played the LR-like 'A then Aᵀ' rounds.

    ``operator`` follows the matrix in ``register_matvec`` (a code and a
    scheduler for coded sessions); ``kwargs`` build the session on the
    controlled cluster's network and cost models.
    """
    from repro.experiments.harness import controlled_cost, controlled_network

    session = session_cls(
        network=controlled_network(), cost=controlled_cost(), **kwargs
    )
    session.register_matvec("A", matrix, *operator)
    session.register_matvec("At", matrix.T, *operator)
    x = np.random.default_rng(0).normal(size=matrix.shape[1])
    for _ in range(iterations):
        y = session.matvec("A", x)
        x = session.matvec("At", y / max(1.0, np.abs(y).max()))
        x = x / max(1.0, np.abs(x).max())
    return session


def bench_serial_sessions(quick: bool, trials: int) -> float:
    """The seed-style path: sessions with full numerics, looped."""
    from repro.apps.datasets import make_classification
    from repro.cluster.speed_models import ControlledSpeeds
    from repro.coding.mds import MDSCode
    from repro.experiments.fig06_lr import (
        N_WORKERS,
        STRATEGIES,
        _coded_scheduler,
    )
    from repro.engine import SEED_STRIDE
    from repro.prediction.predictor import LastValuePredictor, OraclePredictor
    from repro.runtime import CodedSession, ReplicationSession
    from repro.scheduling.timeout import TimeoutPolicy

    rows, cols = (480, 120) if quick else (2400, 600)
    iterations = 4 if quick else 15
    counts = (0, 1, 2, 3)
    matrix, _ = make_classification(rows, cols, seed=0)

    def speeds(s, seed):
        return ControlledSpeeds(
            N_WORKERS, num_stragglers=s, slowdown=5.0, jitter=0.2, seed=seed
        )

    start = time.perf_counter()
    raw = {}
    for s in counts:
        for strategy in STRATEGIES:
            per_trial = []
            for t in range(trials):
                seed = SEED_STRIDE * t
                if strategy == "uncoded-3rep":
                    session = _lr_like_session(
                        ReplicationSession, matrix, iterations,
                        speed_model=speeds(s, seed),
                        predictor=LastValuePredictor(N_WORKERS),
                    )
                else:
                    scheduler, k = _coded_scheduler(strategy)
                    session = _lr_like_session(
                        CodedSession, matrix, iterations,
                        MDSCode(N_WORKERS, k), scheduler,
                        speed_model=speeds(s, seed),
                        predictor=OraclePredictor(speed_model=speeds(s, seed)),
                        timeout=TimeoutPolicy(),
                    )
                per_trial.append(session.metrics.total_time[0])
            raw[(strategy, s)] = np.mean(per_trial)
    return time.perf_counter() - start


def bench_sweep(
    quick: bool, trials: int, jobs: int, cache_dir, executor: str = "process"
) -> float:
    from repro.experiments.fig06_lr import run
    from repro.engine import ExecutionEngine, RunStore

    start = time.perf_counter()
    run(
        quick=quick,
        trials=trials,
        runner=ExecutionEngine(
            jobs=jobs, executor=executor, store=RunStore(cache_dir)
        ),
    )
    return time.perf_counter() - start


def bench_engine(
    quick: bool, trials: int, jobs: int, executor: str = "process"
) -> tuple[float, float, int]:
    """One fat cell: cell-granular scheduling vs trial-sharded scheduling.

    Returns ``(cell_granular_seconds, sharded_seconds, n_shards)``.  The
    cell-granular run forces one shard per cell (``shard_size=trials``) —
    exactly the pre-engine pool behaviour, where a single large-trial cell
    pins one core while the rest idle; the sharded run lets the work-plan
    layer split it.  Values are asserted identical (the shard-merge
    bitwise contract).
    """
    from repro.engine.plan import compile_plan
    from repro.experiments.fig06_lr import _cell
    from repro.engine import ExecutionEngine, SweepSpec

    spec = SweepSpec(
        name="engine-fat-cell",
        cell=_cell,
        axes=(("strategy", ("s2c2-general-12-6",)), ("stragglers", (3,))),
        trials=trials,
        quick=quick,
    )
    start = time.perf_counter()
    mono = ExecutionEngine(
        jobs=jobs, shard_size=trials, executor=executor
    ).run(spec)
    cell_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = ExecutionEngine(jobs=jobs, executor=executor).run(spec)
    shard_s = time.perf_counter() - start
    assert sharded.values == mono.values  # bitwise shard-merge contract
    return cell_s, shard_s, len(compile_plan(spec).shards)


def bench_fig13(quick: bool, trials: int, jobs: int) -> tuple[float, float]:
    """Large-cluster comparison: serial sessions vs batched sweep (Fig 13)."""
    from repro.apps.datasets import make_classification
    from repro.cluster.speed_models import TraceSpeeds
    from repro.coding.mds import MDSCode
    from repro.experiments.fig13_scale import MDS_K, N_WORKERS, run
    from repro.engine import SEED_STRIDE, ExecutionEngine
    from repro.prediction.predictor import StalePredictor
    from repro.prediction.traces import BURSTY, STABLE, generate_speed_traces
    from repro.runtime import CodedSession
    from repro.scheduling.s2c2 import GeneralS2C2Scheduler
    from repro.scheduling.static import StaticCodedScheduler
    from repro.scheduling.timeout import TimeoutPolicy

    size = 1200 if quick else 4000
    iterations = 3 if quick else 15
    matrix, _ = make_classification(size, size, seed=0)
    start = time.perf_counter()
    for environment in ("low", "high"):
        config = STABLE if environment == "low" else BURSTY
        miss = 0.0 if environment == "low" else 0.18
        for strategy in ("static", "s2c2"):
            for t in range(trials):
                seed = SEED_STRIDE * t
                traces = generate_speed_traces(
                    N_WORKERS, 2 * iterations + 2, config, seed=seed
                )
                if strategy == "s2c2":
                    scheduler = GeneralS2C2Scheduler(coverage=MDS_K, num_chunks=10_000)
                    timeout = TimeoutPolicy()
                else:
                    scheduler = StaticCodedScheduler(coverage=MDS_K, num_chunks=10_000)
                    timeout = None
                _lr_like_session(
                    CodedSession, matrix, iterations,
                    MDSCode(N_WORKERS, MDS_K), scheduler,
                    speed_model=TraceSpeeds(traces),
                    predictor=StalePredictor(
                        speed_model=TraceSpeeds(traces), miss_rate=miss, seed=seed
                    ),
                    timeout=timeout,
                )
    serial = time.perf_counter() - start

    start = time.perf_counter()
    run(quick=quick, trials=trials, runner=ExecutionEngine(jobs=jobs))
    return serial, time.perf_counter() - start


def bench_repair_path(
    quick: bool, trials: int, scenario: str
) -> tuple[float, float, float]:
    """High-straggler repair bench: per-trial kernel calls vs one batch.

    Returns ``(scalar_seconds, batch_seconds, repaired_fraction)``: the
    first times ``run`` once per trial (each a one-trial call of the
    batched kernel), the second one ``run_batch`` over every trial.  The
    plan is built from all-equal predicted speeds and executed against the
    scenario's straggler-laden actual speeds, so the §4.3 deadline fires
    and the repair path dominates.
    """
    from repro.cluster.network import CostModel, NetworkModel
    from repro.cluster.scenarios import scenario_batch
    from repro.cluster.simulator import CodedIterationSim
    from repro.coding.partition import ChunkGrid
    from repro.engine import SEED_STRIDE
    from repro.scheduling.s2c2 import GeneralS2C2Scheduler
    from repro.scheduling.timeout import TimeoutPolicy

    n, coverage = 10, 7
    rows, chunks = (2000, 2000) if quick else (10_000, 10_000)
    sim = CodedIterationSim(
        grid=ChunkGrid(rows, chunks),
        width=64,
        timeout=TimeoutPolicy(slack=0.1),
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
    )
    plan = GeneralS2C2Scheduler(coverage=coverage, num_chunks=chunks).plan(
        np.ones(n)
    )
    overrides = SCENARIO_BENCH_OVERRIDES.get(scenario, {})
    seeds = [SEED_STRIDE * t for t in range(trials)]
    speeds = scenario_batch(scenario, n, seeds, **overrides).speeds_batch(3)

    start = time.perf_counter()
    scalar = [sim.run(plan, speeds[t]) for t in range(trials)]
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = sim.run_batch(plan, speeds)
    batch_s = time.perf_counter() - start

    for t, outcome in enumerate(scalar):  # bitwise contract, cheap to hold
        assert batch.completion_time[t] == outcome.completion_time, t
    return scalar_s, batch_s, float(batch.repaired.mean())


def bench_matrix(quick: bool, trials: int, jobs: int) -> tuple[float, float, int]:
    """Policy × scenario matrix: cold sweep vs warm on-disk cache.

    Returns ``(cold_seconds, warm_seconds, cells)``.
    """
    from repro.experiments.matrix import run_matrix
    from repro.engine import ExecutionEngine, RunStore

    with tempfile.TemporaryDirectory() as cache:
        start = time.perf_counter()
        result = run_matrix(
            quick=quick,
            trials=trials,
            runner=ExecutionEngine(jobs=jobs, store=RunStore(cache)),
        )
        cold = time.perf_counter() - start
        start = time.perf_counter()
        run_matrix(
            quick=quick,
            trials=trials,
            runner=ExecutionEngine(jobs=jobs, store=RunStore(cache)),
        )
        warm = time.perf_counter() - start
    return cold, warm, len(result.policies) * len(result.scenarios)


def bench_event_backend(
    quick: bool, trials: int, jobs: int
) -> tuple[float, float, int]:
    """Closed-form core vs discrete-event engine on the same cells.

    Returns ``(closed_seconds, event_seconds, cells)``.  The grid pairs a
    compute-only scenario (where the two backends are bitwise-equal, so
    the delta is pure event-loop overhead) with a link-degraded one
    (which only the event backend resolves differently).
    """
    from repro.experiments.matrix import run_matrix
    from repro.engine import ExecutionEngine

    policies = ("mds", "timeout-repair")
    scenarios = ("bursty", "netslow")
    timings = {}
    for backend in ("closed", "event"):
        start = time.perf_counter()
        run_matrix(
            quick=quick,
            trials=trials,
            runner=ExecutionEngine(jobs=jobs),
            policies=policies,
            scenarios=scenarios,
            backend=backend,
        )
        timings[backend] = time.perf_counter() - start
    return timings["closed"], timings["event"], len(policies) * len(scenarios)


def bench_event_kernel(
    quick: bool, trials: int, profiler=None
) -> tuple[float, float]:
    """Event backend at scale: closed form vs the link-priced batched kernel.

    Returns ``(closed_seconds, batch_seconds)`` for one network-degraded
    iteration batch of ``trials`` trials (the ``netslow`` scenario's link
    factors, which only the event backend honours).  When ``profiler`` is
    given the event kernel runs once more with it installed, so the
    record carries per-phase hot-spot totals.
    """
    from repro.cluster.events.sim import EventDrivenIterationSim
    from repro.cluster.network import CostModel, NetworkModel
    from repro.cluster.scenarios import scenario_batch
    from repro.cluster.simulator import CodedIterationSim
    from repro.coding.partition import ChunkGrid
    from repro.engine import SEED_STRIDE
    from repro.profiling import profiled
    from repro.scheduling.s2c2 import GeneralS2C2Scheduler

    n, coverage = 10, 7
    rows, chunks = (2000, 200) if quick else (10_000, 2000)
    kwargs = dict(
        grid=ChunkGrid(rows, chunks),
        width=64,
        network=NetworkModel(latency=5e-6, bandwidth=2.5e8),
        cost=CostModel(worker_flops=5e7),
    )
    closed_sim = CodedIterationSim(**kwargs)
    event_sim = EventDrivenIterationSim(**kwargs)
    plan = GeneralS2C2Scheduler(coverage=coverage, num_chunks=chunks).plan(
        np.ones(n)
    )
    seeds = [SEED_STRIDE * t for t in range(trials)]
    model = scenario_batch("netslow", n, seeds)
    speeds = model.speeds_batch(3)
    factors = model.link_factors_batch(3)

    start = time.perf_counter()
    closed_sim.run_batch(plan, speeds)
    closed_s = time.perf_counter() - start

    start = time.perf_counter()
    event_sim.run_batch(plan, speeds, link_factors=factors)
    batch_s = time.perf_counter() - start

    if profiler is not None:
        with profiled(profiler):
            event_sim.run_batch(plan, speeds, link_factors=factors)
    return closed_s, batch_s


def bench_predictor_path(quick: bool, trials: int) -> tuple[float, float, int]:
    """Online-forecasting bench: a stack of one-trial views vs one batch kernel.

    Returns ``(loop_seconds, batch_seconds, rounds)``.  One trained §6.1
    LSTM shared by ``trials`` independent per-worker recurrent states,
    stepped through ``rounds`` update/predict cycles — the exact shape of
    the cloud experiments' forecasting feedback loop.
    """
    from repro.prediction.lstm import LSTMSpeedModel
    from repro.prediction.predictor import (
        BatchLSTMPredictor,
        LSTMPredictor,
        StackedPredictor,
    )
    from repro.prediction.traces import VOLATILE, generate_speed_traces

    n_workers = 10
    rounds = 60 if quick else 300
    model = LSTMSpeedModel(hidden=4, seed=0)
    model.fit(
        generate_speed_traces(12, 120, VOLATILE, seed=1), epochs=40, window=40
    )
    observed = np.stack(
        [
            generate_speed_traces(n_workers, rounds, VOLATILE, seed=2 + t)
            for t in range(trials)
        ]
    )

    loop = StackedPredictor(
        [LSTMPredictor(model, n_workers) for _ in range(trials)]
    )
    start = time.perf_counter()
    for r in range(rounds):
        loop.update(observed[:, :, r])
        loop.predict()
    loop_s = time.perf_counter() - start

    batch = BatchLSTMPredictor(model, trials, n_workers)
    start = time.perf_counter()
    for r in range(rounds):
        batch.update(observed[:, :, r])
        batch.predict()
    batch_s = time.perf_counter() - start

    # Point-for-point contract, cheap to hold.
    assert np.array_equal(batch.predict(), loop.predict())
    return loop_s, batch_s, rounds


def tag_pair(text: str) -> tuple[str, str]:
    """Argparse type for ``--tag``: ``KEY=VALUE``, split on the FIRST ``=``.

    Splitting on the first ``=`` only keeps values containing ``=`` intact
    — notably composed scenario expressions such as
    ``scenario=mix(bursty,constant,weight=0.7)``.
    """
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}"
        )
    return key, value


def build_parser() -> argparse.ArgumentParser:
    # Shared argparse types: bad --trials/--jobs/--executor values exit 2
    # naming the flag, exactly like the `python -m repro` subcommands.
    from repro.engine.options import executor_name, positive_int

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=positive_int, default=8)
    parser.add_argument("--jobs", type=positive_int, default=2)
    parser.add_argument(
        "--executor",
        type=executor_name,
        default="process",
        metavar="NAME",
        help="executor backend for the sweep benches (default: process)",
    )
    parser.add_argument(
        "--full", action="store_true", help="paper-scale sizes (slow)"
    )
    parser.add_argument(
        "--scenario",
        default="controlled",
        help="straggler scenario for the repair-path bench "
        "(see `python -m repro scenarios`; default: controlled)",
    )
    parser.add_argument(
        "--predictor-trials",
        type=positive_int,
        default=64,
        metavar="N",
        help="trial count for the prediction-path micro-bench (default: 64)",
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="also time the policy × scenario evaluation matrix "
        "(cold sweep, then warm on-disk cache)",
    )
    parser.add_argument(
        "--engine",
        action="store_true",
        help="also time one fat cell: cell-granular vs trial-sharded "
        "scheduling at --engine-jobs pool width",
    )
    parser.add_argument(
        "--engine-trials",
        type=positive_int,
        default=256,
        metavar="N",
        help="trial count of the fat engine-bench cell (default: 256)",
    )
    parser.add_argument(
        "--engine-jobs",
        type=positive_int,
        default=4,
        metavar="N",
        help="pool width of the engine bench (default: 4)",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="also time the event-backend kernel against the closed form, "
        "plus the policy × scenario cells on both backends",
    )
    parser.add_argument(
        "--event-trials",
        type=positive_int,
        default=64,
        metavar="N",
        help="trial count of the event-kernel micro-bench (default: 64)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="rerun the batched event kernel with the phase profiler "
        "installed and print/record the per-phase hot-spot table "
        "(implies nothing without --events)",
    )
    parser.add_argument(
        "--tag",
        type=tag_pair,
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="attach a free-form label to the --append-json record "
        "(repeatable; splits on the first '=' only, so values may "
        "contain '=')",
    )
    parser.add_argument(
        "--append-json",
        default=None,
        metavar="PATH",
        help="append one JSON line with the timings to PATH",
    )
    return parser


def main() -> None:
    parser = build_parser()
    args = parser.parse_args()
    from repro.cluster.scenarios import get_scenario

    try:
        get_scenario(args.scenario)
    except KeyError as error:  # clean exit 2 instead of a bare traceback
        parser.error(str(error.args[0]))
    quick = not args.full
    record: dict = {
        "timestamp": time.time(),
        "quick": quick,
        "trials": args.trials,
        "jobs": args.jobs,
        "executor": args.executor,
        "scenario": args.scenario,
        # Pool speedups are bounded by physical cores; recording the host
        # width keeps the BENCH_SWEEP.json trajectory interpretable.
        "cpus": os.cpu_count(),
    }
    if args.tag:
        record["tags"] = dict(args.tag)

    serial = bench_serial_sessions(quick, args.trials)
    print(f"fig06  serial sessions ({args.trials} trials): {serial:7.2f}s")
    with tempfile.TemporaryDirectory() as cache:
        swept = bench_sweep(quick, args.trials, args.jobs, cache, args.executor)
        print(
            f"fig06  sweep engine  (--jobs {args.jobs}, batched): "
            f"{swept:7.2f}s   ({serial / swept:.1f}x)"
        )
        warm = bench_sweep(quick, args.trials, args.jobs, cache, args.executor)
        print(f"fig06  sweep engine  (warm cache):        {warm:7.2f}s")
    record["fig06"] = {"serial": serial, "sweep": swept, "warm": warm}

    serial13, swept13 = bench_fig13(quick, args.trials, args.jobs)
    print(f"fig13  serial sessions ({args.trials} trials): {serial13:7.2f}s")
    print(
        f"fig13  sweep engine  (--jobs {args.jobs}, batched): "
        f"{swept13:7.2f}s   ({serial13 / swept13:.1f}x)"
    )
    record["fig13"] = {"serial": serial13, "sweep": swept13}

    scalar_s, batch_s, repaired = bench_repair_path(
        quick, args.trials, args.scenario
    )
    print(
        f"repair scalar loop   ({args.trials} trials, scenario "
        f"{args.scenario}, {repaired:.0%} repaired): {scalar_s:7.2f}s"
    )
    print(
        f"repair native batch:                      {batch_s:7.2f}s   "
        f"({scalar_s / batch_s:.1f}x)"
    )
    record["repair"] = {
        "scalar": scalar_s,
        "batch": batch_s,
        "repaired_fraction": repaired,
    }

    loop_s, pbatch_s, rounds = bench_predictor_path(quick, args.predictor_trials)
    print(
        f"predict per-trial views ({args.predictor_trials} trials, "
        f"{rounds} rounds): {loop_s:7.2f}s"
    )
    print(
        f"predict batched kernel:                   {pbatch_s:7.2f}s   "
        f"({loop_s / pbatch_s:.1f}x)"
    )
    record["predictor"] = {
        "loop": loop_s,
        "batch": pbatch_s,
        "trials": args.predictor_trials,
        "rounds": rounds,
    }

    if args.matrix:
        cold, warm, cells = bench_matrix(quick, args.trials, args.jobs)
        print(
            f"matrix cold sweep    ({cells} policy×scenario cells, "
            f"{args.trials} trials): {cold:7.2f}s"
        )
        print(
            f"matrix warm cache:                        {warm:7.2f}s   "
            f"({cold / warm:.1f}x)"
        )
        record["matrix"] = {"cold": cold, "warm": warm, "cells": cells}

    if args.engine:
        cell_s, shard_s, shards = bench_engine(
            quick, args.engine_trials, args.engine_jobs, args.executor
        )
        print(
            f"engine cell-granular (1 cell, {args.engine_trials} trials, "
            f"--jobs {args.engine_jobs}): {cell_s:7.2f}s"
        )
        print(
            f"engine trial-sharded ({shards} shards):       {shard_s:7.2f}s   "
            f"({cell_s / shard_s:.1f}x)"
        )
        record["engine"] = {
            "cell_granular": cell_s,
            "sharded": shard_s,
            "trials": args.engine_trials,
            "jobs": args.engine_jobs,
            "shards": shards,
            "executor": args.executor,
        }

    if args.events:
        profiler = None
        if args.profile:
            from repro.profiling import PhaseProfiler

            profiler = PhaseProfiler()
        kc_s, kb_s = bench_event_kernel(quick, args.event_trials, profiler)
        print(
            f"events closed batch  ({args.event_trials} trials, netslow): "
            f"{kc_s:7.2f}s"
        )
        print(f"events batched kernel:                    {kb_s:7.2f}s")
        mclosed_s, mevent_s, cells = bench_event_backend(
            quick, args.trials, args.jobs
        )
        print(
            f"events closed cells  ({cells} policy×scenario cells, "
            f"{args.trials} trials): {mclosed_s:7.2f}s"
        )
        print(
            f"events event cells:                       {mevent_s:7.2f}s   "
            f"({mevent_s / mclosed_s:.1f}x slower)"
        )
        record["events"] = {
            "closed": kc_s,
            "batch": kb_s,
            "trials": args.event_trials,
            "matrix_closed": mclosed_s,
            "matrix_event": mevent_s,
            "cells": cells,
        }
        if profiler is not None:
            print(profiler.format_table())
            record["profile"] = {
                "phases": profiler.as_dict(),
                "trials": args.event_trials,
            }

    if args.append_json:
        with open(args.append_json, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        print(f"appended timings to {args.append_json}")


if __name__ == "__main__":
    main()
