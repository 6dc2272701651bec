"""Batched runners vs the frozen per-trial sessions: metrics must match exactly.

The batch engine's whole claim is that trial ``t`` of a batched run equals
a single-trial session run built from the same seed — same plans, same
timeline, same predictor feedback — with the numeric payload skipped.
These tests pin that equality against the per-trial session loop frozen
in ``session_reference.py``, for every runner family (coded,
over-decomposition, replication) on the controlled-cluster and
cloud-trace experiment shapes.
"""

import numpy as np
import pytest

from repro.cluster.speed_models import (
    ControlledSpeeds,
    ReplaySpeeds,
    StackedSpeeds,
    TraceSpeeds,
)
from repro.coding.mds import MDSCode
from repro.experiments.harness import run_lr_like_batch
from repro.prediction.predictor import (
    LastValuePredictor,
    OraclePredictor,
    StackedPredictor,
    StalePredictor,
)
from repro.prediction.traces import VOLATILE, generate_speed_traces
from repro.scheduling.replication import SpeculationConfig
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy
from session_reference import (
    run_coded_lr_like,
    run_overdecomposition_lr_like,
    run_replicated_lr_like,
)

N = 12
ROWS, COLS = 240, 60
TRIALS = 4
ITERATIONS = 3


def _controlled(seed: int, stragglers: int = 2) -> ControlledSpeeds:
    return ControlledSpeeds(
        N, num_stragglers=stragglers, slowdown=5.0, jitter=0.2, seed=seed
    )


def _session_metrics(scheduler, seed, stragglers=2, timeout=None, predictor=None):
    matrix = np.random.default_rng(0).normal(size=(ROWS, COLS))
    session = run_coded_lr_like(
        matrix,
        lambda: MDSCode(N, scheduler.coverage),
        scheduler,
        _controlled(seed, stragglers),
        predictor
        if predictor is not None
        else OraclePredictor(speed_model=_controlled(seed, stragglers)),
        iterations=ITERATIONS,
        timeout=timeout,
        seed=seed,
    )
    return session.metrics


@pytest.mark.parametrize(
    "scheduler_factory, timeout",
    [
        (lambda: StaticCodedScheduler(coverage=6, num_chunks=10_000), None),
        (
            lambda: GeneralS2C2Scheduler(coverage=6, num_chunks=10_000),
            TimeoutPolicy(),
        ),
        (
            lambda: BasicS2C2Scheduler(coverage=6, num_chunks=10_000),
            TimeoutPolicy(),
        ),
    ],
)
def test_batch_matches_sessions_controlled(scheduler_factory, timeout):
    seeds = [11 + 3 * t for t in range(TRIALS)]
    stragglers = 2
    batch = run_lr_like_batch(
        "coded",
        ROWS,
        COLS,
        StackedSpeeds([_controlled(s, stragglers) for s in seeds]),
        StackedPredictor(
            [
                OraclePredictor(speed_model=_controlled(s, stragglers))
                for s in seeds
            ]
        ),
        iterations=ITERATIONS,
        operator=(scheduler_factory().coverage, scheduler_factory()),
        timeout=timeout,
    )
    totals = batch.total_time
    wasted = batch.wasted_fraction_of_assigned()
    mis = batch.misprediction_rate()
    for t, seed in enumerate(seeds):
        metrics = _session_metrics(
            scheduler_factory(), seed, stragglers, timeout=timeout
        )
        assert totals[t] == metrics.total_time, f"trial {t}"
        np.testing.assert_array_equal(
            wasted[t], metrics.wasted_fraction_of_assigned()
        )
        assert mis[t] == metrics.misprediction_rate()
        assert batch.repair_count[t] == metrics.repair_count


def test_batch_matches_sessions_traces_stale_predictor():
    # The Fig 13-style configuration: trace replay + adversarial oracle.
    seeds = [5, 6, 7]
    traces = [
        generate_speed_traces(N, 2 * ITERATIONS + 2, VOLATILE, seed=s)
        for s in seeds
    ]
    scheduler = GeneralS2C2Scheduler(coverage=9, num_chunks=10_000)
    batch = run_lr_like_batch(
        "coded",
        ROWS,
        COLS,
        ReplaySpeeds(np.stack(traces)),
        StackedPredictor(
            [
                StalePredictor(
                    speed_model=TraceSpeeds(traces[t]), miss_rate=0.18, seed=seeds[t]
                )
                for t in range(len(seeds))
            ]
        ),
        iterations=ITERATIONS,
        operator=(9, scheduler),
        timeout=TimeoutPolicy(),
    )
    matrix = np.random.default_rng(0).normal(size=(ROWS, COLS))
    for t, seed in enumerate(seeds):
        session = run_coded_lr_like(
            matrix,
            lambda: MDSCode(N, 9),
            GeneralS2C2Scheduler(coverage=9, num_chunks=10_000),
            TraceSpeeds(traces[t]),
            StalePredictor(
                speed_model=TraceSpeeds(traces[t]), miss_rate=0.18, seed=seed
            ),
            iterations=ITERATIONS,
            timeout=TimeoutPolicy(),
            seed=seed,
        )
        assert batch.total_time[t] == session.metrics.total_time


def test_batch_matches_sessions_last_value_predictor():
    # LastValue feedback depends on *which* workers responded, so this
    # exercises the responded-mask parity end to end.
    seeds = [3, 4]
    scheduler = StaticCodedScheduler(coverage=9, num_chunks=10_000)
    batch = run_lr_like_batch(
        "coded",
        ROWS,
        COLS,
        StackedSpeeds([_controlled(s, 1) for s in seeds]),
        StackedPredictor([LastValuePredictor(N) for _ in seeds]),
        iterations=ITERATIONS,
        operator=(9, scheduler),
    )
    for t, seed in enumerate(seeds):
        metrics = _session_metrics(
            scheduler, seed, 1, predictor=LastValuePredictor(N)
        )
        assert batch.total_time[t] == metrics.total_time


def test_overdecomposition_batch_matches_sessions():
    # Fig 8/10-style configuration: trace replay, migrating holders, the
    # batched runner must evolve each trial's holder table exactly as the
    # per-trial session does.
    seeds = [5, 6, 7]
    traces = [
        generate_speed_traces(N, 2 * ITERATIONS + 2, VOLATILE, seed=s)
        for s in seeds
    ]
    batch = run_lr_like_batch(
        "overdecomposition",
        ROWS,
        COLS,
        ReplaySpeeds(np.stack(traces)),
        StackedPredictor([LastValuePredictor(N) for _ in seeds]),
        iterations=ITERATIONS,
    )
    matrix = np.random.default_rng(0).normal(size=(ROWS, COLS))
    migrated_any = False
    for t, seed in enumerate(seeds):
        session = run_overdecomposition_lr_like(
            matrix,
            TraceSpeeds(traces[t]),
            LastValuePredictor(N),
            iterations=ITERATIONS,
            seed=seed,
        )
        assert batch.total_time[t] == session.metrics.total_time, f"trial {t}"
        np.testing.assert_array_equal(
            batch.wasted_fraction_of_assigned()[t],
            session.metrics.wasted_fraction_of_assigned(),
        )
        migrated_any = migrated_any or any(
            r.migrations for r in session.metrics.records
        )
    assert migrated_any, "test should exercise migrating holder tables"


@pytest.mark.parametrize(
    "config",
    [
        SpeculationConfig(allow_data_movement=False),  # the `uncoded` policy
        SpeculationConfig(allow_data_movement=True),  # the `replication` one
    ],
    ids=["strict-locality", "data-movement"],
)
def test_replication_batch_matches_sessions(config):
    # Fig 1/6-style configuration: controlled stragglers, enough of them
    # that the sessions launch speculative copies, which the batched
    # runner must resolve per trial exactly as each session does.
    seeds = [5, 6, 7]
    stragglers = 3
    batch = run_lr_like_batch(
        "replication",
        ROWS,
        COLS,
        StackedSpeeds([_controlled(s, stragglers) for s in seeds]),
        StackedPredictor([LastValuePredictor(N) for _ in seeds]),
        iterations=ITERATIONS,
        config=config,
    )
    matrix = np.random.default_rng(0).normal(size=(ROWS, COLS))
    launched = 0
    for t, seed in enumerate(seeds):
        session = run_replicated_lr_like(
            matrix,
            _controlled(seed, stragglers),
            LastValuePredictor(N),
            iterations=ITERATIONS,
            seed=seed,
            config=config,
        )
        assert batch.total_time[t] == session.metrics.total_time, f"trial {t}"
        np.testing.assert_array_equal(
            batch.wasted_fraction_of_assigned()[t],
            session.metrics.wasted_fraction_of_assigned(),
        )
        launched += sum(r.speculative_launches for r in session.metrics.records)
    assert launched > 0, "test should exercise speculative re-execution"


def test_metrics_require_rounds():
    from repro.runtime.batch import BatchRunMetrics

    metrics = BatchRunMetrics(n_trials=2, n_workers=3)
    with pytest.raises(RuntimeError):
        _ = metrics.total_time


@pytest.mark.parametrize(
    "k, coverage",
    [(4, 3), (N + 1, N + 1), (0, 4)],
    ids=["coverage-below-k", "k-above-workers", "k-zero"],
)
def test_coded_registration_rejects_undecodable_thresholds(k, coverage):
    # No round of such an operator could decode: rejected at registration.
    from repro.runtime.batch import build_batch_runner

    runner = build_batch_runner(
        "coded",
        StackedSpeeds([_controlled(0)]),
        StackedPredictor([LastValuePredictor(N)]),
    )
    scheduler = GeneralS2C2Scheduler(coverage=coverage, num_chunks=10)
    with pytest.raises(ValueError, match=rf"k={k} .*coverage={coverage}"):
        runner.register_matvec("A", ROWS, COLS, k, scheduler)
    with pytest.raises(ValueError, match=rf"k={k} .*coverage={coverage}"):
        runner.register_bilinear("H", ROWS, COLS, ROWS, k, 1, scheduler)
    # Coverage above k still decodes.
    runner.register_matvec("B", ROWS, COLS, 4, GeneralS2C2Scheduler(coverage=5))
    runner.matvec("B")


def _blank_runner(family: str, **knobs):
    from repro.runtime.batch import build_batch_runner

    return build_batch_runner(
        family,
        StackedSpeeds([_controlled(0)]),
        StackedPredictor([LastValuePredictor(N)]),
        **knobs,
    )


@pytest.mark.parametrize(
    "register, message",
    [
        (
            lambda: _blank_runner("coded").register_bilinear(
                "H", 2, COLS, ROWS, 3, 1, StaticCodedScheduler(coverage=3)
            ),
            "a=3 blocks cannot exceed left_rows=2",
        ),
        (
            lambda: _blank_runner("coded").register_bilinear(
                "H", ROWS, COLS, 2, 1, 3, StaticCodedScheduler(coverage=3)
            ),
            "b=3 blocks cannot exceed right_cols=2",
        ),
        (
            lambda: _blank_runner("overdecomposition", factor=2).register_matvec(
                "A", 5, COLS
            ),
            "factor × n_workers=24 blocks cannot exceed total_rows=5",
        ),
        (
            lambda: _blank_runner("replication").register_matvec("A", 5, COLS),
            "n_workers=12 blocks cannot exceed total_rows=5",
        ),
    ],
    ids=["bilinear-a", "bilinear-b", "overdecomposition", "replication"],
)
def test_too_few_rows_name_the_callers_inputs(register, message):
    # Each entry point checks its own geometry, so the error names its
    # parameters rather than RowPartition's ``k`` and ``total_rows``.
    with pytest.raises(ValueError, match=message):
        register()
