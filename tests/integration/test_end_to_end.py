"""End-to-end integration tests across the whole strategy × predictor grid.

The paper's core guarantee: coding and scheduling change *latency*, never
results.  These tests sweep every built-in strategy, predictor, and speed
environment, inject failures and mis-predictions, and demand bit-level
numeric agreement with direct NumPy throughout.
"""

import numpy as np
import pytest

from repro.apps.datasets import make_classification
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.speed_models import ConstantSpeeds, ControlledSpeeds, TraceSpeeds
from repro.coding.mds import MDSCode
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import (
    ARPredictor,
    LastValuePredictor,
    LSTMPredictor,
    OraclePredictor,
    StalePredictor,
)
from repro.prediction.arima import ARModel
from repro.prediction.traces import MEASURED, generate_speed_traces
from repro.runtime.session import (
    CodedSession,
    OverDecompositionSession,
    ReplicationSession,
)
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

NET = NetworkModel(latency=1e-6, bandwidth=1e11)
COST = CostModel(worker_flops=1e7)
N, K = 8, 6
MATRIX = make_classification(240, 30, seed=0)[0]
X = np.random.default_rng(1).normal(size=30)


def make_predictor(kind: str, speed_model):
    if kind == "oracle":
        return OraclePredictor(speed_model=speed_model)
    if kind == "last-value":
        return LastValuePredictor(N)
    if kind == "stale":
        return StalePredictor(speed_model=speed_model, miss_rate=0.3, seed=0)
    if kind == "ar":
        traces = generate_speed_traces(10, 100, MEASURED, seed=9)
        return ARPredictor(ARModel(p=1).fit(traces), N)
    if kind == "lstm":
        traces = generate_speed_traces(10, 120, MEASURED, seed=9)
        model = LSTMSpeedModel(hidden=4, seed=0)
        model.fit(traces, epochs=30, window=30)
        return LSTMPredictor(model, N)
    raise ValueError(kind)


def make_speed_model(kind: str):
    if kind == "constant":
        return ConstantSpeeds(np.linspace(0.5, 1.5, N))
    if kind == "controlled":
        return ControlledSpeeds(N, num_stragglers=1, slowdown=5.0, seed=3)
    if kind == "traces":
        return TraceSpeeds(generate_speed_traces(N, 40, MEASURED, seed=4))
    raise ValueError(kind)


SCHEDULERS = {
    "static": lambda: StaticCodedScheduler(coverage=K, num_chunks=30),
    "basic": lambda: BasicS2C2Scheduler(coverage=K, num_chunks=30),
    "general": lambda: GeneralS2C2Scheduler(coverage=K, num_chunks=30),
}


class TestCodedGrid:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("predictor", ["oracle", "last-value", "stale"])
    @pytest.mark.parametrize("environment", ["constant", "controlled", "traces"])
    def test_numeric_exactness_across_grid(self, scheduler, predictor, environment):
        speed_model = make_speed_model(environment)
        session = CodedSession(
            speed_model=speed_model,
            predictor=make_predictor(predictor, make_speed_model(environment)),
            network=NET,
            cost=COST,
            timeout=TimeoutPolicy(),
        )
        session.register_matvec("A", MATRIX, MDSCode(N, K), SCHEDULERS[scheduler]())
        expected = MATRIX @ X
        for _ in range(4):
            np.testing.assert_allclose(
                session.matvec("A", X), expected, atol=1e-7
            )
        assert session.metrics.total_time[0] > 0

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_single_failure_every_scheduler(self, scheduler):
        session = CodedSession(
            speed_model=make_speed_model("constant"),
            predictor=make_predictor("oracle", make_speed_model("constant")),
            network=NET,
            cost=COST,
            timeout=TimeoutPolicy(),
        )
        session.register_matvec("A", MATRIX, MDSCode(N, K), SCHEDULERS[scheduler]())
        expected = MATRIX @ X
        for fail in range(N):
            session.fail_next({fail})
            np.testing.assert_allclose(
                session.matvec("A", X), expected, atol=1e-7
            )

    def test_two_simultaneous_failures_with_redundancy(self):
        session = CodedSession(
            speed_model=make_speed_model("constant"),
            predictor=make_predictor("oracle", make_speed_model("constant")),
            network=NET,
            cost=COST,
            timeout=TimeoutPolicy(),
        )
        session.register_matvec(
            "A", MATRIX, MDSCode(N, K), SCHEDULERS["general"]()
        )
        session.fail_next({0, 7})
        np.testing.assert_allclose(
            session.matvec("A", X), MATRIX @ X, atol=1e-7
        )

    def test_learned_predictors_stay_exact(self):
        for kind in ("ar", "lstm"):
            session = CodedSession(
                speed_model=make_speed_model("traces"),
                predictor=make_predictor(kind, make_speed_model("traces")),
                network=NET,
                cost=COST,
                timeout=TimeoutPolicy(),
            )
            session.register_matvec(
                "A", MATRIX, MDSCode(N, K), SCHEDULERS["general"]()
            )
            for _ in range(3):
                np.testing.assert_allclose(
                    session.matvec("A", X), MATRIX @ X, atol=1e-7
                )


class TestUncodedGrid:
    @pytest.mark.parametrize("environment", ["constant", "controlled", "traces"])
    def test_replication_exact(self, environment):
        session = ReplicationSession(
            speed_model=make_speed_model(environment),
            predictor=LastValuePredictor(N),
            network=NET,
            cost=COST,
        )
        session.register_matvec("A", MATRIX)
        for _ in range(3):
            np.testing.assert_allclose(
                session.matvec("A", X), MATRIX @ X, atol=1e-10
            )

    @pytest.mark.parametrize("environment", ["constant", "controlled", "traces"])
    def test_overdecomposition_exact(self, environment):
        session = OverDecompositionSession(
            speed_model=make_speed_model(environment),
            predictor=make_predictor("oracle", make_speed_model(environment)),
            network=NET,
            cost=COST,
        )
        session.register_matvec("A", MATRIX)
        for _ in range(3):
            np.testing.assert_allclose(
                session.matvec("A", X), MATRIX @ X, atol=1e-10
            )

    def test_overdecomposition_storage_grows_with_migration(self):
        session = OverDecompositionSession(
            speed_model=make_speed_model("traces"),
            predictor=make_predictor("oracle", make_speed_model("traces")),
            network=NET,
            cost=COST,
            replication=1.0,
        )
        session.register_matvec("A", MATRIX)
        before = session.storage_fraction("A")
        for _ in range(6):
            session.matvec("A", X)
        after = session.storage_fraction("A")
        assert after >= before


class TestWorkConservation:
    def test_s2c2_total_used_rows_is_exactly_k_R(self):
        # The slack-squeeze invariant: with exact coverage, the cluster
        # performs exactly k row-computations per encoded row index.
        session = CodedSession(
            speed_model=make_speed_model("constant"),
            predictor=make_predictor("oracle", make_speed_model("constant")),
            network=NET,
            cost=COST,
        )
        session.register_matvec(
            "A", MATRIX, MDSCode(N, K), SCHEDULERS["general"]()
        )
        session.matvec("A", X)
        record = session.metrics.round_arrays()
        block_rows = -(-MATRIX.shape[0] // K)
        assert record["used"][0, 0].sum() == K * block_rows
        assert record["computed"][0, 0].sum() == K * block_rows

    def test_static_overprovisions_by_n_over_k(self):
        session = CodedSession(
            speed_model=make_speed_model("constant"),
            predictor=make_predictor("oracle", make_speed_model("constant")),
            network=NET,
            cost=COST,
        )
        session.register_matvec(
            "A", MATRIX, MDSCode(N, K), SCHEDULERS["static"]()
        )
        session.matvec("A", X)
        record = session.metrics.round_arrays()
        block_rows = -(-MATRIX.shape[0] // K)
        # Every worker is assigned a full partition...
        assert record["assigned"][0, 0].sum() == N * block_rows
        # ...but only k partitions' worth of results are used.
        assert record["used"][0, 0].sum() == K * block_rows
