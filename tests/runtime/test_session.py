"""Integration tests: sessions tie coding + scheduling + prediction + sim."""

import numpy as np
import pytest

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.speed_models import ConstantSpeeds, ControlledSpeeds
from repro.coding.mds import MDSCode
from repro.coding.polynomial import PolynomialCode
from repro.prediction.predictor import LastValuePredictor, OraclePredictor
from repro.runtime.session import (
    CodedSession,
    OverDecompositionSession,
    ReplicationSession,
)
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

NET = NetworkModel(latency=1e-6, bandwidth=1e12)
COST = CostModel(worker_flops=1e7)
RNG = np.random.default_rng(42)


def make_coded_session(n=6, k=4, stragglers=0, scheduler=None, timeout=None,
                       rows=120, cols=8, oracle=True):
    speed_model = ControlledSpeeds(n, num_stragglers=stragglers, seed=1)
    predictor = (
        OraclePredictor(speed_model=ControlledSpeeds(n, num_stragglers=stragglers, seed=1))
        if oracle
        else LastValuePredictor(n)
    )
    session = CodedSession(
        speed_model=speed_model,
        predictor=predictor,
        network=NET,
        cost=COST,
        timeout=timeout,
    )
    matrix = RNG.normal(size=(rows, cols))
    scheduler = scheduler or GeneralS2C2Scheduler(coverage=k, num_chunks=60)
    session.register_matvec("A", matrix, MDSCode(n, k), scheduler)
    return session, matrix


class TestCodedSession:
    def test_matvec_numerically_exact(self):
        session, matrix = make_coded_session()
        x = RNG.normal(size=matrix.shape[1])
        result = session.matvec("A", x)
        np.testing.assert_allclose(result, matrix @ x, atol=1e-8)

    def test_multiple_iterations_accumulate_metrics(self):
        session, matrix = make_coded_session()
        x = RNG.normal(size=matrix.shape[1])
        for _ in range(5):
            session.matvec("A", x)
        assert len(session.metrics) == 5
        assert session.iteration == 5
        assert session.metrics.total_time[0] > 0

    def test_exact_with_stragglers(self):
        session, matrix = make_coded_session(n=6, k=4, stragglers=2)
        x = RNG.normal(size=matrix.shape[1])
        for _ in range(3):
            np.testing.assert_allclose(
                session.matvec("A", x), matrix @ x, atol=1e-8
            )

    def test_exact_under_injected_failure_with_timeout(self):
        session, matrix = make_coded_session(timeout=TimeoutPolicy())
        x = RNG.normal(size=matrix.shape[1])
        session.fail_next({5})
        result = session.matvec("A", x)
        np.testing.assert_allclose(result, matrix @ x, atol=1e-8)
        assert session.metrics.round_arrays()["repaired"][0, 0]

    def test_failure_only_affects_next_round(self):
        session, matrix = make_coded_session(timeout=TimeoutPolicy())
        x = RNG.normal(size=matrix.shape[1])
        session.fail_next({5})
        session.matvec("A", x)
        session.matvec("A", x)
        assert not session.metrics.round_arrays()["repaired"][1, 0]

    def test_static_scheduler_wastes_s2c2_does_not(self):
        static_session, matrix = make_coded_session(
            scheduler=StaticCodedScheduler(coverage=4, num_chunks=60)
        )
        s2c2_session, _ = make_coded_session()
        x = RNG.normal(size=matrix.shape[1])
        for _ in range(4):
            static_session.matvec("A", x)
            s2c2_session.matvec("A", x)
        assert static_session.metrics.total_wasted_fraction()[0] > 0.1
        assert s2c2_session.metrics.total_wasted_fraction()[0] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_s2c2_faster_than_static(self):
        static_session, matrix = make_coded_session(
            scheduler=StaticCodedScheduler(coverage=4, num_chunks=60)
        )
        s2c2_session, _ = make_coded_session()
        x = RNG.normal(size=matrix.shape[1])
        for _ in range(5):
            static_session.matvec("A", x)
            s2c2_session.matvec("A", x)
        assert s2c2_session.metrics.total_time[0] < static_session.metrics.total_time[0]

    def test_bilinear_hessian_exact(self):
        n = 12
        speed_model = ControlledSpeeds(n, seed=2)
        session = CodedSession(
            speed_model=speed_model,
            predictor=OraclePredictor(speed_model=ControlledSpeeds(n, seed=2)),
            network=NET,
            cost=COST,
        )
        a = RNG.normal(size=(40, 9))
        session.register_bilinear(
            "H",
            a.T,
            a,
            PolynomialCode(n, 3, 3),
            GeneralS2C2Scheduler(coverage=9, num_chunks=3),
        )
        x = RNG.uniform(0.5, 1.5, size=40)
        result = session.bilinear("H", diag=x)
        np.testing.assert_allclose(result, a.T @ np.diag(x) @ a, atol=1e-7)

    def test_unknown_operator_raises(self):
        session, _ = make_coded_session()
        with pytest.raises(KeyError):
            session.matvec("B", np.ones(3))

    def test_duplicate_registration_rejected(self):
        session, matrix = make_coded_session()
        with pytest.raises(ValueError, match="already"):
            session.register_matvec(
                "A", matrix, MDSCode(6, 4),
                GeneralS2C2Scheduler(coverage=4, num_chunks=60),
            )

    def test_code_cluster_mismatch_rejected(self):
        session, _ = make_coded_session()
        with pytest.raises(ValueError, match="workers"):
            session.register_matvec(
                "B", np.ones((20, 3)), MDSCode(4, 2),
                GeneralS2C2Scheduler(coverage=2, num_chunks=10),
            )

    def test_last_value_predictor_converges_to_exactness(self):
        # Even without an oracle, results stay numerically exact (latency
        # may suffer, correctness must not).
        session, matrix = make_coded_session(oracle=False, timeout=TimeoutPolicy())
        x = RNG.normal(size=matrix.shape[1])
        for _ in range(5):
            np.testing.assert_allclose(
                session.matvec("A", x), matrix @ x, atol=1e-8
            )

    def test_fail_next_validates_index(self):
        session, _ = make_coded_session()
        with pytest.raises(IndexError):
            session.fail_next({99})

    def test_undecodable_registration_rejected(self):
        # Coverage 3 cannot feed a k=4 decoder: rejected at registration,
        # not in the first round's decode.
        session, matrix = make_coded_session()
        with pytest.raises(ValueError, match=r"k=4 .*coverage=3"):
            session.register_matvec(
                "B", matrix, MDSCode(6, 4),
                GeneralS2C2Scheduler(coverage=3, num_chunks=60),
            )
        with pytest.raises(ValueError, match=r"k=4 .*coverage=3"):
            session.register_bilinear(
                "H", matrix.T, matrix, PolynomialCode(6, 2, 2),
                GeneralS2C2Scheduler(coverage=3, num_chunks=3),
            )
        assert session.iteration == 0

    def test_over_coverage_still_decodes(self):
        session, matrix = make_coded_session()
        session.register_matvec(
            "B", matrix, MDSCode(6, 4),
            GeneralS2C2Scheduler(coverage=5, num_chunks=60),
        )
        x = RNG.normal(size=matrix.shape[1])
        np.testing.assert_allclose(session.matvec("B", x), matrix @ x, atol=1e-8)

    @pytest.mark.parametrize(
        "num_chunks, error", [(0, ValueError), (-3, ValueError), (2.5, TypeError)]
    )
    def test_num_chunks_checked(self, num_chunks, error):
        session, matrix = make_coded_session()
        with pytest.raises(error, match="num_chunks"):
            session.register_matvec(
                "B", matrix, MDSCode(6, 4),
                GeneralS2C2Scheduler(coverage=4, num_chunks=60),
                num_chunks=num_chunks,
            )

    def test_bad_operand_rejected_before_the_round(self):
        # The pending failure survives a rejected operand and hits the next
        # round, which is the first one played.
        session, matrix = make_coded_session(timeout=TimeoutPolicy())
        session.fail_next({5})
        with pytest.raises(ValueError, match=r"x must have shape \(8,\)"):
            session.matvec("A", np.ones(7))
        assert session.iteration == 0 and len(session.metrics) == 0
        x = RNG.normal(size=matrix.shape[1])
        np.testing.assert_allclose(session.matvec("A", x), matrix @ x, atol=1e-8)
        assert session.iteration == 1
        rounds = session.metrics.round_arrays()
        assert rounds["repaired"][0, 0]
        assert rounds["computed"][0, 0, 5] == 0

    def test_bad_diag_rejected_before_the_round(self):
        n = 6
        session = CodedSession(
            speed_model=ControlledSpeeds(n, seed=2),
            predictor=LastValuePredictor(n),
            network=NET,
            cost=COST,
        )
        a = RNG.normal(size=(12, 5))
        session.register_bilinear(
            "H", a.T, a, PolynomialCode(n, 2, 2),
            GeneralS2C2Scheduler(coverage=4, num_chunks=3),
        )
        with pytest.raises(ValueError, match=r"diag must have shape \(12,\)"):
            session.bilinear("H", diag=np.ones(5))
        assert session.iteration == 0
        diag = RNG.uniform(0.5, 1.5, size=12)
        np.testing.assert_allclose(
            session.bilinear("H", diag=diag), a.T @ np.diag(diag) @ a, atol=1e-8
        )

    @pytest.mark.parametrize("scheduler_cls", [StaticCodedScheduler, GeneralS2C2Scheduler])
    def test_oracle_may_share_the_speed_model(self, scheduler_cls):
        # One ControlledSpeeds read by the session and by its oracle runs
        # exactly as two separate instances of it.
        def run(shared):
            speed_model = ControlledSpeeds(6, num_stragglers=2, seed=7)
            oracle = speed_model if shared else ControlledSpeeds(
                6, num_stragglers=2, seed=7
            )
            session = CodedSession(
                speed_model=speed_model,
                predictor=OraclePredictor(speed_model=oracle),
                network=NET,
                cost=COST,
                timeout=TimeoutPolicy(),
            )
            session.register_matvec(
                "A", np.arange(240.0).reshape(60, 4) % 7, MDSCode(6, 4),
                scheduler_cls(coverage=4, num_chunks=15),
            )
            results = [session.matvec("A", np.arange(4.0) + i) for i in range(10)]
            return results, session.metrics

        (shared, shared_metrics), (apart, apart_metrics) = run(True), run(False)
        for got, want in zip(shared, apart):
            np.testing.assert_array_equal(got, want)
        assert shared_metrics.total_time[0] == apart_metrics.total_time[0]
        np.testing.assert_array_equal(
            shared_metrics.misprediction_rate(), apart_metrics.misprediction_rate()
        )


class TestReplicationSession:
    def make(self, n=12, stragglers=0):
        speed_model = ControlledSpeeds(n, num_stragglers=stragglers, seed=3)
        session = ReplicationSession(
            speed_model=speed_model,
            predictor=LastValuePredictor(n),
            network=NET,
            cost=COST,
        )
        matrix = RNG.normal(size=(120, 6))
        session.register_matvec("A", matrix)
        return session, matrix

    def test_matvec_exact(self):
        session, matrix = self.make()
        x = RNG.normal(size=6)
        np.testing.assert_allclose(session.matvec("A", x), matrix @ x, atol=1e-10)

    def test_too_few_rows_named(self):
        session = ReplicationSession(
            speed_model=ConstantSpeeds(np.ones(6)), predictor=LastValuePredictor(6)
        )
        with pytest.raises(
            ValueError, match="n_workers=6 blocks cannot exceed total_rows=5"
        ):
            session.register_matvec("A", np.ones((5, 3)))

    def test_straggler_increases_latency(self):
        fast, matrix = self.make()
        slow, _ = self.make(stragglers=3)
        x = RNG.normal(size=6)
        for _ in range(3):
            fast.matvec("A", x)
            slow.matvec("A", x)
        assert slow.metrics.total_time[0] > fast.metrics.total_time[0]


class TestOverDecompositionSession:
    def make(self, n=10):
        speed_model = ControlledSpeeds(n, seed=4)
        session = OverDecompositionSession(
            speed_model=speed_model,
            predictor=OraclePredictor(speed_model=ControlledSpeeds(n, seed=4)),
            network=NET,
            cost=COST,
        )
        matrix = RNG.normal(size=(200, 6))
        session.register_matvec("A", matrix)
        return session, matrix

    def test_matvec_exact(self):
        session, matrix = self.make()
        x = RNG.normal(size=6)
        np.testing.assert_allclose(session.matvec("A", x), matrix @ x, atol=1e-10)

    def test_metrics_recorded(self):
        session, matrix = self.make()
        x = RNG.normal(size=6)
        for _ in range(3):
            session.matvec("A", x)
        assert len(session.metrics) == 3
        assert session.metrics.total_time[0] > 0

    def test_more_copies_than_workers_rejected(self):
        session = OverDecompositionSession(
            speed_model=ConstantSpeeds(np.ones(2)),
            predictor=LastValuePredictor(2),
            replication=2.2,
        )
        with pytest.raises(ValueError, match=r"replication 2.2 .* n_workers 2"):
            session.register_matvec("A", np.ones((8, 3)))

    def test_bad_operand_rejected_before_the_round(self):
        session, matrix = self.make()
        with pytest.raises(ValueError, match=r"x must have shape \(6,\)"):
            session.matvec("A", np.ones(5))
        assert session.iteration == 0

    def test_too_few_rows_named(self):
        session = OverDecompositionSession(
            speed_model=ConstantSpeeds(np.ones(6)), predictor=LastValuePredictor(6)
        )
        with pytest.raises(
            ValueError,
            match="factor × n_workers=24 blocks cannot exceed total_rows=5",
        ):
            session.register_matvec("A", np.ones((5, 3)))
