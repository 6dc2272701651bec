"""Logistic regression with coded gradient descent on a straggling cluster.

Reproduces the paper's §7.1.1 workload at laptop scale: full-batch gradient
descent where both per-iteration matrix products (``A @ w`` and ``Aᵀ @ r``)
run on a simulated 12-worker cluster with injected stragglers.  The model
trained through the coded path is *numerically identical* to direct NumPy
training — coding changes latency, never results.

Run:  python examples/gradient_descent_lr.py
"""

import numpy as np

from repro.apps import LogisticRegressionGD, direct_operators, make_classification
from repro.cluster import ControlledSpeeds, CostModel, NetworkModel
from repro.coding import MDSCode
from repro.prediction import OraclePredictor
from repro.runtime import CodedSession
from repro.scheduling import GeneralS2C2Scheduler, StaticCodedScheduler, TimeoutPolicy

N_WORKERS, K = 12, 8
STRAGGLERS = 2
ITERATIONS = 25


def make_session(scheduler):
    speeds = ControlledSpeeds(
        N_WORKERS, num_stragglers=STRAGGLERS, slowdown=5.0, seed=7
    )
    oracle = OraclePredictor(
        speed_model=ControlledSpeeds(
            N_WORKERS, num_stragglers=STRAGGLERS, slowdown=5.0, seed=7
        )
    )
    return CodedSession(
        speed_model=speeds,
        predictor=oracle,
        network=NetworkModel(latency=1e-5, bandwidth=1e9),
        cost=CostModel(worker_flops=5e7),
        timeout=TimeoutPolicy(),
    )


def train_coded(features, labels, scheduler_factory):
    session = make_session(scheduler_factory())
    session.register_matvec("A", features, MDSCode(N_WORKERS, K), scheduler_factory())
    session.register_matvec("At", features.T, MDSCode(N_WORKERS, K), scheduler_factory())
    model = LogisticRegressionGD(
        forward=lambda w: session.matvec("A", w),
        backward=lambda r: session.matvec("At", r),
        labels=labels,
        lr=0.5,
    )
    model.run(ITERATIONS, n_features=features.shape[1])
    return model, session


def main() -> None:
    features, labels = make_classification(1500, 60, separation=3.0, seed=0)

    direct = LogisticRegressionGD(*direct_operators(features), labels, lr=0.5)
    direct.run(ITERATIONS, n_features=60)

    s2c2_model, s2c2_session = train_coded(
        features, labels,
        lambda: GeneralS2C2Scheduler(coverage=K, num_chunks=10_000),
    )
    mds_model, mds_session = train_coded(
        features, labels,
        lambda: StaticCodedScheduler(coverage=K, num_chunks=10_000),
    )

    drift = np.max(np.abs(s2c2_model.weights - direct.weights))
    if not drift < 1e-9:
        raise SystemExit(f"coded weights drifted from direct by {drift:.2e}")
    print(f"cluster: {N_WORKERS} workers, {STRAGGLERS} persistent 5x stragglers, "
          f"({N_WORKERS},{K})-MDS code")
    print(f"final training loss      : {s2c2_model.losses[-1]:.4f} "
          f"(direct: {direct.losses[-1]:.4f})")
    print(f"coded vs direct weights  : max |Δ| = {drift:.2e}")
    print(f"training accuracy        : {s2c2_model.accuracy(features, labels):.1%}")
    print()
    t_mds = mds_session.metrics.total_time[0]
    t_s2c2 = s2c2_session.metrics.total_time[0]
    print(f"conventional MDS latency : {t_mds * 1e3:8.1f} ms "
          f"({2 * ITERATIONS} coded mat-vecs)")
    print(f"S2C2 latency             : {t_s2c2 * 1e3:8.1f} ms")
    print(f"S2C2 reduction           : {100 * (1 - t_s2c2 / t_mds):.1f}% "
          f"(paper reports up to 39.3%)")


if __name__ == "__main__":
    main()
