"""The full adaptive pipeline on a drifting cloud: LSTM + S2C2 + repair.

This example exercises everything the paper's §6 implementation section
describes, end to end:

1. generate cloud-like speed traces and train the 4-unit LSTM forecaster;
2. run SVM gradient descent on a trace-driven 10-worker cluster where the
   S2C2 master re-plans every iteration from the LSTM's forecasts;
3. inject a worker failure mid-run and watch the §4.3 timeout mechanism
   cancel and reassign its chunks;
4. report mis-prediction rate, repair count, wasted computation, and the
   speedup over conventional coded computation.

Run:  python examples/cloud_adaptive.py
"""

import numpy as np

from repro.apps import LinearSVMGD, make_classification
from repro.cluster import CostModel, NetworkModel, TraceSpeeds
from repro.coding import MDSCode
from repro.prediction import LSTMPredictor, LSTMSpeedModel, MEASURED, generate_speed_traces
from repro.runtime import CodedSession
from repro.scheduling import GeneralS2C2Scheduler, StaticCodedScheduler, TimeoutPolicy

N_WORKERS, K = 10, 7
ITERATIONS = 20


def build_session(scheduler, traces, lstm):
    predictor = LSTMPredictor(lstm, N_WORKERS)
    session = CodedSession(
        speed_model=TraceSpeeds(traces),
        predictor=predictor,
        network=NetworkModel(latency=1e-5, bandwidth=1e9),
        cost=CostModel(worker_flops=5e7),
        timeout=TimeoutPolicy(slack=0.15),
    )
    return session


def run_strategy(scheduler_factory, traces, lstm, features, labels, inject_failure):
    session = build_session(scheduler_factory(), traces, lstm)
    session.register_matvec(
        "A", features, MDSCode(N_WORKERS, K), scheduler_factory()
    )
    session.register_matvec(
        "At", features.T, MDSCode(N_WORKERS, K), scheduler_factory()
    )
    svm = LinearSVMGD(
        forward=lambda w: session.matvec("A", w),
        backward=lambda r: session.matvec("At", r),
        labels=labels,
        lr=0.3,
    )
    svm.weights = np.zeros(features.shape[1])
    for it in range(ITERATIONS):
        if inject_failure and it == ITERATIONS // 2:
            session.fail_next({N_WORKERS - 1})  # worker dies for one round
        svm.step()
    return svm, session


def main() -> None:
    print("training the 4-unit LSTM speed forecaster (from scratch, NumPy)...")
    train_traces = generate_speed_traces(30, 400, MEASURED, seed=100)
    lstm = LSTMSpeedModel(hidden=4, seed=0)
    lstm.fit(train_traces, epochs=300, window=40)
    held_out = lstm.evaluate_mape(generate_speed_traces(10, 200, MEASURED, seed=5))
    print(f"held-out one-step MAPE: {held_out:.1%} (paper: 16.7%)")
    if not held_out < 0.3:  # NaN fails too
        raise SystemExit(f"held-out LSTM MAPE {held_out}")

    traces = generate_speed_traces(N_WORKERS, 3 * ITERATIONS, MEASURED, seed=0)
    features, labels = make_classification(1200, 120, separation=3.0, seed=0)

    svm, s2c2 = run_strategy(
        lambda: GeneralS2C2Scheduler(coverage=K, num_chunks=10_000),
        traces, lstm, features, labels, inject_failure=True,
    )
    _, mds = run_strategy(
        lambda: StaticCodedScheduler(coverage=K, num_chunks=10_000),
        traces, lstm, features, labels, inject_failure=True,
    )

    print(f"\nSVM training accuracy     : {svm.accuracy(features, labels):.1%}")
    print(f"mis-prediction rate (15%) : {s2c2.metrics.misprediction_rate()[0]:.1%}")
    print(f"timeout repairs triggered : {s2c2.metrics.repair_count[0]} "
          f"(includes the injected worker failure)")
    waste = s2c2.metrics.total_wasted_fraction()[0]
    mds_waste = mds.metrics.total_wasted_fraction()[0]
    print(f"S2C2 wasted computation   : {waste:.1%}")
    print(f"MDS  wasted computation   : {mds_waste:.1%}")
    speedup = mds.metrics.total_time[0] / s2c2.metrics.total_time[0]
    print(f"S2C2 vs conventional MDS  : {speedup:.2f}x faster "
          f"({100 * (1 - 1 / speedup):.1f}% reduction; paper: 17-39%)")
    if not (speedup > 1.0 and waste < mds_waste):
        raise SystemExit(
            f"S2C2 does not beat MDS: {speedup:.2f}x, "
            f"waste {waste:.1%} vs {mds_waste:.1%}"
        )


if __name__ == "__main__":
    main()
