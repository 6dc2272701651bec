"""Newton's method with a polynomial-coded distributed Hessian (§5, §7.2.3).

Beyond mat-vec: the Hessian of logistic regression, ``Aᵀ diag(s) A``, is a
*bilinear* computation.  Polynomial codes (Yu et al.) split ``Aᵀ`` into
``a`` row blocks and ``A`` into ``b`` column blocks, encode both once, and
decode the product from any ``a·b`` of ``n`` workers — and S2C2's row-level
slack squeeze applies on top unchanged (paper Fig 5).

Run:  python examples/hessian_polynomial.py
"""

import numpy as np

from repro.apps import NewtonLogisticRegression, make_classification
from repro.cluster import ControlledSpeeds, CostModel, NetworkModel
from repro.coding import PolynomialCode
from repro.prediction import OraclePredictor
from repro.runtime import CodedSession
from repro.scheduling import GeneralS2C2Scheduler

N_WORKERS = 12
SPLIT = 3  # a = b = 3 -> any 9 of 12 workers decode


def main() -> None:
    features, labels = make_classification(900, 40, separation=3.0, seed=0)
    session = CodedSession(
        speed_model=ControlledSpeeds(N_WORKERS, num_stragglers=2, slowdown=5.0, seed=2),
        predictor=OraclePredictor(
            speed_model=ControlledSpeeds(
                N_WORKERS, num_stragglers=2, slowdown=5.0, seed=2
            )
        ),
        network=NetworkModel(latency=1e-5, bandwidth=1e9),
        cost=CostModel(worker_flops=5e7),
    )
    session.register_bilinear(
        "H",
        features.T,
        features,
        PolynomialCode(N_WORKERS, SPLIT, SPLIT),
        GeneralS2C2Scheduler(coverage=SPLIT * SPLIT, num_chunks=10_000),
    )

    coded = NewtonLogisticRegression(
        features, labels, hessian_op=lambda d: session.bilinear("H", diag=d)
    )
    direct = NewtonLogisticRegression(
        features, labels, hessian_op=lambda d: features.T @ (d[:, None] * features)
    )
    print(f"cluster: {N_WORKERS} workers, 2 stragglers, polynomial code "
          f"a=b={SPLIT} (decode from any {SPLIT * SPLIT})")
    print(f"{'step':>4}  {'coded loss':>12}  {'direct loss':>12}")
    for step in range(5):
        print(f"{step:>4}  {coded.step():>12.6f}  {direct.step():>12.6f}")
    drift = np.max(np.abs(coded.weights - direct.weights))
    if not drift < 1e-9:
        raise SystemExit(f"coded weights drifted from direct by {drift:.2e}")
    print(f"\nmax |coded - direct| weights after 5 Newton steps: {drift:.2e}")
    print(f"simulated Hessian time: {session.metrics.total_time[0] * 1e3:.1f} ms "
          f"over {len(session.metrics)} coded bilinear rounds")


if __name__ == "__main__":
    main()
