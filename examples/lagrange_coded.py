"""Lagrange coded computing: straggler-proof *nonlinear* computation.

The paper's §2 points beyond linear codes to Lagrange coded computing
(Yu et al.), which tolerates stragglers for **any polynomial** function.
This example computes a degree-2 feature map ``f(X) = (X @ B) * (X @ C)``
over four datasets on ten workers, decoding from the fastest
``degree·(k-1)+1 = 7`` responses — and shows S2C2-style row-level partial
work on top (each worker computes only part of its encoded share, with
every row covered exactly 7 times).

Run:  python examples/lagrange_coded.py
"""

import numpy as np

from repro.coding import LagrangeCode
from repro.scheduling import GeneralS2C2Scheduler

K_DATASETS = 4
DEGREE = 2
N_WORKERS = 10
ROWS, COLS, OUT = 12, 6, 3


def main() -> None:
    rng = np.random.default_rng(0)
    datasets = rng.normal(size=(K_DATASETS, ROWS, COLS))
    b = rng.normal(size=(COLS, OUT))
    c = rng.normal(size=(COLS, OUT))
    f = lambda z: (z @ b) * (z @ c)  # row-wise, total degree 2

    code = LagrangeCode(n=N_WORKERS, k=K_DATASETS, degree=DEGREE)
    print(f"LCC: {K_DATASETS} datasets, degree-{DEGREE} f, {N_WORKERS} workers")
    print(f"recovery threshold: any {code.coverage} responses "
          f"(tolerates {code.max_stragglers} stragglers)")

    encoded = code.encode(datasets)

    # --- Full-share path: use the fastest `coverage` workers only. --------
    decoder = encoded.decoder(width=OUT)
    fastest = rng.choice(N_WORKERS, size=code.coverage, replace=False)
    rows = np.arange(encoded.rows)
    for worker in fastest:
        decoder.add(int(worker), rows, encoded.compute(int(worker), f))
    results = encoded.assemble(decoder.solve())
    worst = max(
        float(np.max(np.abs(results[j] - f(datasets[j]))))
        for j in range(K_DATASETS)
    )
    print(f"full-share decode from workers {sorted(int(w) for w in fastest)}: "
          f"max error {worst:.2e}")
    if not worst < 1e-8:
        raise SystemExit(f"full-share decode error {worst:.2e}")

    # --- S2C2 path: speed-proportional partial shares, coverage exact. ----
    speeds = rng.uniform(0.5, 2.0, size=N_WORKERS)
    plan = GeneralS2C2Scheduler(
        coverage=code.coverage, num_chunks=encoded.rows
    ).plan(speeds)
    decoder = encoded.decoder(width=OUT)
    for assignment in plan.assignments:
        chunk_rows = assignment.chunk_indices()  # 1 chunk == 1 row here
        if chunk_rows.size:
            decoder.add(
                assignment.worker,
                chunk_rows,
                encoded.compute(assignment.worker, f, row_indices=chunk_rows),
            )
    results = encoded.assemble(decoder.solve())
    worst = max(
        float(np.max(np.abs(results[j] - f(datasets[j]))))
        for j in range(K_DATASETS)
    )
    shares = plan.chunks_per_worker()
    print(f"S2C2 partial shares (rows per worker): {shares.tolist()}")
    print(f"total row-computations: {shares.sum()} "
          f"(exact-coverage minimum = {code.coverage} x {encoded.rows} rows)")
    print(f"S2C2 partial-share decode: max error {worst:.2e}")
    if not worst < 1e-8:
        raise SystemExit(f"partial-share decode error {worst:.2e}")


if __name__ == "__main__":
    main()
