"""Quickstart: coded matrix-vector multiplication that shrugs off stragglers.

Demonstrates the two layers of the library:

1. the *coding* layer alone — encode a matrix with an (n, k)-MDS code and
   decode ``A @ x`` from any k workers' results, executed on real OS
   processes with an injected straggler (``LocalMDSExecutor``);
2. the *scheduling* layer — the same computation on the simulated cluster,
   comparing conventional coded computation against S2C2's slack squeeze.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cluster import (
    ControlledSpeeds,
    CostModel,
    LocalMDSExecutor,
    NetworkModel,
)
from repro.coding import MDSCode
from repro.prediction import OraclePredictor
from repro.runtime import CodedSession
from repro.scheduling import GeneralS2C2Scheduler, StaticCodedScheduler


def part1_real_processes() -> None:
    print("=" * 64)
    print("Part 1: any-k decoding on real worker processes")
    print("=" * 64)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(600, 40))
    x = rng.normal(size=40)

    code = MDSCode(n=6, k=4)  # tolerates any 2 stragglers
    encoded = code.encode(matrix)
    print(f"encoded {matrix.shape} into {code.n} partitions of "
          f"{encoded.block_rows} rows ({encoded.storage_fraction_per_node():.0%} "
          f"of the data per worker)")

    # Worker 5 sleeps 0.5 s — the master must not wait for it.
    executor = LocalMDSExecutor(encoded, straggler_delays={5: 0.5})
    result, report = executor.matvec(x)
    np.testing.assert_allclose(result, matrix @ x, atol=1e-8)
    print(f"decoded exact A@x from workers {sorted(report.used_workers)} "
          f"in {report.wall_time:.3f}s wall time")
    print(f"ignored (straggling/late) workers: {sorted(report.ignored_workers)}")


def part2_simulated_s2c2() -> None:
    print()
    print("=" * 64)
    print("Part 2: S2C2 vs conventional coded computation (simulated)")
    print("=" * 64)
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(1200, 100))
    x = rng.normal(size=100)
    network = NetworkModel(latency=1e-5, bandwidth=1e9)
    cost = CostModel(worker_flops=5e7)

    def make_session(scheduler):
        speeds = ControlledSpeeds(12, num_stragglers=1, slowdown=5.0, seed=3)
        session = CodedSession(
            speed_model=speeds,
            predictor=OraclePredictor(
                speed_model=ControlledSpeeds(12, num_stragglers=1, slowdown=5.0, seed=3)
            ),
            network=network,
            cost=cost,
        )
        session.register_matvec("A", matrix, MDSCode(12, 6), scheduler)
        return session

    static = make_session(StaticCodedScheduler(coverage=6, num_chunks=10_000))
    s2c2 = make_session(GeneralS2C2Scheduler(coverage=6, num_chunks=10_000))
    for _ in range(10):
        expected = matrix @ x
        np.testing.assert_allclose(static.matvec("A", x), expected, atol=1e-7)
        np.testing.assert_allclose(s2c2.matvec("A", x), expected, atol=1e-7)

    t_static = static.metrics.total_time[0]
    t_s2c2 = s2c2.metrics.total_time[0]
    print(f"conventional (12,6)-MDS : {t_static * 1e3:8.2f} ms "
          f"(waste {static.metrics.total_wasted_fraction()[0]:.0%})")
    print(f"S2C2 on the same code   : {t_s2c2 * 1e3:8.2f} ms "
          f"(waste {s2c2.metrics.total_wasted_fraction()[0]:.0%})")
    print(f"S2C2 speedup            : {t_static / t_s2c2:.2f}x "
          f"(bound n/k = {12 / 6:.2f}x with zero stragglers)")


if __name__ == "__main__":
    part1_real_processes()
    part2_simulated_s2c2()
