"""Ablation: chunk-granularity sweep for general S2C2 (Algorithm 1).

Paper §4.2: Algorithm 1 allocates whole chunks, so coarse grids
quantise the speed-proportional shares (up to ±1 chunk per worker) and the
most-overloaded worker sets the iteration time.  This bench sweeps the
over-decomposition factor and checks that finer granularity monotonically
(within noise) improves completion time, flattening once quantisation is
below the speed spread.
"""

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.s2c2 import GeneralS2C2Scheduler

ROWS = 960  # block rows per encoded partition
GRANULARITIES = (12, 30, 60, 240, 960)


def _sweep() -> dict[int, float]:
    network = NetworkModel(latency=1e-6, bandwidth=1e12)
    cost = CostModel(worker_flops=1e6)
    rng = np.random.default_rng(7)
    speeds = rng.uniform(0.4, 1.6, size=10)
    out = {}
    for chunks in GRANULARITIES:
        plan = GeneralS2C2Scheduler(coverage=7, num_chunks=chunks).plan(speeds)
        sim = CodedIterationSim(
            grid=ChunkGrid(ROWS, chunks), width=20, network=network, cost=cost
        )
        out[chunks] = sim.run(plan, speeds).completion_time
    return out


def test_ablation_chunk_granularity(once):
    times = once(_sweep)
    print()
    for chunks, t in times.items():
        print(f"  C={chunks:4d}  completion = {t * 1e3:.3f} ms")
    # Finest granularity is the best (or within 2% of it).
    finest = times[GRANULARITIES[-1]]
    assert finest <= min(times.values()) * 1.02
    # Coarse grids pay a visible quantisation penalty.
    assert times[GRANULARITIES[0]] > 1.05 * finest
    # The curve is monotone non-increasing within a small tolerance.
    values = [times[c] for c in GRANULARITIES]
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse * 1.05
