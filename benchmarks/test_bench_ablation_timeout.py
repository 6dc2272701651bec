"""Ablation: timeout slack sweep for the §4.3 repair mechanism.

Paper §4.3: the timeout slack is 15% because the speed predictor's MAPE
is 16.7% (§6.1).  This bench sweeps the slack on a surprise-
straggler scenario and checks that (a) any reasonable slack beats not
repairing at all, and (b) the opportunistic master never loses from having
a timeout armed, even with an aggressively small slack.
"""

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.scheduling.s2c2 import GeneralS2C2Scheduler
from repro.scheduling.timeout import TimeoutPolicy

SLACKS = (0.05, 0.15, 0.30, 0.60, None)


def _completion_times() -> dict[str, float]:
    network = NetworkModel(latency=1e-6, bandwidth=1e12)
    cost = CostModel(worker_flops=1e6)
    predicted = np.ones(8)
    actual = predicted.copy()
    actual[7] = 0.05  # surprise straggler the plan did not anticipate
    plan = GeneralS2C2Scheduler(coverage=6, num_chunks=240).plan(predicted)
    out = {}
    for slack in SLACKS:
        sim = CodedIterationSim(
            grid=ChunkGrid(480, 240),
            width=20,
            network=network,
            cost=cost,
            timeout=None if slack is None else TimeoutPolicy(slack=slack),
        )
        label = "no-timeout" if slack is None else f"slack={slack:.2f}"
        out[label] = sim.run(plan, actual).completion_time
    return out


def test_ablation_timeout_slack(once):
    times = once(_completion_times)
    print()
    for label, t in times.items():
        print(f"  {label:12s} completion = {t * 1e3:.3f} ms")
    no_timeout = times["no-timeout"]
    # Every finite slack repairs the surprise straggler far faster than
    # waiting for it (the straggler alone would take ~20x longer).
    for label, t in times.items():
        if label != "no-timeout":
            assert t < 0.5 * no_timeout, label
    # The paper's 15% slack is within a few percent of the best in-sweep.
    best = min(t for label, t in times.items() if label != "no-timeout")
    assert times["slack=0.15"] < 1.25 * best
