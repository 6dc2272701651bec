"""CI guard: no event-backend trial leaves the batched kernel.

``EventDrivenIterationSim.run_batch`` prices every transfer on the worker's
own link and resolves each trial — degraded links and armed §4.3 repairs
included — in ``CodedIterationSim``'s batched kernel.  The one-trial
``run`` view is patched to raise on both classes, then a matrix slice whose
repair-armed policies meet every link-degrading scenario runs on the event
backend: a sweep that quietly went trial by trial fails here.
"""

import pytest

from repro.cluster.events import EventDrivenIterationSim
from repro.cluster.simulator import CodedIterationSim
from repro.experiments.matrix import run_matrix


@pytest.fixture(autouse=True)
def scalar_runs_forbidden(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} trial left the kernel")

    for cls in (CodedIterationSim, EventDrivenIterationSim):
        monkeypatch.setattr(cls, "run", forbidden)


def test_network_scenarios_resolve_in_the_kernel():
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("timeout-repair", "s2c2-lastvalue"),
        scenarios=("netslow", "rackcongest", "linkbursty"),
        backend="event",
    )
    assert result.summary.rows
