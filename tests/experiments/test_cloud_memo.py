"""Run-scoping of the cloud experiments' in-process memos.

The cloud cell and its trained LSTM used to live in module-level
``functools.lru_cache``\\ s: entries persisted for the life of the worker
process across unrelated sweep runs and pinned trained models in memory.
They are now explicit dicts cleared at every :class:`ExecutionEngine`
construction (a run boundary) via the run-scoped cache registry.
"""

import numpy as np

from repro.engine import SEED_STRIDE, ExecutionEngine, SweepContext
from repro.experiments import cloud_common


def _ctx(seed: int, trials: int = 1) -> SweepContext:
    return SweepContext(
        quick=True,
        base_seed=seed,
        seeds=tuple(seed + SEED_STRIDE * t for t in range(trials)),
    )


class TestCloudMemos:
    def test_memo_keyed_by_environment_and_context(self, monkeypatch):
        calls = []

        def fake_compute(environment, ctx):
            calls.append((environment, ctx.base_seed))
            return {"value": (environment, ctx.base_seed)}

        monkeypatch.setattr(cloud_common, "_compute_cloud_cell", fake_compute)
        cloud_common.clear_memos()
        first = cloud_common._cloud_cell_memo("low", _ctx(0))
        again = cloud_common._cloud_cell_memo("low", _ctx(0))
        other = cloud_common._cloud_cell_memo("low", _ctx(1))
        high = cloud_common._cloud_cell_memo("high", _ctx(0))
        assert again is first  # same key: served from the memo
        assert other == {"value": ("low", 1)}  # different context: recomputed
        assert high == {"value": ("high", 0)}
        assert calls == [("low", 0), ("low", 1), ("high", 0)]
        cloud_common.clear_memos()

    def test_new_runner_clears_memos(self):
        cloud_common._CELL_MEMO[("sentinel",)] = {"stale": True}
        cloud_common._LSTM_MEMO[("sentinel",)] = object()
        ExecutionEngine()
        assert not cloud_common._CELL_MEMO
        assert not cloud_common._LSTM_MEMO

    def test_back_to_back_sweeps_do_not_cross_contaminate(self, monkeypatch):
        # Two sweeps with different contexts, back to back in one process:
        # the second must compute from its own context, never be served the
        # first run's memoised cell.
        seen = []

        def fake_compute(environment, ctx):
            seen.append(ctx.base_seed)
            return {
                "total": {},
                "wasted": {},
                "misprediction": [float(ctx.base_seed)],
            }

        monkeypatch.setattr(cloud_common, "_compute_cloud_cell", fake_compute)
        first = cloud_common.run_environment("low", seed=0)
        second = cloud_common.run_environment("low", seed=42)
        assert first["misprediction"] == [0.0]
        assert second["misprediction"] == [42.0]
        assert seen == [0, 42]

    def test_train_lstm_memoises_within_a_run(self, monkeypatch):
        from repro.prediction.traces import STABLE

        cloud_common.clear_memos()
        trainings = []
        real_fit = cloud_common.LSTMSpeedModel.fit

        def counting_fit(self, *args, **kwargs):
            trainings.append(1)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(cloud_common.LSTMSpeedModel, "fit", counting_fit)
        monkeypatch.setattr(
            cloud_common,
            "generate_speed_traces",
            lambda n, length, config, seed: np.full((n, 40), 0.8),
        )
        a = cloud_common._train_lstm(STABLE, True, 0)
        b = cloud_common._train_lstm(STABLE, True, 0)
        assert a is b  # shared within the run
        assert len(trainings) == 1
        cloud_common.clear_memos()
        c = cloud_common._train_lstm(STABLE, True, 0)
        assert c is not a  # a cleared memo retrains
        assert len(trainings) == 2
        cloud_common.clear_memos()
