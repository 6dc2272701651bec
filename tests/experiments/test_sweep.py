"""Sweeps on the engine: grid enumeration, deterministic seeding, store, pool.

The engine's own layers (plan compilation, executors, run store, resume)
are covered in ``tests/engine/``; this module pins the
``ExecutionEngine`` / ``EngineReport`` surface the experiment modules
build on.
"""

import json
import os

import numpy as np
import pytest

from repro.engine import (
    SEED_STRIDE,
    ExecutionEngine,
    RunStore,
    SweepContext,
    SweepSpec,
    compile_plan,
    default_cache_dir,
    register_run_scoped_cache,
    shard_key,
)


def _stored_shards(cache_dir) -> int:
    return RunStore(cache_dir).shard_count()


def _record_and_compute(params: dict, ctx: SweepContext):
    """Cell used across tests: per-trial pseudo-metric + invocation marker."""
    marker_dir = params.get("marker_dir")
    if marker_dir:
        path = os.path.join(
            marker_dir, f"{params['a']}-{params['b']}-{os.getpid()}-{id(ctx)}"
        )
        with open(path, "a") as handle:
            handle.write("x")
    return [
        float(np.random.default_rng(seed).normal() + params["a"] * 10 + params["b"])
        for seed in ctx.seeds
    ]


def _spec(trials=2, base_seed=7, marker_dir=None, axes=None):
    axes = axes or (
        ("a", (1, 2)),
        ("b", (3, 4, 5)),
    )
    if marker_dir:
        axes = axes + (("marker_dir", (marker_dir,)),)
    return SweepSpec(
        name="demo",
        cell=_record_and_compute,
        axes=axes,
        trials=trials,
        base_seed=base_seed,
    )


class TestSweepSpec:
    def test_points_cartesian_product(self):
        points = _spec().points()
        assert len(points) == 6
        assert points[0] == {"a": 1, "b": 3}
        assert points[-1] == {"a": 2, "b": 5}

    def test_context_seeds_deterministic(self):
        ctx = _spec(trials=3, base_seed=11).context()
        assert ctx.seeds == (11, 11 + SEED_STRIDE, 11 + 2 * SEED_STRIDE)
        assert ctx.trials == 3

    def test_trial_zero_seed_is_base_seed(self):
        # The pairing property: trial 0 of any sweep reproduces the
        # single-trial seeding of the original experiment modules.
        assert _spec(trials=5, base_seed=42).context().seeds[0] == 42

    def test_axes_mapping_accepted(self):
        spec = SweepSpec(
            name="m", cell=_record_and_compute, axes={"a": (1,), "b": (2, 3)}
        )
        assert spec.axis_names == ("a", "b")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(name="bad", cell=_record_and_compute, axes=(("a", ()),))

    def test_negative_base_seed_rejected(self):
        # Trial 0's seed is base_seed, which NumPy would reject mid-run.
        with pytest.raises(ValueError, match="base_seed"):
            _spec(base_seed=-1)


class TestDeterminism:
    def test_same_spec_identical_results(self):
        runner = ExecutionEngine(jobs=1)
        first = runner.run(_spec())
        second = runner.run(_spec())
        assert first.values == second.values

    def test_trial_prefix_stable_as_trials_grow(self):
        runner = ExecutionEngine(jobs=1)
        small = runner.run(_spec(trials=1))
        large = runner.run(_spec(trials=4))
        for params in small.spec.points():
            assert large.get(**params)[:1] == small.get(**params)

    def test_get_unknown_point(self):
        result = ExecutionEngine(jobs=1).run(_spec())
        with pytest.raises(KeyError, match="no cell"):
            result.get(a=9, b=9)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        cache = tmp_path / "cache"
        runner = ExecutionEngine(jobs=1, store=RunStore(cache))
        spec = _spec(marker_dir=str(markers))
        first = runner.run(spec)
        assert first.shard_hits == 0
        n_invocations = len(list(markers.iterdir()))
        assert n_invocations == 6
        second = runner.run(spec)
        assert second.shard_hits == 6
        assert len(list(markers.iterdir())) == n_invocations  # no re-runs
        assert second.values == first.values

    def test_incremental_new_cells_only(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        runner = ExecutionEngine(jobs=1, store=RunStore(tmp_path / "cache"))
        runner.run(_spec(marker_dir=str(markers)))
        before = len(list(markers.iterdir()))
        grown = _spec(
            marker_dir=str(markers),
            axes=(("a", (1, 2, 3)), ("b", (3, 4, 5))),
        )
        result = runner.run(grown)
        assert result.shard_hits == 6  # the old grid
        assert len(list(markers.iterdir())) == before + 3  # only a=3 cells ran

    def test_key_varies_with_seeds_and_quick(self):
        spec = _spec()
        shard = compile_plan(spec).shards[0]
        base = shard_key(spec, shard)
        other_seed = compile_plan(_spec(base_seed=8)).shards[0]
        assert shard_key(spec, other_seed) != base
        full_scale = compile_plan(
            SweepSpec(
                name="demo",
                cell=_record_and_compute,
                axes=spec.axes,
                trials=spec.trials,
                base_seed=spec.base_seed,
                quick=False,
            )
        ).shards[0]
        assert shard_key(spec, full_scale) != base
        other_point = compile_plan(spec).shards[1]
        assert shard_key(spec, other_point) != base

    def test_key_varies_with_scenario_registry(self):
        # A cell resolving a scenario by name must not hit a stored shard
        # computed under a different registry — registering (or editing) a
        # scenario invalidates previously stored shards.
        from repro.cluster import scenarios as scn
        from repro.cluster.speed_models import ConstantSpeeds

        spec = _spec()
        shard = compile_plan(spec).shards[0]
        base = shard_key(spec, shard)
        assert shard_key(spec, shard) == base
        extra = scn.ScenarioSpec(
            name="zz-cache-test",
            summary="ephemeral",
            models="test",
            builder=lambda n_workers, seed: ConstantSpeeds(np.ones(n_workers)),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(scn._REGISTRY, "zz-cache-test", extra)
            assert shard_key(spec, shard) != base
        assert shard_key(spec, shard) == base

    def test_corrupt_store_records_recomputed(self, tmp_path):
        runner = ExecutionEngine(jobs=1, store=RunStore(tmp_path))
        spec = _spec()
        runner.run(spec)
        # Wiping both the raw shard records and the reducer checkpoints
        # leaves the store nothing to serve from.
        for name in ("shards.jsonl", "cells.jsonl"):
            for path in tmp_path.glob(f"runs/*/{name}"):
                path.write_text("{not json\n")
        result = runner.run(spec)
        assert result.shard_hits == 0
        # The torn lines stay (append-only log) but every shard is stored
        # again as a well-formed record behind them.
        assert _stored_shards(tmp_path) == 6
        for path in tmp_path.glob("runs/*/shards.jsonl"):
            lines = path.read_text().splitlines()
            assert lines[0] == "{not json"
            for line in lines[1:]:
                json.loads(line)

    def test_checkpoints_survive_corrupt_shard_records(self, tmp_path):
        # The converse: with per-cell reducer checkpoints intact, losing
        # every raw shard record costs nothing — completed cells restore
        # from their checkpoints and nothing is recomputed.
        markers = tmp_path / "markers"
        markers.mkdir()
        runner = ExecutionEngine(jobs=1, store=RunStore(tmp_path / "cache"))
        spec = _spec(marker_dir=str(markers))
        first = runner.run(spec)
        n_invocations = len(list(markers.iterdir()))
        for path in (tmp_path / "cache").glob("runs/*/shards.jsonl"):
            path.write_text("{not json\n")
        second = runner.run(spec)
        assert second.values == first.values
        assert second.shard_hits == 6  # served from cells.jsonl checkpoints
        assert len(list(markers.iterdir())) == n_invocations  # no re-runs

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestParallel:
    def test_pool_matches_inline(self, tmp_path):
        spec = _spec(trials=2)
        inline = ExecutionEngine(jobs=1).run(spec)
        pooled = ExecutionEngine(jobs=2).run(spec)
        assert pooled.values == inline.values

    def test_pool_populates_store(self, tmp_path):
        runner = ExecutionEngine(jobs=2, store=RunStore(tmp_path))
        runner.run(_spec())
        assert _stored_shards(tmp_path) == 6
        assert runner.run(_spec()).shard_hits == 6

    def test_thread_executor_matches_inline(self):
        spec = _spec(trials=2)
        inline = ExecutionEngine(jobs=1).run(spec)
        threaded = ExecutionEngine(jobs=2, executor="thread").run(spec)
        assert threaded.values == inline.values


class TestRunScopedCaches:
    def test_new_runner_clears_registered_memos(self):
        from repro.engine import runner as engine_runner

        memo = {"stale": "entry"}
        clear = memo.clear
        try:
            assert register_run_scoped_cache(clear) is clear  # decorator style
            ExecutionEngine()
            assert memo == {}
            memo["fresh"] = "entry"
            ExecutionEngine(jobs=2)
            assert memo == {}
        finally:
            engine_runner._RUN_SCOPED_CACHE_CLEARERS.remove(clear)

    @pytest.mark.parametrize(
        "module, memo",
        [
            ("repro.scheduling.policies", "_MODEL_MEMO"),
            ("repro.scheduling.adaptive", "_COMMIT_MEMO"),
            ("repro.experiments.cloud_common", "_CELL_MEMO"),
        ],
    )
    def test_module_memos_are_run_scoped_from_import(self, module, memo):
        # Registered when the module is imported, so a memo filled by any
        # path (not only the one that used to hook it lazily) is dropped.
        import importlib

        entries = getattr(importlib.import_module(module), memo)
        entries[("sentinel",)] = object()
        ExecutionEngine()
        assert not entries
