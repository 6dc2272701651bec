"""What a warm run pays: cached builder sources and a read-only restore.

* Each registry digest is rebuilt from the live registry on every call,
  from builder sources read once per run while every builder's source
  file keeps its ``(mtime, size)``; any registration, direct write,
  swapped registry or edited builder file re-keys ``registry_digest()``
  and every shard key, and undoing the change restores the old values.
* A warm re-run of a complete stored run whose every cell restores
  leaves the store untouched: no byte, mtime or inode changes and no new
  file appears.
"""

import dataclasses
import importlib.util
import inspect
import os

import pytest

from repro import _util
from repro.cluster import compose as cmp
from repro.cluster import scenarios as scn
from repro.cluster.speed_models import ConstantSpeeds
from repro.engine import (
    ExecutionEngine,
    RunStore,
    SweepSpec,
    compile_plan,
    shard_key,
)
from repro.scheduling import policies as pol


def _cell(params: dict, ctx) -> list[float]:
    return [float(params["a"] * 10 + i) for i in range(len(ctx.seeds))]


def _spec() -> SweepSpec:
    return SweepSpec(
        name="warm", cell=_cell, axes=(("a", (1, 2)),), trials=4, base_seed=3
    )


def _keys(module) -> tuple[str, str]:
    """The module's registry digest and a shard key, both recomputed."""
    spec = _spec()
    shard = compile_plan(spec).shards[0]
    return module.registry_digest(), shard_key(spec, shard)


def _spec_for(module, name: str, builder):
    if module is scn:
        return scn.ScenarioSpec(name, "ephemeral", "test", builder)
    return pol.PolicySpec(name, "ephemeral", "test", (), builder)


def _register(module, name: str, builder) -> None:
    if module is scn:
        scn.register_scenario(name, "ephemeral")(builder)
    else:
        pol.register_policy(name, "ephemeral")(builder)


def _count_getsource(monkeypatch) -> list:
    """Record every builder whose source is read (a source-cache miss)."""
    calls: list = []
    real = inspect.getsource
    monkeypatch.setattr(
        inspect, "getsource", lambda obj: calls.append(obj) or real(obj)
    )
    return calls


REGISTRIES = pytest.mark.parametrize(
    "module", [scn, pol], ids=["scenarios", "policies"]
)


class TestRegistryDigests:
    @REGISTRIES
    def test_registration_rekeys_then_restores(self, module):
        before = _keys(module)

        def builder(n_workers, seed=0, k=1):
            return ConstantSpeeds([1.0] * n_workers)

        _register(module, "zz-digest-test", builder)
        try:
            changed = _keys(module)
        finally:
            del module._REGISTRY["zz-digest-test"]
        assert changed[0] != before[0] and changed[1] != before[1]
        assert _keys(module) == before

    def test_registered_composition_rekeys_then_restores(self):
        before = _keys(scn)
        spec = cmp.overlay("rack", "bursty")
        try:
            changed = _keys(scn)
        finally:
            del scn._REGISTRY[spec.name]
        assert changed[0] != before[0] and changed[1] != before[1]
        assert _keys(scn) == before

    @REGISTRIES
    def test_swapped_registry_rekeys_then_restores(self, module):
        # Same names, order and builders; one entry's defaults differ.
        before = _keys(module)
        swapped = dict(module._REGISTRY)
        first = next(iter(swapped))
        defaults = swapped[first].defaults + (("zz", 1),)
        swapped[first] = dataclasses.replace(swapped[first], defaults=defaults)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_REGISTRY", swapped)
            changed = _keys(module)
        assert changed[0] != before[0] and changed[1] != before[1]
        assert _keys(module) == before

    @REGISTRIES
    def test_edited_builder_file_rekeys_then_restores(
        self, module, tmp_path, monkeypatch
    ):
        # A builder outside the package: only its file's stamps tell the
        # source cache that ``inspect.getsource`` would now read another
        # body.
        path = tmp_path / "zz_digest_builders.py"
        original = "def build(n_workers, seed=0, k=1):\n    return None\n"
        path.write_text(original)
        found = importlib.util.spec_from_file_location("zz_digest_b", path)
        builders = importlib.util.module_from_spec(found)
        found.loader.exec_module(builders)
        spec = _spec_for(module, "zz-digest-file", builders.build)
        monkeypatch.setitem(module._REGISTRY, "zz-digest-file", spec)
        before = _keys(module)

        def rewrite(text: str) -> None:
            mtime = path.stat().st_mtime_ns
            path.write_text(text)
            os.utime(path, ns=(mtime + 10**9, mtime + 10**9))

        rewrite("def build(n_workers, seed=0, k=1):\n    return 'edited'\n")
        changed = _keys(module)
        assert changed[0] != before[0] and changed[1] != before[1]
        rewrite(original)
        assert _keys(module) == before

    @REGISTRIES
    def test_cached_sources_give_a_fresh_digest(self, module, monkeypatch):
        cached = module.registry_digest()
        calls = _count_getsource(monkeypatch)
        assert module.registry_digest() == cached
        assert calls == []  # every source served from the cache
        # Without stamps nothing is cached: the digest as computed afresh.
        monkeypatch.setattr(_util, "_source_stamp", lambda builder: None)
        assert module.registry_digest() == cached
        assert calls

    @REGISTRIES
    def test_new_runner_drops_cached_sources(self, module, monkeypatch):
        module.registry_digest()
        calls = _count_getsource(monkeypatch)
        module.registry_digest()
        assert calls == []
        ExecutionEngine()
        module.registry_digest()
        assert calls

    @REGISTRIES
    def test_builder_without_source_file_is_read_every_call(
        self, module, monkeypatch
    ):
        # A builder compiled from a string has no file to stamp: its
        # source is looked up on every call, as without a cache.
        builder = eval("lambda n_workers, seed=0, k=1: None")
        spec = _spec_for(module, "zz-digest-eval", builder)
        monkeypatch.setitem(module._REGISTRY, "zz-digest-eval", spec)
        first = module.registry_digest()
        calls = _count_getsource(monkeypatch)
        assert module.registry_digest() == first
        assert calls == [builder]


def _run(root, spec: SweepSpec):
    return ExecutionEngine(store=RunStore(root), shard_size=2).run(spec)


def _store_state(root) -> dict:
    """Every path under ``root`` with each file's bytes, mtime and inode."""
    state = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            stat = path.stat()
            state[path] = (path.read_bytes(), stat.st_mtime_ns, stat.st_ino)
        else:
            state[path] = None
    return state


class TestReadOnlyRestore:
    def test_warm_restore_leaves_store_untouched(self, tmp_path):
        spec = _spec()
        first = _run(tmp_path, spec)
        cold = _store_state(tmp_path)
        second = _run(tmp_path, spec)
        assert second.values == first.values
        assert second.shard_hits == second.shards_total == 4
        assert not second.resumed
        assert _store_state(tmp_path) == cold

    def test_recomputing_a_complete_run_keeps_its_manifest(self, tmp_path):
        # Lost checkpoints and shard records force recomputation, which
        # appends records again, but the manifest already says complete.
        spec = _spec()
        first = _run(tmp_path, spec)
        (run_dir,) = (tmp_path / "runs").iterdir()
        for name in ("cells.jsonl", "shards.jsonl"):
            (run_dir / name).write_text("")
        manifest = _store_state(run_dir)[run_dir / "manifest.json"]
        second = _run(tmp_path, spec)
        assert second.values == first.values
        assert second.shard_hits == 0
        assert _store_state(run_dir)[run_dir / "manifest.json"] == manifest
        assert len(RunStore(tmp_path).handle(run_dir.name).records()) == 4

    def test_mark_complete_is_idempotent(self, tmp_path):
        handle = RunStore(tmp_path).open_run("r1", {"sweep": "demo"})
        handle.mark_complete()
        state = _store_state(tmp_path)
        handle.mark_complete()
        assert _store_state(tmp_path) == state
        assert handle.manifest()["complete"] is True
