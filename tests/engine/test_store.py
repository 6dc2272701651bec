"""Run-store layer: manifests, append-only records, crash tolerance."""

import json
import os
import random
import threading

import pytest

from repro.engine import RunStore


def _record(key, value):
    return {"key": key, "point": {"a": 1}, "lo": 0, "hi": 2, "value": value}


class TestRunLifecycle:
    def test_open_run_writes_incomplete_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        handle = store.open_run("abc123", {"sweep": "demo", "trials": 4})
        manifest = store.manifest_of("abc123")
        assert manifest["sweep"] == "demo"
        assert manifest["complete"] is False
        handle.mark_complete()
        assert store.manifest_of("abc123")["complete"] is True

    def test_reopen_keeps_existing_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        store.open_run("abc123", {"sweep": "demo"}).mark_complete()
        store.open_run("abc123", {"sweep": "other"})
        assert store.manifest_of("abc123")["sweep"] == "demo"
        assert store.manifest_of("abc123")["complete"] is True

    def test_missing_run_has_no_manifest(self, tmp_path):
        assert RunStore(tmp_path).manifest_of("nope") is None

    def test_root_that_is_a_file_rejected_naming_it(self, tmp_path):
        # Up front, not as a bare NotADirectoryError on the first write.
        root = tmp_path / "not-a-dir"
        root.write_text("")
        with pytest.raises(ValueError, match="not-a-dir.*not a directory"):
            RunStore(root)


class TestShardRecords:
    def test_append_and_read_back(self, tmp_path):
        handle = RunStore(tmp_path).open_run("r1", {})
        handle.append(_record("k1", [1.0, 2.0]))
        handle.append(_record("k2", {"total": [3.0]}))
        records = handle.records()
        assert [r["key"] for r in records] == ["k1", "k2"]
        assert records[1]["value"] == {"total": [3.0]}

    def test_torn_tail_is_skipped_and_sealed(self, tmp_path):
        handle = RunStore(tmp_path).open_run("r1", {})
        handle.append(_record("k1", [1.0]))
        with open(handle.shards_path, "a") as f:
            f.write('{"key": "k2", "value": [2.')  # killed mid-write
        assert [r["key"] for r in handle.records()] == ["k1"]
        # The next append seals the torn line (no trailing newline) with a
        # newline first, so new records never concatenate onto it: only
        # the torn shard itself is lost and recomputed once.
        handle.append(_record("k3", [3.0]))
        assert [r["key"] for r in handle.records()] == ["k1", "k3"]

    def test_checkpoint_log_round_trip(self, tmp_path):
        handle = RunStore(tmp_path).open_run("r1", {})
        first = {
            "kind": "cell",
            "index": 0,
            "point": {"policy": "mds"},
            "reducer": "stats",
            "shards": 3,
            "state": {"kind": "leaf", "state": {"count": 6}},
        }
        with handle.cell_writer() as writer:
            writer.append(first)
            writer.append({**first, "index": 1})
        records = handle.cell_records()
        assert [r["index"] for r in records] == [0, 1]
        assert records[0] == first
        # Checkpoints live in their own log: the shard log is untouched.
        assert handle.records() == []

    def test_torn_checkpoint_tail_is_skipped_and_sealed(self, tmp_path):
        handle = RunStore(tmp_path).open_run("r1", {})
        whole = {"kind": "cell", "index": 0, "state": {"n": 1}}
        with handle.cell_writer() as writer:
            writer.append(whole)
        with open(handle.cells_path, "a") as f:
            f.write('{"kind": "cell", "index": 1, "state": {"n"')  # killed
        assert handle.cell_records() == [whole]
        # The next writer seals the torn line; only that checkpoint is
        # lost (its cell falls back to raw shard replay, tested at the
        # engine layer in tests/engine/test_determinism.py).
        with handle.cell_writer() as writer:
            writer.append({**whole, "index": 2})
        assert [r["index"] for r in handle.cell_records()] == [0, 2]

    def test_index_spans_runs_first_occurrence_wins(self, tmp_path):
        store = RunStore(tmp_path)
        store.open_run("r1", {}).append(_record("shared", [1.0]))
        r2 = store.open_run("r2", {})
        r2.append(_record("shared", [1.0]))
        r2.append(_record("other", [2.0]))
        index = store.shard_index()
        assert set(index) == {"shared", "other"}
        assert store.shard_count() == 3

    def test_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "never-created")
        assert store.shard_index() == {}
        assert store.run_keys() == []
        assert store.shard_count() == 0

    def test_index_restricted_to_requested_keys(self, tmp_path):
        store = RunStore(tmp_path)
        handle = store.open_run("r1", {})
        handle.append(_record("wanted", [1.0]))
        handle.append(_record("unwanted", [2.0]))
        assert store.shard_index(keys={"wanted"}) == {"wanted": [1.0]}

    def test_index_skips_runs_with_mismatched_manifests(self, tmp_path):
        store = RunStore(tmp_path)
        store.open_run("old", {"source": "aaa"}).append(_record("k1", [1.0]))
        store.open_run("new", {"source": "bbb"}).append(_record("k2", [2.0]))
        index = store.shard_index(match={"source": "bbb"})
        assert set(index) == {"k2"}
        # Unfiltered scans still see everything (the tests' probe).
        assert set(store.shard_index()) == {"k1", "k2"}

    def test_prune_stale_removes_only_mismatched_runs(self, tmp_path):
        store = RunStore(tmp_path)
        store.open_run("old", {"source": "aaa", "version": "1"})
        store.open_run("cur", {"source": "bbb", "version": "1"})
        # Runs predating the digest fields are left alone (conservative).
        store.open_run("legacy", {})
        assert store.prune_stale({"source": "bbb", "version": "1"}) == 1
        assert store.run_keys() == ["cur", "legacy"]


class TestTornTailProperty:
    """Seeded property test: crash tolerance under random histories.

    Each case plays a random interleaving of appends and torn-tail
    truncations (a kill mid-write leaves a partial last line); after any
    such history the store must read back exactly the fully-written
    records, and re-appending the lost ones (what a resumed engine does
    when it recomputes the missing shards) must restore a byte-identical
    record stream for every subsequent reader.
    """

    @pytest.mark.parametrize("case", range(10))
    def test_random_truncate_append_interleavings(self, tmp_path, case):
        rng = random.Random(2_000 + case)
        handle = RunStore(tmp_path).open_run("r1", {})
        surviving: list[str] = []
        lost: list[str] = []
        counter = 0
        torn = False  # does the file currently end in a partial line?
        for _step in range(rng.randrange(5, 12)):
            if rng.random() < 0.45 and (surviving or torn):
                raw = open(handle.shards_path, "rb").read()
                size = len(raw)
                if torn:
                    # Shrink (or cleanly remove) the existing fragment:
                    # no further record is lost.
                    line_start = raw.rfind(b"\n") + 1
                    cut = rng.randrange(line_start, size)
                else:
                    # Cut back into the last record's line, as a SIGKILL
                    # mid-append would.  Cutting to exactly the line
                    # start is the clean-loss edge; anything longer
                    # leaves a torn fragment that must be skipped and
                    # sealed.  (size - 1 excludes the newline-only cut,
                    # which loses nothing.)
                    line_start = raw.rfind(b"\n", 0, size - 1) + 1
                    cut = rng.randrange(line_start, size - 1)
                    lost.append(surviving.pop())
                os.truncate(handle.shards_path, cut)
                torn = cut > line_start
            else:
                key = f"k{counter}"
                counter += 1
                handle.append(_record(key, [float(counter)]))
                surviving.append(key)
                torn = False  # append seals any fragment
        assert [r["key"] for r in handle.records()] == surviving

        # Resume: recompute and re-append exactly the lost shards.
        for key in lost:
            handle.append(_record(key, [0.0]))
        expected = surviving + lost
        assert [r["key"] for r in handle.records()] == expected
        # Every record parses back intact — no torn fragment ever
        # concatenated into a neighbour.
        for record in handle.records():
            assert set(record) == {"key", "point", "lo", "hi", "value"}
        # A fresh handle over the same directory reads the identical
        # stream (resume is byte-identical across process restarts).
        reopened = RunStore(tmp_path).open_run("r1", {})
        assert reopened.records() == handle.records()


class TestPruneUnderConcurrentReaders:
    """``prune_stale`` must never corrupt or crash concurrent readers.

    Pruning deletes whole run directories while other threads (or
    processes — the store has no locks) are mid-scan.  The contract:
    readers may observe a stale run before or after its deletion, never a
    broken state — no exception escapes, and records of *surviving* runs
    are always seen complete.
    """

    CURRENT = {"source": "bbb", "version": "1"}
    STALE = {"source": "aaa", "version": "1"}

    def _populate_stale(self, store, round_tag):
        for i in range(4):
            handle = store.open_run(f"stale-{round_tag}-{i}", self.STALE)
            for j in range(10):
                handle.append(_record(f"s{round_tag}.{i}.{j}", [float(j)]))

    def test_readers_survive_repeated_pruning(self, tmp_path):
        store = RunStore(tmp_path)
        keep = store.open_run("cur", self.CURRENT)
        cur_keys = {f"cur.{j}" for j in range(10)}
        for j in range(10):
            keep.append(_record(f"cur.{j}", [float(j)]))

        errors: list[Exception] = []
        snapshots: list[set] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    snapshots.append(set(store.shard_index()))
                    store.manifest_of("cur")
                    store.shard_count()
                    store.run_keys()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            removed = 0
            for round_tag in range(5):  # churn: recreate stale runs, prune
                self._populate_stale(store, round_tag)
                removed += store.prune_stale(self.CURRENT)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert not errors
        assert removed == 20
        assert store.run_keys() == ["cur"]
        assert snapshots  # the readers actually raced the pruner
        # The surviving run was complete in every observed snapshot.
        for snapshot in snapshots:
            assert cur_keys <= snapshot
        assert set(store.shard_index()) == cur_keys

    def test_open_handle_to_pruned_run_degrades_to_empty(self, tmp_path):
        store = RunStore(tmp_path)
        stale = store.open_run("old", self.STALE)
        stale.append(_record("k1", [1.0]))
        assert store.prune_stale(self.CURRENT) == 1
        # A reader still holding the handle sees a clean empty state, not
        # an exception — its shard simply gets recomputed.
        assert stale.records() == []
        assert stale.manifest() is None
        assert store.manifest_of("old") is None
        assert store.shard_index() == {}

    def test_prune_concurrent_with_appends_to_current_run(self, tmp_path):
        # An engine appending to the current run while maintenance prunes
        # stale ones: every append must land.
        store = RunStore(tmp_path)
        self._populate_stale(store, "x")
        keep = store.open_run("cur", self.CURRENT)

        def writer():
            for j in range(50):
                keep.append(_record(f"cur.{j}", [float(j)]))

        thread = threading.Thread(target=writer)
        thread.start()
        removed = store.prune_stale(self.CURRENT)
        thread.join()
        assert removed == 4
        assert len(keep.records()) == 50
        assert set(store.shard_index()) == {f"cur.{j}" for j in range(50)}


class TestOnDiskShape:
    def test_layout_is_manifest_plus_jsonl(self, tmp_path):
        handle = RunStore(tmp_path).open_run("deadbeef", {"sweep": "demo"})
        handle.append(_record("k", [0.5]))
        run_dir = tmp_path / "runs" / "deadbeef"
        # The checkpoint log is lazy: no cells.jsonl until a fold lands.
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json",
            "shards.jsonl",
        ]
        with handle.cell_writer() as writer:
            writer.append({"kind": "cell", "index": 0, "state": None})
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "cells.jsonl",
            "manifest.json",
            "shards.jsonl",
        ]
        # One record per line, plain JSON — greppable and append-only.
        lines = (run_dir / "shards.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "k"
        lines = (run_dir / "cells.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "cell"
