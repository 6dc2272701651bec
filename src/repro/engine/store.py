"""Run-store layer: append-only, crash-safe persistence of sweep shards.

Replaces the one-file-per-cell JSON cache with a structure that can
describe *runs in flight*, not just finished cells:

```
<store root>/
  runs/<run_key>/manifest.json   # the run: spec identity, digests, shard plan
  runs/<run_key>/shards.jsonl    # append-only log, one record per finished shard
  runs/<run_key>/cells.jsonl     # append-only log, one reducer checkpoint per
                                 # cell completed by the engine (finalised fold
                                 # state — see repro.engine.reduce)
```

* **Per-run manifest** — written atomically when a run opens (``complete:
  false``) and rewritten when every shard is in (``complete: true``), so
  an interrupted sweep is recognisable and ``--resume`` can report
  progress.  The manifest carries the spec identity and the content
  digests the shard keys were computed under.  A manifest already
  complete is never rewritten, so a warm re-run that restores every
  cell writes nothing at all.
* **Append-only shard records** — every finished shard is appended to
  ``shards.jsonl`` *immediately* as one JSON line (a single ``write`` on
  an ``O_APPEND`` descriptor), so a killed process loses at most the
  in-flight shards.  Readers tolerate a torn final line (it is simply
  recomputed), which is the whole crash-safety story: no locks, no
  write-ahead protocol, just an idempotent log keyed by content.
* **Reducer checkpoints** — when the engine finishes folding a cell's
  shard stream it appends the cell's *reducer state* to ``cells.jsonl``
  (same single-write append discipline), so a later ``--resume`` restores
  completed cells directly from their checkpoint instead of replaying raw
  shard records; a torn or invalid checkpoint record is simply skipped
  and the cell falls back to shard replay, byte-identically.
* **Content-keyed lookup** — records are addressed by their shard key
  (cell identity + package/registry digests + params + seeds + scale — see
  :func:`repro.engine.runner.shard_key`), so the index is valid across
  runs: figures that share a cell (the cloud suite) deduplicate through
  the store, a sweep grown from 64 to 96 trials reuses its aligned
  shards, and *any* source or registry edit changes the keys and cleanly
  misses — the same correctness-over-incrementality contract the old cell
  cache had.

``--resume`` resolves the interrupted run's manifest by run key and picks
up exactly the missing shards; because shard records are content-keyed
and merge order is deterministic, a killed-then-resumed sweep is
**identical** to an uninterrupted one
(``tests/engine/test_determinism.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Collection, Iterator, Mapping

__all__ = [
    "RunStore",
    "RunHandle",
    "AppendWriter",
    "default_cache_dir",
]


def default_cache_dir() -> Path:
    """Store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Writer-private temp file + atomic rename (no partial JSON visible)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(handle, "w") as tmp_file:
        json.dump(payload, tmp_file)
    Path(tmp_name).replace(path)


def _read_json(path: Path) -> dict | None:
    try:
        with open(path) as handle:
            value = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return value if isinstance(value, dict) else None


class AppendWriter:
    """A reusable append point: one open ``O_APPEND`` descriptor.

    Opening, torn-tail checking, and closing a descriptor per record is
    four syscalls of overhead on every shard; a sweep appending hundreds
    of shard records through one writer pays them once.  Each ``append``
    is still a single ``os.write`` of one JSON line — the crash-safety
    story is unchanged: a killed process loses at most the in-flight
    record, and ``O_APPEND`` keeps concurrent writers (even through
    separate descriptors) from interleaving within a line on ordinary
    local filesystems.

    The descriptor is opened lazily on the first append, when any torn
    tail left by a previously killed writer (a partial line with no
    trailing newline) is sealed off with a leading newline — the torn
    line stays unreadable (and its record recomputed once), while
    everything after it parses normally.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fd: int | None = None

    def append(self, record: dict) -> None:
        """Append one record as a single ``O_APPEND`` write."""
        line = json.dumps(record) + "\n"
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            size = os.fstat(self._fd).st_size
            if size and os.pread(self._fd, 1, size - 1) != b"\n":
                line = "\n" + line
        os.write(self._fd, line.encode())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "AppendWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _iter_jsonl(path: Path, required: str) -> Iterator[dict]:
    """Well-formed records of one log, in append order (torn tail skipped)."""
    try:
        with open(path) as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a killed process
                if isinstance(record, dict) and required in record:
                    yield record
    except OSError:
        return


class RunHandle:
    """One open run: the append point for shard and checkpoint records."""

    def __init__(self, path: Path):
        self.path = path
        self.shards_path = path / "shards.jsonl"
        self.cells_path = path / "cells.jsonl"

    @property
    def run_key(self) -> str:
        return self.path.name

    def writer(self) -> AppendWriter:
        """A reusable :class:`AppendWriter` on the shard log."""
        return AppendWriter(self.shards_path)

    def cell_writer(self) -> AppendWriter:
        """A reusable :class:`AppendWriter` on the reducer-checkpoint log."""
        return AppendWriter(self.cells_path)

    def append(self, record: dict) -> None:
        """Append one shard record (open-write-close; see :meth:`writer`).

        A duplicate record (two processes computing the same shard) is
        harmless — lookups take the first occurrence and the payloads are
        equal by determinism.
        """
        with self.writer() as writer:
            writer.append(record)

    def iter_shard_records(self) -> Iterator[dict]:
        """Well-formed shard records, streamed in append order."""
        return _iter_jsonl(self.shards_path, required="key")

    def records(self) -> list[dict]:
        """Every well-formed shard record, in append order (torn tail skipped)."""
        return list(self.iter_shard_records())

    def cell_records(self) -> list[dict]:
        """Every well-formed reducer-checkpoint record, in append order.

        Each record carries the cell's grid-point ordinal (``index``), its
        reducer name and shard count, and the folded reducer ``state`` —
        everything the engine needs to validate and restore the cell
        without replaying its raw shard records.  Torn or non-checkpoint
        lines are skipped, exactly like the shard log: an invalid
        checkpoint merely demotes its cell to shard replay.
        """
        return list(_iter_jsonl(self.cells_path, required="state"))

    def manifest(self) -> dict | None:
        return _read_json(self.path / "manifest.json")

    def write_manifest(self, manifest: dict) -> None:
        _write_json_atomic(self.path / "manifest.json", manifest)

    def mark_complete(self) -> None:
        """Flip the manifest to ``complete: true`` (atomic rewrite).

        A manifest that already says so is left untouched.
        """
        manifest = self.manifest() or {}
        if manifest.get("complete"):
            return
        manifest["complete"] = True
        self.write_manifest(manifest)


class RunStore:
    """The on-disk store of sweep runs under one root directory.

    The root is created lazily on the first write; a missing or empty
    store simply has nothing to serve, while a root that exists as
    anything but a directory is rejected with ``ValueError`` up front
    rather than failing the first write.  ``RunStore(root)`` is cheap —
    scanning happens in :meth:`iter_matching`, once per engine run.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        if not self.root.is_dir() and self.root.exists():
            raise ValueError(
                f"run store root {self.root} exists and is not a directory"
            )
        self.runs_dir = self.root / "runs"

    def run_keys(self) -> list[str]:
        """Every stored run key, sorted (deterministic scan order)."""
        try:
            return sorted(p.name for p in self.runs_dir.iterdir() if p.is_dir())
        except OSError:
            return []

    def handle(self, run_key: str) -> RunHandle:
        return RunHandle(self.runs_dir / run_key)

    def manifest_of(self, run_key: str) -> dict | None:
        """The named run's manifest, or ``None`` if it never opened."""
        return self.handle(run_key).manifest()

    def open_run(self, run_key: str, manifest: dict) -> RunHandle:
        """Open (or re-open) a run directory, persisting its manifest.

        A fresh run writes ``manifest`` with ``complete: false``; an
        existing directory keeps its manifest — the run key already pins
        the identity, and re-opening is exactly the resume path.
        """
        handle = self.handle(run_key)
        handle.path.mkdir(parents=True, exist_ok=True)
        if handle.manifest() is None:
            handle.write_manifest({**manifest, "complete": False})
        return handle

    def iter_records(self) -> Iterator[dict]:
        """Every shard record of every run (deterministic run order)."""
        for run_key in self.run_keys():
            yield from self.handle(run_key).records()

    def _manifest_matches(self, run_key: str, match: Mapping[str, str]) -> bool:
        manifest = self.manifest_of(run_key) or {}
        return all(manifest.get(name) == value for name, value in match.items())

    def iter_matching(
        self,
        keys: Collection[str] | None = None,
        match: Mapping[str, str] | None = None,
    ) -> Iterator[tuple[str, Any]]:
        """Stream ``(shard_key, value)`` pairs of matching stored shards.

        ``keys`` restricts the stream to the shard keys a caller actually
        needs (everything else is parsed and dropped line by line instead
        of accumulating in memory); ``match`` skips whole runs whose
        manifest disagrees on any of the given fields — the engine passes
        its cell identity and content digests, so only runs that could
        possibly serve a current key have their logs read at all (shard
        keys hash the cell id and the digests, so the filter loses
        nothing, including the cross-figure dedup of specs sharing a cell
        function).  Duplicate keys are yielded as they occur — a
        streaming consumer folds the first and ignores the rest
        (duplicates are bitwise-equal by determinism); unlike the
        :meth:`shard_index` dict this never holds more than one record in
        memory, which is what lets the engine serve a million-trial resume
        in flat memory.
        """
        for run_key in self.run_keys():
            if match is not None and not self._manifest_matches(run_key, match):
                continue
            for record in self.handle(run_key).iter_shard_records():
                key = record["key"]
                if keys is not None and key not in keys:
                    continue
                yield key, record.get("value")

    def shard_index(
        self,
        keys: Collection[str] | None = None,
        match: Mapping[str, str] | None = None,
    ) -> dict[str, Any]:
        """Content-keyed lookup table: shard key → stored value.

        A materialised :meth:`iter_matching` (first occurrence of a key
        wins).  Memory grows with the number of matching shards — callers
        that fold values as they arrive should iterate instead.
        """
        index: dict[str, Any] = {}
        for key, value in self.iter_matching(keys=keys, match=match):
            index.setdefault(key, value)
        return index

    def shard_count(self) -> int:
        """Total stored shard records (the tests' cache-size probe)."""
        return sum(1 for _record in self.iter_records())

    def prune_stale(self, digests: Mapping[str, str]) -> int:
        """Delete runs whose manifest digests differ from ``digests``.

        Maintenance API (deliberately **not** invoked automatically): a
        run recorded under other digests cannot serve the *current* code,
        but registries legitimately toggle at runtime — user registrations
        come and go within one process, and their runs must hit again when
        the registry returns — so only the store owner knows when a run is
        truly dead.  Call with the current digests (see
        ``repro.engine.runner._content_digests``) to reclaim space after
        permanent source edits; the per-sweep scan already skips
        non-matching runs without reading their logs.  Runs with no
        readable manifest are left alone (conservative).  Returns the
        number of runs removed.
        """
        removed = 0
        for run_key in self.run_keys():
            manifest = self.manifest_of(run_key)
            if manifest is None:
                continue
            if all(name in manifest for name in digests) and not all(
                manifest.get(name) == value for name, value in digests.items()
            ):
                shutil.rmtree(self.runs_dir / run_key, ignore_errors=True)
                removed += 1
        return removed
