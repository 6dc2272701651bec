"""The execution engine: plan → store lookup → executor → streaming fold.

:class:`ExecutionEngine` is the single execution core under every
experiment surface.  One ``run(spec)`` call:

1. **compiles** the spec into shard work units
   (:func:`repro.engine.plan.compile_plan`), each cell tagged with its
   :mod:`reducer <repro.engine.reduce>`;
2. **keys** every shard by content (:func:`shard_key`: cell identity, the
   source bytes of the whole ``repro`` package, the straggler-scenario and
   mitigation-policy registry digests, the grid point, the shard's seeds,
   the scale flag, and the package version — any source or registry edit
   invalidates stored results rather than silently serving numbers
   computed by old code).  The package digest is computed once per
   process; the registry digests are rebuilt from the live registries on
   every run, reading each builder's source once per run;
3. **restores** cells whose reducer checkpoint is already persisted in
   the run's ``cells.jsonl`` log, **streams** stored shard records into
   the remaining cells' folds, and schedules the rest on the selected
   :mod:`executor backend <repro.engine.executors>` — one cell call per
   shard, or per group of shards for a cell that stacks an axis
   (:func:`repro.engine.plan.stacks_on`); at ``jobs=1`` one call also
   spans adjacent pending trial slices, up to
   :data:`~repro.engine.plan.MAX_UNIT_ROWS` rows — cutting each call's
   value back into per-shard values and appending each shard to the
   run's log as its call completes.  A complete stored
   run whose every cell restores is only read: its manifest is not
   rewritten;
4. **folds** shard values into cell values *as the executor yields them*
   — each shard payload is converted to its reducer state on arrival and
   discarded, so peak memory tracks the shard, not the sweep.  States
   merge strictly in trial order (out-of-order arrivals are buffered as
   states, never as raw payloads), which keeps the ``concat`` reducer
   bitwise-equal to a monolithic evaluation by the work-plan layer's
   contract and makes every reducer run-to-run deterministic.  When a
   cell's fold completes, its reducer state is checkpointed to the run
   log — the record a later ``--resume`` folds from instead of replaying
   the cell's raw shard records — and the run is marked complete once
   every cell finalises.

Run-scoped memos
----------------
Cell modules may memoise expensive shared work (trained models, shared
sweep cells) in process memory.  Clearers registered through
:func:`register_run_scoped_cache` are invoked whenever an engine is
constructed — the start of a fresh run — so those memos are scoped to a
run instead of to the process: long-lived workers neither pin stale
models in memory nor serve one run's entries to an unrelated later run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable

from repro import __version__
from repro._util import check_positive_int
from repro.engine.executors import (
    DEFAULT_EXECUTOR,
    SerialExecutor,
    available_executors,
    make_executor,
)
from repro.engine.plan import (
    MAX_UNIT_ROWS,
    Shard,
    SweepSpec,
    WorkPlan,
    compile_plan,
    jsonable,
    split_shard_value,
)
from repro.engine.reduce import Reducer, get_reducer
from repro.engine.store import RunStore

__all__ = [
    "ExecutionEngine",
    "EngineReport",
    "NothingToResumeError",
    "shard_key",
    "run_key",
    "package_source_digest",
    "register_run_scoped_cache",
    "clear_run_scoped_caches",
]


#: Clearers of in-process memos that must not outlive a sweep run — see
#: :func:`register_run_scoped_cache`.
_RUN_SCOPED_CACHE_CLEARERS: list[Callable[[], None]] = []


def register_run_scoped_cache(clearer: Callable[[], None]):
    """Register ``clearer()`` to drop an in-process memo at run boundaries.

    Usable as a decorator (returns ``clearer`` unchanged); see the module
    docstring for the lifecycle.
    """
    _RUN_SCOPED_CACHE_CLEARERS.append(clearer)
    return clearer


def clear_run_scoped_caches() -> None:
    """Drop every registered run-scoped memo (see above)."""
    for clearer in _RUN_SCOPED_CACHE_CLEARERS:
        clearer()


class NothingToResumeError(RuntimeError):
    """``resume=True`` found no stored run for the spec (the CLI exits 2)."""


@functools.lru_cache(maxsize=1)
def package_source_digest() -> str:
    """Hash of every ``repro`` source file (the cache invalidation unit).

    A cell's value depends on the simulators, schedulers, and predictors
    it calls into, so shard keys must cover the whole package: editing
    *any* library module invalidates stored results rather than silently
    serving numbers computed by the old code.
    """
    package_root = Path(sys.modules["repro"].__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _content_digests() -> dict[str, str]:
    """Every content digest a shard key folds in.

    The registry digests are imported lazily and rebuilt from the live
    registries on every call (not lru-cached like the package digest):
    both registries can gain or swap entries at runtime, and a cell
    resolving a scenario or policy by name must never hit a stored shard
    computed under a different registry.  Only each builder's source is
    cached for the run (:func:`repro._util.builder_source`).
    """
    from repro.cluster.scenarios import registry_digest
    from repro.scheduling.policies import (
        registry_digest as policy_registry_digest,
    )

    return {
        "source": package_source_digest(),
        "scenarios": registry_digest(),
        "policies": policy_registry_digest(),
        "version": __version__,
    }


def _digest_of(identity: dict) -> str:
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cell_id(spec: SweepSpec) -> str:
    return f"{spec.cell.__module__}.{spec.cell.__qualname__}"


def shard_key(
    spec: SweepSpec, shard: Shard, digests: dict[str, str] | None = None
) -> str:
    """Content hash addressing one shard's stored value.

    Uses the same identity fields for a whole-cell shard as the retired
    per-cell cache used for a cell, so the invalidation semantics carry
    over unchanged — plus the shard's own seed slice.  ``digests`` lets a
    caller hashing many shards compute :func:`_content_digests` once.
    """
    identity = {
        "cell": _cell_id(spec),
        **(digests if digests is not None else _content_digests()),
        "params": jsonable(shard.params),
        "seeds": list(shard.ctx.seeds),
        "quick": shard.ctx.quick,
    }
    return _digest_of(identity)


def run_key(
    spec: SweepSpec, plan: WorkPlan, digests: dict[str, str] | None = None
) -> str:
    """Content hash identifying one run (spec × digests × shard plan).

    The reducer participates: a run's ``cells.jsonl`` checkpoints are
    reducer *states*, meaningless under another reducer, so runs that
    differ only in reducer must not share a directory.  Raw shard records
    stay reducer-independent (:func:`shard_key` does not fold it in), so
    a ``concat`` run still warms a ``stats`` run shard-by-shard.
    """
    identity = {
        "kind": "run",
        "cell": _cell_id(spec),
        **(digests if digests is not None else _content_digests()),
        "axes": jsonable(spec.axes),
        "trials": spec.trials,
        "base_seed": spec.base_seed,
        "quick": spec.quick,
        "shard_size": plan.shard_size,
        "reducer": plan.reducer,
    }
    return _digest_of(identity)


def _run_cell(cell, points: list[dict], ctx, sizes: list[int]) -> list[list]:
    """Executor entry point (module-level so it pickles): one cell call.

    ``points`` are the grid points of one unit of :func:`_cell_units` and
    ``sizes`` the trial counts of its adjacent shards, whose seeds ``ctx``
    spans.  The result holds, per point, one JSON-ready value per shard,
    cut from the call's value by :func:`split_shard_value`.  A stacked
    cell evaluates all of its points in one call.
    """
    stack = getattr(cell, "stack", None)
    if stack is None:
        (params,) = points
        out = [cell(params, ctx)]
    else:
        axis, stacked = stack
        rest = {name: v for name, v in points[0].items() if name != axis}
        out = stacked(rest, tuple(params[axis] for params in points), ctx)
        if len(out) != len(points):
            raise ValueError(
                f"stacked cell returned {len(out)} values for "
                f"{len(points)} {axis} values"
            )
    label = f"{cell.__module__}.{cell.__qualname__}"
    return [
        split_shard_value(jsonable(value), sizes, cell=f"{label}{params}")
        for params, value in zip(points, out)
    ]


def _cell_units(
    spec: SweepSpec, shards, pending: list[int], join: bool
) -> list[list[list[int]]]:
    """Group the pending shards into cell calls.

    A unit is a list of *stacks* over adjacent trial slices; a stack holds
    the pending shards of one trial slice that differ only along the
    cell's stacked axis (:func:`repro.engine.plan.stacks_on`), in point
    order, and a plain cell's stacks hold one shard each.  With ``join``,
    adjacent stacks of the same points join while the unit stays within
    :data:`~repro.engine.plan.MAX_UNIT_ROWS` rows (points × trials), so
    stored shards and other gaps split a unit; without it each stack is
    its own call.  Units keep plan order, by their first shard.
    """
    stack = getattr(spec.cell, "stack", None)
    others = [n for n in spec.axis_names if stack is None or n != stack[0]]
    stacks: dict[tuple, list[int]] = {}
    for i in pending:
        shard = shards[i]
        key = (tuple(shard.params[name] for name in others), shard.lo, shard.hi)
        stacks.setdefault(key, []).append(i)
    units: list[list[list[int]]] = []
    unit_rows = 0
    for group in stacks.values():
        rows = len(group) * shards[group[0]].trials
        prev = units[-1][-1] if units else None
        if (
            join
            and prev is not None
            and unit_rows + rows <= MAX_UNIT_ROWS
            and shards[prev[0]].hi == shards[group[0]].lo
            and [shards[i].point_key for i in prev]
            == [shards[i].point_key for i in group]
        ):
            units[-1].append(group)
            unit_rows += rows
        else:
            units.append([group])
            unit_rows = rows
    return units


class _TaskSequence:
    """Lazy task arguments for the executor: sized, built on demand.

    Materialising every pending unit's argument tuple up front would pin
    all their seed slices at once — O(trials) memory before a single cell
    runs.  This sequence knows its length (so pools size themselves) but
    builds each ``(cell, points, ctx, sizes)`` tuple only when the
    executor actually reaches it; with the executors' windowed
    submission, at most a pool's in-flight window of contexts exists at
    any moment.  A unit's context spans its stacks' trial slices.
    """

    def __init__(
        self, spec: SweepSpec, shards: tuple[Shard, ...], units: list
    ):
        self._spec = spec
        self._shards = shards
        self._units = units

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self):
        shards = self._shards
        for unit in self._units:
            points = [shards[i].params for i in unit[0]]
            sizes = [shards[group[0]].trials for group in unit]
            ctx = self._spec.shard_context(
                shards[unit[0][0]].lo, shards[unit[-1][0]].hi
            )
            yield (self._spec.cell, points, ctx, sizes)


class _PointFold:
    """The ordered streaming fold of one grid point's shard stream.

    Shard values arrive in any order (pool executors, store scans); each
    is converted to its reducer state the moment it is offered — the raw
    payload is never retained — and states merge strictly in trial order:
    a contiguous folded prefix (``acc``) plus a buffer of out-of-order
    *states* (``pending``).  The buffer holds at most the executor's
    reordering window; for streaming reducers each entry is constant
    size, and for ``concat`` the state holds the payload by design (the
    compatibility trade-off).
    """

    __slots__ = (
        "reducer",
        "key",
        "params",
        "shards",
        "ordinal",
        "cell",
        "acc",
        "next_pos",
        "pending",
    )

    def __init__(
        self,
        reducer: Reducer,
        key: tuple,
        params: dict,
        shards: list[Shard],
        ordinal: int,
        cell: str,
    ):
        self.reducer = reducer
        self.key = key
        self.params = params
        self.shards = shards
        self.ordinal = ordinal
        self.cell = cell
        self.acc: Any = None
        self.next_pos = 0
        self.pending: dict[int, Any] = {}

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def complete(self) -> bool:
        return self.next_pos == self.n_shards

    def has(self, pos: int) -> bool:
        """Whether shard ``pos`` of this point is already folded or buffered."""
        return pos < self.next_pos or pos in self.pending

    def offer(self, pos: int, value: Any) -> bool:
        """Fold one shard's raw value in; ``False`` if it was a duplicate."""
        if self.has(pos):
            return False
        shard = self.shards[pos]
        state = self.reducer.update(
            self.reducer.init(), value, shard.lo, shard.trials, cell=self.cell
        )
        self.pending[pos] = state
        while self.next_pos in self.pending:
            head = self.pending.pop(self.next_pos)
            self.acc = (
                head
                if self.next_pos == 0
                else self.reducer.merge(self.acc, head, cell=self.cell)
            )
            self.next_pos += 1
        return True

    def restore(self, state: Any) -> None:
        """Adopt a persisted checkpoint state: the whole point is folded."""
        self.acc = state
        self.next_pos = self.n_shards
        self.pending.clear()

    def checkpoint_record(self) -> dict:
        """The ``cells.jsonl`` record persisting this completed fold."""
        return {
            "kind": "cell",
            "index": self.ordinal,
            "point": jsonable(self.params),
            "reducer": self.reducer.name,
            "shards": self.n_shards,
            "state": self.acc,
        }

    def finalize(self) -> Any:
        return self.reducer.finalize(self.acc, cell=self.cell)


@dataclass
class EngineReport:
    """What one engine run produced, plus its scheduling accounting."""

    spec: SweepSpec
    values: dict[tuple, Any]  #: finalised cell values by grid-point key
    shard_hits: int  #: shards served from the run store (or checkpoints)
    shards_total: int
    run_key: str | None = None  #: ``None`` when no store was attached
    resumed: bool = False  #: an incomplete stored run was picked up
    reducer: str = "concat"  #: how shard values were folded
    #: Cell invocations that computed the executed shards: one per shard
    #: or stacked group, and at ``jobs=1`` one per run of adjacent
    #: pending slices up to ``MAX_UNIT_ROWS`` rows (see :func:`_cell_units`).
    cell_calls: int = 0

    def get(self, **params) -> Any:
        """Value of the cell at the given grid point."""
        try:
            return self.values[self.spec.key_of(params)]
        except KeyError:
            raise KeyError(f"no cell at {params!r}") from None


class ExecutionEngine:
    """Executes sweep specs on a pluggable executor over a run store.

    Parameters
    ----------
    jobs:
        Executor width; ``1`` always evaluates inline (serial backend).
    executor:
        Backend name (see
        :func:`repro.engine.executors.available_executors`); default
        ``process``.
    store:
        The :class:`~repro.engine.store.RunStore` to serve and persist
        shards through, or ``None`` to compute everything in memory (the
        library default — the CLI opts in with the user's cache dir).
    shard_size:
        Trials per shard; ``None`` selects the automatic stride
        (:func:`repro.engine.plan.default_shard_size`).
    resume:
        Pick interrupted stored runs up where they stopped.  The
        engine's *first* spec must have a stored run
        (:class:`NothingToResumeError` otherwise — the guard against a
        wrong store or edited sources); later specs with nothing stored
        are the uninterrupted tail of a multi-spec command and start
        fresh.  Needs a ``store``.
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: str | None = None,
        store: RunStore | None = None,
        shard_size: int | None = None,
        resume: bool = False,
    ):
        self.jobs = check_positive_int(jobs, "jobs")
        name = executor or DEFAULT_EXECUTOR
        if name not in available_executors():
            raise ValueError(
                f"unknown executor {name!r}; available: "
                f"{', '.join(available_executors())}"
            )
        self.executor_name = name
        if shard_size is not None:
            check_positive_int(shard_size, "shard_size")
        self.shard_size = shard_size
        if resume and store is None:
            raise ValueError(
                "resume requires a run store (a cache directory); it cannot "
                "be combined with caching disabled"
            )
        self.store = store
        self.resume = resume
        # Resume strictness is checked on the engine's *first* spec only:
        # a multi-figure command interrupted at figure N has no stored runs
        # for figures N+1.. — those are exactly the tail the resume must
        # compute fresh, while a first spec with nothing stored means the
        # command (or its sources) never ran and deserves a loud error.
        self._resume_checked = False
        # A new engine marks the start of a new sweep run: in-process memos
        # from earlier runs (trained models, shared cells) are dropped so
        # they stay scoped to one run rather than to the worker process.
        clear_run_scoped_caches()

    def _executor(self, pending: int):
        if self.jobs == 1 or pending <= 1:
            return SerialExecutor()
        return make_executor(self.executor_name, self.jobs)

    def _restore_checkpoints(self, rk: str, folds: list[_PointFold]) -> int:
        """Adopt valid persisted reducer checkpoints; return shards served.

        A checkpoint is trusted only when its ordinal, reducer name,
        shard count, and grid point all agree with the compiled plan (the
        run key already pins the spec and digests, so mismatches mean a
        torn or foreign record) — anything else is skipped and the cell
        falls back to raw shard replay, byte-identically.
        """
        served = 0
        for record in self.store.handle(rk).cell_records():
            index = record.get("index")
            if not isinstance(index, int) or not 0 <= index < len(folds):
                continue
            fold = folds[index]
            if fold.complete:
                continue
            if (
                record.get("reducer") != fold.reducer.name
                or record.get("shards") != fold.n_shards
                or record.get("point") != jsonable(fold.params)
            ):
                continue
            fold.restore(record["state"])
            served += fold.n_shards
        return served

    def run(self, spec: SweepSpec) -> EngineReport:
        """Evaluate every cell of ``spec`` (checkpoints, store, executor).

        Shard values are folded into their cells' reducer states as they
        arrive and the payloads dropped, so peak memory is bounded by the
        shard size and the executor's reordering window — never by
        ``trials`` (except under the ``concat`` reducer, whose state *is*
        the payload).
        """
        plan = compile_plan(spec, self.shard_size)
        shards = plan.shards
        reducer = get_reducer(plan.reducer)
        cell_label = f"{spec.name}:{_cell_id(spec)}"
        folds: list[_PointFold] = []
        owner: list[tuple[_PointFold, int]] = [None] * len(shards)
        for ordinal, (params, cell_shards) in enumerate(plan.by_point()):
            fold = _PointFold(
                reducer, spec.key_of(params), params, cell_shards,
                ordinal, cell_label,
            )
            folds.append(fold)
            for pos, shard in enumerate(cell_shards):
                owner[shard.index] = (fold, pos)
        keys: list[str] | None = None
        hits = 0
        handle = None
        rk = None
        resumed = False
        if self.store is not None:
            # One digest pass per run: the registries cannot change while a
            # plan is being keyed, and without a store keys are never used.
            digests = _content_digests()
            keys = [shard_key(spec, shard, digests) for shard in shards]
            rk = run_key(spec, plan, digests)
            manifest = self.store.manifest_of(rk)
            if self.resume and manifest is None and not self._resume_checked:
                raise NothingToResumeError(
                    f"nothing to resume for sweep {spec.name!r}: no stored "
                    f"run in {self.store.root} matches the current sources "
                    "and parameters (a source edit re-keys every shard; "
                    "start the sweep once without --resume)"
                )
            self._resume_checked = True
            resumed = manifest is not None and not manifest.get("complete")
            if manifest is not None:
                # Completed cells restore straight from their persisted
                # reducer state — no raw shard replay.
                hits += self._restore_checkpoints(rk, folds)
            # Stream stored shard records into the remaining folds, one
            # record at a time (never an in-memory index of all values).
            want = {
                key: i
                for i, key in enumerate(keys)
                if not owner[i][0].complete
            }
            if want:
                for key, value in self.store.iter_matching(
                    keys=want.keys(), match={"cell": _cell_id(spec), **digests}
                ):
                    fold, pos = owner[want[key]]
                    if fold.offer(pos, value):
                        hits += 1
            handle = self.store.open_run(
                rk,
                {
                    "run_key": rk,
                    "sweep": spec.name,
                    "cell": _cell_id(spec),
                    **digests,
                    "axes": jsonable(spec.axes),
                    "trials": spec.trials,
                    "base_seed": spec.base_seed,
                    "quick": spec.quick,
                    "shard_size": plan.shard_size,
                    "reducer": plan.reducer,
                    "n_shards": len(shards),
                    "created": time.time(),
                },
            )
        pending = [
            i for i in range(len(shards)) if not owner[i][0].has(owner[i][1])
        ]
        # A pool distributes the shards; one worker gains by joining them.
        units = _cell_units(spec, shards, pending, join=self.jobs == 1)
        if units:
            executor = self._executor(len(units))
            tasks = _TaskSequence(spec, shards, units)
            # One writer per log for the whole drain: the open/seal/close
            # dance happens once, each record is still one O_APPEND write.
            shard_writer = handle.writer() if handle is not None else None
            cell_writer = handle.cell_writer() if handle is not None else None
            try:
                for local_index, values in executor.map_unordered(
                    _run_cell, tasks
                ):
                    # Point-major and trial-ascending, as ``_run_cell``
                    # returns them: each fold takes its shards in order.
                    unit = units[local_index]
                    order = [g[p] for p in range(len(unit[0])) for g in unit]
                    for i, value in zip(order, chain.from_iterable(values)):
                        fold, pos = owner[i]
                        if shard_writer is not None:
                            shard_writer.append(
                                {
                                    "key": keys[i],
                                    "sweep": spec.name,
                                    "point": jsonable(shards[i].params),
                                    "lo": shards[i].lo,
                                    "hi": shards[i].hi,
                                    "value": value,
                                }
                            )
                        fold.offer(pos, value)
                        if fold.complete and cell_writer is not None:
                            # The cell's fold just closed: checkpoint its
                            # reducer state so a resume after a crash
                            # folds from here instead of replaying the
                            # shard log.
                            cell_writer.append(fold.checkpoint_record())
            finally:
                if shard_writer is not None:
                    shard_writer.close()
                if cell_writer is not None:
                    cell_writer.close()
        merged: dict[tuple, Any] = {}
        for fold in folds:
            merged[fold.key] = fold.finalize()
        # Completion is claimed only after every cell finalised: a cell
        # that turns out not to fit its reducer must not leave behind a
        # run marked complete whose stored shards can never be assembled.
        if handle is not None:
            handle.mark_complete()
        return EngineReport(
            spec=spec,
            values=merged,
            shard_hits=hits,
            shards_total=len(shards),
            run_key=rk,
            resumed=resumed,
            reducer=plan.reducer,
            cell_calls=len(units),
        )
