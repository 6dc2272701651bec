"""Work-plan layer: compile a sweep grid into shard-level work units.

A figure experiment is a grid of *cells* — (strategy, scenario, …) points
— each evaluated over one or more seeded Monte-Carlo trials.
:class:`SweepSpec` declares the grid; :func:`compile_plan` lowers it into a
:class:`WorkPlan` of :class:`Shard` units, the granularity everything above
the executor layer schedules, caches, and resumes at.

Sharding
--------
A cell's trials are split into deterministic, contiguous trial ranges.
Trial ``t`` of every cell uses the seed ``base_seed + SEED_STRIDE * t`` —
pure stride arithmetic, independent of how trials are grouped — so a shard
covering ``[lo, hi)`` carries exactly the seeds the monolithic cell would
have used for those trials.  Cells evaluate trials independently (per-seed
speed draws in, per-trial metric lists out), so concatenating shard values
in trial order is **bitwise-equal** to a single monolithic evaluation; the
batched simulators' own contract (trial ``t`` of a batch equals a
single-trial run from the same seed, for any batch composition) is what
makes the guarantee hold through the batched engines.
``tests/engine/test_determinism.py`` pins it for representative policies ×
scenarios at shard sizes {1, 7, trials}, with one call per shard and with
adjacent shards joined into one call.

The shard stays the unit of everything the engine keeps: its keys, its
run-store records, ``--resume`` and pool distribution.  A single 1024-trial
cell scales across cores because its shards — not the cell — are what a
pool executor distributes.  :func:`split_shard_value` is the inverse of the
merge: it cuts one value over adjacent shards back into per-shard values.

Cell contract
-------------
For a cell to be shardable, its value must be *trial-separable*: a list
whose first axis is the trial axis, or a dict (nested arbitrarily) whose
leaf lists all have the trial axis first.  Every built-in experiment cell
follows this shape.  A cell that aggregates across trials itself must
declare ``SweepSpec(shardable=False)`` and runs as one unit.

Determinism of seeds
--------------------
The stride is deliberately the *same* across all cells of a grid, because
the figures are paired comparisons: every strategy must face the identical
straggler draws before ratios are taken (and trial 0 reproduces the
single-trial seeding the original experiment modules used).

Stacked evaluation
------------------
A cell whose fixed cost per call dwarfs its per-trial cost can declare,
once, a *stacked* form over one axis with :func:`stacks_on`:
``stacked(params, values, ctx)`` evaluates the cell at every value of the
axis in one call, over the same trial slice, and returns one cell value
per value.  The engine then groups the pending shards that differ only
along that axis and share a trial range into one call.  A plain cell is a
one-point stack.  At one job, a call may also span adjacent pending
trial slices of its points, over the union of their seeds, while it stays
within :data:`MAX_UNIT_ROWS` rows (points × trials): the engine cuts each
point's value back into per-shard values with :func:`split_shard_value`.
Neither changes what the shards compute, only how many calls compute
them: each shard keeps its key, store record and checkpoint, and each
value must equal ``cell({**params, axis: value}, ctx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro._util import check_positive_int

__all__ = [
    "SEED_STRIDE",
    "DEFAULT_SHARD_TRIALS",
    "SweepContext",
    "SweepSpec",
    "Shard",
    "stacks_on",
    "WorkPlan",
    "ShardMergeError",
    "compile_plan",
    "default_shard_size",
    "merge_shard_values",
    "split_shard_value",
    "jsonable",
]

#: Gap between per-trial seeds; large enough that nearby base seeds do not
#: alias each other's trial streams.
SEED_STRIDE = 1_000_003

#: Default trials per shard.  A fixed constant — not a function of the
#: executor width — so the shard decomposition (and therefore the run
#: store's shard keys) of a spec never depends on how many jobs happen to
#: be available: a sweep computed at ``--jobs 4`` is warm at ``--jobs 1``.
#: Small enough that one fat cell spreads over a pool; at one job the
#: batched simulators' vectorization win comes from joining adjacent
#: shards into one call (:data:`MAX_UNIT_ROWS`), which leaves the keys
#: alone.
DEFAULT_SHARD_TRIALS = 32

#: Most rows (points × trials) one cell call joins adjacent pending trial
#: slices up to, at one job; a stack or shard that is already larger runs
#: alone.  A kill mid-call loses the whole call's work, so a ``--resume``
#: recomputes at most the larger of this and the largest single stack.  A
#: pool of several jobs joins nothing: it distributes the shards.
MAX_UNIT_ROWS = 128


@dataclass(frozen=True)
class SweepContext:
    """Everything a cell needs besides its grid point.

    ``seeds`` are the per-trial seeds of the trials this context covers —
    the whole grid's for a monolithic evaluation, a contiguous slice for a
    shard.  ``base_seed`` is always the seed of trial 0 of the *sweep*
    (not of the slice): cells use it for trial-independent shared work
    (training forecasters on held-out traces), which must not vary with
    the shard decomposition.
    """

    quick: bool
    base_seed: int
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        # NumPy rejects negative seeds, and a cell needs at least one trial.
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.seeds:
            raise ValueError("seeds must hold at least one trial seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")

    @property
    def trials(self) -> int:
        return len(self.seeds)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of experiment cells.

    Parameters
    ----------
    name:
        Sweep name (for display; cache keys do not use it).
    cell:
        A **module-level** function ``cell(params, ctx)`` (it must pickle
        for the process executor) mapping one grid point plus a
        :class:`SweepContext` to a JSON-serialisable value — typically a
        per-trial list, or a dict of per-trial lists (see the cell
        contract in the module docstring).
    axes:
        Ordered ``(axis_name, values)`` pairs; the grid is their cartesian
        product.  A mapping is accepted and normalised.  A repeated value
        is kept once, at its first position: a point is its key.
    trials:
        Monte-Carlo trials per cell; seeds are derived deterministically
        from ``base_seed``.
    base_seed:
        Seed of trial 0 (shared by all cells — see the pairing note in the
        module docstring).
    quick:
        Passed through to cells; selects the reduced CI-scale problem
        sizes.
    shardable:
        Whether the cell's value is trial-separable (the default; every
        built-in cell is).  ``False`` forces one work unit per cell.
    reducer:
        How shard values fold into the cell value the consumer sees (a
        registered :mod:`repro.engine.reduce` name).  The default,
        ``"concat"``, reassembles the exact per-trial lists — bitwise
        equal to a monolithic evaluation; the streaming reducers
        (``mean`` / ``minmax`` / ``count`` / ``sum`` / ``stats`` /
        ``quantile``) fold each shard into constant-size summaries so
        million-trial sweeps run in flat memory.
    """

    name: str
    cell: Callable[[dict, "SweepContext"], Any]
    axes: tuple[tuple[str, tuple], ...]
    trials: int = 1
    base_seed: int = 0
    quick: bool = True
    shardable: bool = True
    reducer: str = "concat"

    def __post_init__(self) -> None:
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        axes = tuple(
            (str(name), tuple(dict.fromkeys(values))) for name, values in axes
        )
        for name, values in axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        object.__setattr__(self, "axes", axes)
        check_positive_int(self.trials, "trials")
        if self.base_seed < 0:
            # Trial 0's seed is base_seed, and NumPy rejects negative seeds.
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        # Imported lazily: repro.engine.reduce imports this module.
        from repro.engine.reduce import available_reducers

        if self.reducer not in available_reducers():
            raise ValueError(
                f"unknown reducer {self.reducer!r}; available: "
                f"{', '.join(available_reducers())}"
            )
        stack = getattr(self.cell, "stack", None)
        if stack is not None and stack[0] not in self.axis_names:
            raise ValueError(
                f"cell stacks on axis {stack[0]!r}, which the spec does not "
                f"sweep (axes: {', '.join(self.axis_names)})"
            )

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _values in self.axes)

    def points(self) -> list[dict]:
        """Every grid point, in row-major axis order."""
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in product(*(values for _name, values in self.axes))
        ]

    def shard_context(self, lo: int, hi: int) -> SweepContext:
        """The cell context of trials ``[lo, hi)``, seeded by stride."""
        if not 0 <= lo < hi <= self.trials:
            raise ValueError(
                f"trial range [{lo}, {hi}) outside [0, {self.trials})"
            )
        return SweepContext(
            quick=self.quick,
            base_seed=self.base_seed,
            seeds=tuple(
                self.base_seed + SEED_STRIDE * t for t in range(lo, hi)
            ),
        )

    def context(self) -> SweepContext:
        """The full-grid cell context, with deterministic per-trial seeds."""
        return self.shard_context(0, self.trials)

    def key_of(self, params: dict) -> tuple:
        """Hashable identity of a grid point (axis order)."""
        return tuple(params[name] for name in self.axis_names)


def stacks_on(
    axis: str, stacked: Callable[[dict, tuple, SweepContext], list]
) -> Callable[[Callable], Callable]:
    """Declare a cell's stacked form over ``axis`` (a decorator).

    ``stacked(params, values, ctx)`` receives the grid point without
    ``axis`` and a tuple of distinct axis values, and returns one cell
    value per value, each equal to the plain cell's at that point (see
    "Stacked evaluation" above).  ``stacked`` must be module-level, like
    the cell, so it pickles for the process executor.
    """

    def declare(cell: Callable) -> Callable:
        cell.stack = (axis, stacked)
        return cell

    return declare


@dataclass(frozen=True)
class Shard:
    """One schedulable work unit: a cell restricted to a trial range.

    The shard context (per-trial seed slice) is derived **lazily** from
    the owning spec: a compiled plan holds only trial *ranges*, never the
    materialised seed tuples, so the plan of a million-trial sweep stays
    a few kilobytes — contexts exist one at a time, while a shard is
    being keyed or executed.
    """

    index: int  #: position in the plan (stable, deterministic)
    point_key: tuple  #: ``spec.key_of(params)`` of the owning cell
    params: dict  #: the owning cell's grid point
    lo: int  #: first trial covered (inclusive)
    hi: int  #: last trial covered (exclusive)
    spec: SweepSpec = field(repr=False)  #: owning spec (for lazy contexts)

    @property
    def ctx(self) -> SweepContext:
        """Shard-scoped context (seeds of ``[lo, hi)``), built on demand."""
        return self.spec.shard_context(self.lo, self.hi)

    @property
    def trials(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class WorkPlan:
    """A compiled sweep: every shard of every cell, in deterministic order.

    Shards are point-major (grid order), trial-ascending within a point, so
    ``by_point`` groups are contiguous runs of ``shards``.
    """

    spec: SweepSpec
    shard_size: int
    shards: tuple[Shard, ...]
    #: The reducer tag of every cell in this plan (``spec.reducer``,
    #: stamped at compile time): how the engine folds the shard stream.
    reducer: str = "concat"

    def by_point(self) -> list[tuple[dict, list[Shard]]]:
        """``(params, shards)`` per grid point, in grid order."""
        groups: list[tuple[dict, list[Shard]]] = []
        for shard in self.shards:
            if groups and groups[-1][1][0].point_key == shard.point_key:
                groups[-1][1].append(shard)
            else:
                groups.append((shard.params, [shard]))
        return groups


def default_shard_size(trials: int) -> int:
    """The automatic shard size: everything up to the fixed stride."""
    return min(check_positive_int(trials, "trials"), DEFAULT_SHARD_TRIALS)


def compile_plan(spec: SweepSpec, shard_size: int | None = None) -> WorkPlan:
    """Lower a :class:`SweepSpec` into its shard-level :class:`WorkPlan`.

    ``shard_size`` overrides the trials-per-shard stride (the automatic
    choice is :func:`default_shard_size`); a non-shardable spec always
    compiles to one unit per cell.  The decomposition is a pure function
    of ``(spec, shard_size)`` — never of the executor — so shard
    identities are stable across pool widths and resumed runs.
    """
    if shard_size is not None:
        check_positive_int(shard_size, "shard_size")
    if not spec.shardable:
        size = spec.trials
    else:
        size = shard_size or default_shard_size(spec.trials)
    shards: list[Shard] = []
    for params in spec.points():
        point_key = spec.key_of(params)
        for lo in range(0, spec.trials, size):
            hi = min(spec.trials, lo + size)
            shards.append(
                Shard(
                    index=len(shards),
                    point_key=point_key,
                    params=params,
                    lo=lo,
                    hi=hi,
                    spec=spec,
                )
            )
    return WorkPlan(
        spec=spec,
        shard_size=size,
        shards=tuple(shards),
        reducer=spec.reducer,
    )


class ShardMergeError(ValueError):
    """A cell's shard values are not trial-separable (see the cell contract)."""


def merge_shard_values(
    values: Sequence[Any], sizes: Sequence[int], cell: str = "cell"
) -> Any:
    """Merge per-shard cell values back into the monolithic cell value.

    ``values`` are the shard results in trial order, ``sizes`` the trial
    counts of the corresponding shards.  Lists concatenate along the trial
    axis (validated against the shard sizes); dicts merge key-wise,
    recursively.  A single shard passes through untouched (no shape is
    imposed on unsharded cells).  Anything else raises
    :class:`ShardMergeError` telling the cell author to declare
    ``SweepSpec(shardable=False)``.
    """
    if len(values) != len(sizes):
        raise ValueError(f"{len(values)} values for {len(sizes)} shards")
    if len(values) == 1:
        return values[0]
    if all(isinstance(v, list) for v in values):
        for value, size in zip(values, sizes):
            if len(value) != size:
                raise ShardMergeError(
                    f"{cell}: shard of {size} trial(s) returned a list of "
                    f"length {len(value)}; shardable cells must return "
                    "per-trial lists (or set SweepSpec(shardable=False))"
                )
        return [item for value in values for item in value]
    if all(isinstance(v, dict) for v in values):
        keys = list(values[0])
        for value in values[1:]:
            if list(value) != keys:
                raise ShardMergeError(
                    f"{cell}: shard dicts disagree on keys "
                    f"({sorted(values[0])} vs {sorted(value)})"
                )
        return {
            key: merge_shard_values(
                [value[key] for value in values], sizes, cell=f"{cell}[{key!r}]"
            )
            for key in keys
        }
    kinds = sorted({type(v).__name__ for v in values})
    raise ShardMergeError(
        f"{cell}: cannot merge shard values of type(s) {kinds}; shardable "
        "cells must return per-trial lists or dicts of them "
        "(or set SweepSpec(shardable=False))"
    )


def split_shard_value(
    value: Any, sizes: Sequence[int], cell: str = "cell"
) -> list:
    """Cut one cell value over adjacent shards into per-shard values.

    The inverse of :func:`merge_shard_values`: ``value`` covers the trials
    of consecutive shards of ``sizes`` trials each, and the result holds
    one value per shard, in trial order.  Lists are cut along the trial
    axis (their length must be ``sum(sizes)``); dicts split key-wise,
    recursively.  A single shard passes through untouched, as in the
    merge.  Any other leaf raises :class:`ShardMergeError`, and a size
    below one ``ValueError``.
    """
    if not sizes:
        raise ValueError(f"{cell}: no shard sizes to split into")
    for size in sizes:
        check_positive_int(size, f"{cell}: shard size")
    if len(sizes) == 1:
        return [value]
    if isinstance(value, list):
        if len(value) != sum(sizes):
            raise ShardMergeError(
                f"{cell}: a value over shards of {list(sizes)} trial(s) "
                f"holds a list of length {len(value)}, not {sum(sizes)}; "
                "shardable cells must return per-trial lists (or set "
                "SweepSpec(shardable=False))"
            )
        bounds = [0, *accumulate(sizes)]
        return [value[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if isinstance(value, dict):
        parts = {
            key: split_shard_value(item, sizes, cell=f"{cell}[{key!r}]")
            for key, item in value.items()
        }
        return [
            {key: parts[key][shard] for key in value}
            for shard in range(len(sizes))
        ]
    raise ShardMergeError(
        f"{cell}: cannot split a value of type {type(value).__name__} "
        f"into shards of {list(sizes)} trial(s); shardable cells must "
        "return per-trial lists or dicts of them (or set "
        "SweepSpec(shardable=False))"
    )


def jsonable(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain JSON types."""
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
