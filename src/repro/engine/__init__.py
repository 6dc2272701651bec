"""Unified execution engine: work plans, executors, and the run store.

The single execution core under every experiment surface, in three layers
(see ``docs/architecture.md`` § "Execution engine"):

* **Work-plan layer** (:mod:`repro.engine.plan`) — compile a declarative
  :class:`SweepSpec` grid into deterministic, seed-strided trial *shards*,
  the unit everything above schedules at; shard merges are bitwise-equal
  to monolithic cells.
* **Executor layer** (:mod:`repro.engine.executors`) — pluggable
  ``serial`` / ``thread`` / ``process`` backends behind one
  ``--executor`` / ``--jobs`` surface.
* **Reducer layer** (:mod:`repro.engine.reduce`) — composable streaming
  reducers that fold shard values into cell values as they arrive:
  ``concat`` (the bitwise-exact compatibility default) plus
  constant-memory statistics (``mean`` / ``minmax`` / ``count`` /
  ``sum`` / ``stats``) and a seeded-reservoir ``quantile`` summary.
* **Run-store layer** (:mod:`repro.engine.store`) — an append-only,
  crash-safe store of per-run manifests, content-keyed shard records,
  and per-cell reducer checkpoints; interrupted sweeps resume exactly
  where they stopped, folding completed cells from their checkpoints.

:class:`repro.engine.runner.ExecutionEngine` ties the layers together: it
runs every sweep, and its :class:`~repro.engine.runner.EngineReport`
carries the cell values back (``report.get(**point)``).
"""

from repro.engine.executors import (
    DEFAULT_EXECUTOR,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    make_executor,
)
from repro.engine.plan import (
    DEFAULT_SHARD_TRIALS,
    SEED_STRIDE,
    Shard,
    ShardMergeError,
    SweepContext,
    SweepSpec,
    WorkPlan,
    compile_plan,
    default_shard_size,
    jsonable,
    merge_shard_values,
    split_shard_value,
    stacks_on,
)
from repro.engine.reduce import (
    DEFAULT_REDUCER,
    Reducer,
    ReducerShapeError,
    available_reducers,
    get_reducer,
)
from repro.engine.runner import (
    EngineReport,
    ExecutionEngine,
    NothingToResumeError,
    clear_run_scoped_caches,
    package_source_digest,
    register_run_scoped_cache,
    run_key,
    shard_key,
)
from repro.engine.store import AppendWriter, RunHandle, RunStore, default_cache_dir

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
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "DEFAULT_EXECUTOR",
    "available_executors",
    "make_executor",
    "DEFAULT_REDUCER",
    "Reducer",
    "ReducerShapeError",
    "available_reducers",
    "get_reducer",
    "RunStore",
    "RunHandle",
    "AppendWriter",
    "default_cache_dir",
    "ExecutionEngine",
    "EngineReport",
    "NothingToResumeError",
    "shard_key",
    "run_key",
    "package_source_digest",
    "register_run_scoped_cache",
    "clear_run_scoped_caches",
]
