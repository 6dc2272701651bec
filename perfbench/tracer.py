"""Outside-in layer tracer for the benchmark's traced passes.

The end-to-end metrics always come from untraced passes.  A traced pass
installs a :class:`Tracer`, which replaces the public entry points of
every ``repro`` layer listed in :data:`TARGETS` with timing wrappers and
puts the originals back on :meth:`Tracer.uninstall`.  Nothing inside
``repro`` changes: methods are swapped on their defining class, module
functions on their defining module *and* on every ``repro`` module that
imported them by name (``repair_assignments`` in the simulators,
``compile_plan`` in the engine), and the figure runners inside the
``ALL_EXPERIMENTS`` dict.

Every wrapped call records one span — name, start, end, parent span and
run id — in memory.  A layer's *self time* is the time its spans cover
minus the time their direct child spans cover (:func:`self_times`), so a
call that crosses layers (the batched kernel calling the scheduler's
``repair_assignments``, a policy build training the LSTM) is split
between them, and the self times of one pass add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

#: Phase names of ``repro.profiling``, reported as ``cluster.phase.<p>_s``.
PHASES = ("plan", "broadcast", "compute", "reply", "repair", "decode", "replay")

#: Every per-layer metric of one traced pass: ``(name, unit)``.
#: Times are self times in seconds; counts are calls or work items.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("experiments.self_s", "s"),
    ("experiments.cell_s", "s"),
    ("experiments.cells", "count"),
    ("engine.self_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.shards", "count"),
    ("engine.digest_s", "s"),
    ("engine.digest_calls", "count"),
    ("engine.store_read_s", "s"),
    ("engine.store_reads", "count"),
    ("engine.store_write_s", "s"),
    ("engine.store_writes", "count"),
    ("engine.store_bytes", "bytes"),
    ("engine.fold_s", "s"),
    ("engine.fold_calls", "count"),
    ("engine.hit_ratio", "ratio"),
    ("scheduling.plan_s", "s"),
    ("scheduling.plan_calls", "count"),
    ("scheduling.repair_s", "s"),
    ("scheduling.repair_calls", "count"),
    ("scheduling.adaptive_s", "s"),
    ("scheduling.build_s", "s"),
    ("prediction.fit_s", "s"),
    ("prediction.fit_calls", "count"),
    ("prediction.step_s", "s"),
    ("prediction.step_calls", "count"),
    ("prediction.traces_s", "s"),
    ("cluster.scenario_s", "s"),
    ("cluster.scenario_calls", "count"),
    ("cluster.kernel_s", "s"),
    ("cluster.kernel_calls", "count"),
    ("cluster.kernel_trials", "count"),
    ("cluster.scalar_s", "s"),
    ("cluster.event_s", "s"),
    ("cluster.event_trials", "count"),
    ("cluster.replay_s", "s"),
    ("cluster.replays", "count"),
    ("cluster.native_ratio", "ratio"),
    *((f"cluster.phase.{phase}_s", "s") for phase in PHASES),
    ("runtime.round_s", "s"),
    ("runtime.trial_rounds", "count"),
    ("runtime.session_s", "s"),
    ("runtime.session_rounds", "count"),
    ("runtime.repaired", "count"),
    ("coding.s", "s"),
    ("coding.calls", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is ``"module"`` or ``"module:Class"``.  The span's self time
    goes to ``time``; ``calls`` counts calls not nested in another span
    of the same ``time`` metric.  ``count(tracer, args, kwargs, result)``
    adds work counters after the call.  ``under = (parent, time, calls)``
    reroutes a call whose direct parent span is timed into ``parent``.
    ``kind`` is ``"call"``, ``"items"`` (wrap every value of a dict) or
    ``"argument"`` (wrap the callable an executor is handed).
    """

    owner: str
    attr: str
    time: str
    calls: str | None = None
    count: Callable[..., None] | None = None
    under: tuple[str, str, str | None] | None = None
    kind: str = "call"


def _engine_report(tracer, args, kwargs, report) -> None:
    tracer.counts["engine.shards"] += report.shards_total
    tracer.counts["engine.shard_hits"] += report.shard_hits


def _trials(metric: str, position: int) -> Callable[..., None]:
    """Count the rows of the ``speeds`` argument (one row per trial)."""

    def count(tracer, args, kwargs, result) -> None:
        speeds = kwargs["speeds"] if "speeds" in kwargs else args[position]
        tracer.counts[metric] += len(speeds)

    return count


def _trial_rounds(tracer, args, kwargs, result) -> None:
    tracer.counts["runtime.trial_rounds"] += args[0].n_trials


def _repaired(tracer, args, kwargs, result) -> None:
    # Only rounds a batch runner plays; the adaptive controller re-adds
    # its segments' rounds to a master metrics object afterwards.
    if tracer.parent_metric() == "runtime.round_s":
        repaired = kwargs["repaired"] if "repaired" in kwargs else args[-1]
        tracer.counts["runtime.repaired"] += int(repaired.sum())


def _group(time: str, calls: str | None, *entries: str) -> list[Target]:
    """Targets sharing one metric; each entry is ``"owner attr [attr ...]"``."""
    return [
        Target(owner, attr, time, calls)
        for entry in entries
        for owner, *attrs in [entry.split()]
        for attr in attrs
    ]


#: The layer boundaries the traced pass times, outside in.
TARGETS: tuple[Target, ...] = (
    # CLI + experiments: the root, the figure runners, and each cell.
    *_group("experiments.self_s", None,
            "repro.__main__ main", "repro.experiments.matrix run_matrix"),
    Target("repro.experiments", "ALL_EXPERIMENTS", "experiments.self_s",
           kind="items"),
    Target("repro.engine.executors:SerialExecutor", "map_unordered",
           "experiments.cell_s", "experiments.cells", kind="argument"),
    # Engine: plan, content digests, run store, reducer fold.
    Target("repro.engine.runner:ExecutionEngine", "run", "engine.self_s",
           count=_engine_report),
    *_group("engine.plan_s", None, "repro.engine.plan compile_plan"),
    *_group("engine.digest_s", "engine.digest_calls",
            "repro.engine.runner package_source_digest shard_key run_key",
            "repro.cluster.scenarios registry_digest",
            "repro.scheduling.policies registry_digest"),
    *_group("engine.store_read_s", "engine.store_reads",
            "repro.engine.store:RunStore manifest_of iter_matching",
            "repro.engine.store:RunHandle cell_records"),
    *_group("engine.store_write_s", "engine.store_writes",
            "repro.engine.store:RunStore open_run",
            "repro.engine.store:RunHandle mark_complete",
            "repro.engine.store:AppendWriter append"),
    *_group("engine.fold_s", "engine.fold_calls",
            "repro.engine.reduce:ConcatReducer update merge finalize",
            "repro.engine.reduce:_StreamingReducer update merge finalize"),
    # Scheduling: planners, the §4.3 repair, adaptive controllers, builds.
    *_group("scheduling.plan_s", "scheduling.plan_calls",
            "repro.scheduling.base plan_batch",
            "repro.scheduling.s2c2:GeneralS2C2Scheduler plan",
            "repro.scheduling.s2c2:BasicS2C2Scheduler plan plan_batch",
            "repro.scheduling.static:StaticCodedScheduler plan plan_batch",
            "repro.scheduling.overdecomposition:OverDecompositionPlacement plan"),
    *_group("scheduling.repair_s", "scheduling.repair_calls",
            "repro.scheduling.timeout repair_assignments"),
    *_group("scheduling.adaptive_s", None,
            "repro.scheduling.adaptive:AdaptivePolicyRunner run_scenario",
            "repro.scheduling.adaptive:AutoPolicyRunner run_scenario"),
    *_group("scheduling.build_s", None, "repro.scheduling.policies build_policy"),
    # Prediction: training, online forecasting, trace generation.
    *_group("prediction.fit_s", "prediction.fit_calls",
            "repro.prediction.lstm:LSTMSpeedModel fit",
            "repro.prediction.arima:ARModel fit",
            "repro.prediction.arima:ARIMA111Model fit"),
    *_group("prediction.step_s", "prediction.step_calls",
            "repro.prediction.lstm:LSTMSpeedModel step step_stacked predict_series",
            "repro.prediction.arima:ARModel predict_series",
            "repro.prediction.arima:ARIMA111Model predict_series",
            *(
                f"repro.prediction.predictor:{cls} predict update"
                for cls in (
                    "LastValuePredictor", "ARPredictor", "LSTMPredictor",
                    "OraclePredictor", "StalePredictor",
                    "BatchLastValuePredictor", "BatchARPredictor",
                    "BatchLSTMPredictor", "StackedPredictor",
                )
            )),
    *_group("prediction.traces_s", None,
            "repro.prediction.traces generate_speed_traces"),
    # Cluster: scenario draws, batched kernels, scalar runs, event backend.
    *_group("cluster.scenario_s", "cluster.scenario_calls",
            "repro.cluster.scenarios scenario_batch scenario_speed_model"),
    *(
        Target(f"repro.cluster.simulator:{cls}", "run_batch", "cluster.kernel_s",
               "cluster.kernel_calls", count=_trials("cluster.kernel_trials", at))
        for cls, at in (
            ("CodedIterationSim", 2),
            ("OverDecompositionIterationSim", 2),
            ("ReplicationIterationSim", 1),
        )
    ),
    *_group("cluster.scalar_s", None,
            "repro.cluster.simulator:CodedIterationSim run",
            "repro.cluster.simulator:OverDecompositionIterationSim run",
            "repro.cluster.simulator:ReplicationIterationSim run"),
    Target("repro.cluster.events.sim:EventDrivenIterationSim", "run_batch",
           "cluster.event_s", count=_trials("cluster.event_trials", 2)),
    Target("repro.cluster.events.sim:EventDrivenIterationSim", "run",
           "cluster.scalar_s",
           under=("cluster.event_s", "cluster.replay_s", "cluster.replays")),
    # Runtime: batched rounds and the scalar sessions.
    Target("repro.runtime.batch:_BatchRunnerBase", "matvec",
           "runtime.round_s", count=_trial_rounds),
    Target("repro.runtime.batch:BatchRunMetrics", "add_round",
           "runtime.round_s", count=_repaired),
    *_group("runtime.session_s", "runtime.session_rounds",
            "repro.runtime.session:CodedSession matvec",
            "repro.runtime.session:ReplicationSession matvec",
            "repro.runtime.session:OverDecompositionSession matvec"),
    # Coding: encoders, decoder factories, and the any-k solve.
    *_group("coding.s", "coding.calls",
            "repro.coding.mds:MDSCode encode decoder",
            "repro.coding.mds:EncodedMatrix decoder",
            "repro.coding.polynomial:PolynomialCode encode",
            "repro.coding.polynomial:EncodedBilinear decoder",
            "repro.coding.lagrange:LagrangeCode encode",
            "repro.coding.lagrange:EncodedLagrange decoder",
            "repro.coding.linear:AnyKRowDecoder solve"),
)


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    found = importlib.import_module(module)
    return getattr(found, cls) if cls else found


class Tracer:
    """In-memory span recorder for one traced pass (see module docstring).

    A span is ``(id, parent, metric, name, start, end)``; ``counts`` holds
    call and work counters.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.origin = clock()
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[tuple[int, str, float]] = []
        self._open: Counter[str] = Counter()
        self._restore: list[Callable[[], None]] = []

    # -- spans --------------------------------------------------------

    def parent_metric(self) -> str | None:
        """Metric of the innermost open span, or ``None`` at the root."""
        return self._stack[-1][1] if self._stack else None

    def _enter(self, target: Target, call: bool = True) -> tuple[int, str, float]:
        metric, calls = target.time, target.calls
        if target.under is not None and self.parent_metric() == target.under[0]:
            _, metric, calls = target.under
        if call and calls is not None and not self._open[metric]:
            self.counts[calls] += 1
        self._open[metric] += 1
        # Ids number spans in order of entry: every earlier span is closed or open.
        frame = (len(self.spans) + len(self._stack), metric, self.clock())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: tuple[int, str, float], name: str) -> None:
        end = self.clock()
        self._stack.pop()
        self._open[frame[1]] -= 1
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((frame[0], parent, frame[1], name, frame[2], end))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` with a span around every call.

        A generator gets a span around every ``next`` instead, since that
        is when its body runs; the call is counted once.
        """
        module = getattr(fn, "__module__", None) or target.owner
        name = f"{module.removeprefix('repro.')}.{getattr(fn, '__qualname__', target.attr)}"
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        frame = self._enter(target, call=first)
                        first = False
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame, name)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name)
            if target.count is not None:
                target.count(self, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones this checkout lacks in ``missing``."""
        for target in TARGETS:
            try:
                owner = _resolve(target.owner)
                original = vars(owner)[target.attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            if target.kind == "items":
                self._patch_items(original, target)
            elif target.kind == "argument":
                self._patch(owner, target.attr, self._wrap_argument(original, target))
            elif inspect.isclass(owner):
                self._patch(owner, target.attr, self.wrap(original, target))
            else:
                wrapped = self.wrap(original, target)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        original = vars(owner)[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _patch_items(self, mapping: dict, target: Target) -> None:
        for key, fn in list(mapping.items()):
            mapping[key] = self.wrap(fn, target)
            self._restore.append(functools.partial(mapping.__setitem__, key, fn))

    def _wrap_argument(self, method: Callable, target: Target) -> Callable:
        @functools.wraps(method)
        def traced_method(executor, fn, *args, **kwargs):
            return method(executor, self.wrap(fn, target), *args, **kwargs)

        return traced_method

    # -- output -------------------------------------------------------

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready dicts, times in seconds since the tracer began."""
        return [
            {
                "run": self.run_id,
                "id": sid,
                "parent": parent,
                "layer": metric,
                "name": name,
                "start": round(start - self.origin, 9),
                "end": round(end - self.origin, 9),
            }
            for sid, parent, metric, name, start, end in self.spans
        ]


def self_times(spans) -> dict[str, float]:
    """Per metric: what its spans cover minus what their direct children cover."""
    children: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for sid, _, metric, _, start, end in spans:
        own = (end - start) - children.get(sid, 0.0)
        totals[metric] = totals.get(metric, 0.0) + own
    return totals


def layer_metrics(
    tracer: Tracer,
    wall: float,
    untraced_wall: float,
    phases: dict[str, float],
    store_bytes: int,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced pass.

    ``wall`` is the traced pass's wall time and ``untraced_wall`` the same
    pass run untraced; ``phases`` are ``repro.profiling`` phase totals and
    ``store_bytes`` what the pass added to the run store.
    """
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    selfs = self_times(tracer.spans)
    for metric, seconds in selfs.items():
        values[metric] = seconds
    for name in values.keys() & tracer.counts.keys():
        values[name] = float(tracer.counts[name])
    shards = tracer.counts["engine.shards"]
    values["engine.hit_ratio"] = (
        tracer.counts["engine.shard_hits"] / shards if shards else 0.0
    )
    events = tracer.counts["cluster.event_trials"]
    values["cluster.native_ratio"] = (
        1.0 - tracer.counts["cluster.replays"] / events if events else 0.0
    )
    values["engine.store_bytes"] = float(store_bytes)
    for phase in PHASES:
        values[f"cluster.phase.{phase}_s"] = phases.get(phase, 0.0)
    values["trace.unattributed_s"] = wall - sum(selfs.values())
    values["trace.overhead"] = wall / untraced_wall
    return values


def format_table(title: str, values: dict[str, float], wall: float) -> str:
    """The per-layer table of one traced pass: self times first, hottest first."""
    units = dict(LAYER_METRICS)
    times = sorted(
        (name for name in values if units[name] == "s" and ".phase." not in name),
        key=lambda name: -values[name],
    )
    lines = [f"{title}: traced wall {wall:.4f}s", f"{'metric':28s} {'value':>12s}  share"]
    for name in times:
        lines.append(f"{name:28s} {values[name]:11.4f}s  {values[name] / wall:6.1%}")
    for name, unit in LAYER_METRICS:
        if unit != "s" or ".phase." in name:
            lines.append(f"{name:28s} {values[name]:12.4f}  {unit}")
    return "\n".join(lines)


def write_spans(path, tracers) -> None:
    """Write every tracer's spans as JSON lines."""
    with open(path, "w") as out:
        for tracer in tracers:
            for record in tracer.span_records():
                out.write(json.dumps(record) + "\n")
