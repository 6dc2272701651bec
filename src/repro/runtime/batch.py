"""The master control loop (§6.2), played for a batch of trials per call.

The per-iteration timeline of a round depends only on the work plans and
the speed draws — never on the numeric payload — so the loop itself is
latency-only: :class:`BatchCodedRunner` forecasts the speeds, plans,
simulates and feeds the measured speeds back for a whole batch of trials
per call, feeding ``(trials, workers)`` speed matrices straight into
:meth:`~repro.cluster.simulator.CodedIterationSim.run_batch`.  This is
the only copy of the loop: Monte-Carlo sweeps run it at any trial count,
and the numeric sessions of :mod:`repro.runtime.session` are one-trial
views of it that add the encode / compute / decode arithmetic.

Trial ``t`` of a batch run is numerically identical to a one-trial run
built from the same seed: the simulators guarantee bitwise-equal
timelines, and the forecasting side holds the same contract — any
:class:`~repro.prediction.predictor.BatchPredictor` sized for the speed
model's trial count works: a batched kernel such as
:class:`~repro.prediction.predictor.BatchLSTMPredictor`, which advances
one stacked ``(trials, workers)`` recurrent state per round (the scalar
last-value, AR and LSTM predictors are one-trial views of such kernels), or a
:class:`~repro.prediction.predictor.StackedPredictor` looping per-trial
oracle, stale or user-defined predictors.
``tests/runtime/test_batch.py`` pins this equality against the per-trial
sessions frozen in ``tests/runtime/session_reference.py``.

:class:`BatchOverDecompositionRunner` does the same for the Charm++-like
over-decomposition baseline: one planner call per round over a
``(trials, partitions, slots)`` holder table feeds the stacked plan to
:meth:`~repro.cluster.simulator.OverDecompositionIterationSim.run_batch`'s
timeline.  :class:`BatchReplicationRunner` covers the replication
baseline, which plans nothing, so every round is one
:meth:`~repro.cluster.simulator.ReplicationIterationSim.run_batch` call.

All three runners share one chassis: a single :class:`_BatchOperator`
record (name + simulator + per-family state) and the
:class:`_BatchRunnerBase` round loop — speeds, forecast, family-specific
planning, stacked simulation, forecaster feedback, metrics.
:func:`build_batch_runner` is the one construction surface the experiment
harness, the execution engine and the sessions go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import check_positive_int
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import (
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.cluster.speed_models import BatchSpeedModel
from repro.coding.partition import ChunkGrid, RowPartition, check_block_count
from repro.prediction.predictor import BatchPredictor, misprediction_rate
from repro.scheduling.base import Scheduler, plan_batch
from repro.scheduling.overdecomposition import (
    OverDecompositionPlacement,
    holder_table,
    plan_assignment_batch,
)
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.timeout import TimeoutPolicy

__all__ = [
    "BatchRunMetrics",
    "BatchCodedRunner",
    "BatchOverDecompositionRunner",
    "BatchReplicationRunner",
    "build_batch_runner",
]


def _harmonise_granularity(
    scheduler: Scheduler, num_chunks: int | None, block_rows: int
) -> tuple[Scheduler, int]:
    """Make the scheduler's chunk granularity match the operator's grid.

    Plans index chunks ``0 … C-1`` and the grid maps them to rows, so both
    must use the same ``C``; ``C`` is additionally capped at ``block_rows``
    (a chunk holds at least one row).  A given ``num_chunks`` must be a
    positive int.  Schedulers carrying a ``num_chunks`` field are rebound
    via ``dataclasses.replace``.
    """
    if num_chunks is not None:
        check_positive_int(num_chunks, "num_chunks")
    chunks = num_chunks or getattr(scheduler, "num_chunks", None)
    if chunks is None:
        raise ValueError(
            "num_chunks must be given for schedulers without a num_chunks field"
        )
    chunks = min(int(chunks), block_rows)
    if getattr(scheduler, "num_chunks", chunks) != chunks:
        scheduler = replace(scheduler, num_chunks=chunks)
    return scheduler, chunks


@dataclass
class BatchRunMetrics:
    """Per-trial aggregates over a batched run (one entry per round).

    Every aggregate holds one value per trial; a session's metrics are
    the one-trial case (length-1 arrays).
    """

    n_trials: int
    n_workers: int
    _latency: list[np.ndarray] = field(default_factory=list, repr=False)
    _computed: list[np.ndarray] = field(default_factory=list, repr=False)
    _used: list[np.ndarray] = field(default_factory=list, repr=False)
    _assigned: list[np.ndarray] = field(default_factory=list, repr=False)
    _predicted: list[np.ndarray] = field(default_factory=list, repr=False)
    _actual: list[np.ndarray] = field(default_factory=list, repr=False)
    _repaired: list[np.ndarray] = field(default_factory=list, repr=False)

    def add_round(
        self,
        latency: np.ndarray,
        computed: np.ndarray,
        used: np.ndarray,
        assigned: np.ndarray,
        predicted: np.ndarray,
        actual: np.ndarray,
        repaired: np.ndarray,
    ) -> None:
        """Record one round's per-trial measurements."""
        self._latency.append(np.asarray(latency, dtype=np.float64))
        self._computed.append(np.asarray(computed, dtype=np.float64))
        self._used.append(np.asarray(used, dtype=np.float64))
        self._assigned.append(np.asarray(assigned, dtype=np.float64))
        self._predicted.append(np.asarray(predicted, dtype=np.float64))
        self._actual.append(np.asarray(actual, dtype=np.float64))
        self._repaired.append(np.asarray(repaired, dtype=bool))

    def __len__(self) -> int:
        return len(self._latency)

    def round_arrays(self) -> dict[str, np.ndarray]:
        """Stacked per-round measurement tensors, keyed like ``add_round``.

        ``latency`` / ``repaired`` stack to ``(rounds, trials)``; the rest
        to ``(rounds, trials, workers)``.  The adaptive controller
        (:mod:`repro.scheduling.adaptive`) composes segment runs through
        here: scattering these back into a master metrics object through
        :meth:`add_round` reproduces the monolithic aggregates exactly.
        """
        self._require_rounds()
        return {
            "latency": np.stack(self._latency),
            "computed": np.stack(self._computed),
            "used": np.stack(self._used),
            "assigned": np.stack(self._assigned),
            "predicted": np.stack(self._predicted),
            "actual": np.stack(self._actual),
            "repaired": np.stack(self._repaired),
        }

    def _require_rounds(self) -> None:
        if not self._latency:
            raise RuntimeError("no rounds recorded yet")

    @property
    def total_time(self) -> np.ndarray:
        """Per-trial sum of round completion times, shape ``(trials,)``."""
        self._require_rounds()
        total = np.zeros(self.n_trials)
        for latency in self._latency:  # sequential, like the scalar sum()
            total = total + latency
        return total

    def wasted_fraction_of_assigned(self) -> np.ndarray:
        """Per-trial per-worker Fig 9/11 metric, shape ``(trials, workers)``."""
        self._require_rounds()
        computed = np.sum(self._computed, axis=0)
        used = np.sum(self._used, axis=0)
        assigned = np.sum(self._assigned, axis=0)
        assigned = np.maximum(assigned, np.maximum(computed, used))
        wasted = np.sum(
            [np.maximum(0.0, c - u) for c, u in zip(self._computed, self._used)],
            axis=0,
        )
        out = np.zeros_like(assigned)
        mask = assigned > 0
        out[mask] = wasted[mask] / assigned[mask]
        return out

    def misprediction_rate(self, tolerance: float = 0.15) -> np.ndarray:
        """Per-trial fraction of forecasts off by > ``tolerance``."""
        self._require_rounds()
        predicted = np.stack(self._predicted)  # (rounds, trials, workers)
        actual = np.stack(self._actual)
        return np.array(
            [
                misprediction_rate(predicted[:, t], actual[:, t], tolerance)
                for t in range(self.n_trials)
            ]
        )

    def total_wasted_fraction(self) -> np.ndarray:
        """Per-trial cluster-wide wasted / computed rows, shape ``(trials,)``.

        A trial that computed nothing reads 0.
        """
        self._require_rounds()
        computed = np.zeros(self.n_trials)
        wasted = np.zeros(self.n_trials)
        for c, u in zip(self._computed, self._used):  # round by round
            computed = computed + c.sum(axis=1)
            wasted = wasted + np.maximum(0.0, c - u).sum(axis=1)
        out = np.zeros(self.n_trials)
        mask = computed != 0
        out[mask] = wasted[mask] / computed[mask]
        return out

    @property
    def repair_count(self) -> np.ndarray:
        """Per-trial number of rounds that triggered §4.3 repair."""
        self._require_rounds()
        return np.sum(self._repaired, axis=0)


@dataclass
class _BatchOperator:
    """Shared operator adapter: one registered op of any runner family.

    Coded operators carry their scheduler; over-decomposition operators
    carry the ``(trials, partitions, slots)`` holder table; replication
    operators carry only their simulator.  The round loop in
    :class:`_BatchRunnerBase` only sees the simulator; the family-specific
    state is consulted by the subclass planning hooks.
    """

    name: str
    sim: CodedIterationSim | OverDecompositionIterationSim | ReplicationIterationSim
    scheduler: Scheduler | None = None
    holders: np.ndarray | None = None


@dataclass
class _BatchRunnerBase:
    """Shared chassis of the batched runners: one round loop, two hooks.

    :meth:`matvec` plays one round for every trial — measured speeds,
    forecast, family-specific planning (``_plan_round``), the stacked
    simulator, family-specific post-processing (``_finish_round``),
    forecaster feedback, metrics.  A round the simulator rejects (say,
    failures no repair can cover) raises before the feedback, so it
    leaves the forecaster, the metrics and the round counter untouched.
    """

    speed_model: BatchSpeedModel
    predictor: BatchPredictor
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    metrics: BatchRunMetrics = field(init=False)
    _operators: dict[str, _BatchOperator] = field(init=False, default_factory=dict)
    _iteration: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.predictor.n_trials != self.speed_model.n_trials:
            raise ValueError(
                f"predictor forecasts {self.predictor.n_trials} trials but "
                f"the speed model draws {self.speed_model.n_trials}"
            )
        self.metrics = BatchRunMetrics(
            n_trials=self.speed_model.n_trials,
            n_workers=self.speed_model.n_workers,
        )

    @property
    def n_workers(self) -> int:
        return self.speed_model.n_workers

    @property
    def n_trials(self) -> int:
        return self.speed_model.n_trials

    def _add_operator(self, op: _BatchOperator) -> None:
        if op.name in self._operators:
            raise ValueError(f"operator {op.name!r} already registered")
        self._operators[op.name] = op

    def _plan_round(self, op: _BatchOperator, predicted: np.ndarray):
        """Family planning hook; ``None`` means the family plans nothing."""
        return None

    def _finish_round(self, op: _BatchOperator, plans, outcome) -> np.ndarray:
        """Post-simulation family hook; returns the per-trial repair flags."""
        return np.zeros(self.n_trials, dtype=bool)

    def matvec(self, name: str, failed_workers: frozenset[int] = frozenset()):
        """Play one round for every trial (mat-vec or bilinear).

        ``failed_workers`` never respond this round, in every trial.
        Returns the round's plans (``None`` where the family plans
        nothing) and the simulator's stacked outcome.
        """
        op = self._operators.get(name)
        if op is None:
            raise KeyError(f"no matvec operator named {name!r}")
        actual = np.asarray(
            self.speed_model.speeds_batch(self._iteration), dtype=np.float64
        )
        predicted = np.asarray(self.predictor.predict(), dtype=np.float64)
        plans = self._plan_round(op, predicted)
        planned = () if plans is None else (plans,)
        factors_of = getattr(self.speed_model, "link_factors_batch", None)
        if getattr(op.sim, "wants_link_factors", False) and factors_of is not None:
            factors = factors_of(self._iteration)
            outcome = op.sim.run_batch(
                *planned, actual, failed_workers=failed_workers, link_factors=factors
            )
        else:
            outcome = op.sim.run_batch(*planned, actual, failed_workers=failed_workers)
        repaired = self._finish_round(op, plans, outcome)
        self.predictor.update(np.where(outcome.responded, actual, np.nan))
        self.metrics.add_round(
            latency=outcome.completion_time,
            computed=outcome.computed_rows,
            used=outcome.used_rows,
            assigned=outcome.assigned_rows,
            predicted=predicted,
            actual=actual,
            repaired=repaired,
        )
        self._iteration += 1
        return plans, outcome


@dataclass
class BatchCodedRunner(_BatchRunnerBase):
    """The coded strategies' loop (conventional MDS, S2C2, polynomial).

    Operators are registered by *geometry* (row/column counts and the
    code's recovery threshold) instead of by encoded matrices;
    :class:`~repro.runtime.session.CodedSession` is its one-trial view
    that encodes the matrices and decodes each round.

    ``backend`` selects the simulator core: ``"closed"`` (the analytic
    default) or ``"event"`` (the link-aware backend of
    :mod:`repro.cluster.events`, bitwise-equal to the closed form on
    healthy links and additionally sensitive to link degradation from
    network scenarios).
    """

    timeout: TimeoutPolicy | None = None
    backend: str = "closed"

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.cluster.events import check_backend

        check_backend(self.backend)

    def _make_sim(self, **kwargs) -> CodedIterationSim:
        if self.backend == "event":
            from repro.cluster.events import EventDrivenIterationSim

            return EventDrivenIterationSim(**kwargs)
        return CodedIterationSim(**kwargs)

    def register_matvec(
        self,
        name: str,
        total_rows: int,
        width: int,
        k: int,
        scheduler: Scheduler,
        num_chunks: int | None = None,
    ) -> None:
        """Register the latency geometry of an (n, k)-coded mat-vec.

        A ``total_rows × width`` matrix encoded at recovery threshold ``k``
        gets the encoded partition height and chunk grid of
        :meth:`~repro.coding.mds.MDSCode.encode`, without encoding anything.
        ``k`` must be in ``[1, n_workers]`` and at most the scheduler's
        ``coverage`` (when it declares one), so every round can decode.
        """
        self._check_threshold(k, scheduler)
        block_rows = RowPartition(total_rows, k).block_rows
        scheduler, chunks = _harmonise_granularity(scheduler, num_chunks, block_rows)
        sim = self._make_sim(
            grid=ChunkGrid(block_rows, chunks),
            width=width,
            width_out=1,
            network=self.network,
            cost=self.cost,
            timeout=self.timeout,
        )
        self._add_operator(_BatchOperator(name=name, sim=sim, scheduler=scheduler))

    def register_bilinear(
        self,
        name: str,
        left_rows: int,
        inner: int,
        right_cols: int,
        a: int,
        b: int,
        scheduler: Scheduler,
        num_chunks: int | None = None,
        diag_pass_factor: float = 20.0,
    ) -> None:
        """Register the latency geometry of a polynomial-coded bilinear op.

        ``left (left_rows × inner) @ diag(x) @ right (inner × right_cols)``
        split ``a × b`` gets the chunk grid, effective row width, fixed
        per-task ``diag(x)`` cost and broadcast width of the encoded
        matrices; the recovery threshold ``a·b`` is checked as ``k`` is in
        :meth:`register_matvec`.
        """
        self._check_threshold(a * b, scheduler)
        check_block_count(a, "a", left_rows, "left_rows")
        check_block_count(b, "b", right_cols, "right_cols")
        block_rows = RowPartition(left_rows, a).block_rows
        block_cols = RowPartition(right_cols, b).block_rows
        scheduler, chunks = _harmonise_granularity(scheduler, num_chunks, block_rows)
        sim = self._make_sim(
            grid=ChunkGrid(block_rows, chunks),
            width=inner * block_cols,
            width_out=block_cols,
            broadcast_width=inner,
            fixed_task_flops=diag_pass_factor * inner * block_cols,
            network=self.network,
            cost=self.cost,
            timeout=self.timeout,
        )
        self._add_operator(_BatchOperator(name=name, sim=sim, scheduler=scheduler))

    def _check_threshold(self, k: int, scheduler: Scheduler) -> None:
        coverage = getattr(scheduler, "coverage", k)
        if not 1 <= k <= self.n_workers or coverage < k:
            raise ValueError(
                f"recovery threshold k={k} cannot decode: it needs "
                f"1 <= k <= {self.n_workers} workers and a scheduler "
                f"coverage >= k, got coverage={coverage}"
            )

    def _plan_round(self, op: _BatchOperator, predicted: np.ndarray):
        return plan_batch(op.scheduler, predicted)

    def _finish_round(self, op: _BatchOperator, plans, outcome) -> np.ndarray:
        return outcome.repaired


@dataclass
class BatchOverDecompositionRunner(_BatchRunnerBase):
    """The Charm++-like over-decomposition baseline's loop (§7.2).

    Each round is one
    :func:`~repro.scheduling.overdecomposition.plan_assignment_batch` call
    over the operator's holder table, whose rows evolve per trial as
    migrated copies become resident (as in Charm++: a persistent speed
    skew pays its migrations once, while churning speeds keep paying).
    :class:`~repro.runtime.session.OverDecompositionSession` is its
    one-trial view.
    """

    factor: int = 4
    replication: float = 1.42

    def register_matvec(self, name: str, total_rows: int, width: int) -> None:
        """Register the latency geometry of an over-decomposed mat-vec.

        A ``total_rows × width`` matrix split into ``factor × n``
        partitions, placed by
        :class:`~repro.scheduling.overdecomposition.OverDecompositionPlacement`;
        no matrix is built.
        """
        placement = OverDecompositionPlacement(
            self.n_workers, factor=self.factor, replication=self.replication
        )
        check_block_count(
            placement.num_partitions, "factor × n_workers", total_rows, "total_rows"
        )
        part = RowPartition(total_rows, placement.num_partitions)
        sim = OverDecompositionIterationSim(
            rows_per_partition=part.block_rows,
            width=width,
            network=self.network,
            cost=self.cost,
        )
        holders = np.repeat(holder_table(placement.holders)[None], self.n_trials, 0)
        self._add_operator(_BatchOperator(name=name, sim=sim, holders=holders))

    def _plan_round(self, op: _BatchOperator, predicted: np.ndarray):
        return plan_assignment_batch(op.holders, np.clip(predicted, 1e-9, None))

    def _finish_round(self, op: _BatchOperator, plans, outcome) -> np.ndarray:
        # A migrated copy stays resident: its new owner (never a holder,
        # whose quota pass 1 spent) takes the row's first free slot.
        t, p = np.nonzero(plans.migrated)
        free = (op.holders[t, p] >= 0).sum(axis=1)
        if np.any(free == op.holders.shape[2]):
            op.holders = np.pad(op.holders, [(0, 0)] * 2 + [(0, 1)], constant_values=-1)
        op.holders[t, p, free] = plans.owner[t, p]
        return super()._finish_round(op, plans, outcome)


@dataclass
class BatchReplicationRunner(_BatchRunnerBase):
    """The uncoded r-replication + speculation baseline's loop (§7.1).

    The replication baseline plans nothing: each round simulates every
    trial's primaries and speculative copies through
    :meth:`~repro.cluster.simulator.ReplicationIterationSim.run_batch` and
    feeds the measured speeds back to the forecaster (whose predictions
    are only recorded).  :class:`~repro.runtime.session.ReplicationSession`
    is its one-trial view.
    """

    config: SpeculationConfig = field(default_factory=SpeculationConfig)

    def register_matvec(self, name: str, total_rows: int, width: int) -> None:
        """Register the latency geometry of a replicated uncoded mat-vec.

        A ``total_rows × width`` matrix split into ``n`` partitions with a
        seed-0 replica placement; no matrix is built.
        """
        check_block_count(self.n_workers, "n_workers", total_rows, "total_rows")
        sim = ReplicationIterationSim(
            placement=ReplicaPlacement(
                self.n_workers, self.config.replication, seed=0
            ),
            config=self.config,
            rows_per_partition=RowPartition(total_rows, self.n_workers).block_rows,
            width=width,
            network=self.network,
            cost=self.cost,
        )
        self._add_operator(_BatchOperator(name=name, sim=sim))


#: The runner families :func:`build_batch_runner` can construct.
_RUNNER_FAMILIES = {
    "coded": BatchCodedRunner,
    "overdecomposition": BatchOverDecompositionRunner,
    "replication": BatchReplicationRunner,
}


def build_batch_runner(
    family: str,
    speed_model: BatchSpeedModel,
    predictor: BatchPredictor,
    *,
    network: NetworkModel | None = None,
    cost: CostModel | None = None,
    **knobs,
) -> _BatchRunnerBase:
    """One construction surface for the batched runner families.

    ``family`` is ``"coded"`` (knobs: ``timeout``, ``backend``),
    ``"overdecomposition"`` (knobs: ``factor``, ``replication``) or
    ``"replication"`` (knob: ``config``); unknown families and knobs raise
    ``ValueError`` listing what is available.  The experiment harness, the
    execution engine and the sessions build every runner through here, so
    the families cannot drift apart.
    """
    try:
        runner_cls = _RUNNER_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown batch-runner family {family!r}; available: "
            f"{', '.join(sorted(_RUNNER_FAMILIES))}"
        ) from None
    init_fields = {
        f.name
        for f in runner_cls.__dataclass_fields__.values()
        if f.init and f.name not in {"speed_model", "predictor", "network", "cost"}
    }
    unknown = set(knobs) - init_fields
    if unknown:
        raise ValueError(
            f"family {family!r} has no knob(s) {sorted(unknown)}; "
            f"available: {sorted(init_fields)}"
        )
    kwargs = dict(knobs)
    if network is not None:
        kwargs["network"] = network
    if cost is not None:
        kwargs["cost"] = cost
    return runner_cls(speed_model=speed_model, predictor=predictor, **kwargs)
