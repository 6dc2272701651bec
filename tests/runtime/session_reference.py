"""The per-trial numeric sessions: the oracle of the session views.

``CodedSession``, ``ReplicationSession`` and ``OverDecompositionSession``
(:mod:`repro.runtime.session`) are one-trial views of the batched runners
of :mod:`repro.runtime.batch`: every round is played by
``_BatchRunnerBase.matvec``, and a session adds only encode, compute and
decode.  This module is the session loop they replaced, frozen here so the
equivalence suites can pin the views and the runners against it: each
session forecasts, plans (``Scheduler.plan``, or the frozen per-trial
over-decomposition planner), simulates one trial (the coded simulator's
``run``, the frozen uncoded walks of ``tests/cluster/uncoded_reference.py``),
decodes, feeds the measured speeds back and records an
:class:`IterationRecord` into a :class:`RunMetrics`.  The
``run_*_lr_like`` harnesses drive the 'A then Aᵀ' round pattern of the
LR-like figures on them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.simulator import (
    CodedIterationSim,
    OverDecompositionIterationSim,
    ReplicationIterationSim,
)
from repro.cluster.speed_models import SpeedModel
from repro.coding.mds import MDSCode
from repro.coding.partition import ChunkGrid, RowPartition
from repro.coding.polynomial import PolynomialCode
from repro.experiments.harness import controlled_cost, controlled_network
from repro.prediction.predictor import OnlinePredictor, misprediction_rate
from repro.scheduling.base import Scheduler
from repro.scheduling.overdecomposition import OverDecompositionPlacement
from repro.scheduling.replication import ReplicaPlacement, SpeculationConfig
from repro.scheduling.timeout import TimeoutPolicy

# The frozen uncoded walks live with the other simulator oracles.
_CLUSTER_TESTS = str(Path(__file__).resolve().parents[1] / "cluster")
if _CLUSTER_TESTS not in sys.path:
    sys.path.append(_CLUSTER_TESTS)
import uncoded_reference as uncoded  # noqa: E402


@dataclass(frozen=True)
class IterationRecord:
    """Everything measured in one simulated iteration."""

    iteration: int
    operator: str
    latency: float
    decode_time: float
    broadcast_time: float
    computed_rows: np.ndarray
    used_rows: np.ndarray
    predicted_speeds: np.ndarray
    actual_speeds: np.ndarray
    repaired: bool = False
    data_moved_bytes: float = 0.0
    speculative_launches: int = 0
    migrations: int = 0
    assigned_rows: np.ndarray | None = None

    @property
    def wasted_rows(self) -> np.ndarray:
        """Per-worker rows computed but not used this iteration."""
        return np.maximum(0.0, self.computed_rows - self.used_rows)


@dataclass
class RunMetrics:
    """Accumulates :class:`IterationRecord` objects over a run."""

    records: list[IterationRecord] = field(default_factory=list)

    def add(self, record: IterationRecord) -> None:
        """Append one iteration's record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def _require_records(self) -> None:
        if not self.records:
            raise RuntimeError("no iterations recorded yet")

    @property
    def total_time(self) -> float:
        """Sum of iteration completion times (the paper's execution time)."""
        self._require_records()
        return float(sum(r.latency for r in self.records))

    @property
    def mean_latency(self) -> float:
        """Average per-iteration latency."""
        self._require_records()
        return self.total_time / len(self.records)

    def wasted_fraction_per_worker(self) -> np.ndarray:
        """Per-worker wasted / computed rows, aggregated over the run."""
        self._require_records()
        computed = np.sum([r.computed_rows for r in self.records], axis=0)
        wasted = np.sum([r.wasted_rows for r in self.records], axis=0)
        out = np.zeros_like(computed, dtype=np.float64)
        mask = computed > 0
        out[mask] = wasted[mask] / computed[mask]
        return out

    def wasted_fraction_of_assigned(self) -> np.ndarray:
        """Per-worker wasted rows relative to *assigned* rows (Figs 9/11).

        This is the paper's per-worker metric: a worker cancelled when it
        was 90% through its partition shows 90% here (and 100% under the
        wasted-of-computed metric).  Records missing ``assigned_rows``
        (older producers) fall back to ``max(computed, used)``.
        """
        self._require_records()
        computed = np.sum([r.computed_rows for r in self.records], axis=0)
        used = np.sum([r.used_rows for r in self.records], axis=0)
        assigned = np.sum(
            [
                r.assigned_rows
                if r.assigned_rows is not None
                else np.maximum(r.computed_rows, r.used_rows)
                for r in self.records
            ],
            axis=0,
        )
        # Repair rounds can push computed above the original assignment.
        assigned = np.maximum(assigned, np.maximum(computed, used))
        wasted = np.sum([r.wasted_rows for r in self.records], axis=0)
        out = np.zeros_like(assigned, dtype=np.float64)
        mask = assigned > 0
        out[mask] = wasted[mask] / assigned[mask]
        return out

    def total_wasted_fraction(self) -> float:
        """Cluster-wide wasted / computed rows over the whole run."""
        self._require_records()
        computed = float(sum(r.computed_rows.sum() for r in self.records))
        wasted = float(sum(r.wasted_rows.sum() for r in self.records))
        return 0.0 if computed == 0 else wasted / computed

    def misprediction_rate(self, tolerance: float = 0.15) -> float:
        """Fraction of (node, iteration) forecasts off by > ``tolerance``."""
        self._require_records()
        predicted = np.concatenate([r.predicted_speeds for r in self.records])
        actual = np.concatenate([r.actual_speeds for r in self.records])
        return misprediction_rate(predicted, actual, tolerance)

    @property
    def repair_count(self) -> int:
        """Iterations that triggered the §4.3 timeout repair."""
        self._require_records()
        return sum(1 for r in self.records if r.repaired)

    @property
    def total_data_moved_bytes(self) -> float:
        """Bytes migrated for load balancing (0 for coded strategies)."""
        self._require_records()
        return float(sum(r.data_moved_bytes for r in self.records))


def _harmonise_granularity(
    scheduler: Scheduler, num_chunks: int | None, block_rows: int
) -> tuple[Scheduler, int]:
    """Make the scheduler's chunk granularity match the operator's grid.

    Plans index chunks ``0 … C-1`` and the grid maps them to rows, so both
    must use the same ``C``; ``C`` is additionally capped at ``block_rows``
    (a chunk holds at least one row).  Schedulers carrying a ``num_chunks``
    field are rebound via ``dataclasses.replace``.
    """
    import dataclasses

    chunks = num_chunks or getattr(scheduler, "num_chunks", None)
    if chunks is None:
        raise ValueError(
            "num_chunks must be given for schedulers without a num_chunks field"
        )
    chunks = min(int(chunks), block_rows)
    if getattr(scheduler, "num_chunks", chunks) != chunks:
        scheduler = dataclasses.replace(scheduler, num_chunks=chunks)
    return scheduler, chunks


@dataclass
class _BaseSession:
    """State shared by all session flavours."""

    speed_model: SpeedModel
    predictor: OnlinePredictor
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    metrics: RunMetrics = field(default_factory=RunMetrics)
    _iteration: int = field(init=False, default=0)
    _fail_next: frozenset[int] = field(init=False, default=frozenset())

    @property
    def iteration(self) -> int:
        """Number of compute rounds played so far."""
        return self._iteration

    @property
    def n_workers(self) -> int:
        """Cluster size."""
        return self.speed_model.n_workers

    def fail_next(self, workers: frozenset[int] | set[int]) -> None:
        """Inject worker failures into the next compute round only."""
        bad = frozenset(int(w) for w in workers)
        if any(w < 0 or w >= self.n_workers for w in bad):
            raise IndexError("failed worker index out of range")
        self._fail_next = bad

    def _take_failures(self) -> frozenset[int]:
        failures, self._fail_next = self._fail_next, frozenset()
        return failures

    def _feedback(self, actual: np.ndarray, responded: np.ndarray) -> None:
        """Feed measured speeds to the predictor (NaN where unmeasured)."""
        observed = np.where(responded, actual, np.nan)
        self.predictor.update(observed)


@dataclass
class _CodedOperator:
    name: str
    encoded: object  # EncodedMatrix | EncodedBilinear
    scheduler: Scheduler
    sim: CodedIterationSim
    kind: str  # "matvec" | "bilinear"


@dataclass
class CodedSession(_BaseSession):
    """Session for coded strategies (conventional MDS, S2C2, polynomial).

    The choice of :class:`~repro.scheduling.base.Scheduler` at registration
    time decides the strategy; the optional ``timeout`` enables §4.3
    repair.
    """

    timeout: TimeoutPolicy | None = None
    _operators: dict[str, _CodedOperator] = field(init=False, default_factory=dict)

    def register_matvec(
        self,
        name: str,
        matrix: np.ndarray,
        code: MDSCode,
        scheduler: Scheduler,
        num_chunks: int | None = None,
    ) -> None:
        """Encode ``matrix`` with ``code`` and register it under ``name``.

        ``num_chunks`` defaults to the scheduler's granularity when it has
        one (S2C2 schedulers do) so plans and grids always agree.
        """
        if name in self._operators:
            raise ValueError(f"operator {name!r} already registered")
        if code.n != self.n_workers:
            raise ValueError(
                f"code has n={code.n} but the cluster has {self.n_workers} workers"
            )
        encoded = code.encode(matrix)
        scheduler, chunks = _harmonise_granularity(
            scheduler, num_chunks, encoded.block_rows
        )
        sim = CodedIterationSim(
            grid=ChunkGrid(encoded.block_rows, chunks),
            width=encoded.width,
            width_out=1,
            network=self.network,
            cost=self.cost,
            timeout=self.timeout,
        )
        self._operators[name] = _CodedOperator(
            name=name, encoded=encoded, scheduler=scheduler, sim=sim, kind="matvec"
        )

    def register_bilinear(
        self,
        name: str,
        left: np.ndarray,
        right: np.ndarray,
        code: PolynomialCode,
        scheduler: Scheduler,
        num_chunks: int | None = None,
        diag_pass_factor: float = 20.0,
    ) -> None:
        """Encode ``left @ right`` with a polynomial code under ``name``.

        ``diag_pass_factor`` scales the fixed (row-count-independent)
        per-task cost of scaling ``diag(x)`` into the stored right
        partition — a memory-bound pass over ``inner × block_cols``
        elements that S2C2 cannot shrink (§7.2.3); the default treats it
        as ~20 flop-equivalents per element (bandwidth-bound).
        """
        if name in self._operators:
            raise ValueError(f"operator {name!r} already registered")
        if code.n != self.n_workers:
            raise ValueError(
                f"code has n={code.n} but the cluster has {self.n_workers} workers"
            )
        encoded = code.encode(left, right)
        scheduler, chunks = _harmonise_granularity(
            scheduler, num_chunks, encoded.block_rows
        )
        inner = encoded.left.shape[2]
        sim = CodedIterationSim(
            grid=ChunkGrid(encoded.block_rows, chunks),
            # Effective per-row flop width of Ã_i[r] @ diag(x) @ B̃_i.
            width=inner * encoded.block_cols,
            width_out=encoded.block_cols,
            broadcast_width=inner,
            fixed_task_flops=diag_pass_factor * inner * encoded.block_cols,
            network=self.network,
            cost=self.cost,
            timeout=self.timeout,
        )
        self._operators[name] = _CodedOperator(
            name=name, encoded=encoded, scheduler=scheduler, sim=sim, kind="bilinear"
        )

    def _play_round(self, op: _CodedOperator, compute_fn, width_out: int):
        actual = np.asarray(self.speed_model.speeds(self._iteration), dtype=np.float64)
        predicted = np.asarray(self.predictor.predict(), dtype=np.float64)
        plan = op.scheduler.plan(predicted)
        outcome = op.sim.run(plan, actual, failed_workers=self._take_failures())
        # EncodedMatrix.decoder takes a width; EncodedBilinear's is fixed.
        decoder = (
            op.encoded.decoder()
            if op.kind == "bilinear"
            else op.encoded.decoder(width_out)
        )
        for worker, chunks in outcome.contributions.items():
            rows = op.sim.grid.rows_of_chunks(np.asarray(chunks, dtype=np.int64))
            decoder.add(worker, rows, compute_fn(worker, rows))
        result = op.encoded.assemble(decoder.solve())
        responded = np.array(
            [s.response_time is not None for s in outcome.workers], dtype=bool
        )
        self._feedback(actual, responded)
        self.metrics.add(
            IterationRecord(
                iteration=self._iteration,
                operator=op.name,
                latency=outcome.completion_time,
                decode_time=outcome.decode_time,
                broadcast_time=outcome.broadcast_time,
                computed_rows=np.array([s.computed_rows for s in outcome.workers]),
                used_rows=np.array(
                    [float(s.used_rows) for s in outcome.workers]
                ),
                assigned_rows=np.array(
                    [float(s.assigned_rows) for s in outcome.workers]
                ),
                predicted_speeds=predicted,
                actual_speeds=actual,
                repaired=outcome.repaired,
                data_moved_bytes=outcome.data_moved_bytes,
            )
        )
        self._iteration += 1
        return result

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One coded mat-vec round: returns the exact ``A @ x``."""
        op = self._operators.get(name)
        if op is None or op.kind != "matvec":
            raise KeyError(f"no matvec operator named {name!r}")
        x = np.asarray(x, dtype=np.float64)
        return self._play_round(
            op, lambda w, rows: op.encoded.compute(w, rows, x), width_out=1
        )

    def bilinear(self, name: str, diag: np.ndarray | None = None) -> np.ndarray:
        """One coded bilinear round: returns ``left @ diag(x) @ right``."""
        op = self._operators.get(name)
        if op is None or op.kind != "bilinear":
            raise KeyError(f"no bilinear operator named {name!r}")
        return self._play_round(
            op,
            lambda w, rows: op.encoded.compute(w, rows, diag=diag),
            width_out=op.encoded.block_cols,
        )


@dataclass
class _UncodedOperator:
    name: str
    matrix: np.ndarray
    part: RowPartition


@dataclass
class ReplicationSession(_BaseSession):
    """Session for the uncoded r-replication + speculation baseline."""

    config: SpeculationConfig = field(default_factory=SpeculationConfig)
    _operators: dict[str, tuple[_UncodedOperator, ReplicationIterationSim]] = field(
        init=False, default_factory=dict
    )

    def register_matvec(self, name: str, matrix: np.ndarray) -> None:
        """Partition ``matrix`` into ``n`` replicated uncoded partitions."""
        if name in self._operators:
            raise ValueError(f"operator {name!r} already registered")
        matrix = np.asarray(matrix, dtype=np.float64)
        part = RowPartition(matrix.shape[0], self.n_workers)
        placement = ReplicaPlacement(self.n_workers, self.config.replication, seed=0)
        sim = ReplicationIterationSim(
            placement=placement,
            config=self.config,
            rows_per_partition=part.block_rows,
            width=matrix.shape[1],
            network=self.network,
            cost=self.cost,
        )
        self._operators[name] = (
            _UncodedOperator(name=name, matrix=matrix, part=part),
            sim,
        )

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One replicated uncoded round: returns the exact ``A @ x``."""
        entry = self._operators.get(name)
        if entry is None:
            raise KeyError(f"no operator named {name!r}")
        op, sim = entry
        actual = np.asarray(self.speed_model.speeds(self._iteration), dtype=np.float64)
        predicted = np.asarray(self.predictor.predict(), dtype=np.float64)
        outcome = uncoded.reference_run(sim, actual, self._take_failures())
        result = op.matrix @ np.asarray(x, dtype=np.float64)
        responded = np.array(
            [s.response_time is not None for s in outcome.workers], dtype=bool
        )
        self._feedback(actual, responded)
        self.metrics.add(
            IterationRecord(
                iteration=self._iteration,
                operator=name,
                latency=outcome.completion_time,
                decode_time=0.0,
                broadcast_time=outcome.broadcast_time,
                computed_rows=np.array([s.computed_rows for s in outcome.workers]),
                used_rows=np.array([float(s.used_rows) for s in outcome.workers]),
                assigned_rows=np.array(
                    [float(s.assigned_rows) for s in outcome.workers]
                ),
                predicted_speeds=predicted,
                actual_speeds=actual,
                data_moved_bytes=outcome.data_moved_bytes,
                speculative_launches=outcome.speculative_launches,
            )
        )
        self._iteration += 1
        return result


@dataclass
class OverDecompositionSession(_BaseSession):
    """Session for the Charm++-like over-decomposition baseline (§7.2).

    Migrated partition copies stay resident on their new workers (as in
    Charm++): a persistent speed skew pays its migrations once, while
    churning speeds keep paying — which is exactly why this baseline loses
    to S2C2 only in the high mis-prediction environment (Figs 8 vs 10).
    """

    factor: int = 4
    replication: float = 1.42
    _operators: dict[
        str,
        tuple[_UncodedOperator, list[tuple[int, ...]], OverDecompositionIterationSim],
    ] = field(init=False, default_factory=dict)

    def register_matvec(self, name: str, matrix: np.ndarray) -> None:
        """Partition ``matrix`` into ``factor × n`` uncoded partitions."""
        if name in self._operators:
            raise ValueError(f"operator {name!r} already registered")
        matrix = np.asarray(matrix, dtype=np.float64)
        placement = OverDecompositionPlacement(
            self.n_workers, factor=self.factor, replication=self.replication
        )
        part = RowPartition(matrix.shape[0], placement.num_partitions)
        sim = OverDecompositionIterationSim(
            rows_per_partition=part.block_rows,
            width=matrix.shape[1],
            network=self.network,
            cost=self.cost,
        )
        self._operators[name] = (
            _UncodedOperator(name=name, matrix=matrix, part=part),
            list(placement.holders),
            sim,
        )

    def storage_fraction(self, name: str) -> float:
        """Current mean fraction of the data resident per worker."""
        entry = self._operators.get(name)
        if entry is None:
            raise KeyError(f"no operator named {name!r}")
        _op, holders, _sim = entry
        copies = sum(len(h) for h in holders)
        return copies / len(holders) / self.n_workers

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One over-decomposition round: returns the exact ``A @ x``."""
        entry = self._operators.get(name)
        if entry is None:
            raise KeyError(f"no operator named {name!r}")
        op, holders, sim = entry
        actual = np.asarray(self.speed_model.speeds(self._iteration), dtype=np.float64)
        predicted = np.asarray(self.predictor.predict(), dtype=np.float64)
        plan = uncoded.reference_plan_assignment(
            holders, np.clip(predicted, 1e-9, None), self.n_workers
        )
        outcome = uncoded.reference_overdecomposition_run(
            sim, plan, actual, self._take_failures()
        )
        uncoded.grow_holders(holders, plan)
        result = op.matrix @ np.asarray(x, dtype=np.float64)
        responded = np.array(
            [s.response_time is not None for s in outcome.workers], dtype=bool
        )
        self._feedback(actual, responded)
        self.metrics.add(
            IterationRecord(
                iteration=self._iteration,
                operator=name,
                latency=outcome.completion_time,
                decode_time=0.0,
                broadcast_time=outcome.broadcast_time,
                computed_rows=np.array([s.computed_rows for s in outcome.workers]),
                used_rows=np.array([float(s.used_rows) for s in outcome.workers]),
                assigned_rows=np.array(
                    [float(s.assigned_rows) for s in outcome.workers]
                ),
                predicted_speeds=predicted,
                actual_speeds=actual,
                data_moved_bytes=outcome.data_moved_bytes,
                migrations=outcome.migrations,
            )
        )
        self._iteration += 1
        return result


def _lr_like_loop(session, width: int, iterations: int, rng: np.random.Generator):
    """Drive ``iterations`` rounds of the 'A then Aᵀ' two-mat-vec pattern.

    All the latency figures depend only on the mat-vec shapes, so the
    runners share this loop; the actual LR/SVM/PageRank apps are exercised
    (and checked numerically) in the application tests and examples.
    """
    x = rng.normal(size=width)
    for _ in range(iterations):
        y = session.matvec("A", x)
        x = session.matvec("At", y / max(1.0, np.abs(y).max()))
        x = x / max(1.0, np.abs(x).max())


def run_coded_lr_like(
    matrix: np.ndarray,
    code_factory,
    scheduler: Scheduler,
    speed_model: SpeedModel,
    predictor: OnlinePredictor,
    iterations: int = 15,
    timeout: TimeoutPolicy | None = None,
    seed: int = 0,
) -> CodedSession:
    """Run the LR-like loop on a coded session; returns it with metrics."""
    session = CodedSession(
        speed_model=speed_model,
        predictor=predictor,
        network=controlled_network(),
        cost=controlled_cost(),
        timeout=timeout,
    )
    session.register_matvec("A", matrix, code_factory(), scheduler)
    session.register_matvec("At", matrix.T, code_factory(), scheduler)
    _lr_like_loop(session, matrix.shape[1], iterations, np.random.default_rng(seed))
    return session


def run_replicated_lr_like(
    matrix: np.ndarray,
    speed_model: SpeedModel,
    predictor: OnlinePredictor,
    iterations: int = 15,
    seed: int = 0,
    config=None,
) -> ReplicationSession:
    """Run the LR-like loop on the replication baseline."""
    kwargs = {} if config is None else {"config": config}
    session = ReplicationSession(
        speed_model=speed_model,
        predictor=predictor,
        network=controlled_network(),
        cost=controlled_cost(),
        **kwargs,
    )
    session.register_matvec("A", matrix)
    session.register_matvec("At", matrix.T)
    _lr_like_loop(session, matrix.shape[1], iterations, np.random.default_rng(seed))
    return session


def run_overdecomposition_lr_like(
    matrix: np.ndarray,
    speed_model: SpeedModel,
    predictor: OnlinePredictor,
    iterations: int = 15,
    factor: int = 4,
    replication: float = 1.42,
    seed: int = 0,
) -> OverDecompositionSession:
    """Run the LR-like loop on the over-decomposition baseline."""
    session = OverDecompositionSession(
        speed_model=speed_model,
        predictor=predictor,
        network=controlled_network(),
        cost=controlled_cost(),
        factor=factor,
        replication=replication,
    )
    session.register_matvec("A", matrix)
    session.register_matvec("At", matrix.T)
    _lr_like_loop(session, matrix.shape[1], iterations, np.random.default_rng(seed))
    return session
