"""Compute sessions: the numeric face of the master's control loop (§6.2).

A session owns a cluster (speed model + cost models), an online speed
predictor, and one or more registered *operators* (encoded matrices or
uncoded partitioned matrices).  It is a one-trial view of its family's
runner in :mod:`repro.runtime.batch`, which plays every round as the
paper's master does: forecast per-worker speeds, build a work plan,
simulate the iteration against the *actual* speeds, feed the measured
speeds back to the predictor, and record the round.  The session adds
only the numeric payload: it encodes each operator at registration, and
after a round computes the contributions the master used and decodes the
true result (an uncoded session computes the product directly).

The numeric result is exact (tested against direct computation), so
applications built on a session double as end-to-end correctness tests of
the coding layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.speed_models import SpeedModel, StackedSpeeds
from repro.coding.mds import MDSCode
from repro.coding.polynomial import PolynomialCode
from repro.prediction.predictor import OnlinePredictor, StackedPredictor
from repro.runtime.batch import BatchRunMetrics, build_batch_runner
from repro.scheduling.base import Scheduler
from repro.scheduling.replication import SpeculationConfig
from repro.scheduling.timeout import TimeoutPolicy

__all__ = ["CodedSession", "ReplicationSession", "OverDecompositionSession"]


def _checked_operand(value, length: int, name: str) -> np.ndarray:
    """``value`` as a float vector of ``length``; a ``ValueError`` names it."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {value.shape}")
    return value


@dataclass
class _Session:
    """State shared by all session flavours: a one-trial runner."""

    speed_model: SpeedModel
    predictor: OnlinePredictor
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    _fail_next: frozenset[int] = field(init=False, default=frozenset())

    def _start(self, family: str, **knobs) -> None:
        self._runner = build_batch_runner(
            family,
            StackedSpeeds([self.speed_model]),
            StackedPredictor([self.predictor]),
            network=self.network,
            cost=self.cost,
            **knobs,
        )
        self._operators: dict = {}

    @property
    def metrics(self) -> BatchRunMetrics:
        """The runner's metrics: each aggregate holds one value (trial 0)."""
        return self._runner.metrics

    @property
    def iteration(self) -> int:
        """Number of compute rounds played so far."""
        return self._runner._iteration

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

    def _round(self, name: str):
        """Play ``name``'s round; returns its failures, plans and outcome."""
        failures, self._fail_next = self._fail_next, frozenset()
        return (failures, *self._runner.matvec(name, failed_workers=failures))


@dataclass
class CodedSession(_Session):
    """Session for coded strategies (conventional MDS, S2C2, polynomial).

    The choice of :class:`~repro.scheduling.base.Scheduler` at registration
    time decides the strategy; the optional ``timeout`` enables §4.3
    repair.
    """

    timeout: TimeoutPolicy | None = None

    def __post_init__(self) -> None:
        self._start("coded", timeout=self.timeout)

    def _check_code(self, code) -> None:
        if code.n != self.n_workers:
            raise ValueError(
                f"code has n={code.n} but the cluster has {self.n_workers} workers"
            )

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
        self._check_code(code)
        encoded = code.encode(matrix)
        self._runner.register_matvec(
            name, encoded.part.total_rows, encoded.width, code.k, scheduler, num_chunks
        )
        self._operators[name] = ("matvec", encoded)

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
        self._check_code(code)
        encoded = code.encode(left, right)
        self._runner.register_bilinear(
            name,
            encoded.row_part.total_rows,
            encoded.left.shape[2],
            encoded.col_part.total_rows,
            code.a,
            code.b,
            scheduler,
            num_chunks,
            diag_pass_factor,
        )
        self._operators[name] = ("bilinear", encoded)

    def _operator(self, name: str, kind: str):
        entry = self._operators.get(name)
        if entry is None or entry[0] != kind:
            raise KeyError(f"no {kind} operator named {name!r}")
        return entry[1]

    def _decode(self, name: str, encoded, decoder, compute) -> np.ndarray:
        failures, plans, outcome = self._round(name)
        sim = self._runner._operators[name].sim
        speeds = self._runner.speed_model.speeds_batch(self.iteration - 1)[0]
        used = sim.contributions(plans[0], speeds, failures, outcome)
        for worker, chunks in used.items():
            rows = sim.grid.rows_of_chunks(np.asarray(chunks, dtype=np.int64))
            decoder.add(worker, rows, compute(worker, rows))
        return encoded.assemble(decoder.solve())

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One coded mat-vec round: returns the exact ``A @ x``."""
        encoded = self._operator(name, "matvec")
        x = _checked_operand(x, encoded.width, "x")
        return self._decode(
            name, encoded, encoded.decoder(1), lambda w, rows: encoded.compute(w, rows, x)
        )

    def bilinear(self, name: str, diag: np.ndarray | None = None) -> np.ndarray:
        """One coded bilinear round: returns ``left @ diag(x) @ right``."""
        encoded = self._operator(name, "bilinear")
        if diag is not None:
            diag = _checked_operand(diag, encoded.left.shape[2], "diag")
        return self._decode(
            name,
            encoded,
            encoded.decoder(),
            lambda w, rows: encoded.compute(w, rows, diag=diag),
        )


@dataclass
class _UncodedSession(_Session):
    """An uncoded baseline: the master keeps the matrix and multiplies."""

    def register_matvec(self, name: str, matrix: np.ndarray) -> None:
        """Partition ``matrix`` as the baseline does and register it."""
        matrix = np.asarray(matrix, dtype=np.float64)
        self._runner.register_matvec(name, *matrix.shape)
        self._operators[name] = matrix

    def _product(self, name: str, x: np.ndarray) -> np.ndarray:
        matrix = self._operators.get(name)
        if matrix is None:
            raise KeyError(f"no operator named {name!r}")
        x = _checked_operand(x, matrix.shape[1], "x")
        self._round(name)
        return matrix @ x


@dataclass
class ReplicationSession(_UncodedSession):
    """Session for the uncoded r-replication + speculation baseline."""

    config: SpeculationConfig = field(default_factory=SpeculationConfig)

    def __post_init__(self) -> None:
        self._start("replication", config=self.config)

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One replicated uncoded round: returns the exact ``A @ x``."""
        return self._product(name, x)


@dataclass
class OverDecompositionSession(_UncodedSession):
    """Session for the Charm++-like over-decomposition baseline (§7.2).

    Migrated partition copies stay resident on their new workers (as in
    Charm++): a persistent speed skew pays its migrations once, while
    churning speeds keep paying — which is exactly why this baseline loses
    to S2C2 only in the high mis-prediction environment (Figs 8 vs 10).
    """

    factor: int = 4
    replication: float = 1.42

    def __post_init__(self) -> None:
        self._start(
            "overdecomposition", factor=self.factor, replication=self.replication
        )

    def storage_fraction(self, name: str) -> float:
        """Current mean fraction of the data resident per worker."""
        if name not in self._operators:
            raise KeyError(f"no operator named {name!r}")
        holders = self._runner._operators[name].holders[0]
        copies = int((holders >= 0).sum())
        return copies / len(holders) / self.n_workers

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """One over-decomposition round: returns the exact ``A @ x``."""
        return self._product(name, x)
