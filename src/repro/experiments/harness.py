"""Shared experiment plumbing: result tables and the LR-like round pattern.

Every ``figNN_*.py`` module exposes ``run(quick=True) -> ExperimentResult``
returning the same rows/series the paper's figure reports (normalised the
same way); ``python -m repro experiments <name>`` prints the table.
``quick=True`` shrinks matrix sizes and iteration counts for CI; the
shapes being validated are scale-free.  :func:`run_lr_like_batch` plays
the figures' 'A then Aᵀ' mat-vec rounds on a batched runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.speed_models import BatchSpeedModel
from repro.prediction.predictor import BatchPredictor
from repro.runtime.batch import BatchRunMetrics, build_batch_runner

__all__ = [
    "ExperimentResult",
    "trial_count",
    "trial_mean",
    "trial_min",
    "trial_max",
    "controlled_network",
    "controlled_cost",
    "run_lr_like_batch",
]


def _is_summary(leaf) -> bool:
    """Whether ``leaf`` is a streaming-reducer summary (vs a trial list)."""
    return isinstance(leaf, dict) and "count" in leaf


def trial_count(leaf) -> int:
    """Trial count of one cell leaf — raw list or reducer summary.

    The experiment tables consume sweep cells through these accessors so
    they read identically off the default ``concat`` reducer (exact
    per-trial lists) and off the constant-memory streaming summaries of
    :mod:`repro.engine.reduce`; under ``concat`` the arithmetic is the
    same ``np.mean``-of-the-list the tables always did, bit for bit.
    Only *paired* statistics (per-trial ratios against a baseline facing
    the identical draws) inherently need the full lists and therefore the
    ``concat`` reducer.
    """
    if _is_summary(leaf):
        return int(leaf["count"])
    return len(leaf)


def trial_mean(leaf) -> float:
    """Mean over trials of one cell leaf — raw list or reducer summary."""
    if _is_summary(leaf):
        return float(leaf["mean"])
    return float(np.mean(leaf))


def trial_min(leaf) -> float:
    """Min over trials of one cell leaf — raw list or reducer summary."""
    if _is_summary(leaf):
        return float(leaf["min"])
    return float(np.min(leaf))


def trial_max(leaf) -> float:
    """Max over trials of one cell leaf — raw list or reducer summary."""
    if _is_summary(leaf):
        return float(leaf["max"])
    return float(np.max(leaf))


@dataclass
class ExperimentResult:
    """A reproduced table/figure: labelled rows of numeric columns."""

    name: str
    description: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, *values: float) -> None:
        """Append one row; the value count must match the columns."""
        if len(values) != len(self.columns) - 1:
            raise ValueError(
                f"expected {len(self.columns) - 1} values, got {len(values)}"
            )
        self.rows.append((label, *values))

    def _numeric_index(self, name: str) -> int:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        if idx == 0:
            raise KeyError(f"column {name!r} holds labels; use .labels()")
        return idx

    def column(self, name: str) -> np.ndarray:
        """Extract one numeric column by name."""
        idx = self._numeric_index(name)
        return np.array([row[idx] for row in self.rows], dtype=np.float64)

    def labels(self) -> list[str]:
        """Row labels (first column)."""
        return [row[0] for row in self.rows]

    def value(self, label: str, column: str) -> float:
        """Single cell lookup by row label and column name."""
        idx = self._numeric_index(column)
        for row in self.rows:
            if row[0] == label:
                return float(row[idx])
        raise KeyError(f"no row labelled {label!r}")

    def format_table(self) -> str:
        """Render as a fixed-width text table (the benchmark output)."""
        widths = [
            max(len(str(self.columns[i])), *(len(_fmt(r[i])) for r in self.rows))
            if self.rows
            else len(str(self.columns[i]))
            for i in range(len(self.columns))
        ]
        def line(cells):
            return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        out = [f"== {self.name}: {self.description} =="]
        out.append(line(self.columns))
        out.append(line(["-" * w for w in widths]))
        for row in self.rows:
            out.append(line([_fmt(c) for c in row]))
        if self.notes:
            out.append(f"   note: {self.notes}")
        return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def controlled_network() -> NetworkModel:
    """Fast interconnect, as in the paper's InfiniBand cluster (§6.5).

    Latency and decode are kept well below per-iteration compute so the
    figures' compute-bound ratios (e.g. the k/n slack-squeeze factor) show
    through at the reduced quick-run matrix sizes.
    """
    # Bandwidth is scaled so that moving one data partition costs about as
    # much as computing on it (the paper's 760 MB partitions on a shared
    # link) — this is what puts data movement on the critical path for the
    # uncoded baselines (§7.1).
    return NetworkModel(latency=5e-6, bandwidth=2.5e8)


def controlled_cost() -> CostModel:
    """Worker/master throughput making compute dominate an iteration."""
    return CostModel(worker_flops=5e7, master_flops=2e10)


def run_lr_like_batch(
    family: str,
    n_rows: int,
    n_cols: int,
    speed_model: BatchSpeedModel,
    predictor: BatchPredictor,
    iterations: int = 15,
    *,
    operator: tuple = (),
    network: NetworkModel | None = None,
    **knobs,
) -> BatchRunMetrics:
    """The LR-like loop's latency for a trial batch: 'A then Aᵀ' per iteration.

    Builds the ``family`` batch runner (``"coded"``, ``"overdecomposition"``
    or ``"replication"``, configured by ``knobs`` — see
    :func:`~repro.runtime.batch.build_batch_runner`) and plays the rounds
    on an ``(n_rows, n_cols)`` matrix geometry.
    ``operator`` holds the family's registration arguments after the
    geometry — ``(k, scheduler)`` for the coded family, nothing for the
    uncoded ones.  No matrices are built or encoded, because the
    latency/waste metrics the figures report depend only on plans and
    speeds.  Trial ``t`` reproduces a one-trial session driven through the
    same rounds, bit for bit.

    ``network`` overrides :func:`controlled_network` (the equivalence
    suite injects the zero-network limit here).
    """
    runner = build_batch_runner(
        family,
        speed_model,
        predictor,
        network=network if network is not None else controlled_network(),
        cost=controlled_cost(),
        **knobs,
    )
    runner.register_matvec("A", n_rows, n_cols, *operator)
    runner.register_matvec("At", n_cols, n_rows, *operator)
    for _ in range(iterations):
        runner.matvec("A")
        runner.matvec("At")
    return runner.metrics
