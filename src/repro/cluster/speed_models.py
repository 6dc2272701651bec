"""Per-iteration worker speed processes, drawn as per-row tensors.

The paper evaluates in two environments:

* a **controlled cluster** (§6.5, §7.1) where stragglers are injected
  deliberately — a straggler is "at least 5× slower than the fastest node"
  and non-stragglers exhibit up to ±20% speed variation;
* a **commercial cloud** (§7.2) where speeds drift on their own — modelled
  here by replaying traces from the regime-switching generator in
  :mod:`repro.prediction.traces`.

A speed model maps an iteration index to the vector of *actual* worker
speeds for that iteration (speed 1.0 = nominal worker throughput,
:class:`~repro.cluster.network.CostModel.worker_flops`).  Speeds are
constant within an iteration, matching the paper's per-iteration
measurement granularity (§6.2).

Monte-Carlo sweeps read many ``(scenario, seed)`` rows at once through
one draw surface, :class:`SpeedDraws`: ``draw(rounds)`` returns the
``(rows, workers, rounds)`` speed tensor (plus a factor tensor where a
row degrades its network links), ``speeds_batch(i)`` the ``(rows,
workers)`` matrix of round ``i`` that
:meth:`~repro.cluster.simulator.CodedIterationSim.run_batch` consumes.
Rounds are drawn only as far as they are read — a read past the drawn
rounds extends the tensors, so no caller needs to know a horizon.  Every
row keeps its own seeded generator and the per-trial draw order, so row
``t`` is bit for bit the single-trial model with the same seed, and
``row(t)`` is that model: a one-row view.  The built-in scenarios
(:mod:`repro.cluster.scenarios`, :mod:`repro.cluster.compose`) draw each
row's random numbers in one bulk call per extension and do their
arithmetic across all rows at once; :class:`StackedSpeeds` joins
surfaces and stacks any per-trial :class:`SpeedModel`, read one
``speeds(i)`` per row and round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = [
    "SpeedModel",
    "BatchSpeedModel",
    "SpeedDraws",
    "SeededDraws",
    "RowSpeeds",
    "StackedSpeeds",
    "ReplaySpeeds",
    "ControlledDraws",
    "ControlledSpeeds",
    "ConstantSpeeds",
    "TraceSpeeds",
]


@runtime_checkable
class SpeedModel(Protocol):
    """Protocol: iteration index → per-worker actual speeds."""

    n_workers: int

    def speeds(self, iteration: int) -> np.ndarray:
        """Actual speeds for ``iteration`` (shape ``(n_workers,)``, > 0)."""
        ...


@runtime_checkable
class BatchSpeedModel(Protocol):
    """Protocol: iteration index → ``(n_trials, n_workers)`` speed matrix."""

    n_workers: int
    n_trials: int

    def speeds_batch(self, iteration: int) -> np.ndarray:
        """Actual speeds for every trial at ``iteration`` (all > 0)."""
        ...


def _checked_iteration(iteration: int) -> int:
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    return iteration


def _positive_finite(values, name: str, ndim: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != ndim or values.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError(f"{name} must be positive and finite")
    return values


class SpeedDraws:
    """Speeds — and link factors where a row degrades links — of a block of rows.

    The draw surface every batched run reads (see the module docstring).
    Rounds are stored round-major: ``(rounds, rows, workers)``.  A read
    of an undrawn round extends the tensors to at least ``DRAW_BLOCK``
    rounds and at least doubles them, so a run of ``R`` rounds extends
    ``O(log R)`` times; since every row's draws are sequential, how the
    rounds are blocked never changes a bit.

    Subclasses implement ``_block(start, stop)``, returning rounds
    ``[start, stop)`` as ``(speeds, factors, present)``: the
    ``(stop - start, rows, workers)`` speeds and, when ``links`` is set,
    the link factors (``1.0`` where absent) with the ``(stop - start,
    rows)`` mask of rows whose links are degraded in that round;
    ``None`` for both otherwise.
    """

    #: The fewest rounds one extension draws (a quick run's 8 rounds).
    DRAW_BLOCK = 8

    def __init__(self, n_trials: int, n_workers: int, links: bool = False):
        check_positive_int(n_workers, "n_workers")
        if n_trials < 1:
            raise ValueError("at least one row is required")
        self.n_trials = n_trials
        self.n_workers = n_workers
        #: Whether any row may degrade its links (static per surface).
        self.links = links
        self._speeds = np.empty((0, n_trials, n_workers))
        self._factors = np.empty((0, n_trials, n_workers)) if links else None
        self._present = np.empty((0, n_trials), dtype=bool) if links else None

    def _block(self, start: int, stop: int):
        raise NotImplementedError

    def _reach(self, stop: int) -> None:
        start = len(self._speeds)
        if stop <= start:
            return
        speeds, factors, present = self._block(
            start, max(stop, 2 * start, self.DRAW_BLOCK)
        )
        if start == 0:
            self._speeds, self._factors, self._present = speeds, factors, present
            return
        self._speeds = np.concatenate([self._speeds, speeds])
        if self.links:
            self._factors = np.concatenate([self._factors, factors])
            self._present = np.concatenate([self._present, present])

    def _take(self, rounds: np.ndarray, links: bool):
        """Rounds ``rounds`` (an index array) in ``_block``'s form.

        With ``links`` set on a surface that degrades no link, the
        factors are unit and absent, so combinators and joins can treat
        every operand alike.
        """
        if rounds.size:
            self._reach(int(rounds.max()) + 1)
        speeds = self._speeds[rounds]
        if not links:
            return speeds, None, None
        if self.links:
            return speeds, self._factors[rounds], self._present[rounds]
        return speeds, np.ones_like(speeds), np.zeros(speeds.shape[:2], dtype=bool)

    def draw(self, rounds: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Rounds ``[0, rounds)`` as ``(rows, workers, rounds)`` tensors.

        Returns ``(speeds, factors)``; ``factors`` is ``None`` when no
        row degrades its links in those rounds, and holds unit factors
        for the rows (and rounds) that do not otherwise.
        """
        self._reach(rounds)
        speeds = self._speeds[:rounds].transpose(1, 2, 0)
        if not self.links or not self._present[:rounds].any():
            return speeds, None
        return speeds, self._factors[:rounds].transpose(1, 2, 0)

    def speeds_batch(self, iteration: int) -> np.ndarray:
        """Every row's speeds at ``iteration``, shape ``(rows, workers)``."""
        self._reach(_checked_iteration(iteration) + 1)
        return self._speeds[iteration].copy()

    def link_factors_batch(self, iteration: int) -> np.ndarray | None:
        """Every row's link factors at ``iteration`` (``None``: all healthy).

        Rows without degraded links that round read unit factors — which
        the event backend prices exactly as ``None``.
        """
        if not self.links:
            return None
        self._reach(_checked_iteration(iteration) + 1)
        if not self._present[iteration].any():
            return None
        return self._factors[iteration].copy()

    def row(self, t: int) -> "RowSpeeds":
        """Row ``t`` as a per-trial :class:`SpeedModel` (a view, not a copy)."""
        if not 0 <= t < self.n_trials:
            raise IndexError(f"row {t} out of range for {self.n_trials} rows")
        return RowSpeeds(self, t)


class RowSpeeds:
    """One row of a :class:`SpeedDraws` as a per-trial :class:`SpeedModel`.

    Any iteration can be (re-)queried: the surface memoises its draws.
    ``link_factors(i)`` is the row's per-worker link factors, or ``None``
    where its links are healthy.
    """

    def __init__(self, draws: SpeedDraws, row: int = 0):
        self.draws = draws
        self.row = row

    @property
    def n_workers(self) -> int:
        return self.draws.n_workers

    def speeds(self, iteration: int) -> np.ndarray:
        self.draws._reach(_checked_iteration(iteration) + 1)
        return self.draws._speeds[iteration, self.row].copy()

    def link_factors(self, iteration: int) -> np.ndarray | None:
        draws = self.draws
        if not draws.links:
            return None
        draws._reach(_checked_iteration(iteration) + 1)
        if not draws._present[iteration, self.row]:
            return None
        return draws._factors[iteration, self.row].copy()


class SeededDraws(SpeedDraws):
    """A surface whose row ``t`` draws from its own ``as_rng(seeds[t])``.

    Generators are built on the first draw, so building a surface (to
    validate its parameters, say) costs no generator.
    """

    def __init__(self, n_workers: int, seeds: Sequence, links: bool = False):
        self.seeds = tuple(seeds)
        super().__init__(len(self.seeds), n_workers, links)
        self._rngs: list[np.random.Generator] | None = None

    @property
    def rngs(self) -> list[np.random.Generator]:
        if self._rngs is None:
            self._rngs = [as_rng(seed) for seed in self.seeds]
        return self._rngs

    def _uniform(self, *shape: int) -> np.ndarray:
        """``(rows, *shape)``: one ``random(shape)`` call per row."""
        out = np.empty((self.n_trials, *shape))
        for rng, row in zip(self.rngs, out):
            rng.random(shape, out=row)
        return out

    def _normal(self, *shape: int) -> np.ndarray:
        """``(rows, *shape)``: one ``standard_normal(shape)`` call per row."""
        out = np.empty((self.n_trials, *shape))
        for rng, row in zip(self.rngs, out):
            rng.standard_normal(shape, out=row)
        return out


def joined(blocks, axis: int):
    """Blocks in ``_block`` form concatenated along rounds (0) or rows (1)."""
    return tuple(
        None if blocks[0][k] is None
        else np.concatenate([block[k] for block in blocks], axis=axis)
        for k in range(3)
    )


def _model_block(model: SpeedModel, rounds: np.ndarray, links: bool):
    """A per-trial model's rounds in ``_block`` form: one call per round."""
    speeds = np.stack(
        [np.asarray(model.speeds(int(i)), dtype=np.float64) for i in rounds]
    )[:, None, :]
    if not links:
        return speeds, None, None
    method = getattr(model, "link_factors", None)
    rows = [method(int(i)) if callable(method) else None for i in rounds]
    factors = np.stack(
        [
            np.ones(model.n_workers) if f is None else np.asarray(f, dtype=np.float64)
            for f in rows
        ]
    )[:, None, :]
    return speeds, factors, np.array([[f is not None] for f in rows])


class StackedSpeeds(SpeedDraws):
    """Join surfaces and per-trial models into one surface, in order.

    A :class:`SpeedDraws` part contributes all its rows; any other part
    is a per-trial :class:`SpeedModel` (typically seeded per trial) and
    contributes one row, read by one ``speeds(i)`` — and, if it has one,
    ``link_factors(i)`` — call per round.  Row ``t`` of the join is
    exactly what its part would produce alone.
    """

    def __init__(self, models: Sequence):
        parts = tuple(models)
        if not parts:
            raise ValueError("at least one model is required")
        widths = {part.n_workers for part in parts}
        if len(widths) != 1:
            raise ValueError(f"models disagree on n_workers: {sorted(widths)}")
        self.models = parts
        super().__init__(
            sum(p.n_trials if isinstance(p, SpeedDraws) else 1 for p in parts),
            widths.pop(),
            links=any(
                p.links
                if isinstance(p, SpeedDraws)
                else callable(getattr(p, "link_factors", None))
                for p in parts
            ),
        )

    def _block(self, start: int, stop: int):
        rounds = np.arange(start, stop)
        return joined(
            [
                part._take(rounds, self.links)
                if isinstance(part, SpeedDraws)
                else _model_block(part, rounds, self.links)
                for part in self.models
            ],
            axis=1,
        )


class ReplaySpeeds(SpeedDraws):
    """Replay given ``(rows, workers, length)`` speeds; rounds past ``length`` wrap.

    Pre-generated cloud traces (§7.2), and the adaptive runner's windows
    of materialised draws.  ``factors``, when given, are replayed as the
    rows' link factors.
    """

    def __init__(self, speeds, factors=None):
        speeds = _positive_finite(speeds, "speeds", 3)
        super().__init__(speeds.shape[0], speeds.shape[1], links=factors is not None)
        self.length = speeds.shape[2]
        self._speeds = np.ascontiguousarray(speeds.transpose(2, 0, 1))
        if factors is not None:
            factors = _positive_finite(factors, "link factors", 3)
            if factors.shape != speeds.shape:
                raise ValueError(
                    f"link factors must have shape {speeds.shape}, got {factors.shape}"
                )
            self._factors = np.ascontiguousarray(factors.transpose(2, 0, 1))
            self._present = np.ones(self._speeds.shape[:2], dtype=bool)

    def _block(self, start: int, stop: int):
        wrapped = np.arange(start, stop) % self.length
        if not self.links:
            return self._speeds[wrapped], None, None
        return self._speeds[wrapped], self._factors[wrapped], self._present[wrapped]


class ControlledDraws(SeededDraws):
    """The paper's controlled-cluster speed process (§7.1), one row per seed.

    ``num_stragglers`` designated workers run ``slowdown``× slower than
    nominal for the whole run (persistent stragglers, as injected in the
    paper's local cluster).  Every worker additionally carries a *slowly
    varying* multiplicative jitter within ``±jitter`` — an AR(1) process
    with strong persistence, reflecting the paper's observation that speeds
    stay within ~10% of a neighbourhood for ~10 samples.

    Parameters
    ----------
    n_workers:
        Cluster size.
    seeds:
        One RNG seed per row for the jitter draws.
    num_stragglers:
        How many workers straggle: the last ones, unless ``straggler_ids``
        places them (e.g. on all replica holders of one partition, the
        paper's Fig 1 worst case).
    slowdown:
        Straggler slowdown factor (paper: ≥ 5×).
    jitter:
        Peak-to-nominal fractional speed variation of every worker
        (paper: up to 20%).
    persistence:
        AR(1) coefficient of the jitter process in ``[0, 1)``.
    """

    def __init__(
        self,
        n_workers: int,
        seeds: Sequence,
        num_stragglers: int = 0,
        slowdown: float = 5.0,
        jitter: float = 0.2,
        persistence: float = 0.9,
        straggler_ids: Sequence[int] | None = None,
    ):
        check_positive_int(n_workers, "n_workers")
        if not isinstance(num_stragglers, (int, np.integer)) or not (
            0 <= num_stragglers <= n_workers
        ):
            raise ValueError("num_stragglers must be an int in [0, n_workers]")
        if not 1 <= slowdown < np.inf:
            raise ValueError(f"slowdown must be finite and >= 1, got {slowdown}")
        if not 0 <= jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if not 0 <= persistence < 1:
            raise ValueError("persistence must be in [0, 1)")
        if straggler_ids is None:
            ids = tuple(range(n_workers - num_stragglers, n_workers))
        else:
            ids = tuple(int(w) for w in straggler_ids)
            if len(ids) != num_stragglers:
                raise ValueError("straggler_ids length must equal num_stragglers")
            if any(w < 0 or w >= n_workers for w in ids):
                raise ValueError("straggler id out of range")
            if len(set(ids)) != len(ids):
                raise ValueError("straggler_ids must be distinct")
        super().__init__(n_workers, seeds)
        self.straggler_set = frozenset(ids)
        self.jitter = jitter
        self.persistence = persistence
        self._base = np.ones(n_workers)
        self._base[list(self.straggler_set)] = 1.0 / slowdown
        self._z: np.ndarray | None = None

    def _block(self, start: int, stop: int):
        # Round 0 reads the initial normal draw; each later round one more.
        noise = self._normal(stop - start, self.n_workers)
        scale = np.sqrt(1.0 - self.persistence**2)
        z = np.empty((stop - start, self.n_trials, self.n_workers))
        state = self._z
        for j in range(stop - start):
            if state is None:
                state = noise[:, j]
            else:
                state = self.persistence * state + scale * noise[:, j]
            z[j] = state
        self._z = state
        # Map the unit-variance AR(1) state into ±jitter multiplicatively.
        return self._base * (1.0 + self.jitter * np.tanh(z)), None, None


class ControlledSpeeds(RowSpeeds):
    """One trial of :class:`ControlledDraws` (same parameters, one ``seed``).

    Like every row view, any iteration can be (re-)queried in any order:
    a replay returns the memoised draw, so a session and an oracle
    predictor can share one instance.
    """

    def __init__(
        self,
        n_workers: int,
        num_stragglers: int = 0,
        slowdown: float = 5.0,
        jitter: float = 0.2,
        persistence: float = 0.9,
        seed: int | None = 0,
        straggler_ids: tuple[int, ...] | None = None,
    ):
        super().__init__(
            ControlledDraws(
                n_workers,
                (seed,),
                num_stragglers=num_stragglers,
                slowdown=slowdown,
                jitter=jitter,
                persistence=persistence,
                straggler_ids=straggler_ids,
            )
        )

    @property
    def straggler_set(self) -> frozenset[int]:
        """Indices of the persistent stragglers."""
        return self.draws.straggler_set


@dataclass(frozen=True)
class ConstantSpeeds:
    """Fixed speeds every iteration — the simplest test double."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _positive_finite(self.values, "values", 1)
        )

    @property
    def n_workers(self) -> int:
        return self.values.size

    def speeds(self, iteration: int) -> np.ndarray:
        return self.values.copy()


class TraceSpeeds(RowSpeeds):
    """Replay pre-generated speed traces (cloud environment, §7.2).

    ``traces`` has shape ``(n_workers, length)``; iterations beyond the
    trace length wrap around (experiments typically use 15-iteration
    windows of much longer traces).  A one-row :class:`ReplaySpeeds`.
    """

    def __init__(self, traces):
        traces = _positive_finite(traces, "traces", 2)
        super().__init__(ReplaySpeeds(traces[None]))
        self.traces = traces

    @property
    def length(self) -> int:
        """Number of iterations before the replay wraps."""
        return self.traces.shape[1]
