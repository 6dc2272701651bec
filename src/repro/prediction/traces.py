"""Synthetic cloud speed traces (substitute for the paper's measurements).

The paper measured 100 Digital Ocean droplets running matrix multiplication
and logged speed at 1% task granularity (§3.2, Fig 2).  Its key empirical
observations, which this generator reproduces parametrically:

* speed is *regime-like*: it stays within ~±10% of a level for many
  consecutive samples (≈10+), then shifts abruptly to a new level;
* levels vary widely across time and nodes (shared-tenancy interference),
  occasionally dropping deep enough to make a node a partial straggler;
* short-horizon prediction is therefore easy most of the time and hard
  exactly at regime boundaries — which is what separates the low and high
  mis-prediction environments of §7.2.

Two presets mirror the paper's two cloud conditions: ``"stable"`` (long
regimes, shallow dips → ≈0% mis-prediction) and ``"volatile"`` (short
regimes, deep dips → the ≈18% mis-prediction environment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive_int, check_probability

__all__ = [
    "TraceConfig",
    "advance_traces",
    "generate_speed_traces",
    "initial_levels",
    "regime_lengths",
    "regime_length_means",
    "BURSTY",
    "MEASURED",
    "STABLE",
    "VOLATILE",
]


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of the regime-switching speed process.

    Attributes
    ----------
    switch_prob:
        Per-step probability of jumping to a new regime level (the mean
        regime length is ``1/switch_prob``).
    level_low, level_high:
        Uniform support of regime levels (fractions of peak speed).
    dip_prob:
        Per-step probability of a transient deep dip (e.g. co-tenant burst).
    dip_depth:
        Multiplier applied during a dip.
    noise:
        Standard deviation of the within-regime multiplicative AR(1) noise.
    noise_persistence:
        AR(1) coefficient of the within-regime noise.
    floor:
        Hard lower bound on speed (speeds must stay positive).
    """

    switch_prob: float = 0.01
    level_low: float = 0.55
    level_high: float = 1.0
    dip_prob: float = 0.0
    dip_depth: float = 0.3
    noise: float = 0.03
    noise_persistence: float = 0.7
    floor: float = 0.02

    def __post_init__(self) -> None:
        check_probability(self.switch_prob, "switch_prob")
        check_probability(self.dip_prob, "dip_prob")
        if not 0 < self.level_low <= self.level_high <= 1.0:
            raise ValueError("need 0 < level_low <= level_high <= 1")
        if not 0 < self.dip_depth <= 1:
            raise ValueError("dip_depth must be in (0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if not 0 <= self.noise_persistence < 1:
            raise ValueError("noise_persistence must be in [0, 1)")
        if not 0 < self.floor < self.level_low:
            raise ValueError("floor must be in (0, level_low)")


#: Long regimes, shallow variation → the §7.2.1 low mis-prediction setting.
STABLE = TraceConfig(
    switch_prob=0.004,
    level_low=0.7,
    level_high=1.0,
    dip_prob=0.0,
    noise=0.02,
)

#: Short regimes, deep dips → the §7.2.2 high mis-prediction setting.
VOLATILE = TraceConfig(
    switch_prob=0.08,
    level_low=0.25,
    level_high=1.0,
    dip_prob=0.03,
    dip_depth=0.25,
    noise=0.05,
)

#: Mostly-fast nodes with transient throttling dips — the shared-instance
#: behaviour behind moderate (~10-15%) mis-prediction rates at scale.
BURSTY = TraceConfig(
    switch_prob=0.02,
    level_low=0.8,
    level_high=1.0,
    dip_prob=0.05,
    dip_depth=0.35,
    noise=0.04,
)

#: Calibrated to the paper's Fig 2 measurements: mean ±10% regime length
#: around 10 samples, wide level range, occasional dips.
MEASURED = TraceConfig(
    switch_prob=0.05,
    level_low=0.3,
    level_high=1.0,
    dip_prob=0.015,
    dip_depth=0.3,
    noise=0.04,
)


def initial_levels(
    rngs: list[np.random.Generator], n_nodes: int, config: TraceConfig
) -> np.ndarray:
    """``(rows, n_nodes)`` starting regime levels, one draw per row's generator."""
    return np.stack(
        [rng.uniform(config.level_low, config.level_high, size=n_nodes) for rng in rngs]
    )


def advance_traces(
    rngs: list[np.random.Generator],
    config: TraceConfig,
    levels: np.ndarray,
    noise_state: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Advance one trace row per generator by ``steps``; ``(steps, rows, nodes)``.

    ``levels`` and ``noise_state`` are the rows' ``(rows, nodes)`` state,
    updated in place, so a row generated in several calls equals one
    generated at once.  The draws stay stepped per row — a regime switch
    draws a data-dependent number of new levels — while the arithmetic
    runs across rows.
    """
    n_rows, n_nodes = levels.shape
    scale = np.sqrt(1.0 - config.noise_persistence**2)
    normal = np.empty((n_rows, n_nodes))
    dip_u = np.empty((n_rows, n_nodes))
    out = np.empty((steps, n_rows, n_nodes))
    for t in range(steps):
        for r, rng in enumerate(rngs):
            switches = rng.random(n_nodes) < config.switch_prob
            if switches.any():
                levels[r, switches] = rng.uniform(
                    config.level_low, config.level_high, size=int(switches.sum())
                )
            rng.standard_normal(out=normal[r])
            rng.random(out=dip_u[r])
        noise_state[...] = config.noise_persistence * noise_state + scale * normal
        speed = levels * (1.0 + config.noise * noise_state)
        speed = np.where(dip_u < config.dip_prob, speed * config.dip_depth, speed)
        out[t] = np.clip(speed, config.floor, 1.0)
    return out


def generate_speed_traces(
    n_nodes: int,
    length: int,
    config: TraceConfig = STABLE,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Generate ``(n_nodes, length)`` speed traces in ``(0, 1]``.

    Each node's trace is an independent draw of the regime-switching
    process described by ``config``; speed 1.0 is the node's peak speed
    (the paper normalises Fig 2 the same way).
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive_int(length, "length")
    rngs = [as_rng(seed)]
    levels = initial_levels(rngs, n_nodes, config)
    steps = advance_traces(rngs, config, levels, np.zeros((1, n_nodes)), length)
    return np.ascontiguousarray(steps[:, 0].T)


def regime_lengths(trace: np.ndarray, rel_threshold: float = 0.10) -> np.ndarray:
    """Measure the lengths of near-constant stretches in one trace.

    A new regime starts when speed moves more than ``rel_threshold``
    relative to the running regime mean — the statistic behind the paper's
    "within 10% for about 10 samples" observation, used by the trace tests.
    """
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 1 or trace.size == 0:
        raise ValueError("trace must be a non-empty 1-D array")
    lengths = []
    start = 0
    mean = trace[0]
    for t in range(1, trace.size):
        if abs(trace[t] - mean) > rel_threshold * mean:
            lengths.append(t - start)
            start = t
            mean = trace[t]
        else:
            count = t - start + 1
            mean += (trace[t] - mean) / count
    lengths.append(trace.size - start)
    return np.asarray(lengths, dtype=np.int64)


def regime_length_means(
    traces: np.ndarray, rel_threshold: float = 0.10
) -> np.ndarray:
    """Mean regime length of every row of a ``(rows, length)`` trace stack.

    Vectorized companion of :func:`regime_lengths`: one time sweep with
    ``(rows,)`` running-mean state instead of a Python loop per sample per
    row, so whole ``(trials × nodes)`` Monte-Carlo stacks reduce in one
    pass.  Row ``r`` equals ``regime_lengths(traces[r], rel_threshold)
    .mean()`` exactly — the regime-boundary recursion is row-independent
    and the per-row arithmetic is identical, which the equivalence tests
    pin point for point.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[1] == 0:
        raise ValueError("traces must be a non-empty 2-D (rows, length) array")
    n_rows, length = traces.shape
    start = np.zeros(n_rows)
    mean = traces[:, 0].copy()
    n_regimes = np.zeros(n_rows)
    length_sum = np.zeros(n_rows)
    for t in range(1, length):
        sample = traces[:, t]
        broke = np.abs(sample - mean) > rel_threshold * mean
        if broke.any():
            length_sum[broke] += t - start[broke]
            n_regimes[broke] += 1
            start[broke] = t
            mean[broke] = sample[broke]
        cont = ~broke
        if cont.any():
            count = t - start[cont] + 1
            mean[cont] += (sample[cont] - mean[cont]) / count
    length_sum += length - start
    n_regimes += 1
    return length_sum / n_regimes
