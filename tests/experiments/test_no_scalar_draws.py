"""CI guard: matrix cells read scenario draws as per-row tensors.

A cell call draws all of its ``(scenario, seed)`` rows through one
``SpeedDraws`` surface: bulk per row, arithmetic across rows, and only
the rounds the run reads.  The per-trial views (``RowSpeeds.speeds`` and
``link_factors``) are patched to raise, then a matrix slice over every
built-in scenario runs on both backends with forecasters that do not
replay the scenario.  The two extension points of the docs — a
``GeneratedSpeeds`` subclass that only defines ``_step`` and a plain
``SpeedModel`` — still run through a matrix cell, bit for bit their
per-trial ``speeds()`` loop.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import scenarios as scn
from repro.cluster.scenarios import (
    GeneratedSpeeds,
    available_scenarios,
    register_scenario,
    scenario_batch,
)
from repro.cluster.speed_models import ReplaySpeeds, RowSpeeds
from repro.engine import SEED_STRIDE, SweepContext
from repro.experiments.matrix import N_WORKERS, cell_geometry, run_cells, run_matrix
from repro.scheduling.policies import _split_metrics, build_policy, trial_rows

BUILT_INS = tuple(name for name in available_scenarios() if "(" not in name)


def _ctx(trials: int) -> SweepContext:
    return SweepContext(
        quick=True, base_seed=0, seeds=tuple(SEED_STRIDE * t for t in range(trials))
    )


@pytest.mark.parametrize("backend", ["closed", "event"])
def test_matrix_reads_no_per_trial_draws(monkeypatch, backend):
    def forbidden(self, iteration):
        raise AssertionError("a matrix cell read a per-trial speed view")

    monkeypatch.setattr(RowSpeeds, "speeds", forbidden)
    monkeypatch.setattr(RowSpeeds, "link_factors", forbidden)
    result = run_matrix(
        quick=True,
        trials=2,
        policies=("mds", "s2c2-lastvalue"),
        scenarios=BUILT_INS,
        backend=backend,
    )
    assert result.summary.rows


def test_traces_row_read_for_8_rounds_generates_8_steps(monkeypatch):
    steps = []
    advance = scn.advance_traces

    def counting(rngs, config, levels, noise_state, count):
        steps.append((len(rngs), count))
        return advance(rngs, config, levels, noise_state, count)

    monkeypatch.setattr(scn, "advance_traces", counting)
    _, _, iterations = cell_geometry(quick=True)
    run_cells("mds", ("traces",), _ctx(3))
    assert 2 * iterations == 8
    assert steps == [(3, 8)]  # one bulk extension, 8 steps a row, not 64


@dataclass
class DiurnalSpeeds(GeneratedSpeeds):
    """docs/scenarios.md's example: a sinusoidal load wave, `_step` only."""

    period: int = 24
    depth: float = 0.5

    def _step(self, iteration: int) -> np.ndarray:
        wave = 1.0 - self.depth * (
            0.5 + 0.5 * np.sin(2 * np.pi * iteration / self.period)
        )
        jitter = 1.0 - 0.05 * self._rng.random(self.n_workers)
        return wave * jitter


@dataclass(frozen=True)
class DecayingSpeeds:
    """docs/extending.md's example: a plain SpeedModel, no generator."""

    n_workers: int
    half_life: float = 50.0

    def speeds(self, iteration: int) -> np.ndarray:
        decay = 0.5 ** (iteration / self.half_life)
        return np.full(self.n_workers, max(decay, 0.05))


@pytest.fixture
def extension_scenarios(monkeypatch):
    monkeypatch.setattr(scn, "_REGISTRY", dict(scn._REGISTRY))

    @register_scenario("diurnal", "load wave", period=24, depth=0.5)
    def _diurnal(n_workers, seed, period, depth):
        return DiurnalSpeeds(n_workers, seed=seed, period=period, depth=depth)

    @register_scenario("decaying", "linear degradation", half_life=5.0)
    def _decaying(n_workers, seed, half_life):
        return DecayingSpeeds(n_workers, half_life=half_life)

    return {
        "diurnal": lambda seed: DiurnalSpeeds(N_WORKERS, seed=seed),
        "decaying": lambda seed: DecayingSpeeds(N_WORKERS, half_life=5.0),
    }


@pytest.mark.parametrize("backend", ["closed", "event"])
def test_extension_scenarios_equal_their_speeds_loop(extension_scenarios, backend):
    ctx = _ctx(3)
    rows, cols, iterations = cell_geometry(quick=True)
    rounds = 2 * iterations
    names = tuple(extension_scenarios)
    loops = {
        name: np.stack(
            [
                np.stack([model.speeds(i) for i in range(rounds)], axis=-1)
                for model in map(make, ctx.seeds)
            ]
        )
        for name, make in extension_scenarios.items()
    }
    for name in names:
        speeds, factors = scenario_batch(name, N_WORKERS, ctx.seeds).draw(rounds)
        np.testing.assert_array_equal(speeds, loops[name])
        assert factors is None
    runner = build_policy("timeout-repair", N_WORKERS, 8, backend=backend)
    want = _split_metrics(
        runner.run_batch(
            ReplaySpeeds(np.concatenate([loops[name] for name in names])),
            runner.predictor_factory(trial_rows(names, ctx.seeds), ctx, N_WORKERS),
            rows=rows,
            cols=cols,
            iterations=iterations,
        ),
        ctx.trials,
    )
    assert run_cells("timeout-repair", names, ctx, backend=backend) == want
