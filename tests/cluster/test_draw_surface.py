"""The draw surface against the frozen per-trial speed processes.

``repro.cluster.speed_models.SpeedDraws`` draws a cell call's
``(scenario, seed)`` rows as ``(rows, workers, rounds)`` tensors: each
row's random numbers in bulk on its own generator, the arithmetic across
rows, the combinators as index and elementwise operations, and only as
many rounds as are read.  Every row must equal the per-trial model the
surface replaced (``speed_reference.py``) bit for bit — speeds and link
factors — whatever the scenario (registered, or a fuzzer expression),
the round count (past a ``traces`` horizon, past a ``time_shift``), the
order of reads, and the rows' order and slicing; and a runner fed the
surface must equal one fed the frozen stack on both backends.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster.fuzz import generate_scenario
from repro.cluster.scenarios import available_scenarios, scenario_batch
from repro.cluster.speed_models import ReplaySpeeds, StackedSpeeds
from repro.prediction.predictor import BatchLastValuePredictor
from repro.scheduling.policies import _row_draws, build_policy

from speed_reference import link_factors_of, reference_model, reference_rows

#: Names beyond the registry: a short ``traces`` horizon (reads wrap), a
#: shift past it, and a mix whose concat operand degrades links only in
#: its first segment (a healthy round must stay healthy, not 1 ± ulp).
EXTRA = (
    "traces(horizon=5)",
    "time_shift(traces(horizon=7,preset=stable),shift=9)",
    "mix(concat(netslow,bursty,segment=3),constant,weight=0.3)",
    "overlay(concat(bursty,rackcongest,segment=2),linkbursty)",
    "scale(time_shift(markov,shift=11),factor=0.8)",
)
NAMES = st.one_of(
    st.sampled_from(available_scenarios() + EXTRA),
    st.builds(generate_scenario, st.integers(0, 50), st.integers(0, 40)),
)

ROWS = st.lists(
    st.tuples(NAMES, st.integers(0, 2**32)), min_size=1, max_size=6
)


def _frozen(rows, n_workers, rounds):
    """The frozen per-trial models' speeds and factors, ``(rows, n, rounds)``."""
    models = [reference_model(name, n_workers, seed) for name, seed in rows]
    speeds = np.stack(
        [np.stack([m.speeds(i) for i in range(rounds)], axis=-1) for m in models]
    )
    factors = [[link_factors_of(m, i) for i in range(rounds)] for m in models]
    return speeds, factors


def _unit(factors, n_workers):
    return np.stack(
        [
            np.stack([np.ones(n_workers) if f is None else f for f in row], axis=-1)
            for row in factors
        ]
    )


def _build(rows, n_workers):
    try:
        return _row_draws(rows, n_workers)
    except ValueError:  # e.g. a fuzzed rack count above n_workers
        assume(False)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    rows=ROWS,
    n_workers=st.integers(4, 12),
    reads=st.lists(st.integers(0, 80), min_size=1, max_size=6),
    rounds=st.integers(1, 80),
)
def test_rows_equal_the_frozen_per_trial_models(rows, n_workers, reads, rounds):
    surface = _build(rows, n_workers)
    want_speeds, want_factors = _frozen(rows, n_workers, max([rounds, *reads]) + 1)
    # Reads in any order, each extending the tensors as needed.
    for i in reads:
        np.testing.assert_array_equal(surface.speeds_batch(i), want_speeds[:, :, i])
        column = [row[i] for row in want_factors]
        got = surface.link_factors_batch(i)
        if all(f is None for f in column):
            assert got is None
        else:
            want = _unit([[f] for f in column], n_workers)[:, :, 0]
            np.testing.assert_array_equal(got, want)
        for t in range(len(rows)):
            view = surface.row(t)
            np.testing.assert_array_equal(view.speeds(i), want_speeds[t, :, i])
            want = want_factors[t][i]
            if want is None:
                assert view.link_factors(i) is None
            else:
                np.testing.assert_array_equal(view.link_factors(i), want)
    speeds, factors = surface.draw(rounds)
    assert speeds.shape == (len(rows), n_workers, rounds)
    np.testing.assert_array_equal(speeds, want_speeds[:, :, :rounds])
    head = [row[:rounds] for row in want_factors]
    if all(f is None for row in head for f in row):
        assert factors is None
    else:
        np.testing.assert_array_equal(factors, _unit(head, n_workers))


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(rows=ROWS, n_workers=st.integers(4, 12), data=st.data())
def test_any_slicing_and_order_of_rows_draws_the_same_bits(rows, n_workers, data):
    whole = _build(rows, n_workers)
    order = data.draw(st.permutations(range(len(rows))))
    cut = data.draw(st.integers(1, len(rows)))
    rounds = data.draw(st.integers(1, 40))
    want, _ = whole.draw(rounds)
    for part in (order[:cut], order[cut:]):
        if not part:
            continue
        speeds, _ = _row_draws([rows[t] for t in part], n_workers).draw(rounds)
        np.testing.assert_array_equal(speeds, want[list(part)])


@pytest.mark.parametrize("backend", ["closed", "event"])
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(rows=ROWS, iterations=st.integers(1, 5))
def test_runner_on_the_surface_equals_the_frozen_stack(backend, rows, iterations):
    n_workers, k = 12, 8
    runner = build_policy("timeout-repair", n_workers, k, backend=backend)

    def total(speed_model):
        metrics = runner.run_batch(
            speed_model,
            BatchLastValuePredictor(len(rows), n_workers),
            rows=96,
            cols=24,
            iterations=iterations,
        )
        return metrics.total_time, metrics.wasted_fraction_of_assigned()

    got = total(_build(rows, n_workers))
    want = total(reference_rows(rows, n_workers))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_stacked_per_trial_models_read_one_call_per_row_and_round():
    # A plain SpeedModel (no bulk form) is read one speeds(i) per row and
    # round, in round order, and joins a bulk surface row for row.
    calls = []

    class Counting:
        n_workers = 3

        def speeds(self, iteration):
            calls.append(iteration)
            return np.full(3, 1.0 / (1 + iteration))

    joined = StackedSpeeds([scenario_batch("bursty", 3, [1, 2]), Counting()])
    speeds, factors = joined.draw(5)
    assert factors is None
    assert calls == list(range(8))  # one block of at least 8 rounds
    np.testing.assert_array_equal(
        speeds[:2], scenario_batch("bursty", 3, [1, 2]).draw(5)[0]
    )
    np.testing.assert_array_equal(speeds[2, 0], 1.0 / (1 + np.arange(5)))


def test_replay_wraps_and_validates():
    traces = np.arange(1.0, 13.0).reshape(2, 3, 2)
    replay = ReplaySpeeds(traces)
    np.testing.assert_array_equal(replay.speeds_batch(3), traces[:, :, 1])
    with pytest.raises(ValueError, match="positive and finite"):
        ReplaySpeeds(np.where(traces > 6, np.nan, traces))
    with pytest.raises(ValueError, match="link factors"):
        ReplaySpeeds(traces, factors=np.ones((2, 3, 3)))
