"""The stacked BPTT against the frozen per-step training pass.

``LSTMSpeedModel._forward``/``_backward`` write each time step into
preallocated stacks and take the readout and weight-gradient products out
of the time loop, and ``fit`` gathers an epoch's windows with one fancy
index.  ``lstm_reference.py`` holds the per-step code they replaced.  Every
per-epoch loss, fitted parameter and ``predict_series`` forecast must be
byte-identical to it: on the four fits ``repro experiments --quick`` makes,
and on a property over the fit's shape arguments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lstm_reference import (
    reference_backward,
    reference_fit,
    reference_forward,
    reference_predict_series,
)

from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.traces import (
    BURSTY,
    MEASURED,
    STABLE,
    VOLATILE,
    generate_speed_traces,
)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    # The layout too: a reduction downstream (the MAPE's mean) sums in
    # memory order.
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.flags.c_contiguous == want.flags.c_contiguous
        and got.tobytes() == want.tobytes()
    )


def _assert_fits_equal(series, hidden=4, seed=0, held_out=None, **fit_args):
    model = LSTMSpeedModel(hidden=hidden, seed=seed)
    oracle = LSTMSpeedModel(hidden=hidden, seed=seed)
    losses = model.fit(series, **fit_args)
    want = reference_fit(oracle, series, **fit_args)
    assert [v.hex() for v in losses] == [v.hex() for v in want]
    for name, value in oracle._params.items():
        assert _same_bytes(model._params[name], value), name
    assert (model._mu, model._sigma) == (oracle._mu, oracle._sigma)
    for probe in (series, held_out):
        if probe is not None:
            assert _same_bytes(
                model.predict_series(probe), reference_predict_series(oracle, probe)
            )


@pytest.mark.parametrize(
    "config, seed",
    [(STABLE, 1000), (VOLATILE, 1000), (MEASURED, 4000)],
    ids=["cloud-stable", "cloud-volatile", "policy-measured"],
)
def test_paper_quick_policy_and_cloud_fits(config, seed):
    # The three 80-epoch fits of the quick figures: the cloud figures'
    # per-config LSTM and the s2c2-lstm policy's (30 nodes x 200 rounds).
    traces = generate_speed_traces(30, 200, config, seed=seed)
    _assert_fits_equal(traces, epochs=80, window=40)


def test_paper_quick_sec61_fit():
    # sec61 --quick: 400 epochs on the 80% training split, forecasting the
    # held-out 20%.
    traces = generate_speed_traces(40, 250, MEASURED, seed=0)
    _assert_fits_equal(traces[:32], held_out=traces[32:], epochs=400, window=40)


@given(
    nodes=st.integers(1, 6),
    length=st.integers(2, 60),
    window=st.integers(2, 70),
    batch_size=st.integers(1, 24),
    epochs=st.integers(0, 4),
    hidden=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    config=st.sampled_from((STABLE, BURSTY, MEASURED)),
)
@settings(max_examples=100, deadline=None)
def test_fit_equals_per_step_reference(
    nodes, length, window, batch_size, epochs, hidden, seed, config
):
    # window >= length included: the whole series is then every window.
    traces = generate_speed_traces(nodes, length, config, seed=seed % 1000)
    _assert_fits_equal(
        traces,
        hidden=hidden,
        seed=seed,
        epochs=epochs,
        window=window,
        batch_size=batch_size,
    )


@given(
    batch=st.integers(1, 70),
    steps=st.integers(2, 50),
    hidden=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_one_pass_equals_reference(batch, steps, hidden, seed):
    # One forward and backward pass on unnormalised data, every gradient.
    model = LSTMSpeedModel(hidden=hidden, seed=seed)
    x = np.random.default_rng(seed).standard_normal((batch, steps)) * 3.0
    preds, stacks = model._forward(x)
    want_preds, caches = reference_forward(model, x)
    assert _same_bytes(preds, want_preds)
    loss, grads = model._backward(x, preds, stacks)
    want_loss, want_grads = reference_backward(model, x, want_preds, caches)
    assert loss.hex() == want_loss.hex()
    assert grads.keys() == want_grads.keys()
    for name, value in want_grads.items():
        assert _same_bytes(grads[name], value), name


@pytest.mark.parametrize("shape", [(3, 0), (0, 5), (0, 0)])
def test_predict_series_on_empty_series(shape):
    model = LSTMSpeedModel(hidden=4, seed=0)
    got = model.predict_series(np.ones(shape))
    assert _same_bytes(got, reference_predict_series(model, np.ones(shape)))
