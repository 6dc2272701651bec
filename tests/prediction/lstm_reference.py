"""The per-step LSTM training pass: the oracle of the stacked BPTT.

``LSTMSpeedModel._forward`` writes each time step into preallocated
``(steps, batch, ·)`` stacks, and ``_backward`` takes the readout and the
weight-gradient products out of its time loop as stacked products summed
in the loop's order.  This module is the per-step code they replace,
frozen here so the suites can pin every fitted loss, parameter and
forecast to it byte for byte: the concatenated ``[x, h]`` input, the four
gate slices, the per-step readout, the per-step gradient accumulation,
and ``fit``'s per-window ``np.stack`` batch.  Each former method is a
function of the model, whose parameters and Adam step it uses.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.prediction.lstm import LSTMSpeedModel


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50.0, 50.0)))


def reference_forward(model: LSTMSpeedModel, x: np.ndarray):
    """Run the LSTM over a ``(B, T)`` batch; return preds and caches."""
    p = model._params
    h_dim = model.hidden
    batch, steps = x.shape
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    caches = []
    preds = np.empty((batch, steps))
    for t in range(steps):
        z = np.concatenate([x[:, t : t + 1], h], axis=1)
        a = z @ p["W"].T + p["b"]
        i = _sigmoid(a[:, :h_dim])
        f = _sigmoid(a[:, h_dim : 2 * h_dim])
        g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
        o = _sigmoid(a[:, 3 * h_dim :])
        c_prev = c
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        preds[:, t] = (h @ p["Wy"].T + p["by"])[:, 0]
        caches.append((z, i, f, g, o, c_prev, c, tanh_c, h))
    return preds, caches


def reference_backward(model: LSTMSpeedModel, x: np.ndarray, preds, caches):
    """BPTT for the one-step-ahead MSE loss; returns loss and grads."""
    p = model._params
    h_dim = model.hidden
    batch, steps = x.shape
    targets = x[:, 1:]
    errors = preds[:, :-1] - targets
    count = errors.size
    loss = float(np.mean(errors**2))
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dh_next = np.zeros((batch, h_dim))
    dc_next = np.zeros((batch, h_dim))
    for t in range(steps - 1, -1, -1):
        z, i, f, g, o, c_prev, c, tanh_c, h = caches[t]
        if t < steps - 1:
            dy = (2.0 / count) * errors[:, t : t + 1]
        else:
            dy = np.zeros((batch, 1))
        grads["Wy"] += dy.T @ h
        grads["by"] += dy.sum(axis=0)
        dh = dy @ p["Wy"] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        grads["W"] += da.T @ z
        grads["b"] += da.sum(axis=0)
        dz = da @ p["W"]
        dh_next = dz[:, 1:]
        dc_next = dc * f
    return loss, grads


def reference_fit(
    model: LSTMSpeedModel,
    series: np.ndarray,
    epochs: int = 60,
    window: int = 40,
    batch_size: int = 64,
    lr: float = 2e-2,
) -> list[float]:
    """``LSTMSpeedModel.fit`` with the per-window ``np.stack`` batch."""
    series = np.asarray(series, dtype=np.float64)
    n_nodes, length = series.shape
    window = min(window, length)
    rng = as_rng(model.seed)
    model._mu = float(series.mean())
    model._sigma = float(series.std()) or 1.0
    normed = (series - model._mu) / model._sigma
    losses = []
    for _ in range(epochs):
        rows = rng.integers(0, n_nodes, size=batch_size)
        if length == window:
            starts = np.zeros(batch_size, dtype=np.int64)
        else:
            starts = rng.integers(0, length - window, size=batch_size)
        batch = np.stack([normed[r, s : s + window] for r, s in zip(rows, starts)])
        preds, caches = reference_forward(model, batch)
        loss, grads = reference_backward(model, batch, preds, caches)
        model._adam_step(grads, lr)
        losses.append(loss)
    return losses


def reference_predict_series(model: LSTMSpeedModel, series: np.ndarray) -> np.ndarray:
    """``LSTMSpeedModel.predict_series`` through the per-step forward pass."""
    series = np.asarray(series, dtype=np.float64)
    preds, _ = reference_forward(model, (series - model._mu) / model._sigma)
    return preds * model._sigma + model._mu
