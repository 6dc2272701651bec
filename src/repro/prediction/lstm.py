"""From-scratch NumPy LSTM for one-step speed forecasting (paper §6.1).

The paper's best model is deliberately tiny: a single LSTM layer with a
4-dimensional hidden state, 1-dimensional input and output, tanh cell
activation, fed the previous iteration's speed and predicting the next.
That is small enough to implement and train directly in NumPy (full BPTT +
Adam) with no deep-learning framework, which is exactly what this module
does.

Shapes follow the batched convention: a batch of ``B`` windows of length
``T`` is an array ``(B, T)``; the model predicts element ``t+1`` from the
prefix ending at ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = ["LSTMSpeedModel", "LSTMState", "MAPE_EPS", "mape"]

#: Floor applied to MAPE denominators.  Straggler scenarios (e.g. spot
#: preemption) drive actual speeds arbitrarily close to zero, and a single
#: near-zero actual would otherwise blow the mean up to astronomical values
#: (or, at an exact zero, divide by zero).  The floor is far below every
#: generator's speed floor, so ordinary traces are unaffected bit for bit.
MAPE_EPS = 1e-8


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipped for numerical robustness under exploratory learning rates.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50.0, 50.0)))


def mape(
    predicted: np.ndarray, actual: np.ndarray, eps: float = MAPE_EPS
) -> float:
    """Mean absolute percentage error, the paper's accuracy metric (§6.1).

    Denominators are floored at ``eps`` (see :data:`MAPE_EPS`), so a
    preempted near-zero speed sample cannot dominate — or crash — the
    mean.  Speeds are nonnegative by the simulators' contract; negative
    actuals indicate a caller bug and are rejected.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual must have the same shape")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if np.any(actual < 0):
        raise ValueError("actual values must be nonnegative for MAPE")
    return float(np.mean(np.abs(predicted - actual) / np.maximum(actual, eps)))


@dataclass
class LSTMState:
    """Recurrent state for online (per-iteration) prediction."""

    h: np.ndarray
    c: np.ndarray


@dataclass
class LSTMSpeedModel:
    """Single-layer LSTM with linear readout, trained by full BPTT + Adam.

    Parameters
    ----------
    hidden:
        Hidden-state dimension (paper: 4).
    seed:
        Parameter-initialisation and batching seed.
    """

    hidden: int = 4
    seed: int | None = 0
    _params: dict[str, np.ndarray] = field(init=False, repr=False)
    _adam: dict[str, np.ndarray] | None = field(init=False, repr=False, default=None)
    _steps: int = field(init=False, default=0)
    #: Input/target standardisation (fitted mean and scale). Standardising
    #: makes the near-identity mapping the data demands vastly easier to
    #: learn for a 4-unit network than raw speeds in (0, 1].
    _mu: float = field(init=False, default=0.0)
    _sigma: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        check_positive_int(self.hidden, "hidden")
        rng = as_rng(self.seed)
        h = self.hidden
        scale = 1.0 / np.sqrt(h + 1)
        weights = rng.standard_normal((4 * h, 1 + h)) * scale
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0  # forget-gate bias init: remember by default
        self._params = {
            "W": weights,
            "b": bias,
            "Wy": rng.standard_normal((1, h)) * scale,
            "by": np.zeros(1),
        }

    # ------------------------------------------------------------------ core
    def _forward(self, x: np.ndarray):
        """Run the LSTM over a ``(B, T)`` batch; return preds and caches."""
        p = self._params
        h_dim = self.hidden
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

    def _backward(self, x: np.ndarray, preds: np.ndarray, caches):
        """BPTT for the one-step-ahead MSE loss; returns loss and grads."""
        p = self._params
        h_dim = self.hidden
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

    def _adam_step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        if self._adam is None:
            self._adam = {}
            for k, v in self._params.items():
                self._adam["m_" + k] = np.zeros_like(v)
                self._adam["v_" + k] = np.zeros_like(v)
        self._steps += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        # Global-norm gradient clipping keeps tiny-batch BPTT stable.
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        if norm > 5.0:
            grads = {k: g * (5.0 / norm) for k, g in grads.items()}
        for k, g in grads.items():
            m = self._adam["m_" + k] = beta1 * self._adam["m_" + k] + (1 - beta1) * g
            v = self._adam["v_" + k] = beta2 * self._adam["v_" + k] + (1 - beta2) * g**2
            m_hat = m / (1 - beta1**self._steps)
            v_hat = v / (1 - beta2**self._steps)
            self._params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------ API
    def fit(
        self,
        series: np.ndarray,
        epochs: int = 60,
        window: int = 40,
        batch_size: int = 64,
        lr: float = 2e-2,
    ) -> list[float]:
        """Train on windows sampled from ``series`` (``(N, L)``).

        Returns the per-epoch training losses (decreasing loss is the
        training sanity check used by the tests).
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (nodes, length)")
        n_nodes, length = series.shape
        window = min(window, length)
        if window < 2:
            raise ValueError("series too short: need at least 2 samples")
        rng = as_rng(self.seed)
        self._mu = float(series.mean())
        self._sigma = float(series.std()) or 1.0
        normed = (series - self._mu) / self._sigma
        losses = []
        for _ in range(epochs):
            rows = rng.integers(0, n_nodes, size=batch_size)
            if length == window:
                starts = np.zeros(batch_size, dtype=np.int64)
            else:
                starts = rng.integers(0, length - window, size=batch_size)
            batch = np.stack(
                [normed[r, s : s + window] for r, s in zip(rows, starts)]
            )
            preds, caches = self._forward(batch)
            loss, grads = self._backward(batch, preds, caches)
            self._adam_step(grads, lr)
            losses.append(loss)
        return losses

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions for each time step of ``(N, L)``.

        ``out[:, t]`` is the model's forecast of ``series[:, t + 1]`` given
        the prefix through ``t``; the last column forecasts the step after
        the series ends.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (nodes, length)")
        preds, _ = self._forward((series - self._mu) / self._sigma)
        return preds * self._sigma + self._mu

    def evaluate_mape(self, series: np.ndarray) -> float:
        """One-step-ahead MAPE over a held-out ``(N, L)`` set (§6.1 metric)."""
        series = np.asarray(series, dtype=np.float64)
        preds = self.predict_series(series)
        return mape(preds[:, :-1], series[:, 1:])

    def initial_state(self, batch: int) -> LSTMState:
        """Fresh recurrent state for ``batch`` parallel nodes."""
        check_positive_int(batch, "batch")
        return LSTMState(
            h=np.zeros((batch, self.hidden)), c=np.zeros((batch, self.hidden))
        )

    def step(self, state: LSTMState, x: np.ndarray) -> np.ndarray:
        """Advance one time step: observe speeds ``x`` (B,), predict next.

        Mutates ``state`` in place and returns the ``(B,)`` forecasts —
        the online path used by the S2C2 master every iteration (§6.2).
        """
        p = self._params
        h_dim = self.hidden
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (state.h.shape[0],):
            raise ValueError(
                f"x must have shape ({state.h.shape[0]},), got {x.shape}"
            )
        z = np.concatenate(
            [((x - self._mu) / self._sigma)[:, None], state.h], axis=1
        )
        a = z @ p["W"].T + p["b"]
        i = _sigmoid(a[:, :h_dim])
        f = _sigmoid(a[:, h_dim : 2 * h_dim])
        g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
        o = _sigmoid(a[:, 3 * h_dim :])
        state.c = f * state.c + i * g
        state.h = o * np.tanh(state.c)
        return (state.h @ p["Wy"].T + p["by"])[:, 0] * self._sigma + self._mu

    def step_stacked(self, state: LSTMState, x: np.ndarray) -> np.ndarray:
        """Advance one step for a stacked ``(trials, nodes)`` observation.

        The recurrent math is row-independent, so a whole Monte-Carlo
        batch shares one ``initial_state(trials * nodes)`` and advances in
        a single :meth:`step` call per round; row ``(t, n)`` evolves bit
        for bit as node ``n`` of an independent trial-``t`` state would,
        unless that state has one row (a one-row step takes BLAS's
        matrix-vector kernel, which rounds differently).
        This is the kernel behind
        :class:`~repro.prediction.predictor.BatchLSTMPredictor`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (trials, nodes), got shape {x.shape}")
        return self.step(state, x.reshape(-1)).reshape(x.shape)
