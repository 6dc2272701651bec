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

from repro._util import as_rng, check_positive_int, check_series

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


def _sum_in_loop_order(products: np.ndarray) -> np.ndarray:
    """``((0 + p[T−1]) + p[T−2]) + … + p[0]`` over a ``(T, ...)`` stack.

    The order of the backward loop's per-step accumulation; a reduce over
    a stack with one element per step would sum it pairwise instead.
    """
    zero = np.zeros((1,) + products.shape[1:])
    return np.cumsum(np.concatenate([zero, products[::-1]]), axis=0)[-1]


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
        """Run the LSTM over a ``(B, T)`` batch; return preds and the stacks.

        Step ``t`` reads its input ``[x_t, h_{t-1}]`` from ``z[t]`` and
        writes ``h_t`` into ``z[t + 1]``.  Past the row-major matmul a step
        works gate-major, on ``(4·hidden, B)`` slices: ``gates[t]`` holds
        the sigmoid of the four pre-activations (rows ``[i, f, ·, o]``) and
        ``cells[t]`` rows ``[g, c_{t-1}, ·, tanh c_t]``.  Every element sees
        the float operations of one unstacked step.
        """
        p = self._params
        hd = self.hidden
        batch, steps = x.shape
        z = np.zeros((steps + 1, batch, 1 + hd))
        z[:steps, :, 0] = x.T
        gates = np.empty((steps, 4 * hd, batch))
        cells = np.zeros((steps + 1, 4 * hd, batch))
        w_t = p["W"].T
        bias = np.repeat(p["b"][:, None], batch, axis=1)
        pre = np.empty((batch, 4 * hd))
        ig = np.empty((hd, batch))
        for t in range(steps):
            a, cell = gates[t], cells[t]
            np.matmul(z[t], w_t, out=pre)
            np.add(pre.T, bias, out=a)
            np.tanh(a[2 * hd : 3 * hd], out=cell[:hd])
            # The sigmoid of all four gates at once (the g rows go unused).
            a.clip(-50.0, 50.0, out=a)
            np.negative(a, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            c = cells[t + 1, hd : 2 * hd]
            np.multiply(a[hd : 2 * hd], cell[hd : 2 * hd], out=c)
            np.multiply(a[:hd], cell[:hd], out=ig)
            c += ig
            np.tanh(c, out=cell[3 * hd :])
            np.multiply(a[3 * hd :], cell[3 * hd :], out=z[t + 1, :, 1:].T)
        # h as its own row-major stack: BLAS rounds a matrix-vector
        # product by the matrix's row stride.
        h = np.ascontiguousarray(z[1:, :, 1:])
        preds = np.ascontiguousarray((np.matmul(h, p["Wy"].T) + p["by"])[..., 0].T)
        return preds, (z, gates, cells, h)

    def _backward(self, x: np.ndarray, preds: np.ndarray, stacks):
        """BPTT for the one-step-ahead MSE loss; returns loss and grads.

        Uses up the forward's ``stacks``.  The time loop keeps only the
        recurrence: ``da_t`` is laid out row-major, as the matmuls take it,
        over ``gates[t]``'s memory once that is read, and the readout and
        weight gradients are stacked products summed afterwards in the
        loop's order (``t = T−1, …, 0``).
        """
        p = self._params
        hd = self.hidden
        z, gates, cells, h = stacks
        batch, steps = x.shape
        errors = preds[:, :-1] - x[:, 1:]
        count = errors.size
        loss = float(np.mean(errors**2))
        dy = np.zeros((steps, 1, batch))
        dy[:-1, 0] = (2.0 / count) * errors.T
        # da = ((D·F1)·F2)·F3 row block by row block, with D = [dc, dc, dc,
        # dh], F1 = cells = [g, c_prev, i, tanh c], F2 = gates = [i, f,
        # 1 − g², o] and F3 = [1 − i, 1 − f, 1, 1 − o]: one step's products,
        # each factor computed once per epoch.
        cells[:steps, 2 * hd : 3 * hd] = gates[:, :hd]
        one_minus = np.subtract(1.0, gates)
        one_minus[:, 2 * hd : 3 * hd] = 1.0
        g, gate_g = cells[:steps, :hd], gates[:, 2 * hd : 3 * hd]
        np.multiply(g, g, out=gate_g)
        np.subtract(1.0, gate_g, out=gate_g)
        dtanh = 1.0 - cells[:steps, 3 * hd :] ** 2
        dh_y = dy * p["Wy"].T
        da_rows = gates.reshape(steps, batch, 4 * hd)
        w = p["W"]
        dh, dc, dc_next = (np.zeros((hd, batch)) for _ in range(3))
        dz = np.zeros((batch, 1 + hd))
        dh_next = dz[:, 1:].T
        da = np.empty((4 * hd, batch))
        da_dc = da[: 3 * hd].reshape(3, hd, batch)
        for t in range(steps - 1, -1, -1):
            a, cell = gates[t], cells[t]
            np.add(dh_y[t], dh_next, out=dh)
            np.multiply(dh, a[3 * hd :], out=dc)
            dc *= dtanh[t]
            dc += dc_next
            np.multiply(dc, cell[: 3 * hd].reshape(3, hd, batch), out=da_dc)
            np.multiply(dh, cell[3 * hd :], out=da[3 * hd :])
            da *= a
            np.multiply(dc, a[hd : 2 * hd], out=dc_next)
            da *= one_minus[t]
            np.copyto(da_rows[t], da.T)
            np.matmul(da_rows[t], w, out=dz)
        products = {
            "W": np.matmul(da_rows.transpose(0, 2, 1), z[:steps]),
            "b": da_rows.sum(axis=1),
            "Wy": np.matmul(dy, h),
            "by": dy.sum(axis=2),
        }
        grads = {k: _sum_in_loop_order(v) for k, v in products.items()}
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
        series = check_series(series)
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        check_positive_int(batch_size, "batch_size")
        n_nodes, length = series.shape
        if length < 2:
            raise ValueError("series too short: need at least 2 samples")
        window = min(window, length)
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
            batch = normed[rows[:, None], starts[:, None] + np.arange(window)]
            # One epoch's stacks at a time: they die with the backward call.
            loss, grads = self._backward(batch, *self._forward(batch))
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
        rows = x.shape[0]
        x, h, c = ((x - self._mu) / self._sigma)[:, None], state.h, state.c
        if rows == 1:
            # A one-row matmul takes BLAS's matrix-vector kernel, which
            # rounds unlike the matrix-matrix kernel of a stacked step:
            # step two copies of the row and keep the first.
            x, h, c = (np.repeat(v, 2, axis=0) for v in (x, h, c))
        a = np.concatenate([x, h], axis=1) @ p["W"].T + p["b"]
        i = _sigmoid(a[:, :h_dim])
        f = _sigmoid(a[:, h_dim : 2 * h_dim])
        g = np.tanh(a[:, 2 * h_dim : 3 * h_dim])
        o = _sigmoid(a[:, 3 * h_dim :])
        c = f * c + i * g
        h = o * np.tanh(c)
        state.c, state.h = c[:rows], h[:rows]
        return (h @ p["Wy"].T + p["by"])[:rows, 0] * self._sigma + self._mu

    def step_stacked(self, state: LSTMState, x: np.ndarray) -> np.ndarray:
        """Advance one step for a stacked ``(trials, nodes)`` observation.

        The recurrent math is row-independent, so a whole Monte-Carlo
        batch shares one ``initial_state(trials * nodes)`` and advances in
        a single :meth:`step` call per round; row ``(t, n)`` evolves bit
        for bit as node ``n`` of an independent trial-``t`` state would.
        This is the kernel behind
        :class:`~repro.prediction.predictor.BatchLSTMPredictor`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (trials, nodes), got shape {x.shape}")
        return self.step(state, x.reshape(-1)).reshape(x.shape)
