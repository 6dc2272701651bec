"""ARIMA baselines for speed forecasting (paper §6.1).

The paper evaluated ARIMA(1,0,0), ARIMA(2,0,0) and ARIMA(1,1,1) against the
LSTM and found ARIMA(1,0,0) the best of the three.  We implement:

* :class:`ARModel` — AR(p) fitted by pooled ordinary least squares across
  all training traces (exact, no iterative optimisation needed);
* :class:`ARIMA111Model` — ARIMA(1,1,1) fitted by conditional least squares
  on first differences via Nelder–Mead (:func:`_nelder_mead`, SciPy's
  algorithm transcribed float op for float op).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive_int, check_series
from repro.prediction.lstm import mape

__all__ = ["ARModel", "ARIMA111Model"]


def _stack_windows(series: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the pooled (lags → next value) regression design."""
    xs, ys = [], []
    for row in series:
        if row.size <= p:
            continue
        design = np.stack(
            [row[p - 1 - lag : row.size - 1 - lag] for lag in range(p)], axis=1
        )
        xs.append(design)
        ys.append(row[p:])
    if not xs:
        raise ValueError(f"series too short for AR({p})")
    return np.concatenate(xs), np.concatenate(ys)


@dataclass
class ARModel:
    """AR(p) one-step forecaster: ``x̂_{t+1} = c + Σ φ_i x_{t-i}``.

    ``ARModel(p=1)`` is the paper's best ARIMA baseline, ARIMA(1,0,0) —
    note that with ``φ ≈ 1`` it degenerates to last-value prediction, and
    the fitted ``φ < 1`` is what lets it beat last-value on mean-reverting
    traces.

    With ``center=True`` (default) each node's series is centred on its own
    running mean before the pooled regression, so the AR dynamics are
    learned on deviations rather than absolute levels — essential when
    nodes have heterogeneous baseline speeds (as cloud nodes do).
    """

    p: int = 1
    center: bool = True
    intercept: float = field(init=False, default=0.0)
    coef: np.ndarray = field(init=False, default=None)

    def __post_init__(self) -> None:
        check_positive_int(self.p, "p")

    @staticmethod
    def _running_means(series: np.ndarray) -> np.ndarray:
        """Per-node running mean at each step (what an online master knows)."""
        counts = np.arange(1, series.shape[1] + 1, dtype=np.float64)
        return np.cumsum(series, axis=1) / counts[None, :]

    def fit(self, series: np.ndarray) -> "ARModel":
        """Pooled OLS over all rows of ``series`` (``(N, L)``)."""
        series = check_series(series)
        if self.center:
            series = series - series.mean(axis=1, keepdims=True)
        design, target = _stack_windows(series, self.p)
        design = np.concatenate([np.ones((design.shape[0], 1)), design], axis=1)
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self.intercept = float(solution[0])
        self.coef = solution[1:]
        return self

    def _require_fit(self) -> None:
        if self.coef is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def predict_next(self, history: np.ndarray) -> np.ndarray:
        """Forecast the next value for each row of ``history`` (``(N, L)``).

        Rows are independent, so callers may stack any batch into the row
        dimension — :class:`~repro.prediction.predictor.BatchARPredictor`
        flattens ``(trials, nodes)`` lag windows into one ``(trials ×
        nodes, p)`` pass through here, with row results identical to
        per-trial calls.
        """
        self._require_fit()
        history = np.atleast_2d(np.asarray(history, dtype=np.float64))
        if history.shape[1] < self.p:
            raise ValueError(f"need at least {self.p} samples of history")
        mean = history.mean(axis=1, keepdims=True) if self.center else 0.0
        lags = (history - mean)[:, -1 : -self.p - 1 : -1]  # most recent first
        pred = self.intercept + lags @ self.coef
        return pred + (mean[:, 0] if self.center else 0.0)

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions aligned like the LSTM's.

        ``out[:, t]`` forecasts ``series[:, t+1]``; the first ``p - 1``
        columns fall back to last-value prediction (not enough lags yet).
        Centring uses each node's *running* mean — only data available by
        step ``t`` — so held-out evaluation stays causal.
        """
        self._require_fit()
        series = np.atleast_2d(np.asarray(series, dtype=np.float64))
        n, length = series.shape
        means = (
            self._running_means(series)
            if self.center
            else np.zeros_like(series)
        )
        out = np.empty((n, length))
        for t in range(length):
            if t + 1 < self.p:
                out[:, t] = series[:, t]
            else:
                centred = series[:, t - self.p + 1 : t + 1] - means[:, t : t + 1]
                lags = centred[:, ::-1]
                out[:, t] = self.intercept + lags @ self.coef + means[:, t]
        return out

    def evaluate_mape(self, series: np.ndarray) -> float:
        """One-step-ahead MAPE on a held-out set (§6.1 metric)."""
        series = np.atleast_2d(np.asarray(series, dtype=np.float64))
        preds = self.predict_series(series)
        return mape(preds[:, :-1], series[:, 1:])


def _nelder_mead(func, x0, maxiter: int, xatol: float, fatol: float) -> np.ndarray:
    """Minimise ``func`` from ``x0``; return the best vertex.

    SciPy's ``minimize(method="Nelder-Mead")`` without bounds or adaptive
    coefficients, transcribed float op for float op: the same initial
    simplex, reflection, expansion, contraction and shrink arithmetic,
    ``argsort``/``take`` reorder and ``xatol``/``fatol`` test, so it walks
    the same vertices to the same result.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(vertex) for vertex in sim])
    for _ in range(2):  # twice, as SciPy does: argsort need not be stable
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    for _ in range(1, maxiter):
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0]


@dataclass
class ARIMA111Model:
    """ARIMA(1,1,1) on speeds: ARMA(1,1) fitted to first differences.

    Conditional least squares: residuals are computed by the innovation
    recursion ``e_t = d_t - c - φ d_{t-1} - θ e_{t-1}`` and the squared sum
    is minimised with Nelder–Mead (exact MLE is unnecessary at this scale;
    the paper found this model inferior to AR(1) anyway).
    """

    intercept: float = field(init=False, default=0.0)
    phi: float = field(init=False, default=0.0)
    theta: float = field(init=False, default=0.0)
    _fitted: bool = field(init=False, default=False)

    @staticmethod
    def _css(params: np.ndarray, diffs: np.ndarray) -> float:
        """Squared innovations ``((d_t − c) − φ·d_{t−1}) − θ·e_{t−1}`` of every
        row of ``diffs``, summed one by one in series-major order."""
        c, phi, theta = params
        # Only − θ·e_{t−1} recurs; the rest is computed for all steps at once.
        errs = (diffs[:, 1:] - c) - phi * diffs[:, :-1]
        lag = np.empty(diffs.shape[0])
        for t in range(1, errs.shape[1]):
            np.multiply(theta, errs[:, t - 1], out=lag)
            np.subtract(errs[:, t], lag, out=errs[:, t])
        squares = (errs * errs).ravel()
        return float(np.cumsum(squares)[-1]) if squares.size else 0.0

    def fit(self, series: np.ndarray) -> "ARIMA111Model":
        """Fit on the pooled first differences of ``series`` (``(N, L)``)."""
        series = check_series(series)
        if series.shape[1] < 3:
            raise ValueError("series must be 2-D with length >= 3")
        diffs = np.diff(series, axis=1)
        self.intercept, self.phi, self.theta = (
            float(v)
            for v in _nelder_mead(
                lambda params: self._css(params, diffs),
                x0=np.array([0.0, 0.2, 0.1]),
                maxiter=2000,
                xatol=1e-6,
                fatol=1e-9,
            )
        )
        self._fitted = True
        return self

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead level forecasts aligned like the LSTM's."""
        if not self._fitted:
            raise RuntimeError("model is not fitted; call fit() first")
        series = np.atleast_2d(np.asarray(series, dtype=np.float64))
        n, length = series.shape
        out = np.empty((n, length))
        if length == 0:
            return out
        for i in range(n):
            row = series[i]
            diffs = np.diff(row)
            err_prev = 0.0
            out[i, 0] = row[0]  # no differences observed yet
            for t in range(1, length):
                d_prev = diffs[t - 1]
                pred_diff = self.intercept + self.phi * d_prev + self.theta * err_prev
                out[i, t] = row[t] + pred_diff
                if t < length - 1:
                    err_prev = diffs[t] - (
                        self.intercept + self.phi * d_prev + self.theta * err_prev
                    )
        return out

    def evaluate_mape(self, series: np.ndarray) -> float:
        """One-step-ahead MAPE on a held-out set (§6.1 metric)."""
        series = np.atleast_2d(np.asarray(series, dtype=np.float64))
        preds = self.predict_series(series)
        return mape(preds[:, :-1], series[:, 1:])
