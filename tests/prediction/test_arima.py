"""Tests for the ARIMA baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.arima import ARIMA111Model, ARModel, _nelder_mead
from repro.prediction.traces import MEASURED, STABLE, generate_speed_traces


def reference_css(params, diffs_list):
    """The per-series scalar CSS loop, frozen as the oracle."""
    c, phi, theta = params
    total = 0.0
    for diffs in diffs_list:
        err_prev = 0.0
        for t in range(1, diffs.size):
            err = diffs[t] - c - phi * diffs[t - 1] - theta * err_prev
            total += err * err
            err_prev = err
    return total


def ar1_series(phi=0.8, c=0.2, n=8, length=300, seed=0):
    """Exact AR(1) data the AR model must recover."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, length))
    for i in range(n):
        x = 1.0
        for t in range(length):
            x = c + phi * x + 0.01 * rng.standard_normal()
            out[i, t] = x
    return out


class TestARModel:
    def test_recovers_ar1_coefficients(self):
        series = ar1_series(phi=0.8, c=0.2)
        model = ARModel(p=1, center=False).fit(series)
        assert model.coef[0] == pytest.approx(0.8, abs=0.05)
        assert model.intercept == pytest.approx(0.2, abs=0.06)

    def test_centered_fit_recovers_phi(self):
        series = ar1_series(phi=0.8, c=0.2)
        model = ARModel(p=1).fit(series)  # center=True default
        assert model.coef[0] == pytest.approx(0.8, abs=0.07)
        assert abs(model.intercept) < 0.05

    def test_predict_next_shape(self):
        model = ARModel(p=2).fit(ar1_series())
        preds = model.predict_next(np.ones((5, 10)))
        assert preds.shape == (5,)

    def test_predict_series_alignment(self):
        # On a noiseless AR(1), one-step predictions should be near exact.
        series = ar1_series(phi=0.9, c=0.1, seed=1)
        model = ARModel(p=1).fit(series)
        preds = model.predict_series(series)
        err = np.abs(preds[:, :-1] - series[:, 1:]).mean()
        assert err < 0.05

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ARModel().predict_next(np.ones((1, 3)))

    def test_history_too_short_raises(self):
        model = ARModel(p=3).fit(ar1_series())
        with pytest.raises(ValueError, match="at least"):
            model.predict_next(np.ones((1, 2)))

    def test_beats_last_value_on_mean_reverting_data(self):
        series = ar1_series(phi=0.6, c=0.4, seed=2)
        train, test = series[:6], series[6:]
        model = ARModel(p=1).fit(train)
        ar_mape = model.evaluate_mape(test)
        last_value_mape = float(
            np.mean(np.abs(test[:, :-1] - test[:, 1:]) / test[:, 1:])
        )
        assert ar_mape < last_value_mape

    def test_ar2_on_traces(self):
        traces = generate_speed_traces(20, 200, STABLE, seed=0)
        model = ARModel(p=2).fit(traces[:16])
        assert model.evaluate_mape(traces[16:]) < 0.2

    def test_p_validated(self):
        with pytest.raises(ValueError):
            ARModel(p=0)


class TestARIMA111Model:
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(-1.0, 1.0),
        phi=st.floats(-1.0, 1.0),
        theta=st.one_of(
            st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.999, 0.999, 1.0])
        ),
        series=st.integers(1, 6),
        length=st.integers(3, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_css_equals_scalar_loop(self, seed, c, phi, theta, series, length):
        traces = np.random.default_rng(seed).lognormal(0.0, 0.5, (series, length))
        params = np.array([c, phi, theta])
        got = ARIMA111Model._css(params, np.diff(traces, axis=1))
        assert type(got) is float
        assert got == reference_css(params, [np.diff(row) for row in traces])

    @pytest.mark.parametrize(
        "nodes, length, expected",
        [
            (40, 250, ("-0x1.142949d5c84a6p-16", "0x1.8cb02fd0df7f8p-5",
                       "-0x1.c9ced1846523ep-2")),
            (100, 1000, ("0x1.9a2835445d552p-17", "0x1.f1a3c586ae7a8p-4",
                         "-0x1.e893f655cc172p-2")),
        ],
        ids=["quick", "full"],
    )
    def test_fit_on_sec61_inputs_is_pinned(self, nodes, length, expected):
        # The §6.1 training split at seed 0: the fitted (c, φ, θ) of the
        # per-series scalar CSS, to the last bit.
        train = generate_speed_traces(nodes, length, MEASURED, seed=0)
        model = ARIMA111Model().fit(train[: int(0.8 * nodes)])
        assert (model.intercept, model.phi, model.theta) == tuple(
            float.fromhex(v) for v in expected
        )

    def test_css_on_every_point_of_the_sec61_fit(self, monkeypatch):
        # Every (c, φ, θ) the fit evaluates on the §6.1 quick input: the
        # two-op recurrence equals the per-series scalar loop there.
        train = generate_speed_traces(40, 250, MEASURED, seed=0)[:32]
        diffs = np.diff(train, axis=1)
        points = []
        css = ARIMA111Model._css

        def recording(params, d):
            points.append(np.array(params, copy=True))
            return css(params, d)

        monkeypatch.setattr(ARIMA111Model, "_css", staticmethod(recording))
        ARIMA111Model().fit(train)
        assert len(points) > 200
        rows = list(diffs)
        for params in points:
            assert css(params, diffs) == reference_css(params, rows)

    def test_fit_and_predict_shapes(self):
        traces = generate_speed_traces(10, 150, STABLE, seed=1)
        model = ARIMA111Model().fit(traces[:8])
        preds = model.predict_series(traces[8:])
        assert preds.shape == traces[8:].shape

    def test_reasonable_accuracy_on_traces(self):
        traces = generate_speed_traces(20, 200, STABLE, seed=2)
        model = ARIMA111Model().fit(traces[:16])
        assert model.evaluate_mape(traces[16:]) < 0.25

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ARIMA111Model().predict_series(np.ones((1, 5)))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ARIMA111Model().fit(np.ones((2, 2)))

    def test_paper_ordering_ar1_beats_arima111(self):
        # §6.1: ARIMA(1,0,0) was the best ARIMA variant on cloud traces.
        traces = generate_speed_traces(40, 300, STABLE, seed=3)
        train, test = traces[:32], traces[32:]
        ar1 = ARModel(p=1).fit(train).evaluate_mape(test)
        arima = ARIMA111Model().fit(train).evaluate_mape(test)
        assert ar1 <= arima * 1.1  # allow a small margin


class TestNelderMead:
    """The in-repo Nelder–Mead walks SciPy's vertices to SciPy's result."""

    @staticmethod
    def _rosenbrock(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))

    @staticmethod
    def _terraced(x):
        # Piecewise constant: ties between vertices, contractions that tie
        # the reflection, and shrink steps.
        return float(np.floor(np.sum(np.abs(x - [0.75, -0.9])) * 4.0))

    def _cases(self):
        quick = generate_speed_traces(40, 250, MEASURED, seed=0)[:32]
        cases = [
            (lambda p, d=np.diff(quick, axis=1): ARIMA111Model._css(p, d),
             [0.0, 0.2, 0.1], 2000),
            (self._rosenbrock, [0.0, 0.2, 0.1], 2000),
            (self._rosenbrock, [-1.2, 1.0], 2000),
            (self._rosenbrock, [-1.2, 1.0], 7),  # stopped by maxiter
            (self._terraced, [-0.1, -1.3], 2000),
            (self._terraced, [2.0, 0.0], 2000),
            (lambda x: float(np.abs(x).sum()), [3.0, 0.0], 2000),
        ]
        for seed in range(6):
            rows = generate_speed_traces(5 + seed, 40 + 30 * seed, STABLE, seed=seed)
            cases.append(
                (lambda p, d=np.diff(rows, axis=1): ARIMA111Model._css(p, d),
                 [0.0, 0.2, 0.1], 2000)
            )
        return cases

    def test_equals_scipy_minimize(self):
        # Same evaluated points in the same order, and the same result.
        optimize = pytest.importorskip("scipy.optimize")
        for func, x0, maxiter in self._cases():
            options = {"maxiter": maxiter, "xatol": 1e-6, "fatol": 1e-9}
            walks = ([], [])

            def recorded(walk):
                return lambda x: walk.append(x.tobytes()) or func(x)

            want = optimize.minimize(
                recorded(walks[0]), x0=np.array(x0), method="Nelder-Mead",
                options=options,
            ).x
            got = _nelder_mead(recorded(walks[1]), np.array(x0), **options)
            assert walks[1] == walks[0], (x0, maxiter)
            assert got.tobytes() == want.tobytes(), (x0, maxiter)
