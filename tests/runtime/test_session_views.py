"""The session views against the frozen per-trial sessions, fuzzed.

``CodedSession``, ``ReplicationSession`` and ``OverDecompositionSession``
are one-trial views of the batched runners: each round is one
``_BatchRunnerBase.matvec`` call, and the session adds encode, compute and
decode.  The property below plays the same random configuration on a view
and on the session loop frozen in ``session_reference.py`` — two
operators per session, their rounds interleaved (past the speed draws'
first 8-round block too) — coded
mat-vec and bilinear operators under the static, basic and general
schedulers with and without the §4.3 timeout, replication under both
speculation configs, over-decomposition with migrating holders; oracle
(sharing the session's speed model or not), stale, last-value, AR and
LSTM forecasters; constant, controlled and trace speeds; random
``fail_next`` schedules, undecodable rounds included — and demands the
same results bit for bit, the same exceptions with the same messages, and
the same metrics, round count and resident storage after every round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import session_reference as reference
from repro.cluster.network import CostModel, NetworkModel
from repro.cluster.speed_models import ConstantSpeeds, ControlledSpeeds, TraceSpeeds
from repro.coding.mds import MDSCode
from repro.coding.polynomial import PolynomialCode
from repro.prediction.arima import ARModel
from repro.prediction.lstm import LSTMSpeedModel
from repro.prediction.predictor import (
    ARPredictor,
    LastValuePredictor,
    LSTMPredictor,
    OraclePredictor,
    StalePredictor,
)
from repro.prediction.traces import STABLE, VOLATILE, generate_speed_traces
from repro.runtime import session as views
from repro.scheduling.replication import SpeculationConfig
from repro.scheduling.s2c2 import BasicS2C2Scheduler, GeneralS2C2Scheduler
from repro.scheduling.static import StaticCodedScheduler
from repro.scheduling.timeout import TimeoutPolicy

N = 6
NET = NetworkModel(latency=1e-6, bandwidth=1e9)
COST = CostModel(worker_flops=1e6)
SCHEDULERS = {
    "static": StaticCodedScheduler,
    "basic": BasicS2C2Scheduler,
    "general": GeneralS2C2Scheduler,
}
_TRAINING = generate_speed_traces(8, 80, STABLE, seed=0)
AR_MODEL = ARModel(p=2).fit(_TRAINING)
LSTM_MODEL = LSTMSpeedModel(hidden=3, seed=0)
LSTM_MODEL.fit(_TRAINING, epochs=3, window=20)


def _speed_model(kind: str, seed: int):
    if kind == "constant":
        return ConstantSpeeds(np.random.default_rng(seed).uniform(0.3, 1.5, N))
    if kind == "controlled":
        return ControlledSpeeds(N, num_stragglers=seed % 3, seed=seed)
    return TraceSpeeds(generate_speed_traces(N, 7, VOLATILE, seed=seed))


def _predictor(kind: str, speeds: str, seed: int, session_speeds):
    if kind == "oracle-shared":
        return OraclePredictor(speed_model=session_speeds)
    if kind == "oracle":
        return OraclePredictor(speed_model=_speed_model(speeds, seed))
    if kind == "stale":
        return StalePredictor(
            speed_model=_speed_model(speeds, seed), miss_rate=0.4, seed=seed
        )
    if kind == "last-value":
        return LastValuePredictor(N)
    if kind == "ar":
        return ARPredictor(AR_MODEL, N)
    return LSTMPredictor(LSTM_MODEL, N)


def _outcome(call):
    """A round's result, or its exception's type and message."""
    try:
        return call()
    except Exception as error:  # both sides must fail the same way
        return type(error), str(error)


def _play(module, config: dict) -> list:
    """Everything observable of one run of ``config`` on ``module``'s sessions."""
    seed = config["seed"]
    speed_model = _speed_model(config["speeds"], seed)
    common = dict(
        speed_model=speed_model,
        predictor=_predictor(config["predictor"], config["speeds"], seed, speed_model),
        network=NET,
        cost=COST,
    )
    rng = np.random.default_rng(seed)
    family = config["family"]
    shape = (config["rows"], config["cols"])
    names = ("A", "B")
    if family in ("matvec", "bilinear"):
        session = module.CodedSession(**common, timeout=config["timeout"])
        k = config["a"] * config["b"] if family == "bilinear" else config["k"]
        scheduler = SCHEDULERS[config["scheduler"]](
            coverage=k, num_chunks=config["chunks"]
        )
        for name in names:
            matrix = rng.normal(size=shape)
            if family == "matvec":
                session.register_matvec(name, matrix, MDSCode(N, k), scheduler)
            else:
                code = PolynomialCode(N, config["a"], config["b"])
                session.register_bilinear(name, matrix, matrix.T, code, scheduler)
    elif family == "replication":
        session = module.ReplicationSession(**common, config=config["speculation"])
    else:
        session = module.OverDecompositionSession(**common, factor=config["factor"])
    if family in ("replication", "overdecomp"):
        for name in names:
            session.register_matvec(name, rng.normal(size=shape))

    observed = []
    for round_, failures in enumerate(config["failures"]):
        name = names[round_ % 2]
        if failures:
            session.fail_next(failures)
        if family == "bilinear":
            diag = rng.uniform(0.5, 1.5, size=config["cols"])
            observed.append(_outcome(lambda: session.bilinear(name, diag=diag)))
        else:
            x = rng.normal(size=config["cols"])
            observed.append(_outcome(lambda: session.matvec(name, x)))
        observed.append((session.iteration, len(session.metrics)))
        if family == "overdecomp":
            observed += [session.storage_fraction(n) for n in names]
    metrics = session.metrics
    if len(metrics):
        observed += [
            metrics.total_time,
            metrics.wasted_fraction_of_assigned(),
            metrics.misprediction_rate(),
            metrics.repair_count,
            metrics.total_wasted_fraction(),
        ]
    return observed


def _flat(value) -> float | np.ndarray:
    """A view's one-trial aggregate as the frozen scalar form."""
    if isinstance(value, np.ndarray) and value.ndim and value.shape[0] == 1:
        return value[0]
    return value


def _assert_same(frozen: list, view: list) -> None:
    assert len(frozen) == len(view)
    for want, got in zip(frozen, view):
        if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
            want = np.asarray(want)
            got = np.asarray(_flat(got)) if want.ndim < np.ndim(got) else got
            np.testing.assert_array_equal(got, want)
            assert np.shape(got) == np.shape(want)
        else:
            assert got == want


failure_sets = st.frozensets(st.integers(0, N - 1), max_size=N - 1)


@st.composite
def configs(draw):
    family = draw(st.sampled_from(["matvec", "bilinear", "replication", "overdecomp"]))
    config = {
        "family": family,
        "seed": draw(st.integers(0, 2**16)),
        "speeds": draw(st.sampled_from(["constant", "controlled", "traces"])),
        "predictor": draw(
            st.sampled_from(
                ["oracle-shared", "oracle", "stale", "last-value", "ar", "lstm"]
            )
        ),
        "cols": draw(st.integers(2, 6)),
        # Mostly healthy rounds, some with failures (undecodable ones too).
        "failures": draw(
            st.lists(
                st.one_of(st.just(frozenset()), st.just(frozenset()), failure_sets),
                min_size=1,
                max_size=12,
            )
        ),
    }
    if family in ("matvec", "bilinear"):
        config["scheduler"] = draw(st.sampled_from(sorted(SCHEDULERS)))
        config["timeout"] = draw(st.sampled_from([None, TimeoutPolicy()]))
        config["chunks"] = draw(st.sampled_from([3, 12, 60]))
    if family == "matvec":
        config["k"] = draw(st.integers(1, N))
        config["rows"] = draw(st.integers(config["k"], 48))
    elif family == "bilinear":
        config["a"], config["b"] = draw(
            st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (1, 3)])
        )
        # ``left`` is rows × cols and ``right = left.T``: both split rows.
        config["rows"] = draw(st.integers(2 * max(config["a"], config["b"]), 18))
    elif family == "replication":
        config["speculation"] = SpeculationConfig(
            allow_data_movement=draw(st.booleans())
        )
        config["rows"] = draw(st.integers(N, 48))
    else:
        config["factor"] = draw(st.integers(1, 4))
        config["rows"] = draw(st.integers(config["factor"] * N, 72))
    return config


@given(configs())
@settings(max_examples=300, deadline=None)
def test_views_equal_frozen_sessions(config):
    _assert_same(_play(reference, config), _play(views, config))


@pytest.mark.parametrize("family", ["matvec", "bilinear", "replication", "overdecomp"])
def test_failures_reach_the_round(family):
    # The failure schedule changes what the frozen sessions observe (a
    # repair, an undecodable round, a speculative copy, a rejected
    # over-decomposition round), and the views observe the same: a view
    # that dropped the failure set would diverge here.
    config = {
        "family": family,
        "seed": 3,
        "speeds": "controlled",
        "predictor": "oracle",
        "cols": 4,
        "rows": 36,
        "scheduler": "general",
        "timeout": TimeoutPolicy(),
        "chunks": 12,
        "k": 4,
        "a": 2,
        "b": 2,
        "speculation": SpeculationConfig(allow_data_movement=False),
        "factor": 2,
        "failures": [frozenset(), frozenset({5}), frozenset({1, 2, 3, 4}), frozenset()],
    }
    frozen = _play(reference, config)
    _assert_same(frozen, _play(views, config))
    healthy = _play(reference, dict(config, failures=[frozenset()] * 4))
    with pytest.raises(AssertionError):
        _assert_same(frozen, healthy)
