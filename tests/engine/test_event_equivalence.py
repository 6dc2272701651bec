"""Zero-network equivalence and engine determinism of the event backend.

The pinned guarantees of the discrete-event backend:

* in the **zero-network limit** (zero latency, infinite bandwidth — where
  transfers vanish and even degraded link factors are irrelevant) the
  event backend reproduces the closed-form per-trial timelines
  **bitwise** for every registered policy × every registered scenario;
* on real networks the two backends still agree bitwise wherever no link
  is degraded (unit factors over dedicated duplex links);
* event-backend cells keep every engine guarantee the closed form has:
  shard merges are bitwise-equal to monolithic cells at any shard size,
  under thread and process pools, over fuzzed composed scenario
  expressions, and across a kill + ``--resume``.

Structure mirrors ``tests/engine/test_determinism.py``.
"""

import random

import pytest

from repro.cluster.fuzz import generate_scenario
from repro.cluster.network import NetworkModel
from repro.cluster.scenarios import available_scenarios
from repro.engine import ExecutionEngine, RunStore, SweepSpec
from repro.engine.plan import compile_plan, merge_shard_values
from repro.experiments.matrix import COVERAGE, N_WORKERS
from repro.experiments.matrix import _cell as matrix_cell
from repro.scheduling.policies import available_policies, build_policy

#: The limit where the event backend's links carry zero-cost traffic.
ZERO_NETWORK = NetworkModel(latency=0.0, bandwidth=float("inf"))

TRIALS = 8


def _zero_net_cell(params, ctx):
    """A matrix-style cell pinned to the zero-network limit."""
    policy = build_policy(
        params["policy"],
        N_WORKERS,
        COVERAGE,
        backend=params["backend"],
        network=ZERO_NETWORK,
    )
    return policy.run_scenario(
        params["scenario"], ctx, rows=240, cols=60, iterations=3
    )


class TestZeroNetworkBitwiseEquivalence:
    """Every registered policy × scenario pair, both backends, one sweep.

    One grid with ``backend`` as an axis keeps the trained-forecaster
    memos shared between the two backends — exactly how a mixed-backend
    comparison would run in production — and the assertions then demand
    *bitwise* equality of the per-trial dictionaries.
    """

    @pytest.fixture(scope="class")
    def values(self):
        spec = SweepSpec(
            name="zero-network-equivalence",
            cell=_zero_net_cell,
            axes=(
                ("policy", available_policies()),
                ("scenario", available_scenarios()),
                ("backend", ("closed", "event")),
            ),
            trials=2,
            base_seed=5,
            quick=True,
        )
        return ExecutionEngine(jobs=1, shard_size=2).run(spec).values

    @pytest.mark.parametrize("policy", available_policies())
    def test_event_backend_bitwise_equals_closed_form(self, values, policy):
        for scenario in available_scenarios():
            closed = values[(policy, scenario, "closed")]
            event = values[(policy, scenario, "event")]
            assert event == closed, f"{policy} × {scenario}"


# ---------------------------------------------------------------------------
# Engine determinism with the event backend (mirrors test_determinism.py)
# ---------------------------------------------------------------------------

#: The network-sensitive policy pair on scenarios that actually degrade
#: links — the cells where the event backend diverges from the closed form
#: and its own determinism therefore carries the guarantee alone.
POLICIES = ("mds", "timeout-repair")
SCENARIOS = ("bursty", "netslow", "linkbursty")


def _event_spec(trials=TRIALS, seed=11, backend="event"):
    return SweepSpec(
        name="event-determinism",
        cell=matrix_cell,
        axes=(
            ("policy", POLICIES),
            ("scenario", SCENARIOS),
            ("backend", (backend,)),
        ),
        trials=trials,
        base_seed=seed,
        quick=True,
    )


class TestEventShardMergeDeterminism:
    @pytest.fixture(scope="class")
    def monolithic(self):
        return ExecutionEngine(jobs=1, shard_size=TRIALS).run(_event_spec()).values

    @pytest.mark.usefixtures("one_shard_units")
    @pytest.mark.parametrize("shard_size", [1, 7, TRIALS])
    def test_shard_sizes_bitwise_equal(self, monolithic, shard_size):
        sharded = ExecutionEngine(jobs=1, shard_size=shard_size).run(_event_spec())
        assert sharded.values == monolithic

    @pytest.mark.parametrize("shard_size, calls", [(1, 4), (3, 2)])
    def test_joined_shards_bitwise_equal(
        self, monolithic, monkeypatch, shard_size, calls
    ):
        rows = 2 * shard_size * len(SCENARIOS)
        monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", rows)
        joined = ExecutionEngine(jobs=1, shard_size=shard_size).run(
            _event_spec()
        )
        assert joined.cell_calls == calls * len(POLICIES)
        assert joined.values == monolithic

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_pooled_jobs_bitwise_equal(self, monolithic, executor):
        pooled = ExecutionEngine(jobs=2, executor=executor, shard_size=3).run(
            _event_spec()
        )
        assert pooled.values == monolithic

    def test_trial_slices_match_smaller_sweeps(self, monolithic):
        small = ExecutionEngine(jobs=1).run(_event_spec(trials=3))
        for key, value in small.values.items():
            full = monolithic[key]
            assert value == {k: v[:3] for k, v in full.items()}

    def test_backends_agree_where_no_link_degrades(self, monolithic):
        # "bursty" is compute-only, so every link keeps factor 1 — and
        # even on the controlled (non-zero) network the event timeline
        # equals the closed form bitwise.
        closed = ExecutionEngine(jobs=1).run(_event_spec(backend="closed"))
        for policy in POLICIES:
            assert monolithic[(policy, "bursty", "event")] == closed.values[
                (policy, "bursty", "closed")
            ]

    def test_network_scenarios_diverge_from_the_closed_form(self, monolithic):
        # The point of the backend: under degraded links the closed form
        # (which sees unit speeds) must NOT match — network pressure is
        # only visible through the event timeline.
        closed = ExecutionEngine(jobs=1).run(_event_spec(backend="closed"))
        assert any(
            monolithic[(policy, scenario, "event")]
            != closed.values[(policy, scenario, "closed")]
            for policy in POLICIES
            for scenario in ("netslow", "linkbursty")
        )


class TestFuzzedZeroNetworkProperty:
    """Fuzzed composed scenario expressions through ``compile_plan``.

    Each case draws a coded policy, a generated (frequently composed,
    frequently network-degraded) scenario, a trial count, and a shard
    size; evaluates the closed form monolithically and the event backend
    through compiled shards; and demands the merge be bitwise-equal —
    zero-network equivalence and shard-merge determinism in one property.
    """

    POPULATION_SEED = 53
    CODED_POLICIES = ("mds", "timeout-repair", "s2c2-general")

    @pytest.mark.parametrize("case", range(6))
    def test_fuzzed_draws_bitwise_equal(self, case):
        rng = random.Random(9_000 + case)
        policy = rng.choice(self.CODED_POLICIES)
        scenario = generate_scenario(self.POPULATION_SEED, rng.randrange(64))
        trials = rng.randrange(2, 6)
        seed = rng.randrange(10_000)

        def spec(backend):
            return SweepSpec(
                name=f"zero-net-fuzz-{case}-{backend}",
                cell=_zero_net_cell,
                axes=(
                    ("policy", (policy,)),
                    ("scenario", (scenario,)),
                    ("backend", (backend,)),
                ),
                trials=trials,
                base_seed=seed,
                quick=True,
            )

        closed_spec = spec("closed")
        (params,) = closed_spec.points()
        monolithic = _zero_net_cell(params, closed_spec.context())

        shard_size = rng.randrange(1, trials + 1)
        plan = compile_plan(spec("event"), shard_size=shard_size)
        merged = merge_shard_values(
            [_zero_net_cell(shard.params, shard.ctx) for shard in plan.shards],
            [shard.trials for shard in plan.shards],
        )
        assert merged == monolithic, (
            f"case {case}: policy={policy!r} scenario={scenario!r} "
            f"trials={trials} shard_size={shard_size}"
        )


# --- resume with the event backend -----------------------------------------

_CALLS = {"count": 0, "fail_after": None}


def _counting_cell(params, ctx):
    """Event-backend matrix cell wrapped in an interruptible call counter."""
    if (
        _CALLS["fail_after"] is not None
        and _CALLS["count"] >= _CALLS["fail_after"]
    ):
        raise RuntimeError("simulated kill")
    _CALLS["count"] += 1
    return matrix_cell(params, ctx)


def _resume_spec():
    return SweepSpec(
        name="event-resume",
        cell=_counting_cell,
        axes=(
            ("policy", ("timeout-repair",)),
            ("scenario", ("netslow",)),
            ("backend", ("event",)),
        ),
        trials=6,
        base_seed=2,
        quick=True,
    )


class TestEventResume:
    @pytest.mark.usefixtures("one_shard_units")
    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        # 1 cell × 3 shards of 2 trials = 3 shard units; kill after 2.
        _CALLS.update(count=0, fail_after=None)
        uninterrupted = ExecutionEngine(
            jobs=1, store=RunStore(tmp_path / "clean"), shard_size=2
        ).run(_resume_spec())

        store = RunStore(tmp_path / "killed")
        _CALLS.update(count=0, fail_after=2)
        with pytest.raises(RuntimeError, match="simulated kill"):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(
                _resume_spec()
            )
        assert store.shard_count() == 2
        (run_key,) = store.run_keys()
        assert store.manifest_of(run_key)["complete"] is False

        _CALLS.update(count=0, fail_after=None)
        resumed = ExecutionEngine(
            jobs=1, store=store, shard_size=2, resume=True
        ).run(_resume_spec())
        assert resumed.resumed is True
        assert resumed.shard_hits == 2
        assert _CALLS["count"] == 1  # only the missing shard ran
        assert resumed.values == uninterrupted.values
        assert store.manifest_of(run_key)["complete"] is True
