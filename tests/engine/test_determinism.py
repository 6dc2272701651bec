"""Shard-merge determinism and resume semantics of the execution engine.

The load-bearing guarantees of the tentpole refactor:

* for representative mitigation policies × straggler scenarios, sweep
  results at ``jobs=1`` vs ``jobs=N`` and at shard sizes ``{1, 7, trials}``
  are **bitwise-equal** — sharding a cell's trials and merging the pieces
  reproduces the monolithic evaluation exactly, whether each shard is its
  own cell call or adjacent shards are joined into one;
* a sweep killed mid-run and then resumed produces results identical to an
  uninterrupted run, computing only the missing shards;
* the same merge guarantee holds as a **property** over random draws from
  the scenario fuzzer: any generated (possibly composed) scenario, any
  policy, any shard size — sharded evaluation through ``compile_plan``
  merges bitwise-equal to the monolithic cell.
"""

import random

import pytest

from repro.cluster.fuzz import generate_scenario
from repro.engine import (
    ExecutionEngine,
    NothingToResumeError,
    RunStore,
    SweepSpec,
)
from repro.engine.plan import compile_plan, merge_shard_values
from repro.experiments.matrix import _cell as matrix_cell

#: Representative policy families: conventional MDS, the repair-armed full
#: system, the batched over-decomposition baseline, and the scalar-session
#: replication baseline — every ``run_scenario`` code path in the registry.
POLICIES = ("mds", "timeout-repair", "overdecomp", "uncoded")
SCENARIOS = ("constant", "bursty")
TRIALS = 8


def _spec(trials=TRIALS, seed=3):
    return SweepSpec(
        name="engine-determinism",
        cell=matrix_cell,
        axes=(("policy", POLICIES), ("scenario", SCENARIOS)),
        trials=trials,
        base_seed=seed,
        quick=True,
    )


class TestShardMergeDeterminism:
    @pytest.fixture(scope="class")
    def monolithic(self):
        # shard_size=trials: one unit per cell, the pre-engine behaviour.
        return ExecutionEngine(jobs=1, shard_size=TRIALS).run(_spec()).values

    @pytest.mark.usefixtures("one_shard_units")
    @pytest.mark.parametrize("shard_size", [1, 7, TRIALS])
    def test_shard_sizes_bitwise_equal(self, monolithic, shard_size):
        sharded = ExecutionEngine(jobs=1, shard_size=shard_size).run(_spec())
        assert sharded.values == monolithic

    @pytest.mark.parametrize("shard_size, calls", [(1, 4), (3, 2)])
    def test_joined_shards_bitwise_equal(
        self, monolithic, monkeypatch, shard_size, calls
    ):
        # A cap of two slices per call: each policy row runs in `calls`
        # joined calls, none of them the monolithic one.
        rows = 2 * shard_size * len(SCENARIOS)
        monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", rows)
        joined = ExecutionEngine(jobs=1, shard_size=shard_size).run(_spec())
        assert joined.cell_calls == calls * len(POLICIES)
        assert joined.values == monolithic

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_pooled_jobs_bitwise_equal(self, monolithic, executor):
        pooled = ExecutionEngine(jobs=2, executor=executor, shard_size=3).run(
            _spec()
        )
        assert pooled.values == monolithic

    def test_trial_slices_match_smaller_sweeps(self, monolithic):
        # Trial t is seeded by stride arithmetic, so a 3-trial sweep is a
        # strict prefix of the 8-trial one, cell for cell.
        small = ExecutionEngine(jobs=1).run(_spec(trials=3))
        for key, value in small.values.items():
            full = monolithic[key]
            assert value == {k: v[:3] for k, v in full.items()}


class TestFuzzedShardMergeProperty:
    """Seeded property test: the shard-merge guarantee over random draws.

    Each case draws a policy, a fuzzer-generated scenario (frequently a
    composition expression — exercising on-demand composed-name resolution
    inside shard evaluation), a trial count, a base seed, and a shard
    size, then checks that evaluating the ``compile_plan`` shards and
    merging is bitwise-equal to the monolithic cell.  Draws are pure
    ``random.Random(case)`` / fuzzer ``(seed, index)`` functions, so a
    failure reproduces from its case id alone.
    """

    #: Fuzzer population the scenario draws come from (distinct from any
    #: tournament seed, so these tests do not share cache keys with it).
    POPULATION_SEED = 31

    @pytest.mark.parametrize("case", range(8))
    def test_random_draws_merge_bitwise_equal(self, case):
        rng = random.Random(1_000 + case)
        policy = rng.choice(POLICIES)
        scenario = generate_scenario(self.POPULATION_SEED, rng.randrange(64))
        trials = rng.randrange(2, 7)
        spec = SweepSpec(
            name=f"fuzzed-merge-{case}",
            cell=matrix_cell,
            axes=(("policy", (policy,)), ("scenario", (scenario,))),
            trials=trials,
            base_seed=rng.randrange(10_000),
            quick=True,
        )
        (params,) = spec.points()
        monolithic = matrix_cell(params, spec.context())

        shard_size = rng.randrange(1, trials + 1)
        plan = compile_plan(spec, shard_size=shard_size)
        merged = merge_shard_values(
            [matrix_cell(shard.params, shard.ctx) for shard in plan.shards],
            [shard.trials for shard in plan.shards],
        )
        assert merged == monolithic, (
            f"case {case}: policy={policy!r} scenario={scenario!r} "
            f"trials={trials} shard_size={shard_size}"
        )


# --- resume ---------------------------------------------------------------

_CALLS = {"count": 0, "fail_after": None}


def _counting_cell(params, ctx):
    """Matrix cell wrapped in an interruptible call counter."""
    if (
        _CALLS["fail_after"] is not None
        and _CALLS["count"] >= _CALLS["fail_after"]
    ):
        raise RuntimeError("simulated kill")
    _CALLS["count"] += 1
    return matrix_cell(params, ctx)


def _resume_spec(reducer="concat"):
    return SweepSpec(
        name="engine-resume",
        cell=_counting_cell,
        axes=(("policy", ("mds", "timeout-repair")), ("scenario", ("spot",))),
        trials=6,
        base_seed=1,
        quick=True,
        reducer=reducer,
    )


class TestResume:
    @pytest.mark.usefixtures("one_shard_units")
    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        # 2 cells × 3 shards of 2 trials = 6 shard units.
        uninterrupted = ExecutionEngine(
            jobs=1, store=RunStore(tmp_path / "clean"), shard_size=2
        ).run(_resume_spec())

        store = RunStore(tmp_path / "killed")
        _CALLS.update(count=0, fail_after=4)
        with pytest.raises(RuntimeError, match="simulated kill"):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(
                _resume_spec()
            )
        # The kill landed mid-run: 4 shards persisted, manifest incomplete.
        assert store.shard_count() == 4
        (run_key,) = store.run_keys()
        assert store.manifest_of(run_key)["complete"] is False

        _CALLS.update(count=0, fail_after=None)
        resumed = ExecutionEngine(
            jobs=1, store=store, shard_size=2, resume=True
        ).run(_resume_spec())
        assert resumed.resumed is True
        assert resumed.shard_hits == 4
        assert _CALLS["count"] == 2  # only the missing shards ran
        assert resumed.values == uninterrupted.values
        assert store.manifest_of(run_key)["complete"] is True

    def test_killed_multi_shard_unit_persists_none_of_its_shards(
        self, tmp_path
    ):
        # Each cell's three shards join into one call (6 rows); the kill
        # lands in the second call, so its three shards are all lost.
        store = RunStore(tmp_path)
        _CALLS.update(count=0, fail_after=1)
        with pytest.raises(RuntimeError, match="simulated kill"):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(
                _resume_spec()
            )
        (run_key,) = store.run_keys()
        stored = store.handle(run_key).records()
        assert [(r["point"]["policy"], r["lo"]) for r in stored] == [
            ("mds", 0), ("mds", 2), ("mds", 4),
        ]

        _CALLS.update(count=0, fail_after=None)
        resumed = ExecutionEngine(
            jobs=1, store=store, shard_size=2, resume=True
        ).run(_resume_spec())
        assert (resumed.shard_hits, resumed.cell_calls) == (3, 1)
        assert _CALLS["count"] == 1
        recomputed = store.handle(run_key).records()[3:]
        assert [(r["point"]["policy"], r["lo"]) for r in recomputed] == [
            ("timeout-repair", 0), ("timeout-repair", 2), ("timeout-repair", 4),
        ]
        assert resumed.values == ExecutionEngine().run(_resume_spec()).values

    def test_resume_with_empty_store_raises(self, tmp_path):
        _CALLS.update(count=0, fail_after=None)
        engine = ExecutionEngine(
            jobs=1, store=RunStore(tmp_path), shard_size=2, resume=True
        )
        with pytest.raises(NothingToResumeError, match="nothing to resume"):
            engine.run(_resume_spec())

    def test_resume_runs_never_started_tail_specs_fresh(self, tmp_path):
        # A multi-spec command interrupted at spec N has nothing stored
        # for specs N+1..: resuming must compute them, not exit 2.
        store = RunStore(tmp_path)
        _CALLS.update(count=0, fail_after=None)
        first = _resume_spec()
        ExecutionEngine(jobs=1, store=store, shard_size=2).run(first)

        tail = SweepSpec(
            name="engine-resume-tail",
            cell=_counting_cell,
            axes=(("policy", ("mds",)), ("scenario", ("constant",))),
            trials=2,
            base_seed=1,
            quick=True,
        )
        engine = ExecutionEngine(jobs=1, store=store, shard_size=2, resume=True)
        resumed_first = engine.run(first)
        assert resumed_first.shard_hits == resumed_first.shards_total
        fresh_tail = engine.run(tail)  # no stored run: fresh, not an error
        assert fresh_tail.shard_hits == 0
        assert fresh_tail.values

    def test_resume_requires_a_store(self):
        with pytest.raises(ValueError, match="run store"):
            ExecutionEngine(jobs=1, resume=True)

    @pytest.mark.usefixtures("one_shard_units")
    def test_interrupted_run_is_warm_even_without_resume(self, tmp_path):
        # Shard records are content-keyed, so a plain re-run (the default
        # CLI path) also picks the four finished shards up; --resume adds
        # the guarantee that a stored run actually exists.
        store = RunStore(tmp_path)
        _CALLS.update(count=0, fail_after=4)
        with pytest.raises(RuntimeError):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(
                _resume_spec()
            )
        _CALLS.update(count=0, fail_after=None)
        rerun = ExecutionEngine(jobs=1, store=store, shard_size=2).run(
            _resume_spec()
        )
        assert rerun.shard_hits == 4
        assert _CALLS["count"] == 2


# --- reducer checkpoints --------------------------------------------------


class TestReducerCheckpoints:
    """``--resume`` folds completed cells from persisted reducer state.

    A streaming reducer's raw shard payloads are discarded once folded,
    so crash-safety for completed cells rests on the ``cells.jsonl``
    checkpoint log: a resumed run must restore those folds from the
    checkpoints (never needing the raw shard records), and a torn
    checkpoint must demote its cell to raw shard replay — in both
    directions the result stays byte-identical to an uninterrupted run.
    """

    @pytest.mark.usefixtures("one_shard_units")
    def test_resume_folds_from_checkpoints_not_raw_shards(self, tmp_path):
        _CALLS.update(count=0, fail_after=None)
        uninterrupted = ExecutionEngine(
            jobs=1, store=RunStore(tmp_path / "clean"), shard_size=2
        ).run(_resume_spec(reducer="stats"))

        store = RunStore(tmp_path / "killed")
        _CALLS.update(count=0, fail_after=4)
        with pytest.raises(RuntimeError, match="simulated kill"):
            ExecutionEngine(jobs=1, store=store, shard_size=2).run(
                _resume_spec(reducer="stats")
            )
        # The first cell (3 shards) completed before the kill, so its
        # fold was checkpointed.  Wipe the raw shard log: only the
        # checkpoint can now serve that cell.
        (run_key,) = store.run_keys()
        handle = store.handle(run_key)
        assert [r["index"] for r in handle.cell_records()] == [0]
        handle.shards_path.write_text("torn garbage, no records survive\n")

        _CALLS.update(count=0, fail_after=None)
        resumed = ExecutionEngine(
            jobs=1, store=store, shard_size=2, resume=True
        ).run(_resume_spec(reducer="stats"))
        assert resumed.values == uninterrupted.values
        # Cell 0 was served entirely by its checkpoint; only cell 1's
        # three shards were (re)computed.
        assert _CALLS["count"] == 3
        assert resumed.shard_hits == 3

    def test_torn_checkpoint_falls_back_to_raw_shard_replay(self, tmp_path):
        store = RunStore(tmp_path)
        _CALLS.update(count=0, fail_after=None)
        first = ExecutionEngine(jobs=1, store=store, shard_size=2).run(
            _resume_spec(reducer="stats")
        )
        (run_key,) = store.run_keys()
        handle = store.handle(run_key)
        raw = handle.cells_path.read_bytes()
        assert raw.count(b"\n") == 2  # one checkpoint per completed cell
        # Tear the second checkpoint mid-record, as a kill between
        # ``os.write`` and the disk would.
        torn_at = raw.index(b"\n") + 1 + 25
        handle.cells_path.write_bytes(raw[:torn_at])

        _CALLS.update(count=0, fail_after=None)
        rerun = ExecutionEngine(jobs=1, store=store, shard_size=2).run(
            _resume_spec(reducer="stats")
        )
        assert rerun.values == first.values
        # The torn cell replayed from its raw shard records — still no
        # cell re-invocations, and every shard served warm.
        assert _CALLS["count"] == 0
        assert rerun.shard_hits == 6

    @pytest.mark.slow
    def test_sigkilled_run_resumes_byte_identical(self, tmp_path):
        """A real ``SIGKILL`` (no cleanup, no flush) mid-sweep: resuming
        folds from whatever checkpoints/records hit the disk and matches
        the uninterrupted run byte for byte."""
        import json
        import signal
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, os, signal, sys\n"
            "from pathlib import Path\n"
            "import repro.engine.runner\n"
            "from repro.engine import ExecutionEngine, RunStore, SweepSpec\n"
            "from repro.experiments.matrix import _cell as matrix_cell\n"
            "repro.engine.runner.MAX_UNIT_ROWS = 1  # one call per shard\n"
            "KILL_AFTER = int(sys.argv[2])\n"
            "RESUME = sys.argv[3] == 'resume'\n"
            "CALLS = {'n': 0}\n"
            "def cell(params, ctx):\n"
            "    if CALLS['n'] == KILL_AFTER:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    CALLS['n'] += 1\n"
            "    return matrix_cell(params, ctx)\n"
            "spec = SweepSpec(\n"
            "    name='sigkill-stream',\n"
            "    cell=cell,\n"
            "    axes=(('policy', ('mds', 'timeout-repair')),\n"
            "          ('scenario', ('spot',))),\n"
            "    trials=6, base_seed=1, quick=True, reducer='stats',\n"
            ")\n"
            "report = ExecutionEngine(\n"
            "    jobs=1, store=RunStore(Path(sys.argv[1])),\n"
            "    shard_size=2, resume=RESUME,\n"
            ").run(spec)\n"
            "print(json.dumps([[repr(k), v] for k, v in\n"
            "                  sorted(report.values.items())]))\n"
            "print('CALLS', CALLS['n'], file=sys.stderr)\n"
        )

        def run(store_dir, kill_after, mode="fresh"):
            return subprocess.run(
                [sys.executable, str(driver), str(store_dir),
                 str(kill_after), mode],
                capture_output=True,
                text=True,
                cwd=repo_root,
                env={"PYTHONPATH": str(repo_root / "src"), "PATH": ""},
            )

        clean = run(tmp_path / "clean", -1)
        assert clean.returncode == 0, clean.stderr

        killed = run(tmp_path / "killed", 4)
        assert killed.returncode == -signal.SIGKILL
        # The first cell's fold reached the checkpoint log before the
        # kill: every append is one O_APPEND write, nothing buffered.
        store = RunStore(tmp_path / "killed")
        (run_key,) = store.run_keys()
        checkpoints = store.handle(run_key).cell_records()
        assert [r["index"] for r in checkpoints] == [0]
        assert checkpoints[0]["reducer"] == "stats"

        resumed = run(tmp_path / "killed", -1, mode="resume")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout  # byte-identical tables
        assert "CALLS 2" in resumed.stderr  # only the missing shards ran
        json.loads(resumed.stdout)  # sanity: parseable summaries
