"""Tests of the benchmark itself: trace arithmetic, wrapping, failure accounting, names."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from perfbench import run
from perfbench.tracer import Target, Tracer, layer_metrics, self_times
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent

#: A workload small enough for a unit test (well under a second a pass).
TINY = Workload(
    "tiny",
    ("stream", "--policy", "timeout-repair", "--scenario", "bursty", "--quick",
     "--trials", "2"),
    "unpinned",
)


def test_self_times_of_a_synthetic_nested_call_tree():
    # root(x) 0-10 ─┬─ b(y) 1-4 ── c(x) 2-3   (x nested in y nested in x)
    #               └─ d(z) 5-9
    spans = [
        (2, 1, "x", "c", 2.0, 3.0),
        (1, 0, "y", "b", 1.0, 4.0),
        (3, 0, "z", "d", 5.0, 9.0),
        (0, None, "x", "root", 0.0, 10.0),
    ]
    assert self_times(spans) == {"x": 3.0 + 1.0, "y": 2.0, "z": 4.0}
    assert sum(self_times(spans).values()) == 10.0


def test_tracer_records_nested_spans_and_counts_outer_calls_only():
    ticks = itertools.count()
    tracer = Tracer("test", clock=lambda: float(next(ticks)))
    outer = Target("m", "outer", "a_s", "a_calls")
    inner = Target("m", "inner", "b_s", "b_calls")
    again = Target("m", "again", "a_s", "a_calls")
    f_again = tracer.wrap(lambda: 1, again)
    f_inner = tracer.wrap(lambda: f_again() + 1, inner)
    f_outer = tracer.wrap(lambda: f_inner() + f_inner(), outer)

    assert f_outer() == 4
    # Clock ticks: outer 1..10, inner 2..5 and 6..9, again 3..4 and 7..8.
    selfs = self_times(tracer.spans)
    assert selfs == {"a_s": (9 - 3 - 3) + 1 + 1, "b_s": 2 + 2}
    assert tracer.counts == {"a_calls": 1, "b_calls": 2}
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    assert sorted(parents.values(), key=str) == [0, 0, 1, 3, None]


def test_under_reroutes_a_call_by_its_direct_parent():
    tracer = Tracer("test")
    run_target = Target("m", "run", "scalar_s", under=("event_s", "replay_s", "replays"))
    scalar = tracer.wrap(lambda: None, run_target)
    batch = tracer.wrap(lambda: [scalar(), scalar()], Target("m", "batch", "event_s"))
    batch()
    scalar()
    metrics = [metric for _, _, metric, *_ in tracer.spans]
    assert sorted(metrics) == ["event_s", "replay_s", "replay_s", "scalar_s"]
    assert tracer.counts["replays"] == 2


def test_wrapped_entry_points_return_identical_values_and_are_restored(tmp_path):
    from repro.engine import RunStore
    from repro.engine import runner as engine_runner
    from repro.prediction import traces
    from repro.scheduling import timeout

    originals = {
        "traces": traces.generate_speed_traces,
        "plan": engine_runner.compile_plan,
        "iter": RunStore.iter_matching,
        "sim": sys.modules["repro.cluster.simulator"].repair_assignments,
    }
    store = RunStore(tmp_path)
    handle = store.open_run("k", {"cell": "c"})
    handle.append({"key": "a", "value": [1.0]})
    handle.append({"key": "b", "value": [2.0]})
    expected_traces = traces.generate_speed_traces(3, 20, traces.STABLE, seed=5)
    expected_records = list(store.iter_matching(keys={"b"}))

    tracer = Tracer("test")
    tracer.install()
    try:
        assert traces.generate_speed_traces is not originals["traces"]
        assert (
            sys.modules["repro.cluster.simulator"].repair_assignments
            is timeout.repair_assignments
            is not originals["sim"]
        )
        got = traces.generate_speed_traces(3, 20, traces.STABLE, seed=5)
        assert np.array_equal(got, expected_traces)
        assert list(store.iter_matching(keys={"b"})) == expected_records
        assert store.manifest_of("k") == handle.manifest()
    finally:
        tracer.uninstall()

    assert traces.generate_speed_traces is originals["traces"]
    assert engine_runner.compile_plan is originals["plan"]
    assert RunStore.iter_matching is originals["iter"]
    assert sys.modules["repro.cluster.simulator"].repair_assignments is originals["sim"]
    assert tracer.counts["engine.store_reads"] == 2
    assert {metric for _, _, metric, *_ in tracer.spans} == {
        "prediction.traces_s",
        "engine.store_read_s",
    }


def _pass(monkeypatch, tmp_path, mutate=None) -> run.Pass:
    run.import_package(ROOT / "src")
    cli = sys.modules["repro.__main__"]
    if mutate is not None:
        main = cli.main
        monkeypatch.setattr(cli, "main", lambda argv: mutate(main, argv))
    return run.run_pass(TINY.command(0, str(tmp_path / "store")))


def test_altered_output_is_counted_as_a_failed_pass(monkeypatch, tmp_path):
    good = _pass(monkeypatch, tmp_path)
    ledger = run.Ledger(good.digest)
    assert ledger.check(good, "cold")

    def extra_line(main, argv):
        code = main(argv)
        print("altered")
        return code

    assert not ledger.check(_pass(monkeypatch, tmp_path, extra_line), "warm")
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_raising_or_failing_passes_are_failed_operations(monkeypatch, tmp_path):
    def boom(main, argv):
        raise RuntimeError("boom")

    ledger = run.Ledger(None)
    raised = _pass(monkeypatch, tmp_path, boom)
    assert raised.error == "RuntimeError: boom"
    assert not ledger.check(raised, "cold")
    exited = _pass(monkeypatch, tmp_path, lambda main, argv: 2)
    assert exited.error == "exit status 2"
    assert not ledger.check(exited, "cold")
    # Unpinned: the first good pass becomes the reference for the rest.
    monkeypatch.undo()
    assert ledger.check(_pass(monkeypatch, tmp_path), "cold")
    assert ledger.check(_pass(monkeypatch, tmp_path), "warm")
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_traced_pass_nests_every_span_inside_main(tmp_path):
    run.import_package(ROOT / "src")
    tracer = Tracer("tiny")
    result = run.run_pass(TINY.command(0, str(tmp_path / "store")), tracer)
    spans = {sid: (parent, start, end) for sid, parent, _, _, start, end in tracer.spans}
    roots = [name for _, parent, _, name, _, _ in tracer.spans if parent is None]
    assert roots == ["__main__.main"]
    for parent, start, end in spans.values():
        if parent is not None:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    values = layer_metrics(tracer, result.wall, result.wall, {}, 0)
    # Only the time outside ``main`` is unattributed.
    assert 0 <= values["trace.unattributed_s"] < 0.05 * result.wall
    assert values["scheduling.repair_calls"] > 0
    assert values["cluster.kernel_trials"] == values["runtime.trial_rounds"]


def _printed_metrics(monkeypatch, capsys, trace: int) -> dict:
    for name in run.THREAD_ENV:
        monkeypatch.setenv(name, "1")
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WARM_PASSES", 1)
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_printed_metrics_match_benchmark_json(monkeypatch, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert _printed_metrics(monkeypatch, capsys, 0) == end_to_end
    assert _printed_metrics(monkeypatch, capsys, 1) == per_layer
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in run.WORKLOADS if name != "tiny"
    ]
