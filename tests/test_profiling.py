"""The phase profiler: span accounting, no-op default, kernel integration.

:mod:`repro.profiling` must cost (nearly) nothing when no profiler is
installed — the batched simulator kernels are instrumented permanently —
and must partition the profiled wall clock into disjoint named phases
when one is.
"""

import numpy as np

from repro.cluster.simulator import CodedIterationSim
from repro.coding.partition import ChunkGrid
from repro.profiling import PHASES, PhaseProfiler, profiled, span
from repro.scheduling.base import full_plan


class TestPhaseProfiler:
    def test_record_accumulates_totals_and_counts(self):
        profiler = PhaseProfiler()
        profiler.record("plan", 0.5)
        profiler.record("plan", 0.25)
        profiler.record("decode", 1.0)
        assert profiler.totals == {"plan": 0.75, "decode": 1.0}
        assert profiler.counts == {"plan": 2, "decode": 1}
        assert profiler.total == 1.75

    def test_rows_hottest_first_with_canonical_tie_order(self):
        profiler = PhaseProfiler()
        profiler.record("decode", 1.0)
        profiler.record("plan", 1.0)
        profiler.record("reply", 2.0)
        # reply is hottest; the 1.0 tie resolves in PHASES order.
        assert [name for name, _, _ in profiler.rows()] == [
            "reply", "plan", "decode",
        ]

    def test_as_dict_is_sorted(self):
        profiler = PhaseProfiler()
        profiler.record("reply", 1.0)
        profiler.record("plan", 2.0)
        assert list(profiler.as_dict()) == ["plan", "reply"]

    def test_format_table_shares_sum_to_one(self):
        profiler = PhaseProfiler()
        profiler.record("compute", 3.0)
        profiler.record("repair", 1.0)
        table = profiler.format_table()
        lines = table.splitlines()
        assert lines[0].split() == ["phase", "seconds", "share", "spans"]
        assert "compute" in lines[1]  # hottest first
        assert "75.0%" in lines[1]
        assert "25.0%" in lines[2]
        assert lines[-1].startswith("total")

    def test_empty_profiler_formats_cleanly(self):
        table = PhaseProfiler().format_table()
        assert "total" in table  # header + total line, no phase rows
        assert len(table.splitlines()) == 2


class TestSpans:
    def test_span_is_shared_noop_when_uninstalled(self):
        # Outside profiled() the instrumented hot paths must not allocate.
        assert span("plan") is span("decode")
        with span("plan"):
            pass  # enters and exits without a profiler

    def test_profiled_collects_span_timings(self):
        profiler = PhaseProfiler()
        with profiled(profiler):
            with span("plan"):
                pass
            with span("plan"):
                pass
            with span("decode"):
                pass
        assert profiler.counts == {"plan": 2, "decode": 1}
        assert all(seconds >= 0.0 for seconds in profiler.totals.values())

    def test_profiled_restores_previous_profiler(self):
        outer, inner = PhaseProfiler(), PhaseProfiler()
        with profiled(outer):
            with span("plan"):
                pass
            with profiled(inner):
                with span("decode"):
                    pass
            with span("reply"):
                pass
        assert set(outer.totals) == {"plan", "reply"}
        assert set(inner.totals) == {"decode"}
        assert span("plan") is span("reply")  # uninstalled again

    def test_canonical_phases_cover_the_kernel_spans(self):
        assert PHASES == (
            "plan", "broadcast", "compute", "reply", "repair", "decode",
        )


class TestKernelIntegration:
    def test_batched_kernel_records_pipeline_phases(self):
        sim = CodedIterationSim(grid=ChunkGrid(120, 60), width=10)
        plan = full_plan(8, 60, 5)
        speeds = np.ones((4, 8))
        profiler = PhaseProfiler()
        with profiled(profiler):
            sim.run_batch(plan, speeds)
        for phase in ("plan", "broadcast", "compute", "reply", "decode"):
            assert phase in profiler.totals, phase
        assert set(profiler.totals) <= set(PHASES)

    def test_profiling_does_not_change_results(self):
        sim = CodedIterationSim(grid=ChunkGrid(120, 60), width=10)
        plan = full_plan(8, 60, 5)
        speeds = np.exp(np.random.default_rng(0).normal(0.0, 0.5, (4, 8)))
        bare = sim.run_batch(plan, speeds)
        with profiled(PhaseProfiler()):
            spanned = sim.run_batch(plan, speeds)
        np.testing.assert_array_equal(
            bare.completion_time, spanned.completion_time
        )
        np.testing.assert_array_equal(bare.computed_rows, spanned.computed_rows)
