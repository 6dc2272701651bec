"""Phase-level profiling spans for the simulation hot paths.

The batched coded kernel (shared by the closed form and the event
backend) brackets its phases — plan classification, broadcast, compute,
reply, repair and decode — with :func:`span` context managers.  When no
profiler is installed a span is a shared no-op object, so the
instrumented kernel pays two attribute lookups per phase and nothing else; under :func:`profiled` every span accumulates wall-clock
seconds into a :class:`PhaseProfiler`, which renders a hot-spot table
(``repro profile``) or a machine-readable dict
(``scripts/bench_sweep.py --profile``).

Spans are strictly disjoint (the kernel never nests them), so the phase
totals partition the instrumented time and the table's share column sums
to at most 100% of the profiled wall clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["PHASES", "PhaseProfiler", "profiled", "span"]

#: Canonical phase order: pipeline position in the batched kernels.
PHASES = (
    "plan",
    "broadcast",
    "compute",
    "reply",
    "repair",
    "decode",
)


@dataclass
class PhaseProfiler:
    """Accumulated wall-clock seconds and entry counts per phase."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def record(self, phase: str, seconds: float) -> None:
        """Fold one span's elapsed time into the phase totals."""
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @property
    def total(self) -> float:
        """Seconds across every recorded phase."""
        return sum(self.totals.values())

    def rows(self) -> list[tuple[str, float, int]]:
        """``(phase, seconds, count)`` rows, hottest phase first.

        Ties (including the all-zero table of an un-entered profiler)
        fall back to the canonical :data:`PHASES` order, so output stays
        deterministic whatever the timings.
        """
        order = {name: i for i, name in enumerate(PHASES)}
        names = sorted(
            self.totals,
            key=lambda name: (-self.totals[name], order.get(name, len(order))),
        )
        return [
            (name, self.totals[name], self.counts.get(name, 0))
            for name in names
        ]

    def as_dict(self) -> dict[str, float]:
        """Phase → seconds mapping (machine-readable bench record)."""
        return dict(sorted(self.totals.items()))

    def format_table(self) -> str:
        """The per-phase hot-spot table, hottest first."""
        total = self.total
        lines = ["phase        seconds    share   spans"]
        for name, seconds, count in self.rows():
            share = seconds / total if total > 0 else 0.0
            lines.append(f"{name:10s} {seconds:9.4f}s  {share:6.1%}  {count:6d}")
        lines.append(f"{'total':10s} {total:9.4f}s")
        return "\n".join(lines)


#: The installed profiler, or ``None`` (spans become no-ops).
_ACTIVE: PhaseProfiler | None = None


class _Span:
    """One timed phase entry feeding a :class:`PhaseProfiler`."""

    __slots__ = ("profiler", "phase", "start")

    def __init__(self, profiler: PhaseProfiler, phase: str) -> None:
        self.profiler = profiler
        self.phase = phase

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.profiler.record(self.phase, time.perf_counter() - self.start)
        return False


class _NullSpan:
    """Shared do-nothing span: the cost of instrumentation when off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullSpan()


def span(phase: str) -> _Span | _NullSpan:
    """A context manager timing ``phase`` into the installed profiler.

    Returns the shared no-op span when no profiler is installed, so
    instrumented hot paths stay allocation-free outside :func:`profiled`.
    """
    if _ACTIVE is None:
        return _NULL
    return _Span(_ACTIVE, phase)


@contextmanager
def profiled(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Install ``profiler`` as the active span sink for the block.

    Re-entrant: the previously installed profiler (if any) is restored on
    exit, so nested ``profiled`` blocks each see only their own spans.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous
