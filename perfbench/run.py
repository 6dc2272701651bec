"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass calls ``repro.__main__.main`` in this process with the serial
executor, stdout and stderr captured, after dropping what an earlier pass
memoised (the source digest, run-scoped model memos, the line cache), so
each pass starts as a fresh invocation would.  A *cold* pass runs into an
empty run store; a *warm* pass re-runs the command against the store the
cold pass filled.  Every pass is one operation: it fails if it raises,
exits non-zero, or prints a stdout whose SHA-256 differs from the pinned
digest (seed 0) or from the run's first cold pass (any seed).

``--trace 0`` measures for ``--seconds``: cycles of one set-up probe (a
fresh interpreter timed up to its first plan, see ``setup_probe.py``), one
cold pass and ``WARM_PASSES`` warm passes on a fresh store, until another
cycle would overrun.  It reports the medians ``cold_s`` and ``setup_s``,
the fastest warm pass ``warm_s`` and this process's ``peak_rss_mb``.

``--trace 1`` runs one cold and ``WARM_PASSES`` warm passes untraced, then
the same traced (see ``tracer.py``), and reports the per-layer metrics of
the traced cold pass and of the median traced warm pass (``warm.``
prefix).  The tables go to stderr and the spans to
``.perfbench/trace-<workload>-seed<N>.jsonl``.

The last stdout line is the JSON result; a checkout without ``src/repro``
exits 2 without one.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import hashlib
import importlib
import io
import json
import linecache
import os
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.tracer import (  # noqa: E402
    LAYER_METRICS,
    Tracer,
    format_table,
    layer_metrics,
    write_spans,
)
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics: ``(name, unit)``.
END_TO_END = (
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Warm passes after each cold pass.
WARM_PASSES = 5
#: Seconds a set-up probe may take before the run is abandoned.
PROBE_TIMEOUT_S = 120

#: Pin the BLAS/OpenMP pools to one thread before numpy is first imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass
class Pass:
    """One pass: wall seconds, stdout digest, and the failure if any."""

    wall: float
    digest: str
    error: str | None = None


class Ledger:
    """Operations attempted and failed; every pass is one operation."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, result: Pass, label: str) -> bool:
        """Count ``result``; ``False`` (and a stderr line) if it failed."""
        self.attempted += 1
        if result.error is None and self.expected is None:
            self.expected = result.digest
        error = result.error
        if error is None and result.digest != self.expected:
            error = f"stdout digest {result.digest} != expected {self.expected}"
        if error is not None:
            self.failed += 1
            print(f"FAILED {label} pass: {error}", file=sys.stderr)
        return error is None


def import_package(src: Path) -> None:
    """Import every ``repro`` module, so no pass pays a first import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    repro = importlib.import_module("repro")
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def fresh_process_state() -> None:
    """Drop what an earlier pass memoised in this process."""
    from repro.engine.runner import clear_run_scoped_caches, package_source_digest

    package_source_digest.cache_clear()
    clear_run_scoped_caches()
    linecache.clearcache()
    gc.collect()


def run_pass(argv: list[str], tracer: Tracer | None = None, profiler=None) -> Pass:
    """Run the CLI once in-process; trace it when ``tracer`` is given."""
    from repro.profiling import profiled

    cli = sys.modules["repro.__main__"]
    fresh_process_state()
    out = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            if profiler is not None:
                stack.enter_context(profiled(profiler))
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if error is None and code != 0:
        error = f"exit status {code}"
    return Pass(wall, hashlib.sha256(out.getvalue().encode()).hexdigest(), error)


def store_bytes(store: Path) -> int:
    """Total size of the files under a run store."""
    return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())


def setup_seconds(workload: Workload, seed: int, src: Path, work: Path) -> float:
    """Set-up seconds of one fresh interpreter (see ``setup_probe.py``)."""
    store = tempfile.mkdtemp(dir=work)
    try:
        done = subprocess.run(
            [sys.executable, str(PROBE), str(src), *workload.command(seed, store)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def measured_run(workload: Workload, seed: int, seconds: float, src: Path, work: Path):
    """End-to-end metrics of untraced cycles filling about ``seconds``.

    A cycle is one set-up probe, one cold pass into a fresh store and
    ``WARM_PASSES`` warm passes on it, so every metric samples the whole
    window; another cycle starts only if it should end within ``seconds``.

    A cold pass lasts seconds and spans several swings of a shared host's
    speed, so the median of the cold passes is the steady figure.  A warm
    pass lasts 12-250 ms and falls inside one swing, so their median
    follows the share of slow swings in the window; the fastest warm pass,
    the one no neighbour slowed, is the steady figure instead.
    """
    setup_seconds(workload, seed, src, work)  # untimed: primes the page cache
    ledger = Ledger(workload.pinned(seed))
    setup: list[float] = []
    cold: list[float] = []
    warm: list[float] = []
    begin = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        setup.append(setup_seconds(workload, seed, src, work))
        store = tempfile.mkdtemp(dir=work)
        try:
            argv = workload.command(seed, store)
            result = run_pass(argv)
            ledger.check(result, "cold")
            cold.append(result.wall)
            for _ in range(WARM_PASSES):
                result = run_pass(argv)
                ledger.check(result, "warm")
                warm.append(result.wall)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        now = time.perf_counter()
        if (now - begin) + (now - cycle) > seconds:
            break
    print(
        f"{workload.name} seed {seed}: cold {' '.join(f'{t:.3f}' for t in cold)}; "
        f"{len(warm)} warm; set-up {' '.join(f'{t:.3f}' for t in setup)}",
        file=sys.stderr,
    )
    values = {
        "cold_s": statistics.median(cold),
        "warm_s": min(warm),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ledger, {name: (values[name], unit) for name, unit in END_TO_END}


def traced_run(workload: Workload, seed: int, work: Path):
    """Per-layer metrics of a traced cold pass and the median traced warm pass.

    The same passes run untraced first, on their own store, as the base of
    ``trace.overhead``.
    """
    from repro.profiling import PhaseProfiler

    ledger = Ledger(workload.pinned(seed))
    untraced: dict[str, list[float]] = {"cold": [], "warm": []}
    traced: dict[str, list[tuple]] = {"cold": [], "warm": []}
    for tracing in (False, True):
        store = Path(tempfile.mkdtemp(dir=work))
        try:
            argv = workload.command(seed, str(store))
            for kind in ("cold",) + ("warm",) * WARM_PASSES:
                if not tracing:
                    result = run_pass(argv)
                    ledger.check(result, f"untraced {kind}")
                    untraced[kind].append(result.wall)
                    continue
                tracer = Tracer(f"{workload.name}/seed{seed}/{kind}")
                profiler = PhaseProfiler()
                before = store_bytes(store)
                result = run_pass(argv, tracer, profiler)
                ledger.check(result, f"traced {kind}")
                grown = store_bytes(store) - before
                traced[kind].append((result.wall, tracer, profiler.as_dict(), grown))
        finally:
            shutil.rmtree(store, ignore_errors=True)
    metrics = {}
    chosen = []
    for kind, prefix in (("cold", ""), ("warm", "warm.")):
        runs = sorted(traced[kind], key=lambda entry: entry[0])
        wall, tracer, phases, grown = runs[len(runs) // 2]
        chosen.append(tracer)
        base = statistics.median(untraced[kind])
        values = layer_metrics(tracer, wall, base, phases, grown)
        print(format_table(f"{workload.name} {kind} pass", values, wall), file=sys.stderr)
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
        for name, unit in LAYER_METRICS:
            metrics[prefix + name] = (values[name], unit)
    spans = work / f"trace-{workload.name}-seed{seed}.jsonl"
    write_spans(spans, chosen)
    print(f"spans: {spans}", file=sys.stderr)
    return ledger, metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    compileall.compile_dir(str(src / "repro"), quiet=1)
    import_package(src)
    workload = WORKLOADS[args.workload]
    if args.trace:
        ledger, metrics = traced_run(workload, args.seed, work)
    else:
        ledger, metrics = measured_run(workload, args.seed, args.seconds, src, work)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
