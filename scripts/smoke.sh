#!/bin/sh
# End-to-end smoke check: tier-1 tests, docs checkers, one tiny parallel
# sweep exercising --trials / --jobs / the on-disk cache, one
# repair-armed batched scenario sweep, and every example script.
#
# Usage:  sh scripts/smoke.sh [bench|cov]
#
# The optional `bench` target additionally runs scripts/bench_sweep.py and
# appends its timings to BENCH_SWEEP.json, so the perf trajectory is
# tracked across PRs.  The optional `cov` target runs the suite under
# scripts/coverage_gate.py instead, failing when src/repro line coverage
# drops below the gate's floor (pytest-cov when installed, a stdlib
# settrace tracer otherwise).
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

if [ "$1" = "cov" ]; then
    echo "== tier-1 tests under the line-coverage gate =="
    python scripts/coverage_gate.py
    echo "smoke cov OK"
    exit 0
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== docs link check =="
python scripts/check_docs.py

echo "== API reference freshness =="
python scripts/gen_api_docs.py --check

echo "== results handbook freshness =="
python scripts/gen_results_docs.py --check

echo "== tournament report freshness =="
python scripts/gen_tournament_docs.py --check

echo "== tiny parallel sweep (cold, warm run store, then --resume) =="
CACHE="$(mktemp -d)"
trap 'rm -rf "$CACHE"' EXIT
python -m repro experiments fig01 --quick --trials 2 --jobs 2 --cache-dir "$CACHE"
python -m repro experiments fig01 --quick --trials 2 --jobs 2 --cache-dir "$CACHE"
python -m repro experiments fig01 --quick --trials 2 --jobs 2 --cache-dir "$CACHE" --resume

echo "== sharded thread-executor sweep (one fat cell over the pool) =="
python -m repro experiments fig01 --quick --trials 8 --jobs 2 \
    --executor thread --shard-size 4 --cache-dir "$CACHE"

echo "== repair-armed batched scenario sweep =="
python -m repro experiments scenrepair --quick --trials 2 --jobs 2 --cache-dir "$CACHE"

echo "== policy x scenario matrix (every policy, every scenario) =="
python -m repro matrix --quick --trials 2 --jobs 2 --summary-only --cache-dir "$CACHE"

echo "== event-backend matrix (discrete-event core, network scenarios) =="
# The composed pair routes link factors through overlay and mix.
python -m repro matrix --quick --trials 2 --jobs 2 --backend event \
    --policy mds --policy timeout-repair \
    --scenario netslow --scenario rackcongest \
    --scenario 'overlay(netslow,linkbursty)' \
    --scenario 'mix(rackcongest,bursty,weight=0.5)' \
    --summary-only --cache-dir "$CACHE"

echo "== fixed-seed fuzz tournament (generated scenarios, composed names) =="
python -m repro fuzz --quick --scenarios 8 --trials 2 --jobs 2 --seed 7 \
    --summary-only --cache-dir "$CACHE"

echo "== phase profile (batched kernels, quick) =="
python -m repro profile --quick --trials 2 --backend event

echo "== examples (every script must exit 0) =="
# The examples drive the numeric sessions, one-trial views of the batched
# runners that add encode, compute and decode.  Each asserts its numbers: the
# decoded products, coded-vs-direct drift and decode errors, and
# cloud_adaptive the LSTM's held-out MAPE and S2C2's win over MDS.
for EXAMPLE in examples/*.py; do
    python "$EXAMPLE" > /dev/null \
        || { echo "example $EXAMPLE failed" >&2; exit 1; }
done

echo "== benchmark output parity (pinned stdout digests, one cycle each) =="
# Tier-1 runs only an unpinned workload; this checks that every benchmark
# workload still reproduces its pinned seed-0 stdout digest.
for W in $(python -c "from perfbench.workloads import WORKLOADS; print(*WORKLOADS)"); do
    python3 perfbench/run.py --workload "$W" --seed 0 --seconds 0 --trace 0 \
        | tail -n 1 | grep -q '"failed": 0[,}]' \
        || { echo "benchmark workload $W: output parity failed" >&2; exit 1; }
done

if [ "$1" = "bench" ]; then
    echo "== bench (appending to BENCH_SWEEP.json) =="
    # --predictor-trials drives the prediction-path micro-bench (a stack
    # of one-trial LSTM views vs one batched LSTM kernel), --matrix the
    # policy x scenario grid, --engine the fat-cell scheduling bench
    # (cell-granular vs trial-sharded at --engine-jobs width), and
    # --events the event-backend benches (closed form vs the event
    # backend's batched kernel at --event-trials, plus both backends on
    # identical cells; --profile attaches the per-phase hot-spot
    # totals), so BENCH_SWEEP.json tracks the prediction,
    # matrix, engine, and event series alongside the simulation ones.
    python scripts/bench_sweep.py --trials 4 --jobs 2 --predictor-trials 64 \
        --matrix --engine --events --event-trials 64 --profile \
        --append-json BENCH_SWEEP.json

    echo "== bench regression gate =="
    # Compares the row just appended against the trajectory median per
    # metric (normalised to core-seconds by each row's recorded cpus) and
    # fails on a >25% slowdown; tune with --threshold FRACTION.
    python scripts/bench_gate.py --json BENCH_SWEEP.json
fi

echo "smoke OK"
