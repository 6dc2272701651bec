"""Run every experiment at full scale and dump the tables.

Usage:  python scripts/run_all_experiments.py [names...] [--quick]
            [--trials N] [--jobs N] [--executor NAME] [--shard-size N]
            [--resume] [--no-cache] [--cache-dir PATH]

Thin wrapper over ``python -m repro experiments`` (full scale is the
default here, matching the original behaviour of this script); EXPERIMENTS
tables' measured columns come from this output.  ``--jobs N`` spreads
shard work units of each figure over the ``--executor`` backend (cells
with many trials are split into deterministic trial shards), ``--trials
N`` averages every figure over N seeded Monte-Carlo trials simulated in
batches, and ``--resume`` picks an interrupted sweep up from
the run store.  Flag validation is shared with ``python -m repro``.
"""

import sys

from repro.__main__ import main

if __name__ == "__main__":
    raise SystemExit(main(["experiments", *sys.argv[1:]]))
