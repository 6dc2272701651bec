"""End-to-end benchmark of the ``repro`` CLI with an outside-in layer trace.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; see ``run.py`` for the
measurement protocol, ``workloads.py`` for the workloads and their pinned
outputs, ``tracer.py`` for the per-layer trace, and ``BASELINE.md`` for
which layer metric should move which end-to-end metric.
"""
