"""Shared command-line vocabulary of the execution engine.

Every surface that runs sweeps — ``python -m repro``'s subcommands,
``scripts/bench_sweep.py``, ``scripts/run_all_experiments.py`` — takes the
same ``--trials`` / ``--jobs`` / ``--executor`` trio.  This module owns
their argparse types and registration so validation is identical
everywhere: a bad value exits 2 with a message naming the flag (argparse's
``error:`` contract), never a mid-run traceback.
"""

from __future__ import annotations

import argparse

from repro.engine.executors import DEFAULT_EXECUTOR, available_executors

__all__ = [
    "positive_int",
    "executor_name",
    "backend_name",
    "reducer_name",
    "add_execution_arguments",
]


def positive_int(text: str) -> int:
    """Argparse type for ``--trials`` / ``--jobs`` / ``--shard-size``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def executor_name(text: str) -> str:
    """Argparse type for ``--executor``: a registered backend name."""
    if text not in available_executors():
        raise argparse.ArgumentTypeError(
            f"unknown executor {text!r}; available: "
            f"{', '.join(available_executors())}"
        )
    return text


def backend_name(text: str) -> str:
    """Argparse type for ``--backend``: a registered simulator core."""
    from repro.cluster.events import available_backends

    if text not in available_backends():
        raise argparse.ArgumentTypeError(
            f"unknown backend {text!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return text


def reducer_name(text: str) -> str:
    """Argparse type for ``--reducer``: a registered streaming reducer."""
    from repro.engine.reduce import available_reducers

    if text not in available_reducers():
        raise argparse.ArgumentTypeError(
            f"unknown reducer {text!r}; available: "
            f"{', '.join(available_reducers())}"
        )
    return text


def add_execution_arguments(
    parser: argparse.ArgumentParser,
    jobs_default: int = 1,
    trials_default: int | None = 1,
) -> None:
    """Register the shared execution flags on ``parser``.

    ``trials_default=None`` skips ``--trials`` for surfaces that don't
    sweep trials.  ``--shard-size`` is the advanced knob (tests and the
    micro-bench); the automatic stride is right for real sweeps.
    """
    if trials_default is not None:
        parser.add_argument(
            "--trials",
            type=positive_int,
            default=trials_default,
            metavar="N",
            help="Monte-Carlo trials per sweep cell, simulated in batches "
            f"and averaged (default: {trials_default})",
        )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=jobs_default,
        metavar="N",
        help="executor width for sweep shards "
        f"(default: {jobs_default}{' = inline' if jobs_default == 1 else ''})",
    )
    parser.add_argument(
        "--executor",
        type=executor_name,
        default=DEFAULT_EXECUTOR,
        metavar="NAME",
        help="executor backend for sweep shards: "
        f"{', '.join(available_executors())} (default: {DEFAULT_EXECUTOR}; "
        "only consulted when --jobs > 1)",
    )
    parser.add_argument(
        "--shard-size",
        type=positive_int,
        default=None,
        metavar="N",
        help="trials per shard work unit (default: automatic stride; "
        "shard merges are bitwise-equal to monolithic cells at any size)",
    )
