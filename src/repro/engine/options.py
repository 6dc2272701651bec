"""Shared command-line vocabulary of the execution engine.

Every surface that runs sweeps — ``python -m repro``'s subcommands,
``scripts/bench_sweep.py``, ``scripts/run_all_experiments.py`` — takes the
same ``--trials`` / ``--jobs`` / ``--executor`` / ``--seed`` flags.  This
module owns their argparse types (and registers the executor trio) so
validation is identical everywhere: a bad value exits 2 with a message
naming the flag (argparse's ``error:`` contract), never a mid-run
traceback.
"""

from __future__ import annotations

import argparse

from repro.engine.executors import DEFAULT_EXECUTOR, available_executors

__all__ = [
    "positive_int",
    "non_negative_int",
    "executor_name",
    "backend_name",
    "reducer_name",
    "add_execution_arguments",
]


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {low}, got {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """Argparse type for ``--trials`` / ``--jobs`` / ``--shard-size``."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """Argparse type for ``--seed`` / ``--population-seed`` (NumPy seeds)."""
    return _int_at_least(text, 0)


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


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Register ``--jobs`` / ``--executor`` / ``--shard-size`` on ``parser``.

    ``--shard-size`` is the advanced knob (tests and the micro-bench); the
    automatic stride is right for real sweeps.
    """
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="executor width for sweep shards (default: 1 = inline)",
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
