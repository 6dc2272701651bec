"""Fixtures shared across the suites."""

import pytest


@pytest.fixture
def one_shard_units(monkeypatch):
    """One cell call per shard (or per stack of a stacked cell).

    At one job the engine joins adjacent pending shards into one call of
    up to ``MAX_UNIT_ROWS`` rows.  Suites that pin per-shard evaluation,
    or count cell calls to place a kill between shards, lower the cap to
    one row.
    """
    monkeypatch.setattr("repro.engine.runner.MAX_UNIT_ROWS", 1)
