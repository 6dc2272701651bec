"""Link-factor extraction from speed models for the event backend.

Network scenarios (``netslow``, ``rackcongest``, ``linkbursty``) expose a
``link_factors(iteration)`` method alongside the usual ``speeds``:
per-worker multipliers on effective link bandwidth (1.0 = healthy).
Compute-only scenarios have no such method, which means unit factors.

Because scenarios compose through the algebra wrappers
(:mod:`repro.cluster.compose`), the extractor mirrors each wrapper's
``speeds`` routing so a composed expression degrades links exactly where
its network-scenario leaves are active:

* ``concat`` routes to the active segment's model (same index arithmetic);
* ``mix`` blends factors with the same weights (a compute-only side
  contributes unit factors);
* ``overlay`` takes the element-wise worst (minimum) factor;
* ``time_shift`` and ``scale`` pass through to the wrapped model
  (scaling *speeds* does not scale *links*).

A ``None`` return means "no network degradation anywhere in this tree" —
callers skip passing factors entirely, and the event backend then prices
every transfer at the nominal bandwidth, bitwise as the closed form does.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.compose import (
    ConcatSpeeds,
    MixSpeeds,
    OverlaySpeeds,
    ScaleSpeeds,
    TimeShiftSpeeds,
)
from repro.cluster.speed_models import StackedSpeeds

__all__ = ["link_factors_of", "link_factors_batch"]


def link_factors_of(model, iteration: int) -> np.ndarray | None:
    """Per-worker link factors of ``model`` at ``iteration`` (or ``None``)."""
    method = getattr(model, "link_factors", None)
    if callable(method):
        return np.asarray(method(iteration), dtype=np.float64)
    if isinstance(model, ConcatSpeeds):
        index = min(iteration // model.segment, len(model.models) - 1)
        return link_factors_of(
            model.models[index], iteration - index * model.segment
        )
    if isinstance(model, MixSpeeds):
        fa = link_factors_of(model.a, iteration)
        fb = link_factors_of(model.b, iteration)
        if fa is None and fb is None:
            return None
        if fa is None:
            fa = np.ones(model.a.n_workers)
        if fb is None:
            fb = np.ones(model.b.n_workers)
        return model.weight * fa + (1.0 - model.weight) * fb
    if isinstance(model, OverlaySpeeds):
        parts = [link_factors_of(m, iteration) for m in model.models]
        if all(p is None for p in parts):
            return None
        n = model.n_workers
        return np.minimum.reduce(
            [np.ones(n) if p is None else p for p in parts]
        )
    if isinstance(model, TimeShiftSpeeds):
        return link_factors_of(model.model, iteration + model.shift)
    if isinstance(model, ScaleSpeeds):
        return link_factors_of(model.model, iteration)
    return None


def link_factors_batch(model, iteration: int) -> np.ndarray | None:
    """``(trials, workers)`` factor matrix for a batched speed model.

    :class:`StackedSpeeds` rows are extracted per submodel; any row with
    no degradation contributes unit factors.  Returns ``None`` when no
    row degrades anything (the common compute-only case).
    """
    if isinstance(model, StackedSpeeds):
        rows = [link_factors_of(m, iteration) for m in model.models]
        if all(r is None for r in rows):
            return None
        n = model.n_workers
        return np.stack([np.ones(n) if r is None else r for r in rows])
    factors = link_factors_of(model, iteration)
    if factors is None:
        return None
    return factors[np.newaxis, :]
