"""Streaming reducers: constant-memory aggregation of shard values.

The engine's merge layer historically collected **every** shard value in
memory and concatenated at the end (:func:`repro.engine.plan.merge_shard_values`),
so peak memory grew linearly with ``trials × cells``.  This module turns
the merge step into a composable fold: a :class:`Reducer` converts each
shard's raw cell value into a small *state* the moment it arrives, states
merge pairwise in trial order, and ``finalize`` produces the cell value
consumers see.  The engine discards shard payloads once folded, so a
million-trial cell runs in memory proportional to the *shard*, not the
sweep (``tests/engine/test_stream.py`` pins the budget).

Reducer protocol
----------------
``init() → state``, ``update(state, shard_value, lo, size) → state``
(fold one shard's raw value; ``lo`` is the shard's first global trial
index, ``size`` its trial count, at least 1 — an empty slice raises
:class:`ReducerShapeError`), ``merge(a, b) → state`` (``a`` covers
earlier trials than ``b``), ``finalize(state) → cell value``.  States are
plain JSON-serialisable structures — the run store persists them as
per-cell checkpoints so ``--resume`` folds from a checkpoint instead of
replaying raw shard records.  ``update`` and ``merge`` own their first
argument and may mutate it (states are linear values, never shared).

Built-in reducers
-----------------
``concat``
    The compatibility default: retains every shard value and delegates
    ``finalize`` to :func:`~repro.engine.plan.merge_shard_values`, so it
    is **bitwise-identical** to the monolithic merge (including the
    single-shard passthrough that imposes no shape on unsharded cells).
    Memory grows with trials — exactly the old behaviour, which the
    per-trial-paired experiment tables require.
``count`` / ``sum`` / ``minmax`` / ``mean`` / ``stats``
    Constant-memory leaf statistics: trial counts, totals (waste sums),
    running min/max, mean and variance via Welford/Chan parallel merge,
    and ``stats`` combining all of them.  These apply leaf-wise to the
    cell contract's structure — a per-trial list of numbers, or a dict
    (nested arbitrarily) of such lists.
``quantile``
    A seeded bottom-``k`` reservoir (priorities are a fixed splitmix64
    hash of the **global** trial index, so the sample is a deterministic
    uniform subsample independent of the shard decomposition) plus a P²
    streaming estimate per probe quantile.  The reservoir feeds
    split-conformal bands — see :func:`conformal_from_summary` and
    :func:`~repro.prediction.predictor.conformal_interval`.

Determinism and claims
----------------------
The engine always folds states in plan (trial) order, buffering only
out-of-order arrivals, so every reducer is run-to-run deterministic.  The
``associative_exact`` / ``commutative`` attributes record which algebraic
laws hold *bitwise* (list concatenation, integer counts, min/max, the
reservoir) versus only to floating-point tolerance (float sums, Chan
merges, P²); ``tests/engine/test_reduce.py`` asserts each claim.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.plan import ShardMergeError, merge_shard_values

__all__ = [
    "DEFAULT_REDUCER",
    "Reducer",
    "ReducerShapeError",
    "available_reducers",
    "get_reducer",
    "sample_values",
    "sample_quantiles",
    "conformal_from_summary",
]

#: The reducer a :class:`~repro.engine.plan.SweepSpec` gets when it does
#: not declare one: exact trial-order concatenation, byte-identical to
#: the pre-streaming merge path.
DEFAULT_REDUCER = "concat"

#: Reservoir capacity of the ``quantile`` reducer (per leaf).
RESERVOIR_CAPACITY = 512

#: Probe quantiles the ``quantile`` reducer tracks with P² markers.
QUANTILE_PROBES = (0.05, 0.25, 0.5, 0.75, 0.95)

#: Fixed salt of the reservoir priorities — the "seed" of the seeded
#: reservoir.  A constant (not a spec parameter) so the same trial keeps
#: the same priority across runs, shard sizes, and resumes.
_RESERVOIR_SALT = np.uint64(0x5EED5EED5EED5EED)


class ReducerShapeError(ShardMergeError):
    """A cell value does not fit the selected reducer's leaf contract."""


def _check_size(size: int, cell: str) -> None:
    """Reject an empty trial slice: no shard the engine plans is empty."""
    if size < 1:
        raise ReducerShapeError(
            f"{cell}: a shard covers at least one trial, got size={size}"
        )


class Reducer:
    """Base class of the streaming-reduction protocol (see module docs)."""

    name: str = "reducer"
    #: ``merge(merge(a, b), c)`` equals ``merge(a, merge(b, c))`` bitwise.
    associative_exact: bool = False
    #: ``merge(a, b)`` equals ``merge(b, a)`` bitwise.
    commutative: bool = False

    def init(self) -> Any:
        """The empty state (no trials folded yet)."""
        raise NotImplementedError

    def update(
        self, state: Any, value: Any, lo: int, size: int, cell: str = "cell"
    ) -> Any:
        """Fold one shard's raw cell value into ``state`` (may mutate it)."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any, cell: str = "cell") -> Any:
        """Combine two folded states; ``a`` covers the earlier trials."""
        raise NotImplementedError

    def finalize(self, state: Any, cell: str = "cell") -> Any:
        """The cell value consumers see."""
        raise NotImplementedError


class ConcatReducer(Reducer):
    """Exact trial-order concatenation — the compatibility default.

    The state retains every shard value (memory grows with trials, the
    old behaviour) and ``finalize`` delegates to
    :func:`~repro.engine.plan.merge_shard_values`, so the output is
    bitwise-identical to the monolithic merge for any shard decomposition
    — including the single-shard passthrough.
    """

    name = "concat"
    associative_exact = True  # list concatenation is exact
    commutative = False  # trial order is the contract

    def init(self) -> dict:
        return {"pieces": [], "sizes": []}

    def update(self, state, value, lo, size, cell="cell"):
        _check_size(size, cell)
        state["pieces"].append(value)
        state["sizes"].append(size)
        return state

    def merge(self, a, b, cell="cell"):
        a["pieces"].extend(b["pieces"])
        a["sizes"].extend(b["sizes"])
        return a

    def finalize(self, state, cell="cell"):
        return merge_shard_values(state["pieces"], state["sizes"], cell=cell)


def _leaf_array(value: list, size: int, cell: str) -> np.ndarray:
    """Validate one per-trial leaf list and return it as ``float64``."""
    try:
        xs = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ReducerShapeError(
            f"{cell}: streaming reducers need numeric per-trial leaves; "
            "use the 'concat' reducer for non-numeric cell values"
        ) from None
    if xs.ndim != 1:
        raise ReducerShapeError(
            f"{cell}: streaming reducers need scalar per-trial leaves "
            f"(got shape {xs.shape}); use the 'concat' reducer"
        )
    if xs.shape[0] != size:
        raise ReducerShapeError(
            f"{cell}: shard of {size} trial(s) returned a leaf of length "
            f"{xs.shape[0]}; shardable cells must return per-trial lists"
        )
    return xs


class _StreamingReducer(Reducer):
    """Leaf-wise application of a scalar-stream kernel to cell structures.

    The state mirrors the cell's dict structure with kernel states at the
    leaves: ``{"kind": "dict", "items": [[key, child], ...]}`` for dicts
    (key order recorded, exactly like ``merge_shard_values``) and
    ``{"kind": "leaf", "state": ...}`` for per-trial lists.  ``init`` is
    ``None`` — the first shard establishes the structure.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.name = kernel.name
        self.associative_exact = kernel.associative_exact
        self.commutative = kernel.commutative

    def init(self):
        return None

    def _lift(self, value, lo, size, cell):
        if isinstance(value, dict):
            return {
                "kind": "dict",
                "items": [
                    [str(key), self._lift(child, lo, size, f"{cell}[{key!r}]")]
                    for key, child in value.items()
                ],
            }
        if isinstance(value, list):
            return {
                "kind": "leaf",
                "state": self._kernel.lift(_leaf_array(value, size, cell), lo),
            }
        raise ReducerShapeError(
            f"{cell}: cannot stream-reduce a {type(value).__name__} cell "
            "value; shardable cells must return per-trial lists or dicts "
            "of them (or use the 'concat' reducer on an unsharded cell)"
        )

    def _merge_nodes(self, a, b, cell):
        if a["kind"] != b["kind"]:
            raise ReducerShapeError(f"{cell}: shard structures disagree")
        if a["kind"] == "leaf":
            a["state"] = self._kernel.merge(a["state"], b["state"])
            return a
        keys_a = [key for key, _child in a["items"]]
        keys_b = [key for key, _child in b["items"]]
        if keys_a != keys_b:
            raise ShardMergeError(
                f"{cell}: shard dicts disagree on keys "
                f"({sorted(keys_a)} vs {sorted(keys_b)})"
            )
        for item, (key, child) in zip(a["items"], b["items"]):
            item[1] = self._merge_nodes(item[1], child, f"{cell}[{key!r}]")
        return a

    def update(self, state, value, lo, size, cell="cell"):
        _check_size(size, cell)
        piece = self._lift(value, lo, size, cell)
        if state is None:
            return piece
        return self._merge_nodes(state, piece, cell)

    def merge(self, a, b, cell="cell"):
        if a is None:
            return b
        if b is None:
            return a
        return self._merge_nodes(a, b, cell)

    def _finalize_node(self, node, cell):
        if node["kind"] == "leaf":
            return self._kernel.finalize(node["state"])
        return {
            key: self._finalize_node(child, f"{cell}[{key!r}]")
            for key, child in node["items"]
        }

    def finalize(self, state, cell="cell"):
        if state is None:
            raise ReducerShapeError(f"{cell}: no shard values folded")
        return self._finalize_node(state, cell)


class _CountKernel:
    """Trial counts — exact integer arithmetic, fully order-insensitive."""

    name = "count"
    associative_exact = True
    commutative = True

    def lift(self, xs, lo):
        return {"count": int(xs.shape[0])}

    def merge(self, a, b):
        a["count"] += b["count"]
        return a

    def finalize(self, state):
        return {"count": state["count"]}


class _SumKernel:
    """Totals (waste sums).  Float addition is commutative bitwise but
    not associative, so regrouping changes only the last ulps."""

    name = "sum"
    associative_exact = False
    commutative = True

    def lift(self, xs, lo):
        return {"count": int(xs.shape[0]), "sum": float(np.sum(xs))}

    def merge(self, a, b):
        a["count"] += b["count"]
        a["sum"] += b["sum"]
        return a

    def finalize(self, state):
        return {"count": state["count"], "sum": state["sum"]}


def _chan_merge(a: dict, b: dict) -> dict:
    """Chan et al. parallel combination of (count, mean, M2) moments."""
    na, nb = a["count"], b["count"]
    n = na + nb
    delta = b["mean"] - a["mean"]
    a["mean"] += delta * (nb / n)
    a["m2"] += b["m2"] + delta * delta * (na * nb / n)
    a["count"] = n
    return a


class _MomentsKernel:
    """Mean and variance via Welford batch moments + Chan merges."""

    name = "mean"
    associative_exact = False
    commutative = False  # the Chan update is asymmetric in float

    def lift(self, xs, lo):
        mean = float(np.mean(xs))
        return {
            "count": int(xs.shape[0]),
            "mean": mean,
            "m2": float(np.sum((xs - mean) ** 2)),
        }

    def merge(self, a, b):
        return _chan_merge(a, b)

    def finalize(self, state):
        var = state["m2"] / state["count"]
        return {
            "count": state["count"],
            "mean": state["mean"],
            "var": var,
            "std": float(np.sqrt(var)),
        }


class _MinMaxKernel:
    """Running extrema — exact and fully order-insensitive."""

    name = "minmax"
    associative_exact = True
    commutative = True

    def lift(self, xs, lo):
        return {
            "count": int(xs.shape[0]),
            "min": float(np.min(xs)),
            "max": float(np.max(xs)),
        }

    def merge(self, a, b):
        a["count"] += b["count"]
        a["min"] = min(a["min"], b["min"])
        a["max"] = max(a["max"], b["max"])
        return a

    def finalize(self, state):
        return {"count": state["count"], "min": state["min"], "max": state["max"]}


class _StatsKernel:
    """Everything the cheap kernels track, in one state."""

    name = "stats"
    associative_exact = False
    commutative = False

    def lift(self, xs, lo):
        mean = float(np.mean(xs))
        return {
            "count": int(xs.shape[0]),
            "mean": mean,
            "m2": float(np.sum((xs - mean) ** 2)),
            "min": float(np.min(xs)),
            "max": float(np.max(xs)),
            "sum": float(np.sum(xs)),
        }

    def merge(self, a, b):
        amin = min(a["min"], b["min"])
        amax = max(a["max"], b["max"])
        asum = a["sum"] + b["sum"]
        _chan_merge(a, b)
        a["min"], a["max"], a["sum"] = amin, amax, asum
        return a

    def finalize(self, state):
        var = state["m2"] / state["count"]
        return {
            "count": state["count"],
            "mean": state["mean"],
            "var": var,
            "std": float(np.sqrt(var)),
            "min": state["min"],
            "max": state["max"],
            "sum": state["sum"],
        }


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over ``uint64`` — the reservoir priority hash."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _p2_new(prob: float) -> dict:
    """Fresh P² marker state for one probe quantile."""
    return {"p": prob, "init": [], "heights": [], "pos": []}


def _p2_update(state: dict, x: float) -> None:
    """Feed one observation into a P² estimator (Jain & Chlamtac '85)."""
    p = state["p"]
    if state["pos"] == []:
        state["init"].append(x)
        if len(state["init"]) == 5:
            state["heights"] = sorted(state["init"])
            state["pos"] = [1.0, 2.0, 3.0, 4.0, 5.0]
            state["init"] = []
        return
    q, n = state["heights"], state["pos"]
    if x < q[0]:
        q[0] = x
        k = 0
    elif x >= q[4]:
        q[4] = x
        k = 3
    else:
        k = next(i for i in range(4) if q[i] <= x < q[i + 1])
    for i in range(k + 1, 5):
        n[i] += 1.0
    count = n[4]
    desired = [
        1.0,
        1.0 + (count - 1.0) * p / 2.0,
        1.0 + (count - 1.0) * p,
        1.0 + (count - 1.0) * (1.0 + p) / 2.0,
        count,
    ]
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
            d <= -1.0 and n[i - 1] - n[i] < -1.0
        ):
            d = 1.0 if d >= 0 else -1.0
            # Parabolic (P²) adjustment, falling back to linear when it
            # would leave the markers unordered.
            hp = q[i] + d / (n[i + 1] - n[i - 1]) * (
                (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
            )
            if not q[i - 1] < hp < q[i + 1]:
                hp = q[i] + d * (q[i + int(d)] - q[i]) / (n[i + int(d)] - n[i])
            q[i] = hp
            n[i] += d


def _p2_feed(state: dict, xs: np.ndarray) -> None:
    for x in xs:
        _p2_update(state, float(x))


def _p2_merge(a: dict, b: dict) -> dict:
    """Approximate combination of two P² states (count-weighted markers).

    P² is inherently sequential; merging weights the marker heights by
    the observation counts and sums the positions — a documented
    approximation (hence the ``quantile`` reducer claims neither exact
    associativity nor commutativity; the reservoir half is exact).
    """
    if b["pos"] == [] and b["init"]:
        # b still collecting its first five observations: replay them.
        for x in b["init"]:
            _p2_update(a, x)
        return a
    if a["pos"] == []:
        if not a["init"]:
            return b
        pending = list(a["init"])
        a = {
            "p": b["p"],
            "init": [],
            "heights": list(b["heights"]),
            "pos": list(b["pos"]),
        }
        for x in pending:
            _p2_update(a, x)
        return a
    na, nb = a["pos"][4], b["pos"][4]
    total = na + nb
    a["heights"] = [
        (ha * na + hb * nb) / total
        for ha, hb in zip(a["heights"], b["heights"])
    ]
    a["pos"] = [pa + pb for pa, pb in zip(a["pos"], b["pos"])]
    return a


def _p2_estimate(state: dict) -> float:
    if state["pos"]:
        return float(state["heights"][2])
    if state["init"]:
        return float(np.quantile(np.asarray(state["init"]), state["p"]))
    return float("nan")


class _QuantileKernel:
    """Seeded bottom-k reservoir + P² probe quantiles (see module docs).

    The reservoir keeps the ``RESERVOIR_CAPACITY`` trials with the
    smallest splitmix64 priority of their **global** trial index — a
    deterministic uniform subsample whose contents are independent of the
    shard decomposition and of merge order (merging bottom-k sketches is
    exact).  The P² markers stream every value in fold order.
    """

    name = "quantile"
    associative_exact = False  # the P² half is sequential
    commutative = False

    def lift(self, xs, lo):
        trials = np.arange(lo, lo + xs.shape[0], dtype=np.uint64)
        priorities = _mix64(trials ^ _RESERVOIR_SALT)
        # argsort ascending by priority: the kept pairs come out already
        # sorted, which is the invariant ``merge`` maintains.
        order = np.argsort(priorities, kind="stable")[:RESERVOIR_CAPACITY]
        sample = [[int(priorities[i]), float(xs[i])] for i in order]
        p2 = [_p2_new(p) for p in QUANTILE_PROBES]
        for state in p2:
            _p2_feed(state, xs)
        return {"count": int(xs.shape[0]), "sample": sample, "p2": p2}

    def merge(self, a, b):
        a["count"] += b["count"]
        sample = a["sample"] + b["sample"]
        sample.sort(key=lambda pair: pair[0])
        a["sample"] = sample[:RESERVOIR_CAPACITY]
        a["p2"] = [_p2_merge(sa, sb) for sa, sb in zip(a["p2"], b["p2"])]
        return a

    def finalize(self, state):
        values = sorted(value for _priority, value in state["sample"])
        out = {"count": state["count"], "sample": values}
        for prob, p2 in zip(QUANTILE_PROBES, state["p2"]):
            out[f"p{int(round(prob * 100)):02d}"] = _p2_estimate(p2)
        return out


_REDUCERS: dict[str, Reducer] = {
    reducer.name: reducer
    for reducer in (
        ConcatReducer(),
        _StreamingReducer(_CountKernel()),
        _StreamingReducer(_SumKernel()),
        _StreamingReducer(_MomentsKernel()),
        _StreamingReducer(_MinMaxKernel()),
        _StreamingReducer(_StatsKernel()),
        _StreamingReducer(_QuantileKernel()),
    )
}


def available_reducers() -> tuple[str, ...]:
    """Registered reducer names, sorted."""
    return tuple(sorted(_REDUCERS))


def get_reducer(name: str) -> Reducer:
    """The named reducer; unknown names raise listing the registry."""
    try:
        return _REDUCERS[name]
    except KeyError:
        raise KeyError(
            f"unknown reducer {name!r}; available: "
            f"{', '.join(available_reducers())}"
        ) from None


def sample_values(summary: dict) -> np.ndarray:
    """The quantile reducer's reservoir sample, sorted ascending."""
    try:
        return np.asarray(summary["sample"], dtype=np.float64)
    except (TypeError, KeyError):
        raise ValueError(
            "expected a 'quantile' reducer leaf output (with a 'sample')"
        ) from None


def sample_quantiles(summary: dict, probs) -> np.ndarray:
    """Empirical quantiles of the reservoir sample at ``probs``."""
    return np.quantile(sample_values(summary), np.asarray(probs, dtype=float))


def conformal_from_summary(
    summary: dict, predicted: np.ndarray, *, alpha: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Split-conformal band from a quantile reducer's reservoir sample.

    The reservoir is a uniform subsample of the residual stream, so it is
    exchangeable with held-out residuals and plugs straight into
    :func:`repro.prediction.predictor.conformal_interval` — quantile
    summaries from a million-trial sweep feed conformal bands without the
    sweep ever retaining the raw values.
    """
    from repro.prediction.predictor import conformal_interval

    return conformal_interval(sample_values(summary), predicted, alpha=alpha)
