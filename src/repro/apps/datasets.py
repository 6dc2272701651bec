"""Synthetic datasets standing in for the paper's public inputs.

The paper uses the UCI *gisette* dataset (duplicated to size) for LR/SVM
and a Toronto web-ranking dataset for PageRank/graph filtering.  Latency
results depend only on matrix dimensions, and numeric correctness is
data-independent, so synthetic equivalents with matching structure suffice
(the figure experiments README.md lists simulate from shapes alone):

* :func:`make_classification` — two Gaussian blobs with ±1 labels
  (linearly separable-ish, like gisette after preprocessing);
* :func:`make_web_graph` — a scale-free directed graph's column-stochastic
  transition matrix (PageRank input);
* :func:`make_graph_laplacian` — normalised Laplacian of a community graph
  (graph-filtering input).
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro._util import as_rng, check_positive_int

__all__ = ["make_classification", "make_web_graph", "make_graph_laplacian"]


def make_classification(
    n_samples: int,
    n_features: int,
    separation: float = 2.0,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-blob binary classification data with labels in ``{-1, +1}``.

    Returns ``(features, labels)`` with ``features`` of shape
    ``(n_samples, n_features)``.  ``separation`` is the distance between
    blob centres in units of the per-coordinate noise.
    """
    check_positive_int(n_samples, "n_samples")
    check_positive_int(n_features, "n_features")
    rng = as_rng(seed)
    labels = np.where(rng.random(n_samples) < 0.5, -1.0, 1.0)
    direction = rng.standard_normal(n_features)
    direction /= np.linalg.norm(direction)
    features = rng.standard_normal((n_samples, n_features))
    features += np.outer(labels * (separation / 2.0), direction)
    return features, labels


def make_web_graph(
    n_nodes: int, seed: int | None = 0
) -> tuple[np.ndarray, nx.DiGraph]:
    """Column-stochastic transition matrix of a scale-free directed graph.

    Returns ``(matrix, graph)`` where ``matrix[i, j]`` is the probability
    of following a link from page ``j`` to page ``i``; dangling pages are
    given uniform outlinks so the matrix is properly stochastic (standard
    PageRank preprocessing).
    """
    check_positive_int(n_nodes, "n_nodes")
    graph = nx.scale_free_graph(n_nodes, seed=seed)
    graph = nx.DiGraph(graph)  # collapse multi-edges
    graph.remove_edges_from(nx.selfloop_edges(graph))
    matrix = np.zeros((n_nodes, n_nodes))
    for j in range(n_nodes):
        targets = list(graph.successors(j))
        if targets:
            matrix[targets, j] = 1.0 / len(targets)
        else:
            matrix[:, j] = 1.0 / n_nodes
    return matrix, graph


def make_graph_laplacian(
    n_nodes: int,
    communities: int = 4,
    p_in: float = 0.2,
    p_out: float = 0.01,
    seed: int | None = 0,
) -> tuple[np.ndarray, nx.Graph]:
    """Normalised Laplacian of a planted-partition (community) graph.

    Graph-filtering workloads (§6.3) run n-hop filters over the
    combinatorial/normalised Laplacian; community structure gives the
    filter something meaningful to smooth.  Returns ``(laplacian, graph)``.
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive_int(communities, "communities")
    sizes = [n_nodes // communities] * communities
    sizes[0] += n_nodes - sum(sizes)
    graph = nx.random_partition_graph(sizes, p_in, p_out, seed=seed)
    # Ensure no isolated nodes (normalised Laplacian needs positive degree).
    isolated = list(nx.isolates(graph))
    for node in isolated:
        graph.add_edge(node, (node + 1) % n_nodes)
    # networkx's normalized_laplacian_matrix, D^-1/2 (D - A) D^-1/2, in its
    # product order but dense: it builds SciPy sparse arrays.
    adjacency = nx.to_numpy_array(graph)
    degrees = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = np.diag(degrees) - adjacency
    return inv_sqrt[:, None] * (laplacian * inv_sqrt[None, :]), graph
