"""Tests for the synthetic dataset builders."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.datasets import (
    make_classification,
    make_graph_laplacian,
    make_web_graph,
)


class TestMakeClassification:
    def test_shapes_and_labels(self):
        x, y = make_classification(100, 10, seed=0)
        assert x.shape == (100, 10)
        assert y.shape == (100,)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_separable_with_large_separation(self):
        x, y = make_classification(400, 5, separation=6.0, seed=1)
        # A trivial centroid classifier should do well.
        mu_pos = x[y > 0].mean(axis=0)
        mu_neg = x[y < 0].mean(axis=0)
        direction = mu_pos - mu_neg
        preds = np.where((x - (mu_pos + mu_neg) / 2) @ direction > 0, 1.0, -1.0)
        assert np.mean(preds == y) > 0.95

    def test_deterministic(self):
        a = make_classification(50, 4, seed=3)[0]
        b = make_classification(50, 4, seed=3)[0]
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_classification(0, 5)


class TestMakeWebGraph:
    def test_column_stochastic(self):
        matrix, _ = make_web_graph(80, seed=0)
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_nonnegative(self):
        matrix, _ = make_web_graph(50, seed=1)
        assert np.all(matrix >= 0)

    def test_graph_returned(self):
        _, graph = make_web_graph(30, seed=2)
        assert isinstance(graph, nx.DiGraph)
        assert graph.number_of_nodes() == 30

    def test_power_iteration_converges_to_nx_pagerank(self):
        matrix, graph = make_web_graph(60, seed=3)
        d = 0.85
        x = np.full(60, 1 / 60)
        for _ in range(200):
            x = d * matrix @ x + (1 - d) / 60
        nx_ranks = nx.pagerank(graph, alpha=d, max_iter=500, tol=1e-12)
        expected = np.array([nx_ranks[i] for i in range(60)])
        np.testing.assert_allclose(x, expected, atol=1e-5)


class TestMakeGraphLaplacian:
    def test_shape_and_symmetry(self):
        lap, _ = make_graph_laplacian(40, seed=0)
        assert lap.shape == (40, 40)
        np.testing.assert_allclose(lap, lap.T, atol=1e-12)

    def test_positive_semidefinite(self):
        lap, _ = make_graph_laplacian(40, seed=1)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() > -1e-9

    def test_normalized_spectrum_bounded(self):
        lap, _ = make_graph_laplacian(40, seed=2)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.max() <= 2.0 + 1e-9

    def test_no_isolated_nodes(self):
        _, graph = make_graph_laplacian(30, communities=3, p_in=0.05, p_out=0.0, seed=3)
        assert not list(nx.isolates(graph))

    @pytest.mark.parametrize(
        "n_nodes, communities, p_in, p_out, seed",
        [
            (40, 4, 0.2, 0.01, 0),
            (64, 4, 0.2, 0.01, 5),
            (30, 3, 0.05, 0.0, 3),  # isolated nodes joined to a neighbour
            (17, 2, 0.5, 0.1, 9),
            (1, 1, 0.2, 0.01, 0),  # one node: its join is a self-loop
        ],
    )
    def test_equals_networkx_laplacian(self, n_nodes, communities, p_in, p_out, seed):
        # The dense product keeps networkx's D^-1/2 (D - A) D^-1/2 order,
        # so the bytes match its sparse result.
        pytest.importorskip("scipy")
        lap, graph = make_graph_laplacian(
            n_nodes, communities=communities, p_in=p_in, p_out=p_out, seed=seed
        )
        want = nx.normalized_laplacian_matrix(graph).toarray()
        assert lap.dtype == want.dtype and lap.shape == want.shape
        assert lap.tobytes() == want.tobytes()
