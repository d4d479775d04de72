"""Topology generation and mixing-matrix spectra."""

import itertools

import numpy as np
import pytest

from dpconsensus.graph import CommGraph, GraphError, gen_erdos_renyi


def test_two_node_graph_is_the_single_edge():
    graph = gen_erdos_renyi(2, 1.0, seed=123)
    assert graph.adjacency.tolist() == [[False, True], [True, False]]


def test_two_node_mixing_matrix_by_hand():
    # L = [[1,-1],[-1,1]] has lambda_max = 2, so W = I - (1/3) L.
    graph = gen_erdos_renyi(2, 1.0, seed=5)
    expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert np.allclose(graph.weights, expected, atol=1e-9)
    assert graph.beta == pytest.approx(1 / 3, abs=1e-9)


def test_complete_graph_beta_is_one_third():
    # The complete-graph Laplacian spectrum is {0, n}, so every non-consensus
    # eigenvalue of W equals 1 - 2n/(3n) = 1/3.
    for n in (3, 5, 10):
        graph = gen_erdos_renyi(n, 1.0, seed=n)
        assert graph.beta == pytest.approx(1 / 3, abs=1e-9)


def test_complete_graph_has_all_edges():
    graph = gen_erdos_renyi(10, 1.0, seed=0)
    assert np.triu(graph.adjacency, 1).sum() == 45


def test_path_graph_mixing_by_hand():
    # A connected 3-node graph with 2 edges is a path; its Laplacian spectrum
    # is {0, 1, 3}, so W = I - (2/9) L and W's spectrum is {1, 7/9, 1/3}.
    graph = next(
        g
        for g in (gen_erdos_renyi(3, 0.5, seed=s) for s in itertools.count())
        if np.triu(g.adjacency, 1).sum() == 2
    )
    lap = np.diag(graph.adjacency.sum(axis=1)) - graph.adjacency.astype(float)
    assert np.allclose(graph.weights, np.eye(3) - (2 / 9) * lap, atol=1e-14)
    assert graph.beta == pytest.approx(7 / 9, abs=1e-14)


def test_generation_is_deterministic():
    first = gen_erdos_renyi(10, 0.6, seed=7)
    second = gen_erdos_renyi(10, 0.6, seed=7)
    assert np.array_equal(first.adjacency, second.adjacency)
    assert np.array_equal(first.weights, second.weights)


def test_different_seeds_give_different_graphs():
    graphs = {gen_erdos_renyi(10, 0.5, seed=s).adjacency.tobytes() for s in range(8)}
    assert len(graphs) > 1


@pytest.mark.parametrize("n,p_c", [(1, 0.5), (10, 0.0), (10, 1.5), (10, -0.1)])
def test_invalid_generation_arguments(n, p_c):
    with pytest.raises(GraphError):
        gen_erdos_renyi(n, p_c, seed=0)


def test_hopeless_edge_probability_reports_attempts():
    with pytest.raises(GraphError, match="attempts"):
        gen_erdos_renyi(20, 1e-6, seed=0, max_attempts=25)


@pytest.mark.parametrize("seed", range(20))
def test_weight_invariants_across_seeds(seed):
    graph = gen_erdos_renyi(10, 0.6, seed=seed)
    w = graph.weights
    ones = np.ones(10)
    assert np.max(np.abs(w @ ones - ones)) <= 1e-12
    assert np.max(np.abs(w.T @ ones - ones)) <= 1e-12
    assert w.min() >= 0.0
    assert np.array_equal(w, w.T)
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    assert not np.any((off != 0.0) & ~graph.adjacency)
    assert 0.0 <= graph.beta < 1.0


def test_beta_shrinks_with_connectivity_on_average():
    means = []
    for p_c in (0.1, 0.3, 0.6, 1.0):
        betas = [gen_erdos_renyi(10, p_c, seed=1000 + s).beta for s in range(20)]
        means.append(np.mean(betas))
    assert all(a > b for a, b in zip(means, means[1:]))


def test_beta_is_the_second_largest_weight_eigenvalue_magnitude():
    # Checked against the weights' own spectrum, not the Laplacian's that
    # beta is computed from.
    for p_c in (0.1, 0.3, 0.6, 1.0):
        for seed in range(20):
            graph = gen_erdos_renyi(10, p_c, seed=seed)
            magnitudes = np.sort(np.abs(np.linalg.eigvalsh(graph.weights)))
            assert graph.beta == pytest.approx(magnitudes[-2], abs=1e-12)


def test_commgraph_rejects_asymmetric_adjacency():
    adjacency = np.zeros((3, 3), dtype=bool)
    adjacency[0, 1] = True  # missing the mirror edge
    with pytest.raises(GraphError):
        CommGraph(
            n_nodes=3, adjacency=adjacency, weights=np.eye(3), beta=0.5, seed=0
        )


def test_commgraph_rejects_disconnected_adjacency():
    adjacency = np.zeros((4, 4), dtype=bool)
    adjacency[0, 1] = adjacency[1, 0] = True
    adjacency[2, 3] = adjacency[3, 2] = True
    with pytest.raises(GraphError, match="connected"):
        CommGraph(
            n_nodes=4, adjacency=adjacency, weights=np.eye(4), beta=0.5, seed=0
        )
