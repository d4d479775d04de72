"""Topology generation and mixing-matrix spectra."""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus.experiments import ExperimentConfig, build_run_config, preset_sweep
from dpconsensus.graph import (
    CommGraph,
    GraphError,
    connected,
    gen_erdos_renyi,
    gen_erdos_renyi_graphs,
)

from test_rng import oracle_rng

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


def test_hopeless_edge_probability_reports_attempts(monkeypatch):
    import dpconsensus.graph as graph

    monkeypatch.setattr(graph, "_MAX_ATTEMPTS", 25)
    with pytest.raises(GraphError, match="in 25 attempts"):
        gen_erdos_renyi(20, 1e-6, seed=0)


def bfs_connected(adjacency):
    """Whether node 0 reaches every node, by breadth-first search."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [j for i in frontier for j in np.flatnonzero(adjacency[i]) if j not in seen]
        seen.update(frontier)
    return len(seen) == len(adjacency)


def record_streams(monkeypatch, graph):
    """The key of every stream ``graph`` draws, in order, recorded as its
    batched sampler derives each round's streams
    (``StreamPrefixes.states``)."""
    streams = []

    class Recorded(graph.StreamPrefixes):
        def states(self, rows, indices, n_words=4):
            streams.extend((self.master_seeds[row], index) for row in rows for index in indices)
            return super().states(rows, indices, n_words)

    monkeypatch.setattr(graph, "StreamPrefixes", Recorded)
    return streams


@pytest.mark.parametrize("max_attempts", [1, 5, 31, 70])
def test_a_failed_sample_draws_exactly_max_attempts_streams(monkeypatch, max_attempts):
    """Chunks of attempts stop at ``_MAX_ATTEMPTS`` streams: each attempt
    number is drawn once, and none beyond the cap."""
    import dpconsensus.graph as graph

    streams = record_streams(monkeypatch, graph)
    monkeypatch.setattr(graph, "_MAX_ATTEMPTS", max_attempts)
    with pytest.raises(GraphError, match=f"in {max_attempts} attempts"):
        gen_erdos_renyi(20, 1e-6, seed=3)
    assert streams == [(3, a) for a in range(max_attempts)]


def test_an_accepted_graph_logs_its_attempts(caplog, monkeypatch):
    """One DEBUG record per accepted graph: the accepted attempt's number,
    the first connected one of the attempt streams, and every stream drawn,
    which the chunks may carry past it."""
    import dpconsensus.graph as graph

    streams = record_streams(monkeypatch, graph)
    caplog.set_level(logging.DEBUG, logger="dpconsensus.graph")
    accepted = gen_erdos_renyi(10, 0.1, seed=7)
    attempt = 0
    while True:
        upper = np.triu(oracle_rng(7, attempt).random((10, 10)) < 0.1, 1)
        attempt += 1
        if bfs_connected(upper | upper.T):
            break
    assert np.array_equal(accepted.adjacency, upper | upper.T)
    assert attempt > 1 and len(streams) >= attempt
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.DEBUG,
         f"G(10, 0.1) seed 7: connected after {attempt} attempts ({len(streams)} streams drawn)")
    ]


def reference_sample(n, p_c, seed):
    """Numpy's attempt streams ``(seed, a)`` in chunks of 1, 2, 4 ... 32,
    tested by breadth-first search: the first connected adjacency, its
    attempt number and the streams its chunks drew."""
    drawn, chunk = 0, 1
    while True:
        uppers = [
            np.triu(oracle_rng(seed, a).random((n, n)) < p_c, 1)
            for a in range(drawn, drawn + chunk)
        ]
        drawn += chunk
        for k, upper in enumerate(uppers):
            if bfs_connected(upper | upper.T):
                return upper | upper.T, drawn - chunk + k + 1, drawn
        chunk = min(2 * chunk, 32)


SAMPLE_SEEDS = [7, 0, 2**32 - 1, 2**32, 2**64 - 1, *range(100, 111)]


@pytest.mark.parametrize("p_c", [0.1, 0.3, 1.0])
def test_batched_graphs_equal_per_seed_samples(caplog, p_c):
    """One batched call gives each seed the graph and the DEBUG record of
    its own ``gen_erdos_renyi`` call, in seed order, and both match the
    attempt streams tested one by one."""
    caplog.set_level(logging.DEBUG, logger="dpconsensus.graph")
    graphs = gen_erdos_renyi_graphs(10, p_c, SAMPLE_SEEDS)
    batched_records = [(r.levelno, r.getMessage()) for r in caplog.records]
    caplog.clear()
    singles = [gen_erdos_renyi(10, p_c, seed) for seed in SAMPLE_SEEDS]
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == batched_records
    expected_records = []
    for seed, graph, single in zip(SAMPLE_SEEDS, graphs, singles, strict=True):
        adjacency, attempt, drawn = reference_sample(10, p_c, seed)
        assert np.array_equal(graph.adjacency, adjacency)
        assert np.array_equal(single.adjacency, adjacency)
        assert graph.weights.tobytes() == single.weights.tobytes()
        assert graph.beta == single.beta
        expected_records.append((
            logging.DEBUG,
            f"G(10, {p_c:g}) seed {seed}: connected after {attempt} attempts "
            f"({drawn} streams drawn)",
        ))
    assert batched_records == expected_records


def test_a_hopeless_batch_fails_by_name_after_max_attempts_per_graph(monkeypatch):
    """A batch whose edge probability is hopeless stops at the cap: every
    graph draws exactly ``_MAX_ATTEMPTS`` streams, none past it."""
    import dpconsensus.graph as graph

    streams = record_streams(monkeypatch, graph)
    monkeypatch.setattr(graph, "_MAX_ATTEMPTS", 25)
    seeds = [3, 2**64 - 1, 11]
    with pytest.raises(GraphError, match="in 25 attempts"):
        gen_erdos_renyi_graphs(20, 1e-6, seeds)
    assert sorted(streams) == sorted((seed, a) for seed in seeds for a in range(25))


def test_a_small_round_cap_splits_the_pending_graphs_and_keeps_them(monkeypatch):
    """With the round cap at its floor, ``_CHUNK_CAP`` * n^2 uniforms, the
    later rounds split the pending graphs into groups of at most that many
    uniforms, and every graph and record stays the same."""
    import dpconsensus.graph as graph

    seeds = list(range(40))
    expected = gen_erdos_renyi_graphs(6, 0.2, seeds)
    groups = []

    class Recorded(graph.StreamPrefixes):
        def states(self, rows, indices, n_words=4):
            groups.append((indices, len(rows) * len(indices) * 36))
            return super().states(rows, indices, n_words)

    monkeypatch.setattr(graph, "StreamPrefixes", Recorded)
    monkeypatch.setattr(graph, "_ROUND_FLOATS", 1)
    graphs = gen_erdos_renyi_graphs(6, 0.2, seeds)
    assert max(floats for _, floats in groups) <= graph._CHUNK_CAP * 36 < 40 * 36
    rounds = [indices for indices, _ in groups]
    assert len(set(rounds)) < len(rounds)  # some round ran in several groups
    for graph_, reference in zip(graphs, expected, strict=True):
        assert graph_.adjacency.tobytes() == reference.adjacency.tobytes()


@st.composite
def adjacency_stacks(draw):
    """Stacks of symmetric boolean adjacencies with a zero diagonal: random
    edges, with a complete graph and one with an isolated node among them."""
    n = draw(st.integers(2, 12))
    count = draw(st.integers(1, 6))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = np.triu(np.random.default_rng(seed).random((count, n, n)) < p, 1)
    stack = upper | upper.transpose(0, 2, 1)
    extra = draw(st.sampled_from(["none", "complete", "isolated"]))
    if extra == "complete":
        stack[0] = ~np.eye(n, dtype=bool)
    elif extra == "isolated":
        node = draw(st.integers(0, n - 1))
        stack[-1, node] = stack[-1, :, node] = False
    return stack


@settings(max_examples=200, deadline=None)
@given(stack=adjacency_stacks())
def test_stacked_connectivity_equals_breadth_first_search(stack):
    got = connected(stack)
    assert got.shape == stack.shape[:1]
    assert got.tolist() == [bfs_connected(a) for a in stack]
    assert [bool(connected(a)) for a in stack] == got.tolist()


PRESET_EDGE_PROBS = preset_sweep("p_c").values


@pytest.mark.parametrize("seed", range(20))
def test_weight_invariants_across_seeds(seed):
    """The derived weights are doubly stochastic, nonnegative, symmetric and
    zero on non-edges, and beta lies in [1/3, 1), at every edge probability of
    the preset sweep."""
    for p_c in PRESET_EDGE_PROBS:
        graph = gen_erdos_renyi(10, p_c, seed=seed)
        w = graph.weights
        ones = np.ones(10)
        assert np.max(np.abs(w @ ones - ones)) <= 1e-12
        assert np.max(np.abs(w.T @ ones - ones)) <= 1e-12
        assert w.min() >= 0.0
        assert np.array_equal(w, w.T)
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        assert not np.any((off != 0.0) & ~graph.adjacency)
        assert 1 / 3 - 1e-15 <= graph.beta < 1.0


def test_model_types_compare_by_identity():
    """``==`` on the types that hold arrays is identity, not an error, and
    they hash, so configs can go in a set."""
    graph = gen_erdos_renyi(4, 1.0, seed=1)
    assert graph == graph
    assert graph != gen_erdos_renyi(4, 1.0, seed=1)
    config = build_run_config(ExperimentConfig(n_nodes=4, horizon=3), 1, 2, 3)
    twin = build_run_config(ExperimentConfig(n_nodes=4, horizon=3), 1, 2, 3)
    assert config.datasets[0] == config.datasets[0] != twin.datasets[0]
    assert config.schedule == config.schedule != twin.schedule
    assert len({config, config, twin}) == 2


def reference_mixing(adjacency):
    """Weights and beta of one graph by the per-matrix formulas, with
    L = diag(degrees) - A."""
    adj = adjacency.astype(float)
    degrees = adj.sum(axis=1)
    eigenvalues = np.linalg.eigvalsh(np.diag(degrees) - adj)
    scale = 2.0 / (3.0 * eigenvalues[-1])
    weights = scale * adj
    np.fill_diagonal(weights, 1.0 - scale * degrees)
    weights[np.abs(weights) < 1e-15] = 0.0
    return weights, float(np.max(np.abs(1.0 - scale * eigenvalues[1:])))


def test_a_graph_is_determined_by_its_adjacency():
    """A value's graphs, checked and decomposed as one stack, have the
    weights and beta of each graph rebuilt alone as ``CommGraph`` and of
    the per-matrix formulas, bit for bit, at every edge probability of the
    preset sweep."""
    graphs = [g for p_c in PRESET_EDGE_PROBS for g in gen_erdos_renyi_graphs(10, p_c, range(100))]
    for graph in graphs:
        rebuilt = CommGraph(graph.adjacency)
        weights, beta = reference_mixing(graph.adjacency)
        assert rebuilt.n_nodes == graph.n_nodes == 10
        assert np.array_equal(rebuilt.adjacency, graph.adjacency)
        assert rebuilt.weights.tobytes() == graph.weights.tobytes() == weights.tobytes()
        assert rebuilt.beta == graph.beta == beta


def test_the_stacked_laplacian_is_zero_off_its_edges_as_diag_minus_a():
    """A Laplacian built as -A with the degrees on its diagonal has -0.0 at
    every non-edge, which moves eigvalsh's last ulp for some sparse graphs;
    on those graphs the stack keeps the bits of diag(degrees) - A."""
    graphs = gen_erdos_renyi_graphs(10, 0.1, list(range(40)))
    sensitive = []
    for graph in graphs:
        adj = graph.adjacency.astype(float)
        negated = -adj
        np.fill_diagonal(negated, adj.sum(axis=1))
        laplacian = np.diag(adj.sum(axis=1)) - adj
        if np.linalg.eigvalsh(negated).tobytes() != np.linalg.eigvalsh(laplacian).tobytes():
            sensitive.append(graph)
    assert sensitive
    for graph in sensitive:
        weights, beta = reference_mixing(graph.adjacency)
        assert graph.weights.tobytes() == weights.tobytes()
        assert graph.beta == beta


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


@pytest.mark.parametrize(
    "adjacency,match",
    [
        (np.zeros((1, 1), dtype=bool), "needs >= 2 nodes, got 1"),
        (np.ones((2, 3), dtype=bool), r"must be square, got shape \(2, 3\)"),
        (np.ones(4, dtype=bool), r"must be square, got shape \(4,\)"),
        (np.array([[0, 1], [1, 0]]), "must be boolean"),
    ],
)
def test_commgraph_rejects_malformed_adjacency_by_name(adjacency, match):
    with pytest.raises(GraphError, match=match):
        CommGraph(adjacency)


def test_commgraph_rejects_asymmetric_adjacency():
    adjacency = np.zeros((3, 3), dtype=bool)
    adjacency[0, 1] = True  # missing the mirror edge
    with pytest.raises(GraphError, match="symmetric"):
        CommGraph(adjacency)


def test_commgraph_rejects_disconnected_adjacency():
    adjacency = np.zeros((4, 4), dtype=bool)
    adjacency[0, 1] = adjacency[1, 0] = True
    adjacency[2, 3] = adjacency[3, 2] = True
    with pytest.raises(GraphError, match="connected"):
        CommGraph(adjacency)


def _with_second(bad):
    """A stack of the complete graph on the nodes of ``bad``, then ``bad``."""
    complete = ~np.eye(len(bad), dtype=bool)
    return np.array([complete.astype(bad.dtype), bad])


def _edited(edges):
    adjacency = np.zeros((4, 4), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = True
    return adjacency


@pytest.mark.parametrize(
    "stack,match",
    [
        (np.ones((2, 3, 4), dtype=bool), r"must be square, got shape \(3, 4\)"),
        (np.zeros((2, 1, 1), dtype=bool), "needs >= 2 nodes, got 1"),
        (_with_second(np.array([[0, 1], [1, 0]])), "must be boolean"),
        (_with_second(_edited([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)])), "symmetric"),
        (_with_second(_edited([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)])),
         "zero diagonal"),
        (_with_second(_edited([(0, 1), (1, 0), (2, 3), (3, 2)])), "connected"),
    ],
)
def test_an_invalid_stack_fails_by_name(stack, match):
    """The stacked path checks every graph of a value's stack, not only the
    first, with ``CommGraph``'s errors."""
    import dpconsensus.graph as graph

    with pytest.raises(GraphError, match=match):
        graph._comm_graphs(stack)
    if stack.ndim == 3 and stack.shape[1] == stack.shape[2]:
        with pytest.raises(GraphError, match=match):
            CommGraph(stack[-1])
