"""Communication topologies and their doubly-stochastic mixing matrices.

Graphs are undirected, unweighted and connected.  Mixing weights follow the
Laplacian rule W = I - (2 / (3 * lambda_max(L))) * L with L = D - A, which
is symmetric, doubly stochastic and entrywise nonnegative for every
connected graph.  The contraction rate of a consensus step is the second
largest eigenvalue magnitude of W, strictly below one iff the graph is
connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import derive_rng

__all__ = [
    "CommGraph",
    "GraphError",
    "connected",
    "gen_erdos_renyi",
]

# Entries of W this close to zero are snapped to exactly zero so sparsity
# pattern checks are exact.
_ZERO_CLAMP = 1e-15


class GraphError(ValueError):
    """Invalid topology or failed graph construction."""


@dataclass(frozen=True)
class CommGraph:
    """Connected communication graph with its mixing matrix.

    Attributes:
        n_nodes: number of nodes.
        adjacency: symmetric boolean matrix, zero diagonal.
        weights: doubly stochastic mixing matrix (Laplacian rule).
        beta: second largest eigenvalue magnitude of ``weights``.
        seed: seed the topology was sampled from.
    """

    n_nodes: int
    adjacency: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    beta: float
    seed: int

    def __post_init__(self) -> None:
        adj = self.adjacency
        w = self.weights
        n = self.n_nodes
        if adj.shape != (n, n) or w.shape != (n, n):
            raise GraphError("adjacency and weights must be n_nodes x n_nodes")
        if adj.dtype != bool:
            raise GraphError("adjacency must be boolean")
        if adj.diagonal().any() or not np.array_equal(adj, adj.T):
            raise GraphError("adjacency must be symmetric with a zero diagonal")
        if not connected(adj):
            raise GraphError("graph must be connected")
        ones = np.ones(n)
        if np.max(np.abs(w @ ones - ones)) > 1e-12 or np.max(np.abs(w.T @ ones - ones)) > 1e-12:
            raise GraphError("weights must be doubly stochastic (1e-12)")
        if w.min() < -_ZERO_CLAMP:
            raise GraphError("weights must be nonnegative")
        off_support = w.copy()
        np.fill_diagonal(off_support, 0.0)
        if np.any((off_support != 0.0) & ~adj):
            raise GraphError("weights must vanish on non-edges")
        if not 0.0 <= self.beta < 1.0:
            raise GraphError(f"beta must lie in [0, 1) for a connected graph, got {self.beta}")


def connected(adjacency: np.ndarray) -> bool:
    """Whether the graph has a single component (BFS from node 0)."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = np.nonzero(adjacency[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = nxt.tolist()
    return bool(seen.all())


def _laplacian_mixing(adjacency: np.ndarray) -> tuple[np.ndarray, float]:
    """Mixing weights W = I - (2 / (3 * lambda_max(L))) * L and their beta.

    One symmetric eigendecomposition of L = D - A gives both: W's spectrum
    is 1 - scale * eig(L), where eig(L)[0] = 0 is the consensus direction,
    so beta is the largest |1 - scale * lambda| over the other eigenvalues.
    """
    adj = adjacency.astype(float)
    degrees = adj.sum(axis=1)
    eigenvalues = np.linalg.eigvalsh(np.diag(degrees) - adj)
    scale = 2.0 / (3.0 * eigenvalues[-1])
    # W = I - scale * (D - A): diagonal 1 - scale*deg, off-diagonal +scale*A.
    weights = scale * adj
    np.fill_diagonal(weights, 1.0 - scale * degrees)
    weights[np.abs(weights) < _ZERO_CLAMP] = 0.0
    beta = float(np.max(np.abs(1.0 - scale * eigenvalues[1:])))
    return weights, beta


def gen_erdos_renyi(
    n: int, p_c: float, seed: int, max_attempts: int = 10_000
) -> CommGraph:
    """Sample a connected Erdos-Renyi graph G(n, p_c).

    Each unordered pair is an edge independently with probability ``p_c``.
    Disconnected samples are rejected and redrawn (the attempt counter is
    mixed into the stream), so the law is Erdos-Renyi conditioned on
    connectivity.  Deterministic given ``(n, p_c, seed)``.

    Raises:
        GraphError: if n < 2, p_c is not in (0, 1], or no connected sample
            appears within ``max_attempts`` draws (p_c too small for n).
    """
    if n < 2:
        raise GraphError(f"need n >= 2 nodes, got {n}")
    if not 0.0 < p_c <= 1.0:
        raise GraphError(f"edge probability must lie in (0, 1], got {p_c}")
    for attempt in range(max_attempts):
        rng = derive_rng(seed, attempt)
        upper = np.triu(rng.random((n, n)) < p_c, 1)
        adjacency = upper | upper.T
        if connected(adjacency):
            weights, beta = _laplacian_mixing(adjacency)
            return CommGraph(
                n_nodes=n, adjacency=adjacency, weights=weights, beta=beta, seed=seed
            )
    raise GraphError(
        f"no connected G({n}, {p_c}) sample in {max_attempts} attempts; "
        "edge probability is too small for this node count"
    )
