"""Communication topologies and their doubly-stochastic mixing matrices.

Graphs are undirected, unweighted and connected.  Mixing weights follow the
Laplacian rule W = I - (2 / (3 * lambda_max(L))) * L with L = D - A, which
is symmetric, doubly stochastic and entrywise nonnegative for every
connected graph.  The contraction rate of a consensus step is the second
largest eigenvalue magnitude of W, strictly below one iff the graph is
connected.  ``gen_erdos_renyi`` samples by rejection: each attempt draws
from its own stream, taken in turn from one lazy ``rng.derive_rngs`` over
all attempts, bit for bit the streams of ``rng.derive_rng(seed, attempt)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_rngs

__all__ = [
    "CommGraph",
    "GraphError",
    "connected",
    "gen_erdos_renyi",
]

_log = logging.getLogger(__name__)

# Entries of W this close to zero are snapped to exactly zero, so W is
# exactly zero off its diagonal wherever the adjacency has no edge.
_ZERO_CLAMP = 1e-15

# Samples ``gen_erdos_renyi`` draws before giving up on a connected graph.
_MAX_ATTEMPTS = 10_000

# Most samples ``gen_erdos_renyi`` tests at once; its chunks double from one
# up to this, so a dense graph draws one stream and a sparse one needs few
# chunks.
_CHUNK_CAP = 32


class GraphError(ValueError):
    """Invalid topology or failed graph construction."""


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Connected communication graph; its mixing matrix and contraction rate
    are derived from the adjacency alone.  ``==`` is identity.

    Attributes:
        adjacency: symmetric boolean matrix, zero diagonal, at least 2 nodes.
        weights: doubly stochastic mixing matrix (Laplacian rule).
        beta: second largest eigenvalue magnitude of ``weights``; lambda_max(L)
            maps to 1/3 and the graph is connected, so 1/3 <= beta < 1.
    """

    adjacency: np.ndarray = field(repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    beta: float = field(init=False)

    def __post_init__(self) -> None:
        adj = self.adjacency
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 2:  # the Laplacian rule needs lambda_max(L) > 0
            raise GraphError(f"adjacency needs >= 2 nodes, got {adj.shape[0]}")
        if adj.dtype != bool:
            raise GraphError("adjacency must be boolean")
        if adj.diagonal().any() or not np.array_equal(adj, adj.T):
            raise GraphError("adjacency must be symmetric with a zero diagonal")
        if not connected(adj):
            raise GraphError("graph must be connected")
        weights, beta = _laplacian_mixing(adj)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "beta", beta)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def connected(adjacency: np.ndarray) -> np.ndarray:
    """Whether each graph of a stack ``(..., n, n)`` of symmetric boolean
    adjacencies has a single component; a bool array of shape ``(...)``.

    Squares the reachability matrix I + A ceil(log2 n) times, which covers
    every path of up to n - 1 edges, and reads whether node 0 reaches every
    node.  Each product is turned back into 0/1, so its entries stay at most
    n and no inf * 0 turns into a NaN.
    """
    n = adjacency.shape[-1]
    reach = (adjacency | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0).astype(np.float32)
    return reach[..., 0, :].all(axis=-1)


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


def gen_erdos_renyi(n: int, p_c: float, seed: int) -> CommGraph:
    """Sample a connected Erdos-Renyi graph G(n, p_c).

    Each unordered pair is an edge independently with probability ``p_c``.
    Disconnected samples are rejected and redrawn, so the law is Erdos-Renyi
    conditioned on connectivity.  Attempt a draws its uniforms from its own
    stream ``derive_rng(seed, a)``, and the first connected attempt is
    accepted, so the graph is deterministic given ``(n, p_c, seed)``.
    Attempts are drawn and tested for connectivity a chunk at a time; chunks
    double from one up to ``_CHUNK_CAP``, and the last stops at
    ``_MAX_ATTEMPTS`` streams.  The streams come in turn from one lazy
    ``derive_rngs``, which hashes them a window of attempts at a time.

    Raises:
        GraphError: if n < 2, p_c is not in (0, 1], or no connected sample
            appears within ``_MAX_ATTEMPTS`` draws (p_c too small for n).
    """
    if n < 2:
        raise GraphError(f"need n >= 2 nodes, got {n}")
    if not 0.0 < p_c <= 1.0:
        raise GraphError(f"edge probability must lie in (0, 1], got {p_c}")
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    attempts = derive_rngs(seed, (), range(_MAX_ATTEMPTS))
    drawn, chunk = 0, 1
    while drawn < _MAX_ATTEMPTS:
        chunk = min(chunk, _MAX_ATTEMPTS - drawn)
        uniforms = np.empty((chunk, n, n))
        for out in uniforms:
            next(attempts).random(out=out)
        edges = (uniforms < p_c) & upper
        adjacency = edges | edges.transpose(0, 2, 1)
        drawn += chunk
        hits = np.flatnonzero(connected(adjacency))
        if hits.size:
            _log.debug(
                "G(%d, %g) seed %d: connected after %d attempts (%d streams drawn)",
                n, p_c, seed, drawn - chunk + hits[0] + 1, drawn,
            )
            return CommGraph(adjacency[hits[0]].copy())
        chunk = min(2 * chunk, _CHUNK_CAP)
    raise GraphError(
        f"no connected G({n}, {p_c}) sample in {_MAX_ATTEMPTS} attempts; "
        "edge probability is too small for this node count"
    )
