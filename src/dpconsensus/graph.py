"""Communication topologies and their doubly-stochastic mixing matrices.

Graphs are undirected, unweighted and connected.  Mixing weights follow the
Laplacian rule W = I - (2 / (3 * lambda_max(L))) * L with L = D - A, which
is symmetric, doubly stochastic and entrywise nonnegative for every
connected graph.  The contraction rate of a consensus step is the second
largest eigenvalue magnitude of W, strictly below one iff the graph is
connected.  ``gen_erdos_renyi_graphs`` samples many graphs by rejection, in
rounds: each round advances every graph still pending by its next chunk of
attempts, derives the round's streams with one call over the pending
graphs' seeds, the streams ``(seed, attempt)`` of ``rng.derive_states``,
and tests them with one ``connected`` call.
``gen_erdos_renyi`` is its one-seed call.  The accepted graphs are checked
and decomposed as one stack, with one ``connected`` call and one stacked
``eigvalsh`` of their Laplacians, which gives each graph the bits of its
own call; ``CommGraph(adjacency)`` is the one-graph case of the same path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import StreamPrefixes, generators

__all__ = [
    "CommGraph",
    "GraphError",
    "connected",
    "gen_erdos_renyi",
    "gen_erdos_renyi_graphs",
]

_log = logging.getLogger(__name__)

# Entries of W this close to zero are snapped to exactly zero, so W is
# exactly zero off its diagonal wherever the adjacency has no edge.
_ZERO_CLAMP = 1e-15

# Samples ``gen_erdos_renyi`` draws before giving up on a connected graph.
_MAX_ATTEMPTS = 10_000

# Most samples of one graph a round tests at once; the chunks double from
# one up to this, so a dense graph draws one stream and a sparse one needs
# few rounds.
_CHUNK_CAP = 32

# Most uniforms a round stacks, unless one graph's chunk alone holds more
# (``_CHUNK_CAP`` * n^2); a round of more pending graphs splits them into
# groups, so memory does not grow with the number of graphs.
_ROUND_FLOATS = 2**16


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
        (weights,), (beta,) = _laplacian_mixing(self.adjacency[None])
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "beta", float(beta))

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


def _laplacian_mixing(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixing weights W = I - (2 / (3 * lambda_max(L))) * L, ``(G, n, n)``,
    and their betas, ``(G,)``, of a stack of adjacencies ``(G, n, n)``, each
    checked as ``CommGraph`` requires, all of them at once.

    One symmetric eigendecomposition of L = D - A gives both: W's spectrum
    is 1 - scale * eig(L), where eig(L)[0] = 0 is the consensus direction,
    so beta is the largest |1 - scale * lambda| over the other eigenvalues.
    The stacked ``eigvalsh`` gives each graph the bits of its own call.

    Raises:
        GraphError: naming the first check that some graph of the stack fails.
    """
    if adjacency.ndim != 3 or adjacency.shape[1] != adjacency.shape[2]:
        raise GraphError(f"adjacency must be square, got shape {adjacency.shape[1:]}")
    if adjacency.shape[1] < 2:  # the Laplacian rule needs lambda_max(L) > 0
        raise GraphError(f"adjacency needs >= 2 nodes, got {adjacency.shape[1]}")
    if adjacency.dtype != bool:
        raise GraphError("adjacency must be boolean")
    if adjacency.diagonal(axis1=1, axis2=2).any() or not np.array_equal(
        adjacency, adjacency.swapaxes(1, 2)
    ):
        raise GraphError("adjacency must be symmetric with a zero diagonal")
    if not connected(adjacency).all():
        raise GraphError("graph must be connected")
    adj = adjacency.astype(float)
    degrees = adj.sum(axis=-1)
    nodes = np.arange(adj.shape[-1])
    # diag(degrees) - A, as np.diag builds it: a non-edge is 0 - 0 = +0.0
    # (negating A would make it -0.0 and move the last ulp of some results).
    laplacian = np.zeros_like(adj)
    laplacian[:, nodes, nodes] = degrees
    laplacian -= adj
    eigenvalues = np.linalg.eigvalsh(laplacian)
    scale = 2.0 / (3.0 * eigenvalues[:, -1])
    # W = I - scale * (D - A): diagonal 1 - scale*deg, off-diagonal +scale*A.
    weights = scale[:, None, None] * adj
    weights[:, nodes, nodes] = 1.0 - scale[:, None] * degrees
    weights[np.abs(weights) < _ZERO_CLAMP] = 0.0
    betas = np.max(np.abs(1.0 - scale[:, None] * eigenvalues[:, 1:]), axis=1)
    return weights, betas


def gen_erdos_renyi(n: int, p_c: float, seed: int) -> CommGraph:
    """Sample a connected Erdos-Renyi graph G(n, p_c).

    Each unordered pair is an edge independently with probability ``p_c``.
    Disconnected samples are rejected and redrawn, so the law is Erdos-Renyi
    conditioned on connectivity.  Attempt a draws its uniforms from its own
    stream ``(seed, a)``, and the first connected attempt is
    accepted, so the graph is deterministic given ``(n, p_c, seed)``.  This
    is the one-seed call of ``gen_erdos_renyi_graphs``.

    Raises:
        GraphError: if n < 2, p_c is not in (0, 1], or no connected sample
            appears within ``_MAX_ATTEMPTS`` draws (p_c too small for n).
    """
    return gen_erdos_renyi_graphs(n, p_c, [seed])[0]


def gen_erdos_renyi_graphs(n: int, p_c: float, seeds: Sequence[int]) -> list[CommGraph]:
    """``gen_erdos_renyi(n, p_c, seed)`` for each seed of ``seeds``, in order,
    with the same graphs, DEBUG records and cap error.

    Every graph's attempts are drawn and tested a chunk at a time; chunks
    double from one up to ``_CHUNK_CAP``, and the last stops at
    ``_MAX_ATTEMPTS`` streams.  A round advances every pending graph by its
    next chunk, all of the same length, and a graph leaves at its first
    connected attempt.  A round stacks at most max(``_ROUND_FLOATS``,
    ``_CHUNK_CAP`` * n^2) uniforms: past that, its pending graphs run in
    groups, each drawing its streams from one ``StreamPrefixes.states``
    call, the seeds' pools hashed once for all rounds, and testing them
    with one ``connected`` call.

    Raises:
        GraphError: as ``gen_erdos_renyi``; a seed whose graph hits the cap
            fails after the DEBUG records of the graphs before it.
    """
    if n < 2:
        raise GraphError(f"need n >= 2 nodes, got {n}")
    if not 0.0 < p_c <= 1.0:
        raise GraphError(f"edge probability must lie in (0, 1], got {p_c}")
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    stack = np.empty((len(seeds), n, n), dtype=bool)  # the accepted adjacencies
    # Per seed, the accepted attempt and the streams drawn by then.
    accepted: list[tuple[int, int] | None] = [None] * len(seeds)
    pending = list(range(len(seeds)))
    prefixes = StreamPrefixes(seeds)
    round_floats = max(_ROUND_FLOATS, _CHUNK_CAP * n * n)
    drawn, chunk = 0, 1
    while pending and drawn < _MAX_ATTEMPTS:
        chunk = min(chunk, _MAX_ATTEMPTS - drawn)
        attempts = range(drawn, drawn + chunk)
        drawn += chunk
        size = round_floats // (chunk * n * n)
        groups = [pending[i:i + size] for i in range(0, len(pending), size)]
        pending = []
        for group in groups:
            uniforms = np.empty((len(group), chunk, n, n))
            streams = generators(prefixes.states(group, attempts))
            for out, stream in zip(uniforms.reshape(-1, n, n), streams):
                stream.random(out=out)
            edges = (uniforms < p_c) & upper
            adjacency = edges | edges.swapaxes(-1, -2)
            hits = connected(adjacency)
            for row, (g, first) in enumerate(zip(group, hits.argmax(axis=1).tolist())):
                if hits[row, first]:
                    stack[g] = adjacency[row, first]
                    accepted[g] = (drawn - chunk + first + 1, drawn)
                else:
                    pending.append(g)
        chunk = min(2 * chunk, _CHUNK_CAP)
    for seed, outcome in zip(seeds, accepted):
        if outcome is None:
            raise GraphError(
                f"no connected G({n}, {p_c}) sample in {_MAX_ATTEMPTS} attempts; "
                "edge probability is too small for this node count"
            )
        _log.debug(
            "G(%d, %g) seed %d: connected after %d attempts (%d streams drawn)",
            n, p_c, seed, *outcome,
        )
    return _comm_graphs(stack)


def _comm_graphs(adjacency: np.ndarray) -> list[CommGraph]:
    """``CommGraph(a)`` for each graph ``a`` of a stack ``(G, n, n)``, with
    the same checks, errors, weights and betas, all made for the stack at
    once; each graph holds views of the stack's arrays."""
    weights, betas = _laplacian_mixing(adjacency)
    graphs = []
    for values in zip(adjacency, weights, betas.tolist()):
        graph = object.__new__(CommGraph)  # checked above: skip __post_init__
        for name, value in zip(("adjacency", "weights", "beta"), values):
            object.__setattr__(graph, name, value)
        graphs.append(graph)
    return graphs
