"""Box-constrained local objectives for decentralized mean estimation.

Each node i holds a private dataset D_i inside the cube [-R, R]^p and the
local cost f_i(x) = 0.5 * sum_{d in D_i} ||x - d||^2.  The aggregate cost
is minimized at the grand mean of all points, which for the data model used
here lies strictly inside the cube.  A dataset's points are read-only, so
its sum and largest coordinate magnitude are computed once, when it is
built.  ``gen_truncated_gaussian_datasets`` draws a sweep value's datasets,
every node of every data seed, from one ``rng.derive_states`` call, through
the sampling code of ``gen_truncated_gaussian``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rng import derive_rng, derive_states, generators

__all__ = [
    "BoxDomain",
    "LocalDataset",
    "ObjectiveSpec",
    "gen_truncated_gaussian",
    "gen_truncated_gaussian_datasets",
    "grand_mean",
    "mean_objective_constants",
    "mean_objective_grad",
    "mean_objective_value",
    "project_box",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoxDomain:
    """The cube [-half_width, half_width]^dimension."""

    half_width: float
    dimension: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")

    def contains(self, points: np.ndarray) -> bool:
        return bool(np.all(np.abs(points) <= self.half_width))

    @property
    def diameter(self) -> float:
        """Largest distance between two points of the cube, 2R*sqrt(p)."""
        return 2.0 * self.half_width * math.sqrt(self.dimension)


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """Sensitive points held by one node, one point per row; the node is the
    dataset's position in ``RunConfig.datasets``.  ``==`` is identity.

    The given ``points`` array is made read-only, so ``total``, the sum of
    the points (``points.sum(axis=0)``), and ``extent``, their largest
    coordinate magnitude, are computed once and stay true.
    """

    points: np.ndarray = field(repr=False)
    total: np.ndarray = field(init=False, repr=False)
    extent: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = self.points
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (n_points, dimension) array")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        points.flags.writeable = False
        total = points.sum(axis=0)
        total.flags.writeable = False
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "extent", float(np.abs(points).max()))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def local_mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def replace_point(self, index: int, replacement: np.ndarray) -> "LocalDataset":
        """Neighboring dataset differing from this one in a single point."""
        replacement = np.asarray(replacement, dtype=float)
        if replacement.shape != (self.dimension,):
            raise ValueError("replacement must be a single point of matching dimension")
        points = self.points.copy()
        points[index] = replacement
        return LocalDataset(points=points)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Regularity constants of the local objectives.

    ``grad_bound`` bounds the gradient norm over the domain, ``smoothness``
    and ``strong_convexity`` bound the Hessian spectrum from above and
    below, and ``dimension`` is the ambient dimension.
    """

    grad_bound: float
    smoothness: float
    strong_convexity: float
    dimension: int

    def __post_init__(self) -> None:
        if self.grad_bound < 0.0:
            raise ValueError("grad_bound must be nonnegative")
        if self.smoothness <= 0.0 or self.strong_convexity <= 0.0:
            raise ValueError("smoothness and strong_convexity must be positive")
        if self.strong_convexity > self.smoothness * (1.0 + 1e-12):
            raise ValueError("strong_convexity cannot exceed smoothness")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @property
    def step_coefficient(self) -> float:
        """Leading step-size factor (mu + L) / (2 mu L)."""
        mu, lip = self.strong_convexity, self.smoothness
        return (mu + lip) / (2.0 * mu * lip)


def project_box(x: np.ndarray, domain: BoxDomain) -> np.ndarray:
    """Euclidean projection onto the cube: a coordinate-wise clamp.

    Idempotent and nonexpansive; applies along the last axis, so stacked
    iterates project row-wise.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("cannot project non-finite coordinates")
    return np.clip(x, -domain.half_width, domain.half_width)


def mean_objective_value(x: np.ndarray, data: LocalDataset) -> float:
    """Local cost 0.5 * sum_d ||x - d||^2."""
    diffs = x[None, :] - data.points
    return 0.5 * float(np.sum(diffs * diffs))


def mean_objective_grad(x: np.ndarray, data: LocalDataset) -> np.ndarray:
    """Gradient sum_d (x - d) = n_i * (x - local_mean)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (data.dimension,):
        raise ValueError(
            f"point dimension {x.shape} does not match dataset dimension {data.dimension}"
        )
    return data.n_points * x - data.total


def mean_objective_constants(n_points: int, domain: BoxDomain) -> ObjectiveSpec:
    """Regularity constants of the local quadratic of n_i = ``n_points``
    points on the cube.

    The Hessian is n_i * I, so smoothness and strong convexity both equal
    n_i.  The gradient bound is the corner bound n_i * 2R * sqrt(p): the
    worst case of ||sum_d (x - d)|| with x and every d in the cube.
    """
    return ObjectiveSpec(
        grad_bound=n_points * domain.diameter,
        smoothness=float(n_points),
        strong_convexity=float(n_points),
        dimension=domain.dimension,
    )


def gen_truncated_gaussian(
    n_points: int, domain: BoxDomain, seed: int, node_id: int = 0
) -> LocalDataset:
    """Sample points with i.i.d. Gaussian(0.7R, 1) coordinates truncated to [-R, R].

    Truncation is by rejection, so the conditional law is exact.
    Deterministic given ``(seed, node_id)``: the draws come from the stream
    ``derive_rng(seed, node_id)``, so ``node_id`` keys the stream of the
    node that will hold the points.  This is the one-dataset case of the
    sampler ``gen_truncated_gaussian_datasets`` runs.

    Raises:
        ValueError: if the acceptance probability is below 1e-6 (degenerate
            half-width) or n_points < 1.
    """
    stream = derive_rng(seed, node_id)
    return _truncated_gaussians([stream], n_points, domain, [(seed, node_id)])[0]


def gen_truncated_gaussian_datasets(
    n_points: int, domain: BoxDomain, seeds: Sequence[int], n_nodes: int
) -> list[tuple[LocalDataset, ...]]:
    """``gen_truncated_gaussian(n_points, domain, seed, node)`` for every node
    in ``range(n_nodes)``, a tuple per seed of ``seeds``, in order, byte for
    byte and with the same DEBUG records: the streams of every seed and node
    come from one ``derive_states`` call.

    Raises:
        ValueError: as ``gen_truncated_gaussian``.
    """
    streams = generators(derive_states(seeds, (), range(n_nodes)))
    labels = [(seed, node) for seed in seeds for node in range(n_nodes)]
    datasets = _truncated_gaussians(streams, n_points, domain, labels)
    return [tuple(datasets[k * n_nodes:(k + 1) * n_nodes]) for k in range(len(seeds))]


def _truncated_gaussians(
    streams: Iterable[np.random.Generator],
    n_points: int,
    domain: BoxDomain,
    labels: Sequence[tuple[int, int]],
) -> list[LocalDataset]:
    """The dataset of ``gen_truncated_gaussian`` drawn from each generator of
    ``streams``, once the arguments are checked; ``labels`` gives each its
    ``(seed, node_id)`` for its DEBUG record.

    Each stream draws batches of max(n_points * dimension, 64) normals until
    enough of its coordinates lie in the box, and keeps the first of them in
    draw order.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    r = domain.half_width
    mean = 0.7 * r
    accept = 0.5 * (math.erf((r - mean) / math.sqrt(2.0)) - math.erf((-r - mean) / math.sqrt(2.0)))
    if accept < 1e-6:
        raise ValueError(
            f"acceptance probability {accept:.2e} below 1e-6 for half_width {r}"
        )
    needed = n_points * domain.dimension
    datasets = []
    for rng, (seed, node_id) in zip(streams, labels):
        out, draws = np.empty(0), 0
        while out.size < needed:
            batch = rng.normal(mean, 1.0, size=max(needed, 64))
            out = np.concatenate([out, batch[np.abs(batch) <= r]])
            draws += batch.size
        _log.debug(
            "truncated Gaussian seed %d node %d: %d of %d draws accepted for %d coordinates",
            seed, node_id, out.size, draws, needed,
        )
        datasets.append(LocalDataset(points=out[:needed].reshape(n_points, domain.dimension)))
    return datasets


def grand_mean(datasets: Sequence[LocalDataset]) -> np.ndarray:
    """Mean of the union of all node datasets (the aggregate minimizer)."""
    if not datasets:
        raise ValueError("need at least one dataset")
    total = sum(d.total for d in datasets)
    count = sum(d.n_points for d in datasets)
    return total / count
