"""Two-phase private distributed gradient descent over a mixing graph.

Gradient phase (rounds 1..T): every node broadcasts its previous iterate
plus Gaussian noise, averages the received messages with the mixing
weights, projects onto the box, and takes a projected local gradient step:

    y_i(t) = x_i(t-1) + noise           (broadcast)
    z_i(t) = proj(sum_j w_ij y_j(t))    (consensus)
    x_i(t) = proj(z_i(t) - eta_t grad_i(z_i(t)))

The noise protecting iterate x_i(t) has scale M_t = ``schedule.scales[t-1]``
and rides on the round-(t+1) broadcast; this is the pairing the budget
accounting assumes (round-t sensitivity over M_t).  The round-1 broadcast
carries x(0) = 0, which touches no data: by default it still gets scale-M_1
noise for a uniform message shape, and ``strict_first_broadcast`` sends the
literal zero instead.  Both choices spend the same budget.  The pairing and
the round loop live in one place, ``_gradient_trajectory``, which runs a
batch of noise seeds side by side (states ``(S, n, p)``) and returns the
whole phase as arrays; a single run, the sweeps and the privacy-loss audit
all go through it, in batches bounded by a fixed float budget.  Each
phase's metrics are computed once from those arrays.

Agreement phase (rounds t > T): exact broadcasts and pure consensus
averaging without projection, until the per-node relative change drops
below ``stage2_rel_tol`` or a round cap is hit.  The phase leaves the mean
iterate unchanged and contracts the consensus deviation geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .graph import CommGraph
from .objectives import BoxDomain, LocalDataset, grand_mean, project_box
from .privacy import NoiseSchedule
from .rng import derive_rng

__all__ = [
    "RunConfig",
    "RunMetrics",
    "SimState",
    "run",
    "run_agreement_phase",
    "run_gradient_phase",
]

# Denominator floor in the relative-change stopping rule.
_REL_CHANGE_FLOOR = 1e-12

# Float budget of one batch's noise block S * (T+1) * n * p: 16 seeds at
# T=100 and 32 at T=50 with 10 nodes in 4 dimensions, one at T=1000.  The
# consensus points and iterates of a batch take about as much again each.
_BATCH_FLOATS = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs, RNG stream included."""

    graph: CommGraph
    domain: BoxDomain
    datasets: tuple[LocalDataset, ...]
    schedule: NoiseSchedule
    noise_seed: int
    stage2_rel_tol: float = 1e-9
    stage2_max_rounds: int | None = None
    strict_first_broadcast: bool = False
    probe_node: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if len(self.datasets) != self.graph.n_nodes:
            raise ValueError(
                f"need one dataset per node: {len(self.datasets)} datasets for "
                f"{self.graph.n_nodes} nodes"
            )
        for data in self.datasets:
            if data.dimension != self.domain.dimension:
                raise ValueError("dataset dimension does not match the domain")
            if not self.domain.contains(data.points):
                raise ValueError(f"dataset of node {data.node_id} leaves the domain box")
        if self.schedule.horizon < 1:
            raise ValueError("schedule horizon must be >= 1")
        if not 0.0 <= self.stage2_rel_tol < 1.0:  # the round cap needs log(1/tol) > 0
            raise ValueError(f"stage2_rel_tol must lie in [0, 1), got {self.stage2_rel_tol}")
        if self.stage2_max_rounds is not None and self.stage2_max_rounds < 1:
            raise ValueError("stage2_max_rounds must be >= 1 when given")
        if not 0 <= self.probe_node < self.graph.n_nodes:
            raise ValueError(f"probe_node {self.probe_node} is not a node of the graph")

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def horizon(self) -> int:
        return self.schedule.horizon

    def minimizer(self) -> np.ndarray:
        """Grand mean of all node data: the aggregate quadratic's optimum."""
        return grand_mean(self.datasets)

    def agreement_round_cap(self) -> int:
        """Default cap 10 * log(1/tol) / log(1/beta) on agreement rounds."""
        if self.stage2_max_rounds is not None:
            return self.stage2_max_rounds
        tol = max(self.stage2_rel_tol, 1e-15)
        beta = min(max(self.graph.beta, 1e-12), 1.0 - 1e-12)
        return int(math.ceil(10.0 * math.log(1.0 / tol) / math.log(1.0 / beta)))


@dataclass(frozen=True)
class SimState:
    """Network snapshot after round ``t``: the node iterates."""

    t: int
    x: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RunMetrics:
    """Per-round time series; parallel arrays, one entry per executed round.

    ``stage`` is 1 for gradient rounds and 2 for agreement rounds.
    ``probe_error`` is the normalized squared error of node ``probe_node``.
    ``z_dev`` (consensus deviation of the post-projection averages) is NaN
    in stage 2; ``mean_drift`` (infinity-norm drift of the mean iterate
    from its stage-1 endpoint) and ``contraction_ratio`` (consensus
    deviation over its geometric bound beta^(t-T) * ||x(T)||) are NaN in
    stage 1.
    """

    stage: np.ndarray
    t: np.ndarray
    normalized_error: np.ndarray
    consensus_dev: np.ndarray
    z_dev: np.ndarray
    probe_error: np.ndarray
    mean_iterate: np.ndarray
    mean_drift: np.ndarray
    contraction_ratio: np.ndarray
    probe_node: int

    @staticmethod
    def concat(first: "RunMetrics", second: "RunMetrics") -> "RunMetrics":
        if first.probe_node != second.probe_node:
            raise ValueError("cannot concatenate metrics with different probes")
        return RunMetrics(
            stage=np.concatenate([first.stage, second.stage]),
            t=np.concatenate([first.t, second.t]),
            normalized_error=np.concatenate(
                [first.normalized_error, second.normalized_error]
            ),
            consensus_dev=np.concatenate([first.consensus_dev, second.consensus_dev]),
            z_dev=np.concatenate([first.z_dev, second.z_dev]),
            probe_error=np.concatenate([first.probe_error, second.probe_error]),
            mean_iterate=np.concatenate([first.mean_iterate, second.mean_iterate]),
            mean_drift=np.concatenate([first.mean_drift, second.mean_drift]),
            contraction_ratio=np.concatenate(
                [first.contraction_ratio, second.contraction_ratio]
            ),
            probe_node=first.probe_node,
        )

    def gradient_end_index(self) -> int:
        idx = np.nonzero(self.stage == 1)[0]
        if idx.size == 0:
            raise ValueError("metrics contain no gradient-phase rounds")
        return int(idx[-1])

    def final_gradient_mean(self) -> np.ndarray:
        """Mean iterate at the end of the gradient phase."""
        return self.mean_iterate[self.gradient_end_index()]

    def gradient_end_normalized_error(self) -> float:
        return float(self.normalized_error[self.gradient_end_index()])

    def gradient_end_probe_error(self) -> float:
        return float(self.probe_error[self.gradient_end_index()])

    @property
    def agreement_rounds(self) -> int:
        return int(np.sum(self.stage == 2))


def _deviation(points: np.ndarray) -> np.ndarray:
    """Frobenius norm of each round's deviation from its node average."""
    centered = points - points.mean(axis=1, keepdims=True)
    return np.sqrt(np.einsum("rnp,rnp->r", centered, centered))


def _metrics(config: RunConfig, stage: int, first_round: int, xs: np.ndarray) -> RunMetrics:
    """Stage-independent metrics of iterates ``xs[i] = x(first_round + i)``.

    ``z_dev``, ``mean_drift`` and ``contraction_ratio`` are left NaN for the
    caller to fill in for its stage.
    """
    x_star = config.minimizer()
    denom = max(float(x_star @ x_star), _REL_CHANGE_FLOOR)
    x_bar = xs.mean(axis=1)
    err = x_bar - x_star
    probe = xs[:, config.probe_node] - x_star
    rounds = xs.shape[0]
    unset = np.full(rounds, math.nan)
    return RunMetrics(
        stage=np.full(rounds, stage),
        t=np.arange(first_round, first_round + rounds),
        normalized_error=np.einsum("rp,rp->r", err, err) / denom,
        consensus_dev=_deviation(xs),
        z_dev=unset,
        probe_error=np.einsum("rp,rp->r", probe, probe) / denom,
        mean_iterate=x_bar,
        mean_drift=unset,
        contraction_ratio=unset,
        probe_node=config.probe_node,
    )


def _batch_size(config: RunConfig) -> int:
    """Most seeds of ``config``'s shape whose noise blocks fit ``_BATCH_FLOATS``
    (at least one)."""
    per_seed = (config.horizon + 1) * config.n_nodes * config.domain.dimension
    return max(1, _BATCH_FLOATS // per_seed)


def _project(points: np.ndarray, domain: BoxDomain, noise_seeds: Sequence[int]) -> np.ndarray:
    """``project_box`` over a batch ``(S, n, p)``; a non-finite coordinate
    names the noise seed(s) whose member diverged."""
    try:
        return project_box(points, domain)
    except ValueError as exc:
        diverged = np.flatnonzero(~np.isfinite(points).all(axis=(1, 2)))
        seeds = [noise_seeds[s] for s in diverged]
        raise ValueError(f"non-finite coordinates in the run of noise seed(s) {seeds}") from exc


def _gradient_trajectory(
    configs: Sequence[RunConfig], noise_seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rounds 1..T of the noisy gradient phase for a batch of S noise seeds,
    as arrays ``(noise, z, x)``.

    ``configs`` is one config, whose graph and data every seed shares, or
    one config per seed; stacked configs must share the domain, the schedule
    and the first-broadcast rule, and the configs' own ``noise_seed`` is not
    read.  ``noise[s, t]`` (shape ``(S, T+1, n, p)``) is the noise attached
    to seed s's iterate x(t), which the round-(t+1) broadcast carries: row 0
    has scale M_1, or is exactly zero under ``strict_first_broadcast``, and
    row t >= 1 has scale M_t.  No gradient round sends x(T), so only the
    audit reads the last row.  ``z[s, t-1]`` and ``x[s, t-1]`` (shape
    ``(S, T, n, p)``) are round t's projected consensus points and new
    iterates.  Each seed's noise is one draw of (T+1) * n * p standard
    normals from its own stream, round-major then node-major, so a seed
    draws the same numbers in a batch as alone.
    """
    first = configs[0]
    if len(configs) not in (1, len(noise_seeds)):
        raise ValueError(f"{len(configs)} configs for {len(noise_seeds)} noise seeds")
    domain, schedule = first.domain, first.schedule
    for config in configs[1:]:
        if not (
            config.domain == domain
            and config.strict_first_broadcast == first.strict_first_broadcast
            and np.array_equal(config.schedule.step_sizes, schedule.step_sizes)
            and np.array_equal(config.schedule.scales, schedule.scales)
        ):
            raise ValueError(
                "a batch's configs must share the domain, schedule and first broadcast"
            )
    first_scale = 0.0 if first.strict_first_broadcast else schedule.scales[0]
    scales = np.concatenate([[first_scale], schedule.scales])
    n_seeds, nodes = len(noise_seeds), (first.n_nodes, domain.dimension)
    noise = np.empty((n_seeds, first.horizon + 1, *nodes))
    for s, seed in enumerate(noise_seeds):
        derive_rng(seed).standard_normal(out=noise[s])
    noise *= scales[:, None, None]
    # One config broadcasts over the seeds as a leading axis of length 1.
    weights = np.array([c.graph.weights for c in configs])
    counts = np.array([[[d.n_points] for d in c.datasets] for c in configs], dtype=float)
    sums = np.array([[d.points.sum(axis=0) for d in c.datasets] for c in configs])
    z, x = np.empty((2, n_seeds, first.horizon, *nodes))
    previous = np.zeros((n_seeds, *nodes))
    for r, step in enumerate(schedule.step_sizes):
        z[:, r] = _project(weights @ (previous + noise[:, r]), domain, noise_seeds)
        x[:, r] = previous = _project(
            z[:, r] - float(step) * (counts * z[:, r] - sums), domain, noise_seeds
        )
    return noise, z, x


def _gradient_batch(configs: Sequence[RunConfig]) -> list[tuple[SimState, RunMetrics]]:
    """Gradient phases of one batch, each config under its own noise seed;
    the batch's trajectory arrays are dropped on return."""
    _, z, x = _gradient_trajectory(configs, [c.noise_seed for c in configs])
    return [
        (
            SimState(t=config.horizon, x=x_s[-1].copy()),
            replace(_metrics(config, 1, 1, x_s), z_dev=_deviation(z_s)),
        )
        for config, z_s, x_s in zip(configs, z, x)
    ]


def _gradient_phases(configs: Sequence[RunConfig]) -> Iterator[tuple[SimState, RunMetrics]]:
    """Gradient phases of configs that can share a batch, in order, run in
    batches of at most ``_batch_size`` seeds; each batch is freed before the
    next is built."""
    size = _batch_size(configs[0])
    for start in range(0, len(configs), size):
        yield from _gradient_batch(configs[start:start + size])


def run_gradient_phase(config: RunConfig) -> tuple[SimState, RunMetrics]:
    """Execute rounds 1..T of the noisy gradient phase.

    Deterministic given ``config.noise_seed``; metrics are computed once
    from the stored trajectory.  This is the one-seed batch of the kernel
    that sweeps run many seeds through.
    """
    return _gradient_batch([config])[0]


def run_agreement_phase(
    state: SimState, config: RunConfig
) -> tuple[SimState, RunMetrics]:
    """Exact-broadcast consensus rounds from a gradient-phase endpoint.

    No projection is applied (averages of box points stay in the box).
    Stops when max_i ||x_i(t) - x_i(t-1)|| / max(||x_i(t-1)||, 1e-12) drops
    below ``stage2_rel_tol``, or after the round cap.
    """
    weights = config.graph.weights
    cap = config.agreement_round_cap()
    # Rows are reserved in doubling chunks: the cap can exceed the rounds
    # actually run by orders of magnitude.
    xs = np.empty((min(cap, 256), *state.x.shape))
    x, rounds = state.x, 0
    while rounds < cap:
        if rounds == len(xs):
            xs = np.concatenate([xs, np.empty_like(xs)])
        x_next = weights @ x
        node_changes = np.linalg.norm(x_next - x, axis=1)
        node_norms = np.maximum(np.linalg.norm(x, axis=1), _REL_CHANGE_FLOOR)
        xs[rounds] = x = x_next
        rounds += 1
        if np.max(node_changes / node_norms) < config.stage2_rel_tol:
            break
    metrics = _metrics(config, 2, state.t + 1, xs[:rounds])
    dev = metrics.consensus_dev
    geometric = config.graph.beta ** np.arange(1, rounds + 1) * float(np.linalg.norm(state.x))
    ratio = np.divide(
        dev, geometric, out=np.where(dev == 0.0, 0.0, math.inf), where=geometric > 0.0
    )
    drift = np.max(np.abs(metrics.mean_iterate - state.x.mean(axis=0)), axis=1)
    final = SimState(t=state.t + rounds, x=x)
    return final, replace(metrics, mean_drift=drift, contraction_ratio=ratio)


def run(config: RunConfig) -> RunMetrics:
    """Both phases back to back; metrics concatenated with the stage marker."""
    state, gradient_metrics = run_gradient_phase(config)
    _, agreement_metrics = run_agreement_phase(state, config)
    return RunMetrics.concat(gradient_metrics, agreement_metrics)
