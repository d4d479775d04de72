"""Two-phase private distributed gradient descent over a mixing graph.

Gradient phase (rounds 1..T): every node broadcasts its previous iterate
plus Gaussian noise, averages the received messages with the mixing
weights, projects onto the box, and takes a projected local gradient step:

    y_i(t) = x_i(t-1) + noise           (broadcast)
    z_i(t) = proj(sum_j w_ij y_j(t))    (consensus)
    x_i(t) = proj(z_i(t) - eta_t grad_i(z_i(t)))

The noise protecting iterate x_i(t) has scale M_t = ``schedule.scales[t-1]``
and, for t < T, rides on the round-(t+1) broadcast; this is the pairing the
budget accounting assumes (round-t sensitivity over M_t).  The accounting
also charges round T, but the agreement phase's first broadcast sends x(T)
without its noise, which only the audit reads; an observer of every
message can then recover each node's local mean (see the README's known
privacy limitation).  The round-1 broadcast
carries x(0) = 0, which touches no data: by default it still gets scale-M_1
noise for a uniform message shape, and ``strict_first_broadcast`` sends the
literal zero instead.  Both choices spend the same budget.  The pairing and
the round loop live in one place, ``gradient_blocks``, which runs a batch
of noise seeds side by side and yields the phase one block of rounds at a
time; a single run, the sweeps, ``bound`` and the privacy-loss audit all go
through it.  A batch's configs share the domain, the step sizes and the
first-broadcast rule, by which ``gradient_phases``, the one caller that
passes the kernel more than one config, groups consecutive configs; their
graphs, data and noise scales may differ, so a sweep runs all the values of
a privacy or connectivity axis as one batch.  Its states are seed-minor,
``(n, p, S)``: a shared graph mixes every seed with one matrix product, and
elementwise steps run over long rows.  The box binds only in early rounds,
so a block is stepped without projection and checked once; only a block in
which some seed leaves the box is stepped again from its start, projecting
every round, which gives the same numbers as projecting throughout.  Each caller takes seed-major copies
of what it reads: a single run reduces each block to the per-round metrics
of its iterates, and the audit (the one reader of the consensus points) to
its loss terms and gap norms, as it arrives; the sweeps and ``bound`` read
only the end-of-phase error, so they keep only each batch's last iterates.
A fixed float budget bounds one block, not a whole trajectory, so the
memory of a sweep's batch does not grow with T; a cap on the rounds of a
block sets how many seeds a batch holds apart from its length.

Agreement phase (rounds t > T): exact broadcasts and pure consensus
averaging without projection, until the per-node relative change drops
below ``stage2_rel_tol`` or a round cap is hit.  The phase leaves the mean
iterate unchanged and contracts the consensus deviation geometrically.
Its one loop, ``_agreement_batch``, likewise steps a stack of seeds side
by side, each under its own graph, tolerance and cap, and drops a seed
from the stack at the round where it stops.  A sweep reads only each
seed's round count from it and keeps no per-round rows; a single run's
``_agreement_phase`` is its one-seed call, which records the rows it
reports and numbers them from round T + 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .graph import CommGraph
from .objectives import BoxDomain, LocalDataset, grand_mean, project_box
from .privacy import NoiseSchedule
from .rng import derive_rng

__all__ = [
    "RunConfig",
    "RunMetrics",
    "batches",
    "check_run_settings",
    "gradient_blocks",
    "gradient_phases",
    "run",
    "run_gradient_phase",
    "run_outcomes",
]

_log = logging.getLogger(__name__)

# Denominator floor in the relative-change stopping rule.
_REL_CHANGE_FLOOR = 1e-12

# Float budget of one block of a batch, S seeds by K rounds of n * p floats
# each; the block's noise draws, noise, consensus points and iterates take
# one budget each.  A block holds at most _BLOCK_ROUNDS rounds, so N seeds
# run as max(1, N // size) near-equal batches, for size = budget // (n * p *
# _BLOCK_ROUNDS): a batch holds size to 2 * size - 1 seeds (or all N when
# fewer).  With 10 nodes in 4 dimensions size is 81, and 20 seeds step in
# blocks of 20 rounds at any T.  Fewer seeds per batch mean more rounds to
# step in Python, longer blocks more stepping to redo when a seed leaves the
# box.
_BLOCK_FLOATS = 1 << 16
_BLOCK_ROUNDS = 20


def check_run_settings(config) -> None:
    """Check the ``stage2_rel_tol``, ``stage2_max_rounds`` and ``probe_node``
    of ``config`` against its ``n_nodes``: a ``RunConfig``, or a scalar
    config with the same four attributes that expands to one."""
    tol, cap = config.stage2_rel_tol, config.stage2_max_rounds
    if not 0.0 <= tol < 1.0:  # the round cap needs log(1/tol) > 0
        raise ValueError(f"stage2_rel_tol must lie in [0, 1), got {tol}")
    if cap is not None and cap < 1:
        raise ValueError("stage2_max_rounds must be >= 1 when given")
    if not 0 <= config.probe_node < config.n_nodes:
        raise ValueError(f"probe_node {config.probe_node} is not a node of the graph")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything one simulation needs, RNG stream included; ``==`` is
    identity, since the graph, data and schedule hold arrays."""

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
        for node, data in enumerate(self.datasets):
            if data.dimension != self.domain.dimension:
                raise ValueError("dataset dimension does not match the domain")
            if not self.domain.contains(data.points):
                raise ValueError(f"dataset of node {node} leaves the domain box")
        check_run_settings(self)

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
        """Default cap 10 * log(1/tol) / log(1/beta) on agreement rounds; a
        zero tolerance counts as 1e-15, and beta < 1 for every ``CommGraph``."""
        if self.stage2_max_rounds is not None:
            return self.stage2_max_rounds
        tol = max(self.stage2_rel_tol, 1e-15)
        return int(math.ceil(10.0 * math.log(1.0 / tol) / math.log(1.0 / self.graph.beta)))


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Per-round time series; parallel arrays, one entry per executed round.

    ``stage`` is 1 for gradient rounds and 2 for agreement rounds, and
    ``t`` numbers the rounds 1..T, then T+1 onwards.  ``probe_error`` is the
    normalized squared error of the run's ``RunConfig.probe_node``.
    ``mean_drift`` (infinity-norm drift of the mean iterate from its
    stage-1 endpoint) and ``contraction_ratio`` (consensus deviation over
    its geometric bound beta^(t-T) * ||x(T)||) are NaN in stage 1.  ``==``
    is identity, since every series is an array.
    """

    stage: np.ndarray
    t: np.ndarray
    normalized_error: np.ndarray
    consensus_dev: np.ndarray
    probe_error: np.ndarray
    mean_iterate: np.ndarray
    mean_drift: np.ndarray
    contraction_ratio: np.ndarray

    @staticmethod
    def concat(first: "RunMetrics", second: "RunMetrics") -> "RunMetrics":
        return RunMetrics(**{
            f.name: np.concatenate([getattr(first, f.name), getattr(second, f.name)])
            for f in fields(RunMetrics)
        })

    @property
    def agreement_rounds(self) -> int:
        return int(np.sum(self.stage == 2))


def _reference(config: RunConfig) -> tuple[np.ndarray, float]:
    """The minimizer x* and the error denominator max(||x*||^2, floor)."""
    x_star = config.minimizer()
    return x_star, max(float(x_star @ x_star), _REL_CHANGE_FLOOR)


def _errors(
    xs: np.ndarray, probe: np.ndarray, x_star: np.ndarray, denom: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalized error, consensus deviation (Frobenius norm of the
    deviation from the node average), probe error and mean iterate of
    iterates ``xs[..., n, p]`` whose probe node holds ``probe[..., p]``;
    ``x_star`` and ``denom`` broadcast over the leading axes."""
    x_bar = xs.mean(axis=-2)
    err = x_bar - x_star
    centered = xs - x_bar[..., None, :]
    probe = probe - x_star
    return (
        np.einsum("...p,...p->...", err, err) / denom,
        np.sqrt(np.einsum("...np,...np->...", centered, centered)),
        np.einsum("...p,...p->...", probe, probe) / denom,
        x_bar,
    )


def _metrics(
    stage: int,
    first_round: int,
    errors: Sequence[np.ndarray],
    mean_drift: np.ndarray | None = None,
    contraction_ratio: np.ndarray | None = None,
) -> RunMetrics:
    """Metrics of rounds first_round, first_round + 1, ... from their
    ``_errors``; the agreement-only series are NaN when not given."""
    normalized, consensus, probe, x_bar = errors
    rounds = normalized.shape[0]
    unset = np.full(rounds, math.nan)
    return RunMetrics(
        stage=np.full(rounds, stage),
        t=np.arange(first_round, first_round + rounds),
        normalized_error=normalized,
        consensus_dev=consensus,
        probe_error=probe,
        mean_iterate=x_bar,
        mean_drift=unset if mean_drift is None else mean_drift,
        contraction_ratio=unset if contraction_ratio is None else contraction_ratio,
    )


def batches(items: Sequence, config: RunConfig) -> Iterator[Sequence]:
    """``items`` in order as max(1, N // size) batches whose lengths differ by
    at most one, for size = ``_BLOCK_FLOATS`` // (n * p * ``_BLOCK_ROUNDS``)
    of ``config``: the most seeds whose blocks still hold that many rounds."""
    per_seed = config.n_nodes * config.domain.dimension * _BLOCK_ROUNDS
    count = max(1, len(items) // max(1, _BLOCK_FLOATS // per_seed))
    for i in range(count):
        yield items[len(items) * i // count:len(items) * (i + 1) // count]


def _project(points: np.ndarray, domain: BoxDomain, noise_seeds: Sequence[int]) -> np.ndarray:
    """``project_box`` over a batch ``(n, p, S)``; a non-finite coordinate
    names the noise seed(s) whose member diverged."""
    try:
        return project_box(points, domain)
    except ValueError as exc:
        diverged = np.flatnonzero(~np.isfinite(points).all(axis=(0, 1)))
        seeds = [noise_seeds[s] for s in diverged]
        raise ValueError(f"non-finite coordinates in the run of noise seed(s) {seeds}") from exc


def _shares_batch(config: RunConfig, first: RunConfig) -> bool:
    """Whether ``config`` may join a kernel batch led by ``first``: the
    domain, the step sizes and the first-broadcast rule must be shared.
    Noise scales, graphs and data may differ."""
    return (
        config.domain == first.domain
        and np.array_equal(config.schedule.step_sizes, first.schedule.step_sizes)
        and config.strict_first_broadcast == first.strict_first_broadcast
    )


def _scale_columns(configs: Sequence[RunConfig]) -> tuple[np.ndarray, slice | np.ndarray]:
    """Noise scales of x(0) .. x(T), shape ``(T+1, C)``, one column per
    distinct scale vector of ``configs`` (compared by value), and the index
    of each config's column: a slice over the one column when C = 1, so a
    single schedule broadcasts over the seeds as it is."""
    vectors: list[np.ndarray] = []
    column = np.empty(len(configs), dtype=np.intp)
    for s, config in enumerate(configs):
        scales = config.schedule.scales
        # Consecutive configs mostly share a schedule: look from the newest column back.
        column[s] = next(
            (c for c in reversed(range(len(vectors)))
             if vectors[c] is scales or np.array_equal(vectors[c], scales)),
            len(vectors),
        )
        if column[s] == len(vectors):
            vectors.append(scales)
    columns = np.empty((len(vectors[0]) + 1, len(vectors)))
    for c, scales in enumerate(vectors):
        columns[1:, c] = scales
    columns[0] = 0.0 if configs[0].strict_first_broadcast else columns[1]
    return columns, slice(None) if len(vectors) == 1 else column


def gradient_blocks(
    configs: Sequence[RunConfig], noise_seeds: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Rounds 1..T of the noisy gradient phase for a batch of S noise seeds,
    yielded as blocks ``(first, clipped, noise, z, x)`` of K consecutive
    rounds.

    ``configs`` is one config, whose graph and data every seed shares, or
    one config per seed; stacked configs must share the domain, the step
    sizes and the first-broadcast rule (``gradient_phases`` groups them so,
    and this kernel does not check it again), but each may have its own
    graph, data and noise scales, and the configs' own ``noise_seed`` is not
    read.  For round t = first + k of a block,
    ``z[k, ..., s]`` and ``x[k, ..., s]`` (shape ``(K, n, p, S)``,
    seed-minor) are seed s's projected consensus points and new iterate
    x(t), and ``noise[k, ..., s]`` is the noise attached to x(t), with seed
    s's scale M_t, which the round-(t+1) broadcast carries.  No gradient
    round sends x(T), so only the audit reads the last row.  The noise of
    x(0), which round 1 broadcasts, has scale M_1, or is exactly zero under
    ``strict_first_broadcast``, and is not yielded.  ``clipped[s]`` says
    whether the box projection binds for seed s anywhere in the block.
    The kernel holds one column of scales per distinct scale vector, not one
    per seed, and each block gathers its seeds' scales from them.

    K is at most ``_BLOCK_ROUNDS`` and the most rounds whose S * K * n * p
    floats fit ``_BLOCK_FLOATS`` (at least one); the last block may be
    shorter.  Each seed draws its noise from its own stream, round-major
    then node-major, a block at a time: the same numbers as one draw of
    (T+1) * n * p standard normals, so a seed draws alike in any batch and
    any block.  The next block overwrites the arrays of the last one.
    """
    if len(configs) not in (1, len(noise_seeds)):
        raise ValueError(f"{len(configs)} configs for {len(noise_seeds)} noise seeds")
    first_config = configs[0]
    domain, schedule = first_config.domain, first_config.schedule
    scales, column = _scale_columns(configs)
    horizon, n_seeds = first_config.horizon, len(noise_seeds)
    n, p = first_config.n_nodes, domain.dimension
    block = min(horizon, _BLOCK_ROUNDS, max(1, _BLOCK_FLOATS // (n_seeds * n * p)))
    # One config's graph mixes every seed with one product; per-seed graphs
    # mix a seed-major view with the stacked product.
    if len(configs) == 1:
        weights = first_config.graph.weights

        def mix(y: np.ndarray) -> np.ndarray:
            return (weights @ y.reshape(n, -1)).reshape(y.shape)
    else:
        stacked = np.array([c.graph.weights for c in configs])

        def mix(y: np.ndarray) -> np.ndarray:
            return (stacked @ y.transpose(2, 0, 1)).transpose(1, 2, 0)
    # Node counts (n, 1, C) and sums (n, p, C), for one config or one per seed.
    counts = np.array([[d.n_points for d in c.datasets] for c in configs], dtype=float).T[:, None]
    sums = np.array([[d.points.sum(axis=0) for d in c.datasets] for c in configs])
    sums = sums.transpose(1, 2, 0)
    rngs = [derive_rng(seed) for seed in noise_seeds]
    # Row k + 1 of the noise buffer belongs to the block's new iterate k;
    # row 0 to the iterate its first round broadcasts: x(0) in the first
    # block, drawn with it, and the last block's last iterate afterwards.
    # Each seed draws into its own row of ``draws``.
    draws = np.empty((n_seeds, block + 1, n, p))
    noise = np.empty((block + 1, n, p, n_seeds))
    z, x = np.empty((2, block, n, p, n_seeds))
    start = np.zeros((n, p, n_seeds))  # the iterate the block starts from
    reruns, clipped_seeds = 0, np.zeros(n_seeds, dtype=bool)
    for first in range(1, horizon + 1, block):
        rounds = min(block, horizon + 1 - first)
        drawn = 0 if first == 1 else 1
        for rng, seed_draws in zip(rngs, draws):
            rng.standard_normal(out=seed_draws[drawn:rounds + 1])
        np.multiply(
            draws[:, drawn:rounds + 1].transpose(1, 2, 3, 0),
            scales[first - 1 + drawn:first + rounds, None, None, column],
            out=noise[drawn:rounds + 1],
        )
        # Step the block without projection, and check it once: while no
        # seed leaves the box the projection is the identity.  Otherwise
        # rerun the block from its start, projecting every round.  Seeds do
        # not mix, so a seed leaves the box iff the projection binds for it.
        # An unprojected step may overflow where a projected one would not;
        # a non-finite point of the projected rerun still raises.
        for project in (False, True):
            previous = start
            with np.errstate(over="ignore", invalid="ignore"):
                for k, step in enumerate(schedule.step_sizes[first - 1:first - 1 + rounds]):
                    z[k] = mix(previous + noise[k])
                    if project:
                        z[k] = _project(z[k], domain, noise_seeds)
                    x[k] = z[k] - float(step) * (counts * z[k] - sums)
                    if project:
                        x[k] = _project(x[k], domain, noise_seeds)
                    previous = x[k]
            if not project:
                inside = [
                    (np.abs(a[:rounds]) <= domain.half_width).all(axis=(0, 1, 2)) for a in (z, x)
                ]
                clipped = ~(inside[0] & inside[1])
                if not clipped.any():
                    break
                reruns += 1
        clipped_seeds |= clipped
        yield first, clipped, noise[1:rounds + 1], z[:rounds], x[:rounds]
        start[...] = x[rounds - 1]
        noise[0] = noise[rounds]
    _log.debug(
        "gradient batch: %d seeds, %d blocks, %d rerun with projection, %d seeds clipped",
        n_seeds, math.ceil(horizon / block), reruns, np.count_nonzero(clipped_seeds),
    )


def gradient_phases(configs: Sequence[RunConfig]) -> np.ndarray:
    """End iterates x(T), stacked ``(N, n, p)`` in input order, of the
    gradient phases of ``configs``, each under its own noise seed.

    Consecutive configs that share the domain, the step sizes and the
    first-broadcast rule form one group; a group of G configs runs in
    max(1, G // size) batches of near-equal length (``batches``), of which
    only the last iterates are kept.
    """
    groups: list[list[RunConfig]] = []
    for config in configs:
        if groups and _shares_batch(config, groups[-1][0]):
            groups[-1].append(config)
        else:
            groups.append([config])
    ends = []
    for group in groups:
        for batch in batches(group, group[0]):
            for *_, x in gradient_blocks(batch, [c.noise_seed for c in batch]):
                pass
            ends.append(x[-1].transpose(2, 0, 1).copy())
    return np.concatenate(ends) if ends else np.empty((0, 0, 0))


def run_gradient_phase(config: RunConfig) -> tuple[np.ndarray, RunMetrics]:
    """Execute rounds 1..T of the noisy gradient phase; returns the end
    iterates x(T), shape ``(n, p)``, and the metrics of rounds 1..T.

    Deterministic given ``config.noise_seed``; each block of the kernel's
    rounds is reduced to its per-round metrics as it arrives.
    """
    horizon, probe = config.horizon, config.probe_node
    reference = _reference(config)
    errors = (*np.empty((3, horizon)), np.empty((horizon, config.domain.dimension)))
    for first, *_, x in gradient_blocks([config], [config.noise_seed]):
        x, rounds = x[..., 0], slice(first - 1, first - 1 + len(x))
        for out, values in zip(errors, _errors(x, x[:, probe], *reference)):
            out[rounds] = values
    return x[-1].copy(), _metrics(1, 1, errors)


def _agreement_batch(
    states: np.ndarray, configs: Sequence[RunConfig], rows: list[np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Agreement phases of a stack of S states ``(S, n, p)``, seed s under
    ``configs[s]``'s mixing weights, ``stage2_rel_tol`` and
    ``agreement_round_cap()``; returns each seed's round count and final
    iterates.

    Each round steps the seeds still active with one stacked product.  A
    seed stops after the round where max_i ||x_i(t) - x_i(t-1)|| /
    max(||x_i(t-1)||, 1e-12) drops below its tolerance, or at its cap, and
    leaves the stack.  No per-round rows are kept unless ``rows`` is given:
    each round's iterates of the seeds still active are then appended to
    it, which is the trajectory of a one-seed call.
    """
    caps = np.array([c.agreement_round_cap() for c in configs])
    rounds, final = np.zeros_like(caps), np.empty_like(states)
    # The seeds still active, with their iterates, weights, tolerances and caps.
    active, x, t = np.arange(len(configs)), states, 0
    weights = np.array([c.graph.weights for c in configs])
    tol, cap = np.array([c.stage2_rel_tol for c in configs]), caps
    while active.size:
        x_next = weights @ x
        node_changes = np.linalg.norm(x_next - x, axis=2)
        node_norms = np.maximum(np.linalg.norm(x, axis=2), _REL_CHANGE_FLOOR)
        x, t = x_next, t + 1
        if rows is not None:
            rows.append(x)
        done = (np.max(node_changes / node_norms, axis=1) < tol) | (t >= cap)
        if done.any():
            final[active[done]] = x[done]
            rounds[active[done]] = t
            keep = ~done
            active, x, weights, tol, cap = (a[keep] for a in (active, x, weights, tol, cap))
    _log.debug(
        "agreement batch: %d seeds, %d rounds at most, %d at their round cap",
        len(configs), rounds.max(initial=0), np.count_nonzero(rounds >= caps),
    )
    return rounds, final


def run_outcomes(configs: Sequence[RunConfig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both phases of each config under its own noise seed, reduced to its
    end-of-gradient-phase normalized and probe errors and its agreement round
    count, each of shape ``(N,)`` in input order: the end iterates of
    ``gradient_phases`` start the agreement phases, run as one stack."""
    ends = gradient_phases(configs)
    # Per config, as a single run divides: a vectorised dot product moves the
    # last ulp of some errors.
    x_star, denom = map(np.array, zip(*map(_reference, configs)))
    probes = ends[np.arange(len(configs)), [c.probe_node for c in configs]]
    normalized, _, probe, _ = _errors(ends, probes, x_star, denom)
    rounds, _ = _agreement_batch(ends, configs)
    return normalized, probe, rounds


def _agreement_phase(x: np.ndarray, config: RunConfig) -> tuple[np.ndarray, RunMetrics]:
    """Exact-broadcast consensus rounds T+1, T+2, ... from the gradient
    phase's end iterates ``x``; returns the final iterates and the rounds'
    metrics.

    No projection is applied (averages of box points stay in the box).
    Stops when max_i ||x_i(t) - x_i(t-1)|| / max(||x_i(t-1)||, 1e-12) drops
    below ``stage2_rel_tol``, or after the round cap.  This is the one-seed
    call of the loop that sweeps run a stack of seeds through.
    """
    rows: list[np.ndarray] = []
    (rounds,), (final,) = _agreement_batch(x[None], [config], rows)
    xs = np.concatenate(rows)
    errors = _errors(xs, xs[:, config.probe_node], *_reference(config))
    _, dev, _, x_bar = errors
    geometric = config.graph.beta ** np.arange(1, rounds + 1) * float(np.linalg.norm(x))
    ratio = np.divide(
        dev, geometric, out=np.where(dev == 0.0, 0.0, math.inf), where=geometric > 0.0
    )
    drift = np.max(np.abs(x_bar - x.mean(axis=0)), axis=1)
    return final, _metrics(2, config.horizon + 1, errors, drift, ratio)


def run(config: RunConfig) -> RunMetrics:
    """Both phases back to back; metrics concatenated with the stage marker."""
    x, gradient_metrics = run_gradient_phase(config)
    _, agreement_metrics = _agreement_phase(x, config)
    return RunMetrics.concat(gradient_metrics, agreement_metrics)
