"""Empirical audit of the privacy-loss random variable.

The privacy loss of a transcript of noisy broadcasts decomposes, once both
runs are conditioned on the same observed messages, into a deterministic
quadratic part and a zero-mean noise part:

    loss = sum_t ||g(t)||^2 / (2 M_t^2)  +  sum_t <n_k(t), g(t)> / M_t^2,

where g(t) = x_k(t) - x'_k(t) is the gap between the edited node's iterate
and its counterfactual under the single-point edit, and n_k(t) is the noise
realization attached to x_k(t).  Under that coupling (identical noise,
shared broadcasts: the counterfactual run consumes the factual run's
messages when averaging) only node k's local step differs.  One function,
:func:`coupled_runs`, runs these pairs: it takes the factual runs from the
engine for a batch of noise seeds at once, one block of rounds at a time,
whose noise rows are already paired with the iterates they protect (x(T)'s
row included).  For each block it computes node k's counterfactual steps
for all its rounds and seeds at once from the consensus points, and the
per-round terms and gap norms on the resulting gaps;
:func:`collect_samples` draws the audit's samples through it.

The deterministic part never exceeds half the configured sensitivity spend,
the noise part has zero mean, and the total exceeds epsilon in magnitude
with probability at most delta; :func:`tail_audit` checks the last claim on
a Monte Carlo sample with a binomial confidence slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .engine import RunConfig, batches, gradient_blocks
from .objectives import LocalDataset, project_box
from .privacy import PrivacyBudget
from .rng import derive_states

__all__ = [
    "AuditReport",
    "NeighborEdit",
    "collect_samples",
    "coupled_runs",
    "plant_point",
    "require_tail_samples",
    "tail_audit",
    "worst_case_edit",
]

# Stream label separating audit sample streams from everything else.
_AUDIT_STREAM = 0xA0D17

_MIN_TAIL_SAMPLES = 1000


@dataclass(frozen=True, eq=False)
class NeighborEdit:
    """Single-point dataset edit: replace one point of one node; ``==`` is
    identity, since the replacement is an array."""

    node_id: int
    point_index: int
    replacement: np.ndarray

    def apply(self, datasets: tuple[LocalDataset, ...]) -> tuple[LocalDataset, ...]:
        edited = list(datasets)
        edited[self.node_id] = datasets[self.node_id].replace_point(
            self.point_index, self.replacement
        )
        return tuple(edited)


@dataclass(frozen=True)
class AuditReport:
    n_samples: int
    exceed_rate: float
    bound: float
    passed: bool


def _validate_edit(config: RunConfig, edit: NeighborEdit) -> np.ndarray:
    if not 0 <= edit.node_id < config.n_nodes:
        raise ValueError(f"edit node_id {edit.node_id} out of range")
    data = config.datasets[edit.node_id]
    if not 0 <= edit.point_index < data.n_points:
        raise ValueError(f"edit point_index {edit.point_index} out of range")
    replacement = np.asarray(edit.replacement, dtype=float)
    if replacement.shape != (config.domain.dimension,):
        raise ValueError("edit must touch exactly one point of matching dimension")
    if not config.domain.contains(replacement):
        raise ValueError("replacement point leaves the domain box")
    return replacement


def _gradient_shift(config: RunConfig, edit: NeighborEdit) -> np.ndarray:
    """grad'_k(z) - grad_k(z) = old - new, the only difference between the
    coupled runs; validates the edit and the noise scales."""
    replacement = _validate_edit(config, edit)
    if np.any(config.schedule.scales <= 0.0):
        raise ValueError("privacy-loss audit needs strictly positive noise scales")
    return config.datasets[edit.node_id].points[edit.point_index] - replacement


def coupled_runs(
    config: RunConfig, edit: NeighborEdit, noise_seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Privacy loss of one coupled pair of runs per noise seed under a
    single-point edit, all seeds in one kernel batch whose blocks are
    reduced as they arrive.

    Returns the deterministic parts and the noise parts, shape ``(S,)``,
    whose sum is each pair's loss, and the per-round iterate gap norms
    ||x_k(t) - x'_k(t)||, shape ``(S, T)``.  Both runs of a pair share one
    noise realization and one message transcript (the counterfactual run
    consumes the factual run's broadcasts when forming its consensus
    points), so the loss reduces to the edited node's iterate gaps against
    the noise attached to them.  The transcript covers all T iterates: the
    final iterate's broadcast noise (scale M_T) is drawn even though the
    agreement phase that follows would send it exactly.
    """
    grad_shift = _gradient_shift(config, edit)
    node, schedule = edit.node_id, config.schedule
    data = config.datasets[node]
    count, total = float(data.n_points), data.total

    gap_sq, inner = np.empty((2, len(noise_seeds), config.horizon))
    for first, _, noise, z, x in gradient_blocks([config], noise_seeds):
        rounds = slice(first - 1, first - 1 + len(x))
        # Node k's rows of the block, as seed-major copies (S, K, p).
        noise_k, z_k, x_k = (np.moveaxis(a[:, node], -1, 0).copy() for a in (noise, z, x))
        # Counterfactual iterates of the edited node from the same consensus
        # points (both runs see identical broadcasts by the coupling); x(0) =
        # 0 in both runs, so round t's gap is x_k(t) - x'_k(t).
        steps = schedule.step_sizes[rounds, None]
        x_alt = project_box(z_k - steps * (count * z_k - total + grad_shift), config.domain)
        gaps = x_k - x_alt
        gap_sq[:, rounds] = np.einsum("stp,stp->st", gaps, gaps)
        inner[:, rounds] = np.einsum("stp,stp->st", noise_k, gaps)

    # Summed once over whole rows: adding up block sums instead would change
    # the order of the sums and move their last ulp.
    variances = schedule.scales**2
    deterministic = np.sum(gap_sq / (2.0 * variances), axis=1)
    noise_term = np.sum(inner / variances, axis=1)
    return deterministic, noise_term, np.sqrt(gap_sq)


def collect_samples(
    config: RunConfig, edit: NeighborEdit, n_samples: int, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independent coupled-run samples, one isolated noise stream each.

    Returns the deterministic parts and the noise parts as two arrays of
    length ``n_samples``; their sum is the privacy loss of each sample.
    Samples run in max(1, n_samples // size) kernel batches of near-equal
    length (``engine.batches``); sample i draws the same stream whatever
    its batch or ``n_samples``: its noise seed is ``derive_seed(master_seed,
    _AUDIT_STREAM, i)``, derived for all samples in one bulk call.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seeds = derive_states(master_seed, (_AUDIT_STREAM,), range(n_samples), n_words=1)
    seeds = seeds[:, 0].tolist()
    parts = [coupled_runs(config, edit, batch)[:2] for batch in batches(seeds, config)]
    deterministic, noise = (np.concatenate(part) for part in zip(*parts))
    return deterministic, noise


def require_tail_samples(n: int) -> None:
    """Reject a tail audit of fewer samples than can resolve its bound."""
    if n < _MIN_TAIL_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_TAIL_SAMPLES} samples for a meaningful tail audit, got {n}"
        )


def tail_audit(totals: np.ndarray, budget: PrivacyBudget) -> AuditReport:
    """Check that |loss| >= epsilon is as rare as the budget promises.

    ``totals`` holds one privacy-loss value per sample.  ``exceed_rate`` is
    the fraction of samples with |total| >= epsilon.  The pass bound is
    delta plus a two-sigma binomial slack 2 * sqrt(delta (1 - delta) / n):
    at delta = 1e-3 and 1e4 samples the target sits at the Monte Carlo
    resolution limit, so a hard <= delta cut would flake on sampling noise
    alone.
    """
    n = totals.size
    require_tail_samples(n)
    exceed_rate = float(np.mean(np.abs(totals) >= budget.epsilon))
    slack = 2.0 * math.sqrt(budget.delta * (1.0 - budget.delta) / n)
    bound = budget.delta + slack
    return AuditReport(
        n_samples=n, exceed_rate=exceed_rate, bound=bound, passed=exceed_rate <= bound
    )


def worst_case_edit(config: RunConfig, node_id: int = 0, point_index: int = 0) -> NeighborEdit:
    """Edit moving the chosen point to the corner opposite its sign pattern.

    Paired with :func:`plant_point` (which pins the original point to a
    corner) this realizes the cube-diameter gap the sensitivity bound is
    built from.
    """
    original = config.datasets[node_id].points[point_index]
    r = config.domain.half_width
    replacement = np.where(original >= 0.0, -r, r).astype(float)
    return NeighborEdit(node_id=node_id, point_index=point_index, replacement=replacement)


def plant_point(config: RunConfig, node_id: int = 0, point_index: int = 0) -> RunConfig:
    """Pin one dataset point to the all-negative cube corner (worst-case
    audit instance)."""
    corner = np.full(config.domain.dimension, -config.domain.half_width)
    edit = NeighborEdit(node_id, point_index, corner)
    _validate_edit(config, edit)
    return replace(config, datasets=edit.apply(config.datasets))
