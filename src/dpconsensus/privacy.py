"""Privacy budgets, per-round sensitivities and Gaussian noise schedules.

The accounting is direct: a run of T noisy broadcasts satisfies
(epsilon, delta)-differential privacy when

    sum_t  Delta(t)^2 / M_t^2  <=  epsilon^2 / (epsilon + 2 log(2/delta)),

where Delta(t) bounds how far round t's iterate can move under a
single-point change of one node's data and M_t is the noise scale attached
to that iterate.  No composition theorem is involved; the right-hand side
is a single aggregate allowance that the schedule spends across rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .objectives import ObjectiveSpec

__all__ = [
    "BudgetReport",
    "NoiseSchedule",
    "PrivacyBudget",
    "budget_check",
    "calibrate_noise_schedule",
    "lipschitz_step_sensitivity",
    "noise_budget",
    "noiseless_schedule",
    "privacy_allowance",
]

# Relative slack absorbing floating-point summation order in allowance
# comparisons.
_BUDGET_SLACK = 1e-12


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) pair."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def privacy_allowance(budget: PrivacyBudget) -> float:
    """Aggregate allowance on sum_t Delta(t)^2 / M_t^2."""
    return budget.epsilon**2 / (budget.epsilon + 2.0 * math.log(2.0 / budget.delta))


def noise_budget(budget: PrivacyBudget, grad_bound: float) -> float:
    """Budget constant for the step-normalized spend sum_t eta_t^2 / M_t^2.

    Equals epsilon^2 / (4 G^2 (epsilon + 2 log(2/delta))): the allowance
    divided by the squared worst-case per-step sensitivity factor 2G.
    Increasing in epsilon and delta, decreasing in the gradient bound.
    """
    if grad_bound <= 0.0:
        raise ValueError(f"grad_bound must be positive, got {grad_bound}")
    return privacy_allowance(budget) / (4.0 * grad_bound**2)


def lipschitz_step_sensitivity(step_size: float, grad_bound: float) -> float:
    """Bound 2 * eta * G on one round's iterate gap between neighboring runs.

    Conditioned on identical incoming messages, neighboring runs differ only
    through one node's gradient, and the projection is nonexpansive, so the
    gap is at most the step size times twice the gradient bound.
    """
    if step_size < 0.0 or grad_bound < 0.0:
        raise ValueError("step_size and grad_bound must be nonnegative")
    return 2.0 * step_size * grad_bound


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-round step sizes, Gaussian noise scales and sensitivity bounds.

    ``scales[t-1]`` is the standard deviation of the noise attached to the
    round-t iterate; ``sensitivities[t-1]`` is the configured bound on that
    iterate's gap between neighboring runs.
    """

    horizon: int
    step_sizes: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)
    sensitivities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        t = self.horizon
        if t < 1:
            raise ValueError(f"horizon must be >= 1, got {t}")
        for name in ("step_sizes", "scales", "sensitivities"):
            arr = getattr(self, name)
            if arr.shape != (t,):
                raise ValueError(f"{name} must have length {t}")
        if np.any(self.step_sizes <= 0.0):
            raise ValueError("step sizes must be positive")
        if np.any(self.scales < 0.0):
            raise ValueError("noise scales must be nonnegative")
        if np.any(self.sensitivities < 0.0):
            raise ValueError("sensitivities must be nonnegative")

    @property
    def alpha(self) -> float:
        """Realized spend sum_t Delta(t)^2 / M_t^2 of the configured bounds."""
        return float(np.sum(_spends(self.sensitivities, self.scales)))

    def rows(self) -> Iterator[tuple[int, float, float, float, float]]:
        """(t, step_size, scale, sensitivity, spend_t) per round, 1-based."""
        spends = _spends(self.sensitivities, self.scales)
        for t in range(self.horizon):
            yield (
                t + 1,
                float(self.step_sizes[t]),
                float(self.scales[t]),
                float(self.sensitivities[t]),
                float(spends[t]),
            )


def _spends(sensitivities: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Per-round spend Delta_t^2 / M_t^2; zero noise spends infinity unless
    the sensitivity is zero too."""
    out = np.zeros_like(sensitivities, dtype=float)
    noisy = scales > 0.0
    out[noisy] = (sensitivities[noisy] / scales[noisy]) ** 2
    out[~noisy & (sensitivities > 0.0)] = np.inf
    return out


@dataclass(frozen=True)
class BudgetReport:
    passed: bool
    spent: float
    allowance: float

    @property
    def utilization(self) -> float:
        return self.spent / self.allowance


def calibrate_noise_schedule(
    horizon: int, budget: PrivacyBudget, spec: ObjectiveSpec
) -> NoiseSchedule:
    """Closed-form schedule meeting the budget with decaying steps and noise.

    Steps decay as eta_t = ((mu + L) / (2 mu L)) / t.  Noise variances
    M_t^2 = (2 / k) * ((mu + L) / (2 mu L))^2 * sqrt(T) / t^1.5 with
    k = :func:`noise_budget`, the minimizer of the dominant noise term
    subject to the aggregate allowance.  Sensitivities are the generic
    2 * eta_t * G for ``spec.grad_bound``; the result always satisfies
    :func:`budget_check` (verified before returning).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    kappa = noise_budget(budget, spec.grad_bound)
    coeff = spec.step_coefficient
    t = np.arange(1, horizon + 1, dtype=float)
    step_sizes = coeff / t
    variances = (2.0 / kappa) * coeff**2 * math.sqrt(horizon) / t**1.5
    sensitivities = np.array(
        [lipschitz_step_sensitivity(eta, spec.grad_bound) for eta in step_sizes]
    )
    schedule = NoiseSchedule(
        horizon=horizon,
        step_sizes=step_sizes,
        scales=np.sqrt(variances),
        sensitivities=sensitivities,
    )
    report = budget_check(schedule, sensitivities, budget)
    if not report.passed:  # impossible by construction
        raise AssertionError(
            f"calibrated schedule violates its own budget: {report}"
        )
    return schedule


def noiseless_schedule(horizon: int, spec: ObjectiveSpec) -> NoiseSchedule:
    """Zero-noise schedule with the same decaying steps: the non-private
    baseline for convergence oracles.  Carries no privacy guarantee."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    t = np.arange(1, horizon + 1, dtype=float)
    step_sizes = spec.step_coefficient / t
    return NoiseSchedule(
        horizon=horizon,
        step_sizes=step_sizes,
        scales=np.zeros(horizon),
        sensitivities=np.array(
            [lipschitz_step_sensitivity(eta, spec.grad_bound) for eta in step_sizes]
        ),
    )


def budget_check(
    schedule: NoiseSchedule,
    sensitivities: Sequence[float] | np.ndarray | None,
    budget: PrivacyBudget,
) -> BudgetReport:
    """Verify sum_t Delta(t)^2 / M_t^2 against the aggregate allowance.

    Passing ``None`` for ``sensitivities`` uses the schedule's configured
    bounds.  The comparison carries a 1e-12 relative slack to absorb
    floating-point summation order.
    """
    deltas = (
        schedule.sensitivities
        if sensitivities is None
        else np.asarray(sensitivities, dtype=float)
    )
    if deltas.shape != (schedule.horizon,):
        raise ValueError(
            f"need one sensitivity per round, got {deltas.shape} for horizon {schedule.horizon}"
        )
    spent = float(np.sum(_spends(deltas, schedule.scales)))
    allowance = privacy_allowance(budget)
    return BudgetReport(
        passed=spent <= allowance * (1.0 + _BUDGET_SLACK),
        spent=spent,
        allowance=allowance,
    )
