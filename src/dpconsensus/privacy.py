"""Privacy budgets, per-round sensitivities and Gaussian noise schedules.

The accounting is direct: a run of T noisy broadcasts satisfies
(epsilon, delta)-differential privacy when

    sum_t  Delta(t)^2 / M_t^2  <=  epsilon^2 / (epsilon + 2 log(2/delta)),

where Delta(t) bounds how far round t's iterate can move under a
single-point change of one node's data and M_t is the noise scale attached
to that iterate.  No composition theorem is involved; the right-hand side
is a single aggregate allowance that the schedule spends across rounds.

The spend alpha also fixes the exact privacy curve: Gaussian mechanisms
composed at these sensitivities and scales are sqrt(alpha)-Gaussian DP,
with privacy loss N(alpha/2, alpha) at a worst-case edit, and
:func:`exact_delta` gives their exact delta at any epsilon, an oracle
independent of the allowance rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import ObjectiveSpec

__all__ = [
    "BudgetReport",
    "NoiseSchedule",
    "PrivacyBudget",
    "budget_check",
    "calibrate_noise_schedule",
    "exact_delta",
    "lipschitz_step_sensitivity",
    "noise_budget",
    "noiseless_schedule",
    "privacy_allowance",
]

# The Mills ratio is computed from erfc below this argument and from 60
# terms of Laplace's continued fraction above it, where they reach double
# precision; erfc's path loses about u^2/2 ulps to its exp(u^2/2) factor.
_MILLS_CUTOFF = 3.0
_MILLS_TERMS = 60

# Relative slack absorbing floating-point summation order in allowance
# comparisons.
_BUDGET_SLACK = 1e-12


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) pair."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def privacy_allowance(budget: PrivacyBudget) -> float:
    """Aggregate allowance on sum_t Delta(t)^2 / M_t^2; raises ``ValueError``
    where epsilon^2 overflows."""
    try:
        return budget.epsilon**2 / (budget.epsilon + 2.0 * math.log(2.0 / budget.delta))
    except OverflowError:
        raise ValueError(f"the privacy allowance overflows at {budget}") from None


def _at(budget: PrivacyBudget, grad_bound: float) -> str:
    return (
        f"at epsilon={budget.epsilon!r}, delta={budget.delta!r} and gradient bound {grad_bound!r}"
    )


def noise_budget(budget: PrivacyBudget, grad_bound: float) -> float:
    """Budget constant for the step-normalized spend sum_t eta_t^2 / M_t^2.

    Equals epsilon^2 / (4 G^2 (epsilon + 2 log(2/delta))): the allowance
    divided by the squared worst-case per-step sensitivity factor 2G.
    Increasing in epsilon and delta, decreasing in the gradient bound.
    Raises ``ValueError`` where it overflows or underflows to zero.
    """
    if not (math.isfinite(grad_bound) and grad_bound > 0.0):
        raise ValueError(f"grad_bound must be finite and positive, got {grad_bound}")
    try:
        kappa = privacy_allowance(budget) / (4.0 * grad_bound**2)
    except (ArithmeticError, ValueError):  # the allowance or G^2 overflows, or G^2 underflows
        kappa = math.nan
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ValueError(f"the noise budget leaves the float range {_at(budget, grad_bound)}")
    return kappa


def lipschitz_step_sensitivity(
    step_size: float | np.ndarray, grad_bound: float
) -> float | np.ndarray:
    """Bound 2 * eta * G on one round's iterate gap between neighboring runs.

    Conditioned on identical incoming messages, neighboring runs differ only
    through one node's gradient, and the projection is nonexpansive, so the
    gap is at most the step size times twice the gradient bound.  An array
    of step sizes gives the bound of each round.
    """
    if np.any(np.asarray(step_size) < 0.0) or grad_bound < 0.0:
        raise ValueError("step_size and grad_bound must be nonnegative")
    return 2.0 * step_size * grad_bound


def _density(u: float) -> float:
    """Standard normal density at ``u``."""
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _mills_ratio(u: float) -> float:
    """Phi(-u) / phi(u) for u >= 0, without underflow at large u."""
    if u < _MILLS_CUTOFF:
        return 0.5 * math.erfc(u / math.sqrt(2.0)) / _density(u)
    fraction = u  # 1 / (u + 1 / (u + 2 / (u + ...))), summed from the tail
    for k in range(_MILLS_TERMS, 0, -1):
        fraction = u + k / fraction
    return 1.0 / fraction


def exact_delta(alpha: float, epsilon: float) -> float:
    """Exact delta at ``epsilon`` of a mechanism whose privacy loss is
    N(alpha/2, alpha), i.e. mu-Gaussian DP with mu = sqrt(alpha):

        delta = Phi(-epsilon/mu + mu/2) - e^epsilon Phi(-epsilon/mu - mu/2).

    With u = epsilon/mu -/+ mu/2 the second term is phi(u_-) R(u_+) for the
    Mills ratio R(u) = Phi(-u) / phi(u), since e^epsilon phi(u_+) =
    phi(u_-); for u_- > 0 delta = phi(u_-) (R(u_-) - R(u_+)).  So neither
    e^epsilon nor a tail probability is formed on its own, and small deltas
    keep their relative precision until phi(u_-) underflows.
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if alpha == 0.0:
        return 0.0
    mu = math.sqrt(alpha)
    lower, upper = epsilon / mu - mu / 2.0, epsilon / mu + mu / 2.0
    density = _density(lower)
    if lower > 0.0:
        return density * (_mills_ratio(lower) - _mills_ratio(upper))
    return 0.5 * math.erfc(lower / math.sqrt(2.0)) - density * _mills_ratio(upper)


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-round step sizes, Gaussian noise scales and sensitivity bounds.

    ``scales[t-1]`` is the standard deviation of the noise attached to the
    round-t iterate; ``sensitivities[t-1]`` is the configured bound on that
    iterate's gap between neighboring runs.  The three arrays are nonempty
    vectors of one length, the horizon T.  ``==`` is identity.
    """

    step_sizes: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)
    sensitivities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = self.step_sizes.shape
        if len(shape) != 1 or shape[0] == 0:
            raise ValueError(f"step_sizes must be a nonempty vector, got shape {shape}")
        for name in ("step_sizes", "scales", "sensitivities"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, as step_sizes, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.step_sizes <= 0.0):
            raise ValueError("step sizes must be positive")
        if np.any(self.scales < 0.0):
            raise ValueError("noise scales must be nonnegative")
        if np.any(self.sensitivities < 0.0):
            raise ValueError("sensitivities must be nonnegative")

    @property
    def horizon(self) -> int:
        """Number of gradient rounds T."""
        return len(self.step_sizes)

    @property
    def spends(self) -> np.ndarray:
        """Per-round spend Delta_t^2 / M_t^2 of the configured bounds; zero
        noise spends infinity unless the sensitivity is zero too."""
        out = np.zeros(self.horizon)
        noisy = self.scales > 0.0
        out[noisy] = (self.sensitivities[noisy] / self.scales[noisy]) ** 2
        out[~noisy & (self.sensitivities > 0.0)] = np.inf
        return out

    @property
    def alpha(self) -> float:
        """Realized spend sum_t Delta(t)^2 / M_t^2 of the configured bounds."""
        return float(np.sum(self.spends))


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
    2 * eta_t * G for ``spec.grad_bound``; the result satisfies
    :func:`budget_check` (verified before returning).  Raises
    ``ValueError`` where a variance or the spend leaves the floating-point
    range.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    kappa = noise_budget(budget, spec.grad_bound)
    coeff = spec.step_coefficient
    t = np.arange(1, horizon + 1, dtype=float)
    step_sizes = coeff / t
    variances = (2.0 / kappa) * coeff**2 * math.sqrt(horizon) / t**1.5
    if not (np.isfinite(variances).all() and np.all(variances > 0.0)):
        raise ValueError(f"a noise variance leaves the float range {_at(budget, spec.grad_bound)}")
    schedule = NoiseSchedule(
        step_sizes=step_sizes,
        scales=np.sqrt(variances),
        sensitivities=lipschitz_step_sensitivity(step_sizes, spec.grad_bound),
    )
    report = budget_check(schedule, budget)
    if not report.passed:  # only where subnormal rounding breaks the closed form
        raise ValueError(
            f"rounding puts the spend {report.spent!r} over the allowance {report.allowance!r} "
            + _at(budget, spec.grad_bound)
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
        step_sizes=step_sizes,
        scales=np.zeros(horizon),
        sensitivities=lipschitz_step_sensitivity(step_sizes, spec.grad_bound),
    )


def budget_check(schedule: NoiseSchedule, budget: PrivacyBudget) -> BudgetReport:
    """Verify the schedule's spend sum_t Delta(t)^2 / M_t^2 (its ``alpha``)
    against the aggregate allowance.

    The comparison carries a 1e-12 relative slack to absorb floating-point
    summation order.
    """
    spent = schedule.alpha
    allowance = privacy_allowance(budget)
    return BudgetReport(
        passed=spent <= allowance * (1.0 + _BUDGET_SLACK),
        spent=spent,
        allowance=allowance,
    )
