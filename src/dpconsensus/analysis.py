"""Closed-form error bounds for the calibrated schedule, and comparisons
against simulated runs.

For the schedule of :func:`dpconsensus.privacy.calibrate_noise_schedule`
the expected squared distance of the mean iterate from the optimum after T
gradient rounds is bounded by

    C_init / T + C_grad * log(T) / T + C_trans / T^(1/4) + C_floor,

with constants assembled from the objective's regularity constants, the
mixing rate, and the privacy budget; C_floor is the non-vanishing privacy
floor.  During the agreement phase the per-node error additionally carries
a geometrically decaying term 2 * C_exp * beta^(2(t - T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import ObjectiveSpec
from .privacy import PrivacyBudget, noise_budget

__all__ = [
    "BoundInputs",
    "BoundReport",
    "ComparisonReport",
    "consensus_phase_bound",
    "empirical_vs_bound",
    "mean_error_bound",
]


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything the closed-form bounds depend on.

    Iterates start at the origin, so each node's initial squared distance
    ||x_i(0) - x*||^2 is ||x*||^2.  ``noise_grad_bound`` is the gradient
    bound the noise schedule was calibrated with: ``spec.grad_bound`` for
    the generic calibration, and smaller when the schedule uses an
    instance-specific sensitivity (mean estimation calibrates with the cube
    half-diameter R*sqrt(p) while the Lipschitz constant of the local
    objectives is n_i times larger).
    ``budget=None`` drops the privacy-noise terms (noise-free runs).
    ``==`` is identity, since ``x_star`` is an array.
    """

    spec: ObjectiveSpec
    beta: float
    budget: PrivacyBudget | None
    horizon: int
    x_star: np.ndarray = field(repr=False)
    noise_grad_bound: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound: the four constants, their rate terms, and the total."""

    constants: dict[str, float]
    terms: dict[str, float]
    total: float

    def mutated(self, constant: str, factor: float) -> "BoundReport":
        """Same bound with one constant scaled; for non-vacuity checks."""
        constants = dict(self.constants)
        terms = dict(self.terms)
        constants[constant] *= factor
        terms[constant] *= factor
        return BoundReport(constants=constants, terms=terms, total=sum(terms.values()))


def _constants(inputs: BoundInputs) -> dict[str, float]:
    spec = inputs.spec
    coeff_sq = spec.step_coefficient**2
    mixing = 1.0 / (1.0 - inputs.beta)
    constants = {
        "init": float(inputs.x_star @ inputs.x_star),
        "grad": spec.grad_bound**2 * (1.0 + mixing) * coeff_sq,
    }
    if inputs.budget is None:
        constants["trans"] = 0.0
        constants["floor"] = 0.0
    else:
        kappa = noise_budget(inputs.budget, inputs.noise_grad_bound)
        constants["trans"] = (
            2.0
            * math.sqrt(2.0 * spec.dimension)
            * spec.grad_bound
            / math.sqrt(kappa)
            * (4.0 + 3.0 * mixing)
            * coeff_sq
        )
        constants["floor"] = 2.0 * spec.dimension / kappa * coeff_sq
    return constants


def mean_error_bound(inputs: BoundInputs) -> BoundReport:
    """Bound on E||x_bar(T) - x*||^2 at the end of the gradient phase."""
    constants = _constants(inputs)
    t = float(inputs.horizon)
    terms = {
        "init": constants["init"] / t,
        "grad": constants["grad"] * math.log(t) / t if t > 1 else 0.0,
        "trans": constants["trans"] / t**0.25,
        "floor": constants["floor"],
    }
    return BoundReport(constants=constants, terms=terms, total=sum(terms.values()))


def consensus_phase_bound(inputs: BoundInputs, t: int, x_t_norm_sq: float) -> float:
    """Per-node bound 2*C_exp*beta^(2(t-T)) + 2*(gradient-phase bound) for t > T.

    ``x_t_norm_sq`` is the squared Frobenius norm of the stacked iterates at
    the end of the gradient phase; C_exp = 2 * x_t_norm_sq.
    """
    if t <= inputs.horizon:
        raise ValueError(f"consensus-phase bound needs t > horizon, got t={t}")
    c_exp = 2.0 * x_t_norm_sq
    decay = inputs.beta ** (2 * (t - inputs.horizon))
    return 2.0 * c_exp * decay + 2.0 * mean_error_bound(inputs).total


@dataclass(frozen=True)
class ComparisonReport:
    empirical_mean: float
    bound_total: float
    n_runs: int
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound_total - self.empirical_mean

    def to_dict(self) -> dict:
        return {
            "empirical_mean": self.empirical_mean,
            "bound_total": self.bound_total,
            "margin": self.margin,
            "n_runs": self.n_runs,
            "pass": self.passed,
        }


def empirical_vs_bound(
    ends: np.ndarray, inputs: BoundInputs, bound: BoundReport
) -> ComparisonReport:
    """Compare the seed-average of ||x_bar(T) - x*||^2 against ``bound``
    (the bound of ``inputs``, or a mutated one), for the gradient-phase end
    iterates ``ends[run, node]`` of independent-seed runs.

    The bound holds in expectation; any number of runs from one up is
    averaged, and none at all is an error.
    """
    if len(ends) == 0:
        raise ValueError("need at least one run, got none")
    errors = [float(np.sum((x.mean(axis=0) - inputs.x_star) ** 2)) for x in ends]
    empirical = float(np.mean(errors))
    return ComparisonReport(
        empirical_mean=empirical,
        bound_total=bound.total,
        n_runs=len(ends),
        passed=empirical <= bound.total,
    )
