"""Budget arithmetic, sensitivities and the calibrated noise schedule."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus.cli import main
from dpconsensus.experiments import ExperimentConfig, build_run_config, single_run_seeds
from dpconsensus.objectives import ObjectiveSpec
from dpconsensus.privacy import (
    NoiseSchedule,
    PrivacyBudget,
    budget_check,
    calibrate_noise_schedule,
    exact_delta,
    lipschitz_step_sensitivity,
    noise_budget,
    noiseless_schedule,
    privacy_allowance,
)

UNIT_SPEC = ObjectiveSpec(grad_bound=1.0, smoothness=1.0, strong_convexity=1.0, dimension=1)
BUDGET_4 = PrivacyBudget(epsilon=4.0, delta=1e-3)


def test_noise_budget_spot_value():
    # 16 / (4 * (4 + 2 ln 2000)) with ln 2000 = 7.6009.
    assert noise_budget(BUDGET_4, 1.0) == pytest.approx(0.20831, abs=1e-4)


def test_noise_budget_monotone_in_epsilon():
    values = [noise_budget(PrivacyBudget(e, 1e-3), 1.0) for e in (0.5, 1, 2, 4, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_noise_budget_quarters_when_grad_bound_doubles():
    assert noise_budget(BUDGET_4, 2.0) == noise_budget(BUDGET_4, 1.0) / 4.0


def test_noise_budget_monotone_grid():
    # Nondecreasing in epsilon and delta, decreasing in the gradient bound.
    epsilons = (0.5, 1.0, 2.0, 4.0, 8.0)
    deltas = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
    bounds = (0.5, 1.0, 2.0)
    for d in deltas:
        for g in bounds:
            vals = [noise_budget(PrivacyBudget(e, d), g) for e in epsilons]
            assert all(a < b for a, b in zip(vals, vals[1:]))
    for e in epsilons:
        for g in bounds:
            vals = [noise_budget(PrivacyBudget(e, d), g) for d in deltas]
            assert all(a < b for a, b in zip(vals, vals[1:]))
    for e in epsilons:
        for d in deltas:
            vals = [noise_budget(PrivacyBudget(e, d), g) for g in bounds]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_allowance_formulas():
    assert privacy_allowance(BUDGET_4) == pytest.approx(
        16.0 / (4.0 + 2.0 * math.log(2000.0)), rel=1e-12
    )


def test_an_allowance_out_of_float_range_fails_by_name():
    """epsilon^2 overflows above about 1.3e154; called directly, both the
    allowance and the budget check name epsilon and delta."""
    schedule = calibrate_noise_schedule(10, BUDGET_4, UNIT_SPEC)
    named = re.escape("at PrivacyBudget(epsilon=1e+300, delta=0.001)")
    for check in (privacy_allowance, lambda budget: budget_check(schedule, budget)):
        with pytest.raises(ValueError, match=f"^the privacy allowance overflows {named}$"):
            check(PrivacyBudget(epsilon=1e300, delta=1e-3))


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=0.0, delta=1e-3)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=1.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_budget_rejects_a_non_finite_epsilon_by_name(epsilon):
    with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {epsilon}"):
        PrivacyBudget(epsilon=epsilon, delta=1e-3)


@pytest.mark.parametrize("grad_bound", [math.nan, math.inf])
def test_noise_budget_rejects_a_non_finite_grad_bound_by_name(grad_bound):
    with pytest.raises(ValueError, match=f"grad_bound must be finite and positive, got {grad_bound}"):
        noise_budget(BUDGET_4, grad_bound)


# (epsilon, delta, G, the quantity that leaves the float range): epsilon^2
# or G^2 under- or overflowing, 2/delta overflowing, and a noise budget
# whose variances, or whose subnormal G^2, round out of range.
OUT_OF_FLOAT_RANGE = [
    (1e-300, 1e-3, 1.0, "the noise budget"),
    (1e300, 1e-3, 1.0, "the noise budget"),
    (4.0, 1e-320, 1.0, "the noise budget"),
    (4.0, 1e-3, 1e-300, "the noise budget"),
    (4.0, 1e-3, 1e300, "the noise budget"),
    (1e10, 1e-3, 1e-150, "the noise budget"),
    (1e-159, 1e-3, 1.0, "a noise variance"),
    (1e-9, 1e-3, 4e-162, "rounding puts the spend"),
]


@pytest.mark.parametrize("epsilon, delta, grad_bound, quantity", OUT_OF_FLOAT_RANGE)
def test_calibration_out_of_float_range_fails_by_name(epsilon, delta, grad_bound, quantity):
    spec = ObjectiveSpec(grad_bound=grad_bound, smoothness=100.0, strong_convexity=100.0,
                         dimension=4)
    named = f"at epsilon={epsilon!r}, delta={delta!r} and gradient bound {grad_bound!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(quantity)}.* {re.escape(named)}$"):
        calibrate_noise_schedule(1000, PrivacyBudget(epsilon, delta), spec)


def test_generic_sensitivity():
    assert lipschitz_step_sensitivity(0.5, 1.0) == 1.0
    assert lipschitz_step_sensitivity(0.0, 5.0) == 0.0
    steps = np.array([0.5, 0.25, 0.0])
    np.testing.assert_array_equal(
        lipschitz_step_sensitivity(steps, 2.0),
        [lipschitz_step_sensitivity(float(eta), 2.0) for eta in steps],
    )
    with pytest.raises(ValueError):
        lipschitz_step_sensitivity(np.array([0.5, -0.1]), 1.0)


def test_calibrated_schedule_matches_closed_form():
    schedule = calibrate_noise_schedule(4, BUDGET_4, UNIT_SPEC)
    assert schedule.step_sizes.tolist() == [1.0, 0.5, 1 / 3, 0.25]
    kappa = noise_budget(BUDGET_4, 1.0)
    assert schedule.scales[0] ** 2 == pytest.approx((2.0 / kappa) * 2.0, abs=1e-2)
    assert schedule.scales[3] ** 2 == pytest.approx((2.0 / kappa) * 2.0 / 8.0, abs=1e-2)
    spend = float(np.sum(schedule.step_sizes**2 / schedule.scales**2))
    # (kappa / (2 sqrt(T))) * sum 1/sqrt(t), with sum_{t<=4} 1/sqrt(t) = 2.78446.
    assert spend == pytest.approx(0.14501, abs=1e-4)
    assert spend <= kappa


def test_zero_round_horizon_is_rejected():
    with pytest.raises(ValueError, match="horizon"):
        calibrate_noise_schedule(0, BUDGET_4, UNIT_SPEC)
    with pytest.raises(ValueError, match="horizon"):
        noiseless_schedule(0, UNIT_SPEC)


def test_single_round_schedule_spends_half_the_budget():
    schedule = calibrate_noise_schedule(1, BUDGET_4, UNIT_SPEC)
    kappa = noise_budget(BUDGET_4, 1.0)
    spend = float(np.sum(schedule.step_sizes**2 / schedule.scales**2))
    assert spend == pytest.approx(kappa / 2.0, rel=1e-12)


@pytest.mark.parametrize("horizon", [1, 4, 10, 100, 1000])
def test_calibrated_schedule_always_passes_its_budget(horizon):
    schedule = calibrate_noise_schedule(horizon, BUDGET_4, UNIT_SPEC)
    report = budget_check(schedule, BUDGET_4)
    assert report.passed
    # The closed-form schedule spends sum 1/sqrt(t) / (2 sqrt(T)) of the
    # allowance, which climbs toward saturation as the horizon grows.
    expected = sum(t**-0.5 for t in range(1, horizon + 1)) / (2.0 * math.sqrt(horizon))
    assert report.utilization == pytest.approx(expected, rel=1e-10)
    assert report.utilization < 1.0


@pytest.mark.parametrize("name", ["step_sizes", "scales", "sensitivities"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_rejects_non_finite_values(name, bad):
    fields = {"step_sizes": np.ones(3), "scales": np.ones(3), "sensitivities": np.ones(3)}
    fields[name] = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        NoiseSchedule(**fields)


def test_halving_noise_scales_quadruples_the_spend():
    schedule = calibrate_noise_schedule(100, BUDGET_4, UNIT_SPEC)
    halved = NoiseSchedule(
        step_sizes=schedule.step_sizes,
        scales=schedule.scales / 2.0,
        sensitivities=schedule.sensitivities,
    )
    base = budget_check(schedule, BUDGET_4)
    worse = budget_check(halved, BUDGET_4)
    assert worse.spent == pytest.approx(4.0 * base.spent, rel=1e-12)
    assert not worse.passed


def test_zero_scale_with_positive_sensitivity_fails_the_check():
    schedule = noiseless_schedule(4, UNIT_SPEC)
    report = budget_check(schedule, BUDGET_4)
    assert not report.passed and report.spent == math.inf


def test_alpha_is_the_configured_spend():
    schedule = calibrate_noise_schedule(10, BUDGET_4, UNIT_SPEC)
    manual = float(np.sum((schedule.sensitivities / schedule.scales) ** 2))
    assert schedule.alpha == pytest.approx(manual, rel=1e-12)


def test_schedule_rows_are_one_based(tmp_path):
    schedule = calibrate_noise_schedule(3, BUDGET_4, UNIT_SPEC)
    assert schedule.step_sizes[0] == 1.0  # step size at t=1
    assert schedule.spends.shape == (3,)
    assert sum(schedule.spends) == pytest.approx(schedule.alpha, rel=1e-12)
    # The CLI's schedule table numbers its rounds 1..T and writes each
    # round's step size, scale, sensitivity and spend unchanged.
    out = tmp_path / "schedule.csv"
    assert main(["schedule", "--T", "3", "--seed", "42", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[-3:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    written = build_run_config(ExperimentConfig(horizon=3), *single_run_seeds(42)).schedule
    columns = (written.step_sizes, written.scales, written.sensitivities, written.spends)
    assert [[float(cell) for cell in row[1:]] for row in rows] == np.transpose(columns).tolist()


def test_schedule_validation():
    with pytest.raises(ValueError, match="step sizes must be positive"):
        NoiseSchedule(
            step_sizes=np.array([1.0, 0.0]),
            scales=np.ones(2),
            sensitivities=np.ones(2),
        )


@pytest.mark.parametrize(
    "shapes,match",
    [
        ((0, 0, 0), r"step_sizes must be a nonempty vector, got shape \(0,\)"),
        (((2, 2), 2, 2), r"step_sizes must be a nonempty vector, got shape \(2, 2\)"),
        ((3, 2, 3), r"scales must have shape \(3,\), as step_sizes, got \(2,\)"),
        ((2, 2, 4), r"sensitivities must have shape \(2,\), as step_sizes, got \(4,\)"),
    ],
)
def test_schedule_rejects_empty_or_unequal_arrays_by_name(shapes, match):
    with pytest.raises(ValueError, match=match):
        NoiseSchedule(*(np.ones(shape) for shape in shapes))


def test_schedule_horizon_is_the_number_of_step_sizes():
    assert calibrate_noise_schedule(7, BUDGET_4, UNIT_SPEC).horizon == 7
    assert noiseless_schedule(7, UNIT_SPEC).horizon == 7
    assert NoiseSchedule(np.ones(5), np.zeros(5), np.ones(5)).horizon == 5


def _loss_tail_quadrature(alpha, epsilon, points=400_001):
    """E[(1 - e^(epsilon - L))_+] for a privacy loss L ~ N(alpha/2, alpha),
    by the trapezoid rule over [epsilon, mean + 40 sd]."""
    mean, sd = alpha / 2.0, math.sqrt(alpha)
    loss = np.linspace(epsilon, max(epsilon, mean) + 40.0 * sd, points)
    density = np.exp(-0.5 * ((loss - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    values = (1.0 - np.exp(epsilon - loss)) * density
    return float(np.sum((values[1:] + values[:-1]) * np.diff(loss)) / 2.0)


@pytest.mark.parametrize("epsilon,expected", [(4.0, 7.53e-6), (1.0, 2.60e-6)])
def test_exact_delta_at_the_paper_allowance_matches_a_quadrature(epsilon, expected):
    """At the paper's allowance for delta = 1e-3 the exact delta of the
    composed Gaussian mechanisms is two orders of magnitude below target."""
    alpha = privacy_allowance(PrivacyBudget(epsilon, 1e-3))
    delta = exact_delta(alpha, epsilon)
    assert delta == pytest.approx(_loss_tail_quadrature(alpha, epsilon), rel=1e-6)
    assert delta == pytest.approx(expected, abs=5e-9)


@pytest.mark.parametrize(
    "alpha,epsilon",
    [(1.0, 0.1), (100.0, 1.0), (0.01, 1.0), (2.0, 30.0), (2000.0, 800.0), (1e-4, 0.3)],
)
def test_exact_delta_matches_a_quadrature_from_large_to_tiny_deltas(alpha, epsilon):
    # e^800 overflows a double and the last case's delta is about 1.9e-201.
    assert exact_delta(alpha, epsilon) == pytest.approx(
        _loss_tail_quadrature(alpha, epsilon), rel=1e-5
    )


def test_exact_delta_edge_cases_and_validation():
    assert exact_delta(0.0, 1.0) == 0.0
    assert exact_delta(math.inf, 1.0) == 1.0
    assert exact_delta(1.0, 0.0) == pytest.approx(math.erf(0.5 / math.sqrt(2.0)), rel=1e-14)
    for alpha, epsilon in ((-1.0, 1.0), (math.nan, 1.0), (1.0, -0.5), (1.0, math.nan)):
        with pytest.raises(ValueError):
            exact_delta(alpha, epsilon)


@settings(max_examples=300, deadline=None)
@given(
    epsilon=st.floats(1e-3, 50.0),
    log_delta=st.floats(-30.0, math.log(0.5)),
    shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    utilization=st.floats(0.0, 1.1),
)
def test_exact_delta_is_within_delta_whenever_the_budget_check_passes(
    epsilon, log_delta, shares, utilization
):
    """The paper's allowance is sufficient for the exact Gaussian-DP curve:
    any schedule it passes has exact delta at most the target delta."""
    budget = PrivacyBudget(epsilon, math.exp(log_delta))
    shares = np.array(shares) / max(sum(shares), 1e-300)
    spends = utilization * privacy_allowance(budget) * shares
    horizon = len(spends)
    schedule = NoiseSchedule(
        step_sizes=np.ones(horizon),
        scales=np.ones(horizon),
        sensitivities=np.sqrt(spends),
    )
    if budget_check(schedule, budget).passed:
        assert exact_delta(schedule.alpha, epsilon) <= budget.delta
