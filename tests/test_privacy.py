"""Budget arithmetic, sensitivities and the calibrated noise schedule."""

import math

import numpy as np
import pytest

from dpconsensus.objectives import ObjectiveSpec
from dpconsensus.privacy import (
    NoiseSchedule,
    PrivacyBudget,
    budget_check,
    calibrate_noise_schedule,
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


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=0.0, delta=1e-3)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=1.0)


def test_generic_sensitivity():
    assert lipschitz_step_sensitivity(0.5, 1.0) == 1.0
    assert lipschitz_step_sensitivity(0.0, 5.0) == 0.0


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
    report = budget_check(schedule, None, BUDGET_4)
    assert report.passed
    # The closed-form schedule spends sum 1/sqrt(t) / (2 sqrt(T)) of the
    # allowance, which climbs toward saturation as the horizon grows.
    expected = sum(t**-0.5 for t in range(1, horizon + 1)) / (2.0 * math.sqrt(horizon))
    assert report.utilization == pytest.approx(expected, rel=1e-10)
    assert report.utilization < 1.0


def test_infinite_noise_spends_nothing():
    schedule = NoiseSchedule(
        horizon=3,
        step_sizes=np.ones(3),
        scales=np.full(3, np.inf),
        sensitivities=np.ones(3),
    )
    report = budget_check(schedule, None, BUDGET_4)
    assert report.passed and report.spent == 0.0


def test_halving_noise_scales_quadruples_the_spend():
    schedule = calibrate_noise_schedule(100, BUDGET_4, UNIT_SPEC)
    halved = NoiseSchedule(
        horizon=100,
        step_sizes=schedule.step_sizes,
        scales=schedule.scales / 2.0,
        sensitivities=schedule.sensitivities,
    )
    base = budget_check(schedule, None, BUDGET_4)
    worse = budget_check(halved, None, BUDGET_4)
    assert worse.spent == pytest.approx(4.0 * base.spent, rel=1e-12)
    assert not worse.passed


def test_budget_check_rejects_mismatched_sensitivities():
    schedule = calibrate_noise_schedule(4, BUDGET_4, UNIT_SPEC)
    with pytest.raises(ValueError):
        budget_check(schedule, np.ones(3), BUDGET_4)


def test_zero_scale_with_positive_sensitivity_fails_the_check():
    schedule = noiseless_schedule(4, UNIT_SPEC)
    report = budget_check(schedule, None, BUDGET_4)
    assert not report.passed and report.spent == math.inf


def test_alpha_is_the_configured_spend():
    schedule = calibrate_noise_schedule(10, BUDGET_4, UNIT_SPEC)
    manual = float(np.sum((schedule.sensitivities / schedule.scales) ** 2))
    assert schedule.alpha == pytest.approx(manual, rel=1e-12)


def test_schedule_rows_are_one_based():
    schedule = calibrate_noise_schedule(3, BUDGET_4, UNIT_SPEC)
    rows = list(schedule.rows())
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[0][1] == 1.0  # step size at t=1
    assert sum(r[4] for r in rows) == pytest.approx(schedule.alpha, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(
            horizon=0, step_sizes=np.ones(0), scales=np.ones(0), sensitivities=np.ones(0)
        )
    with pytest.raises(ValueError):
        NoiseSchedule(
            horizon=2,
            step_sizes=np.array([1.0, 0.0]),
            scales=np.ones(2),
            sensitivities=np.ones(2),
        )
