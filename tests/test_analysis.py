"""Closed-form bound evaluation and empirical comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpconsensus.analysis import (
    BoundInputs,
    BoundReport,
    consensus_phase_bound,
    empirical_vs_bound,
    mean_error_bound,
)
from dpconsensus.audit import worst_case_edit
from dpconsensus.engine import _gradient_phases, run, run_gradient_phase
from dpconsensus.experiments import ExperimentConfig, bound_inputs, build_run_config
from dpconsensus.objectives import ObjectiveSpec
from dpconsensus.privacy import PrivacyBudget, noise_budget

from test_engine import make_config

UNIT_SPEC = ObjectiveSpec(grad_bound=1.0, smoothness=1.0, strong_convexity=1.0, dimension=4)


def make_inputs(**kwargs) -> BoundInputs:
    defaults = dict(
        spec=UNIT_SPEC,
        beta=1 / 3,
        budget=PrivacyBudget(epsilon=1.0, delta=1e-3),
        horizon=100,
        x_star=np.full(4, 0.5),
    )
    defaults.update(kwargs)
    defaults.setdefault("noise_grad_bound", defaults["spec"].grad_bound)
    return BoundInputs(**defaults)


def test_constants_match_direct_formulas():
    inputs = make_inputs()
    kappa = noise_budget(inputs.budget, 1.0)
    report = mean_error_bound(inputs)
    mixing = 1.0 / (1.0 - 1 / 3)
    assert report.constants["init"] == pytest.approx(1.0, rel=1e-12)  # ||x*||^2
    assert report.constants["grad"] == pytest.approx(1.0 + mixing, rel=1e-12)
    assert report.constants["trans"] == pytest.approx(
        2.0 * math.sqrt(8.0) / math.sqrt(kappa) * (4.0 + 3.0 * mixing), rel=1e-12
    )
    assert report.constants["floor"] == pytest.approx(8.0 / kappa, rel=1e-12)


def test_terms_sum_to_total():
    report = mean_error_bound(make_inputs(horizon=1234))
    assert report.total == pytest.approx(sum(report.terms.values()), rel=1e-12)


def test_transient_constant_equals_its_split_form():
    # (4 + 3/(1-beta)) assembled in one factor equals the two summands
    # 8*sqrt(2p)G/sqrt(k) and 2*sqrt(2p)G*(3/(1-beta))/sqrt(k).
    inputs = make_inputs(beta=0.6)
    kappa = noise_budget(inputs.budget, 1.0)
    split = (
        8.0 * math.sqrt(8.0) / math.sqrt(kappa)
        + 2.0 * math.sqrt(8.0) * (3.0 / 0.4) / math.sqrt(kappa)
    )
    assert mean_error_bound(inputs).constants["trans"] == pytest.approx(split, rel=1e-12)


def test_bound_approaches_the_privacy_floor():
    report = mean_error_bound(make_inputs(horizon=10**8))
    assert report.total == pytest.approx(report.constants["floor"], rel=0.01)


def test_floor_shrinks_when_epsilon_doubles():
    lo = mean_error_bound(make_inputs(budget=PrivacyBudget(1.0, 1e-3)))
    hi = mean_error_bound(make_inputs(budget=PrivacyBudget(2.0, 1e-3)))
    assert hi.constants["floor"] < lo.constants["floor"]


def test_constants_blow_up_as_mixing_stalls():
    tame = mean_error_bound(make_inputs(beta=0.9))
    stuck = mean_error_bound(make_inputs(beta=0.99))
    assert stuck.constants["grad"] / tame.constants["grad"] > 5.0
    assert stuck.constants["trans"] / tame.constants["trans"] > 5.0


def test_total_monotone_in_budget_gradient_bound_and_dimension():
    epsilons = (0.5, 1.0, 2.0, 4.0)
    totals = [
        mean_error_bound(make_inputs(budget=PrivacyBudget(e, 1e-3))).total
        for e in epsilons
    ]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    grads = (0.5, 1.0, 2.0)
    totals = [
        mean_error_bound(
            make_inputs(spec=replace(UNIT_SPEC, grad_bound=g))
        ).total
        for g in grads
    ]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    betas = (0.1, 0.5, 0.9)
    totals = [mean_error_bound(make_inputs(beta=b)).total for b in betas]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    dims = (2, 4, 8)
    totals = [
        mean_error_bound(
            make_inputs(spec=replace(UNIT_SPEC, dimension=p), x_star=np.zeros(p))
        ).total
        for p in dims
    ]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_consensus_phase_bound_decays_geometrically():
    inputs = make_inputs()
    base = mean_error_bound(inputs).total
    x_t_norm_sq = 3.0
    c_exp = 2.0 * x_t_norm_sq
    five = consensus_phase_bound(inputs, inputs.horizon + 5, x_t_norm_sq)
    assert five == pytest.approx(2.0 * c_exp / 59049.0 + 2.0 * base, rel=1e-12)
    # After ceil(log(1/tol) / (2 log(1/beta))) rounds the exponential term
    # has dropped below tol * 2 * C_exp.
    tol = 1e-6
    rounds = math.ceil(math.log(1.0 / tol) / (2.0 * math.log(3.0)))
    later = consensus_phase_bound(inputs, inputs.horizon + rounds, x_t_norm_sq)
    assert later - 2.0 * base <= tol * 2.0 * c_exp


def test_consensus_phase_bound_needs_a_later_round():
    inputs = make_inputs()
    with pytest.raises(ValueError):
        consensus_phase_bound(inputs, inputs.horizon, 1.0)


def test_mutated_report_moves_only_one_term():
    report = mean_error_bound(make_inputs())
    halved = report.mutated("floor", 0.5)
    assert halved.terms["floor"] == report.terms["floor"] / 2.0
    assert halved.terms["init"] == report.terms["init"]
    assert halved.total == pytest.approx(report.total - report.terms["floor"] / 2.0)


def test_zero_noise_runs_stay_below_the_noiseless_bound():
    config = make_config(
        n_nodes=6, points=30, dimension=3, horizon=60, noiseless=True, graph_seed=9
    )
    x_star = config.minimizer()
    spec = replace(
        UNIT_SPEC,
        grad_bound=30 * config.domain.diameter,
        smoothness=30.0,
        strong_convexity=30.0,
        dimension=3,
    )
    inputs = BoundInputs(
        spec=spec,
        beta=config.graph.beta,
        budget=None,  # drops the noise terms
        horizon=60,
        x_star=x_star,
        noise_grad_bound=spec.grad_bound,
    )
    ends = _gradient_phases([replace(config, noise_seed=s) for s in range(50)])
    comparison = empirical_vs_bound(ends, inputs, mean_error_bound(inputs))
    assert comparison.passed
    assert comparison.margin > 0.0


def test_comparison_detects_violations():
    """Scaling the bound far below the empirical mean must flip the verdict,
    so the comparator is not vacuous."""
    config = make_config(n_nodes=6, points=30, dimension=3, horizon=40)
    x_star = config.minimizer()
    inputs = BoundInputs(
        spec=replace(UNIT_SPEC, dimension=3),
        beta=config.graph.beta,
        budget=PrivacyBudget(4.0, 1e-3),
        horizon=40,
        x_star=x_star,
        noise_grad_bound=UNIT_SPEC.grad_bound,
    )
    configs = [replace(config, noise_seed=s) for s in range(50)]
    ends = _gradient_phases(configs)
    report = mean_error_bound(inputs)
    tiny = BoundReport(
        constants=report.constants,
        terms={k: v * 1e-12 for k, v in report.terms.items()},
        total=report.total * 1e-12,
    )
    comparison = empirical_vs_bound(ends, inputs, report)
    assert comparison.passed
    assert not empirical_vs_bound(ends, inputs, bound=tiny).passed
    # The end iterates give the single runs' mean-iterate errors at round T.
    singles = [run_gradient_phase(c)[1].mean_iterate[c.horizon - 1] for c in configs]
    expected = np.mean([np.sum((x_bar - x_star) ** 2) for x_bar in singles])
    assert comparison.empirical_mean == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_comparison_rejects_an_empty_run_list():
    inputs = make_inputs()
    for ends in ([], np.empty((0, 10, 4))):
        with pytest.raises(ValueError, match="at least one run"):
            empirical_vs_bound(ends, inputs, mean_error_bound(inputs))


def test_inputs_validation():
    with pytest.raises(ValueError):
        make_inputs(beta=1.0)
    with pytest.raises(ValueError):
        make_inputs(horizon=0)


def test_result_types_compare_by_identity():
    """``==`` on the result types that hold arrays is identity, not an
    error: two ``BoundInputs`` of one config, two ``RunMetrics`` of one run
    and two equal edits are distinct."""
    base = ExperimentConfig(n_nodes=4, horizon=3)
    config = build_run_config(base, 1, 2, 3)
    inputs = bound_inputs(base, config)
    assert inputs == inputs != bound_inputs(base, config)
    metrics = run(config)
    assert metrics == metrics != run(config)
    edit = worst_case_edit(config)
    assert edit == edit != worst_case_edit(config)
    assert len({inputs, metrics, edit}) == 3
