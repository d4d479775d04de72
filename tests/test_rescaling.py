"""Metamorphic oracle: rescaling the box by a power of two.

Multiplying by k = 2^j is exact in binary floating point and commutes with
the rounding of +, -, *, / and sqrt and with the clip, barring overflow and
underflow.  Every quantity of the pipeline is homogeneous in the half-width
R, so with the data k * points, the box k * R and the schedule calibrated
at k * R, bit for bit:

- the noise scales, iterates, consensus deviations and coupled-run gaps are
  k times the originals;
- the normalized and probe errors, the round numbering, the agreement
  round counts and both parts of the privacy loss are unchanged;
- each term of the error bound is k^2 times the original.

The oracle depends on none of the formulas it checks.  The mutation tests
break the homogeneity in the schedule, the bound and the projection, and
the oracle must catch each.
"""

from dataclasses import replace

import numpy as np
import pytest

from dpconsensus import analysis
from dpconsensus.analysis import mean_error_bound
from dpconsensus.audit import coupled_runs, plant_point, worst_case_edit
from dpconsensus.engine import gradient_blocks, gradient_phases, run
from dpconsensus.experiments import (
    ExperimentConfig,
    bound_inputs,
    build_run_config,
    single_run_seeds,
)
from dpconsensus.objectives import LocalDataset
from dpconsensus.privacy import calibrate_noise_schedule, noise_budget

FACTORS = (0.5, 2.0, 8.0)
# (T, epsilon): unclipped at epsilon 4, and clipped in early rounds at 0.5.
SETTINGS = ((100, 4.0), (1000, 4.0), (100, 0.5))
AUDIT_SEEDS = range(20)


def rescaled(base: ExperimentConfig, config, k: float):
    """``base`` and ``config`` with the box, the data and the schedule
    rescaled by ``k``; graph, seeds and every other setting kept."""
    scaled_base = replace(base, half_width=k * base.half_width)
    scaled = replace(
        config,
        domain=scaled_base.domain,
        datasets=tuple(LocalDataset(k * d.points) for d in config.datasets),
        schedule=scaled_base.schedule(),
    )
    return scaled_base, scaled


def mismatches(horizon: int, epsilon: float, k: float) -> list[str]:
    """The quantities that break the rescaling law at this setting."""
    base = ExperimentConfig(horizon=horizon, epsilon=epsilon)
    config = build_run_config(base, *single_run_seeds(42))
    scaled_base, scaled = rescaled(base, config, k)
    found = []

    def check(name, got, want):
        if not np.array_equal(got, want):
            found.append(name)

    check("scales", scaled.schedule.scales, k * config.schedule.scales)
    metrics, scaled_metrics = run(config), run(scaled)
    for name in ("normalized_error", "probe_error", "stage", "t"):
        check(name, getattr(scaled_metrics, name), getattr(metrics, name))
    check("consensus_dev", scaled_metrics.consensus_dev, k * metrics.consensus_dev)
    ends = gradient_phases([config, scaled])
    check("gradient_phases", ends[1], k * ends[0])

    planted, scaled_planted = plant_point(config), plant_point(scaled)
    det, noise, gaps = coupled_runs(planted, worst_case_edit(planted), AUDIT_SEEDS)
    scaled_det, scaled_noise, scaled_gaps = coupled_runs(
        scaled_planted, worst_case_edit(scaled_planted), AUDIT_SEEDS
    )
    check("deterministic part", scaled_det, det)
    check("noise part", scaled_noise, noise)
    check("gaps", scaled_gaps, k * gaps)

    terms = mean_error_bound(bound_inputs(base, config)).terms
    scaled_terms = mean_error_bound(bound_inputs(scaled_base, scaled)).terms
    for name, term in terms.items():
        check(f"bound {name}", scaled_terms[name], k * k * term)
    return found


def clips(horizon: int, epsilon: float) -> bool:
    config = build_run_config(ExperimentConfig(horizon=horizon, epsilon=epsilon),
                              *single_run_seeds(42))
    return any(flags.any() for _, flags, *_ in gradient_blocks([config], [config.noise_seed]))


def test_the_settings_cover_clipped_and_unclipped_runs():
    assert [clips(*setting) for setting in SETTINGS] == [False, False, True]


@pytest.mark.parametrize("k", FACTORS)
@pytest.mark.parametrize("horizon, epsilon", SETTINGS)
def test_rescaling_the_box_by_a_power_of_two_is_exact(horizon, epsilon, k):
    assert mismatches(horizon, epsilon, k) == []


def test_the_oracle_catches_noise_scaled_by_the_root_gradient_bound(monkeypatch):
    def mutated(horizon, budget, spec):
        schedule = calibrate_noise_schedule(horizon, budget, spec)
        return replace(schedule, scales=schedule.scales * np.sqrt(spec.grad_bound))

    monkeypatch.setattr("dpconsensus.experiments.calibrate_noise_schedule", mutated)
    found = mismatches(100, 4.0, 2.0)
    assert "scales" in found and "normalized_error" in found


def test_the_oracle_catches_kappa_in_place_of_its_root_in_the_bound(monkeypatch):
    constants = analysis._constants

    def mutated(inputs):
        out = constants(inputs)
        out["trans"] /= np.sqrt(noise_budget(inputs.budget, inputs.noise_grad_bound))
        return out

    monkeypatch.setattr(analysis, "_constants", mutated)
    assert mismatches(100, 4.0, 2.0) == ["bound trans"]


def test_the_oracle_catches_a_projection_onto_the_unit_box(monkeypatch):
    monkeypatch.setattr(
        "dpconsensus.engine.project_box", lambda points, domain: np.clip(points, -1.0, 1.0)
    )
    found = mismatches(100, 0.5, 2.0)
    assert "normalized_error" in found and "gradient_phases" in found
