"""Coupled privacy-loss runs and the Monte Carlo tail audit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpconsensus.audit import (
    _AUDIT_STREAM,
    NeighborEdit,
    collect_samples,
    coupled_runs,
    plant_point,
    tail_audit,
    worst_case_edit,
)
from dpconsensus.engine import batches
from dpconsensus.objectives import mean_objective_grad, project_box
from dpconsensus.privacy import PrivacyBudget
from dpconsensus.rng import derive_rng, derive_seed

from test_engine import make_config

# Relative slack for comparisons that are exact equalities in real
# arithmetic (the worst-case edit saturates its sensitivity bound).
FP_SLACK = 1e-12

BUDGET = PrivacyBudget(epsilon=4.0, delta=1e-3)


@pytest.fixture(scope="module")
def audit_setup():
    config = plant_point(make_config(n_nodes=8, points=40, dimension=4, horizon=20))
    return config, worst_case_edit(config)


def test_identity_edit_has_exactly_zero_loss(audit_setup):
    config, _ = audit_setup
    original = config.datasets[2].points[5].copy()
    edit = NeighborEdit(node_id=2, point_index=5, replacement=original)
    deterministic, noise, gaps = coupled_runs(config, edit, [31])
    assert deterministic.tolist() == noise.tolist() == [0.0]
    assert gaps.shape == (1, config.horizon) and not gaps.any()


def test_deterministic_part_never_exceeds_half_the_spend(audit_setup):
    config, edit = audit_setup
    half_alpha = config.schedule.alpha / 2.0
    deterministic, _ = collect_samples(config, edit, 50, master_seed=7)
    worst = deterministic.max()
    assert worst <= half_alpha * (1.0 + FP_SLACK)
    # The corner-to-corner edit saturates the bound up to projection clipping.
    assert worst >= 0.5 * half_alpha


def test_per_round_gaps_stay_below_the_configured_sensitivity(audit_setup):
    config, edit = audit_setup
    for seed in (1, 2, 3):
        (gaps,) = coupled_runs(config, edit, [seed])[2]
        assert np.all(gaps <= config.schedule.sensitivities * (1.0 + FP_SLACK))


def test_noise_part_is_centered(audit_setup):
    config, edit = audit_setup
    _, noises = collect_samples(config, edit, 1500, master_seed=13)
    stderr = noises.std() / math.sqrt(noises.size)
    assert abs(noises.mean()) <= 3.0 * stderr


def test_samples_are_deterministic_per_master_seed(audit_setup):
    config, edit = audit_setup
    a = collect_samples(config, edit, 5, master_seed=99)
    b = collect_samples(config, edit, 5, master_seed=99)
    c = collect_samples(config, edit, 5, master_seed=100)
    for part_a, part_b, part_c in zip(a, b, c):
        assert part_a.shape == (5,)
        assert np.array_equal(part_a, part_b)
        assert not np.array_equal(part_a, part_c)


@pytest.mark.parametrize("seeds_per_batch", [None, 8])
def test_collect_samples_equals_its_per_sample_losses(audit_setup, monkeypatch, seeds_per_batch):
    """37 samples, which no batch size used here divides: in one batch of 37
    at the default budget's size of 102 seeds, and in batches of 9 + 9 + 9 +
    10 at a budget of 8 seeds by 8 rounds."""
    config, edit = audit_setup
    expected_lengths = [37]
    if seeds_per_batch is not None:
        per_round = config.n_nodes * config.domain.dimension
        monkeypatch.setattr("dpconsensus.engine._BLOCK_FLOATS", seeds_per_batch**2 * per_round)
        monkeypatch.setattr("dpconsensus.engine._BLOCK_ROUNDS", seeds_per_batch)
        expected_lengths = [9, 9, 9, 10]
    assert [len(batch) for batch in batches(range(37), config)] == expected_lengths
    deterministic, noise = collect_samples(config, edit, 37, master_seed=11)
    assert deterministic.shape == noise.shape == (37,)
    for i in range(37):
        seed = derive_seed(11, _AUDIT_STREAM, i)
        (expected_deterministic,), (expected_noise,), _ = coupled_runs(config, edit, [seed])
        assert deterministic[i] == pytest.approx(expected_deterministic, rel=1e-12)
        assert noise[i] == pytest.approx(expected_noise, rel=1e-12)
    # The first n samples do not depend on how many are drawn.
    for total in (20, 50):
        more = collect_samples(config, edit, total, master_seed=11)
        n = min(total, 37)
        assert np.array_equal(more[0][:n], deterministic[:n])
        assert np.array_equal(more[1][:n], noise[:n])


def test_tail_audit_trivially_passes_on_zero_losses():
    zeros = np.zeros(1000)
    report = tail_audit(zeros, BUDGET)
    assert report.passed and report.exceed_rate == 0.0
    assert report.bound == pytest.approx(1e-3 + 2.0 * math.sqrt(1e-3 * 0.999 / 1000))


def test_tail_audit_fails_at_a_tiny_epsilon(audit_setup):
    config, edit = audit_setup
    deterministic, noise = collect_samples(config, edit, 1000, master_seed=5)
    strict = tail_audit(deterministic + noise, PrivacyBudget(epsilon=0.01, delta=1e-3))
    assert strict.exceed_rate > 0.9
    assert not strict.passed


def test_tail_audit_requires_enough_samples():
    with pytest.raises(ValueError, match="1000"):
        tail_audit(np.zeros(10), BUDGET)


def test_edit_validation(audit_setup):
    config, _ = audit_setup
    with pytest.raises(ValueError, match="node_id"):
        coupled_runs(config, NeighborEdit(50, 0, np.zeros(4)), [0])
    with pytest.raises(ValueError, match="point_index"):
        coupled_runs(config, NeighborEdit(0, 500, np.zeros(4)), [0])
    with pytest.raises(ValueError, match="domain box"):
        coupled_runs(config, NeighborEdit(0, 0, np.full(4, 2.0)), [0])
    with pytest.raises(ValueError, match="one point"):
        coupled_runs(config, NeighborEdit(0, 0, np.zeros(3)), [0])


@pytest.mark.parametrize(
    "node_id, point_index, field",
    [
        (4, 0, "node_id 4"),
        (-1, 0, "node_id -1"),
        (0, 10, "point_index 10"),
        (0, -1, "point_index -1"),
    ],
)
def test_plant_point_rejects_out_of_range_indices(node_id, point_index, field):
    config = make_config(n_nodes=4, points=10, horizon=3)
    with pytest.raises(ValueError, match=f"edit {field} out of range"):
        plant_point(config, node_id=node_id, point_index=point_index)


def test_audit_rejects_noiseless_schedules():
    config = make_config(horizon=5, noiseless=True)
    edit = worst_case_edit(config)
    with pytest.raises(ValueError, match="positive noise scales"):
        coupled_runs(config, edit, [0])


def test_worst_case_edit_spans_the_cube_diameter(audit_setup):
    config, edit = audit_setup
    original = config.datasets[0].points[0]
    distance = np.linalg.norm(original - edit.replacement)
    assert distance == pytest.approx(config.domain.diameter, rel=1e-12)


def test_plant_point_only_touches_the_target():
    config = make_config(n_nodes=4, points=10, horizon=3)
    planted = plant_point(config, node_id=1, point_index=2)
    assert np.all(planted.datasets[1].points[2] == -config.domain.half_width)
    assert np.array_equal(planted.datasets[0].points, config.datasets[0].points)
    mask = np.ones(10, dtype=bool)
    mask[2] = False
    assert np.array_equal(
        planted.datasets[1].points[mask], config.datasets[1].points[mask]
    )


def reference_coupled_run(config, edit, noise_seed):
    """The per-round audit loop, written out independently of the engine.

    The round-t broadcast reveals x(t-1) under scale M_{t-1}, so the loss
    term of iterate t is accounted one round later, with the round-(t+1)
    noise; x(T) is accounted with one extra terminal draw at scale M_T.
    """
    k = edit.node_id
    edited = edit.apply(config.datasets)[k]
    schedule, domain = config.schedule, config.domain
    n, p = config.n_nodes, domain.dimension
    rng = derive_rng(noise_seed)
    deterministic = noise_part = 0.0
    gaps = []

    def account(t, gap, noise_at_k):
        nonlocal deterministic, noise_part
        scale = float(schedule.scales[t - 1])  # M_t protects x(t)
        deterministic += float(gap @ gap) / (2.0 * scale**2)
        noise_part += float(noise_at_k @ gap) / scale**2
        gaps.append(math.sqrt(float(gap @ gap)))

    x = np.zeros((n, p))
    gap = np.zeros(p)
    for t in range(1, schedule.horizon + 1):
        if t == 1:
            scale = 0.0 if config.strict_first_broadcast else schedule.scales[0]
        else:
            scale = schedule.scales[t - 2]
        noise = rng.standard_normal((n, p)) * scale
        if t >= 2:
            account(t - 1, gap, noise[k])
        step = schedule.step_sizes[t - 1]
        z = project_box(config.graph.weights @ (x + noise), domain)
        grads = np.stack([mean_objective_grad(z[i], d) for i, d in enumerate(config.datasets)])
        x = project_box(z - step * grads, domain)
        x_alt = project_box(z[k] - step * mean_objective_grad(z[k], edited), domain)
        gap = x[k] - x_alt
    terminal = rng.standard_normal((n, p)) * schedule.scales[-1]
    account(schedule.horizon, gap, terminal[k])
    return (deterministic, noise_part), np.array(gaps)


@pytest.mark.parametrize("strict", [False, True])
def test_coupled_run_matches_the_per_round_reference(audit_setup, strict):
    config, edit = audit_setup
    config = replace(config, strict_first_broadcast=strict)
    for seed in (3, 17, 2024):
        expected, expected_gaps = reference_coupled_run(config, edit, seed)
        (deterministic,), (noise,), gaps = coupled_runs(config, edit, [seed])
        assert (deterministic, noise) == pytest.approx(expected, rel=1e-12)
        assert gaps.shape == (1, config.schedule.horizon)
        np.testing.assert_allclose(gaps[0], expected_gaps, rtol=1e-12, atol=0.0)
