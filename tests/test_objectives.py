"""Projection, the mean-estimation objective, and its data generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus.objectives import (
    BoxDomain,
    LocalDataset,
    ObjectiveSpec,
    gen_truncated_gaussian,
    grand_mean,
    mean_objective_constants,
    mean_objective_grad,
    mean_objective_value,
    project_box,
)

UNIT_BOX_2D = BoxDomain(half_width=1.0, dimension=2)


def test_interior_point_is_fixed():
    assert np.array_equal(project_box(np.zeros(2), UNIT_BOX_2D), np.zeros(2))


def test_projection_clamps_coordinates():
    assert project_box(np.array([2.0, -3.0]), UNIT_BOX_2D).tolist() == [1.0, -1.0]


def test_projection_idempotent_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 3.0, size=(200, 2))
    once = project_box(x, UNIT_BOX_2D)
    assert np.array_equal(project_box(once, UNIT_BOX_2D), once)


def test_projection_nonexpansive_on_sampled_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x, y = rng.normal(0.0, 4.0, size=(2, 2))
        dist_before = np.linalg.norm(x - y)
        dist_after = np.linalg.norm(
            project_box(x, UNIT_BOX_2D) - project_box(y, UNIT_BOX_2D)
        )
        assert dist_after <= dist_before + 1e-12


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.floats(0.1, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_projection_lands_inside_and_stays(coords, half_width):
    domain = BoxDomain(half_width=half_width, dimension=3)
    projected = project_box(np.array(coords), domain)
    assert domain.contains(projected)
    assert np.array_equal(project_box(projected, domain), projected)


def test_projection_rejects_non_finite():
    with pytest.raises(ValueError):
        project_box(np.array([np.nan, 0.0]), UNIT_BOX_2D)


def test_gradient_vanishes_at_the_local_mean():
    data = LocalDataset(points=np.array([[1.0, 2.0], [3.0, 0.0]]))
    grad = mean_objective_grad(data.local_mean(), data)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_gradient_hand_example():
    data = LocalDataset(points=np.array([[1.0], [3.0]]))
    assert mean_objective_grad(np.array([0.0]), data).tolist() == [-4.0]


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    data = LocalDataset(points=rng.uniform(-1.0, 1.0, size=(50, 4)))
    x = rng.uniform(-1.0, 1.0, size=4)
    grad = mean_objective_grad(x, data)
    h = 1e-5
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        numeric = (
            mean_objective_value(x + step, data) - mean_objective_value(x - step, data)
        ) / (2.0 * h)
        assert grad[j] == pytest.approx(numeric, abs=1e-6)


def test_gradient_is_exactly_n_points_lipschitz():
    rng = np.random.default_rng(4)
    data = LocalDataset(points=rng.uniform(-1.0, 1.0, size=(30, 3)))
    for _ in range(50):
        x, y = rng.normal(size=(2, 3))
        lhs = np.linalg.norm(mean_objective_grad(x, data) - mean_objective_grad(y, data))
        rhs = data.n_points * np.linalg.norm(x - y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "n_points,half_width,dimension,expected_grad_bound",
    [(100, 1.0, 1, 200.0), (1, 1.0, 1, 2.0), (10, 2.0, 4, 80.0)],
)
def test_objective_constants(n_points, half_width, dimension, expected_grad_bound):
    domain = BoxDomain(half_width=half_width, dimension=dimension)
    data = LocalDataset(points=np.zeros((n_points, dimension)))
    spec = mean_objective_constants(data, domain)
    assert spec.smoothness == n_points
    assert spec.strong_convexity == n_points
    assert spec.grad_bound == pytest.approx(expected_grad_bound, rel=1e-12)


def test_spec_rejects_strong_convexity_above_smoothness():
    with pytest.raises(ValueError):
        ObjectiveSpec(grad_bound=1.0, smoothness=1.0, strong_convexity=2.0, dimension=1)


def test_truncated_gaussian_stays_in_the_box():
    domain = BoxDomain(half_width=1.0, dimension=4)
    data = gen_truncated_gaussian(500, domain, seed=10)
    assert domain.contains(data.points)
    assert data.points.shape == (500, 4)


def test_truncated_gaussian_mean_with_negligible_truncation():
    # At half_width 10 the window [-10, 10] covers the Gaussian(7, 1) almost
    # entirely, so the sample mean approaches 7.
    domain = BoxDomain(half_width=10.0, dimension=1)
    data = gen_truncated_gaussian(10_000, domain, seed=11)
    assert data.points.mean() == pytest.approx(7.0, abs=0.05)


def test_truncated_gaussian_deterministic():
    domain = BoxDomain(half_width=1.0, dimension=3)
    a = gen_truncated_gaussian(64, domain, seed=9)
    b = gen_truncated_gaussian(64, domain, seed=9)
    assert np.array_equal(a.points, b.points)


def test_truncated_gaussian_distinct_nodes_distinct_points():
    domain = BoxDomain(half_width=1.0, dimension=2)
    a = gen_truncated_gaussian(32, domain, seed=9, node_id=0)
    b = gen_truncated_gaussian(32, domain, seed=9, node_id=1)
    assert not np.array_equal(a.points, b.points)


def test_degenerate_half_width_is_rejected():
    with pytest.raises(ValueError, match="acceptance"):
        gen_truncated_gaussian(10, BoxDomain(half_width=1e-7, dimension=1), seed=0)


def test_aggregate_gradient_vanishes_at_the_grand_mean():
    domain = BoxDomain(half_width=1.0, dimension=4)
    datasets = [gen_truncated_gaussian(100, domain, seed=21, node_id=i) for i in range(10)]
    center = grand_mean(datasets)
    total = sum(mean_objective_grad(center, d) for d in datasets)
    assert np.linalg.norm(total) <= 1e-9


def test_replace_point_builds_a_neighbor():
    data = LocalDataset(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
    neighbor = data.replace_point(0, np.array([0.5, -0.5]))
    assert neighbor.points[0].tolist() == [0.5, -0.5]
    assert np.array_equal(neighbor.points[1], data.points[1])
    assert np.array_equal(data.points[0], [0.0, 0.0])  # original untouched


def test_empty_dataset_is_rejected():
    with pytest.raises(ValueError):
        LocalDataset(points=np.zeros((0, 2)))
