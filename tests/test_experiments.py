"""Sweep machinery: seed splitting, determinism, presets, bound inputs."""

from dataclasses import replace

import numpy as np
import pytest

from dpconsensus.experiments import (
    AXES,
    ExperimentConfig,
    SweepSpec,
    bound_inputs,
    build_run_config,
    cell_seeds,
    preset_sweep,
    single_run_seeds,
    sweep,
    write_rows_csv,
)

TINY = ExperimentConfig(n_nodes=5, points_per_node=20, dimension=2, horizon=8)


def test_default_experiment_values():
    spec = preset_sweep("T")
    base = spec.base
    assert base.n_nodes == 10
    assert base.points_per_node == 100
    assert base.delta == pytest.approx(1.0 / (base.n_nodes * base.points_per_node))
    assert base.epsilon == 4.0
    assert base.edge_prob == 0.6
    assert base.dimension == 4
    assert base.half_width == 1.0
    assert base.horizon == 1000
    assert spec.n_seeds == 20


def test_spec_validation():
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(base=TINY, axis="bogus", values=(1.0,))
    with pytest.raises(ValueError, match="values"):
        SweepSpec(base=TINY, axis="T", values=())
    with pytest.raises(ValueError, match="n_seeds"):
        SweepSpec(base=TINY, axis="T", values=(1.0,), n_seeds=0)


def test_preset_axes_cover_the_studies():
    assert preset_sweep("T").values == (10.0, 100.0, 1000.0)
    assert preset_sweep("epsilon").values == (0.5, 1.0, 2.0, 4.0, 8.0)
    assert preset_sweep("delta_family").values == (1e-3, 1e-6, 1e-9)
    assert preset_sweep("p_c").values == (0.1, 0.3, 0.6, 1.0)
    assert preset_sweep("points_per_node").values == (25.0, 50.0, 100.0, 200.0)
    # Connectivity study runs short so the topology effect beats the noise floor.
    assert preset_sweep("p_c").base.horizon == 50
    assert preset_sweep("T").base.horizon == ExperimentConfig().horizon


def test_privacy_axis_shares_graph_and_data_streams():
    for seed_index in range(3):
        g0, d0, n0 = cell_seeds(11, "epsilon", 0, seed_index)
        g1, d1, n1 = cell_seeds(11, "epsilon", 1, seed_index)
        assert (g0, d0) == (g1, d1)
        assert n0 != n1


def test_connectivity_axis_regenerates_only_the_graph():
    g0, d0, _ = cell_seeds(11, "p_c", 0, 0)
    g1, d1, _ = cell_seeds(11, "p_c", 1, 0)
    assert g0 != g1
    assert d0 == d1


def test_data_volume_axis_regenerates_only_the_data():
    g0, d0, _ = cell_seeds(11, "points_per_node", 0, 0)
    g1, d1, _ = cell_seeds(11, "points_per_node", 1, 0)
    assert g0 == g1
    assert d0 != d1


def test_build_run_config_uses_the_instance_sensitivity():
    config = build_run_config(TINY, *single_run_seeds(3))
    diameter = TINY.domain.diameter
    expected = diameter * config.schedule.step_sizes
    assert np.allclose(config.schedule.sensitivities, expected, rtol=1e-12)
    # Generic calibration is available as configuration.
    generic = replace(TINY, calibration_grad_bound=TINY.points_per_node * diameter)
    config = build_run_config(generic, *single_run_seeds(3))
    assert np.allclose(
        config.schedule.sensitivities,
        2.0 * TINY.points_per_node * diameter * config.schedule.step_sizes,
        rtol=1e-12,
    )


def test_bound_inputs_carry_the_calibration_gradient_bound():
    config = build_run_config(TINY, *single_run_seeds(3))
    inputs = bound_inputs(TINY, config)
    assert inputs.noise_grad_bound == TINY.domain.diameter / 2.0
    assert inputs.beta == config.graph.beta
    assert inputs.horizon == TINY.horizon
    assert np.array_equal(inputs.x_star, config.minimizer())
    # The configured value is passed through, not rebuilt from the schedule.
    base = ExperimentConfig(calibration_grad_bound=123.4)
    inputs = bound_inputs(base, build_run_config(base, *single_run_seeds(3)))
    assert inputs.noise_grad_bound == 123.4


def test_with_value_coerces_integer_axes():
    assert TINY.with_value("T", 100.0).horizon == 100
    assert TINY.with_value("points_per_node", 50.0).points_per_node == 50
    assert TINY.with_value("epsilon", 2.0).epsilon == 2.0


def test_sweep_rows_are_deterministic_and_ordered():
    spec = SweepSpec(base=TINY, axis="T", values=(4.0, 8.0), n_seeds=3)
    first = sweep(spec, master_seed=21)
    second = sweep(spec, master_seed=21)
    strip = lambda rows: [
        (r.axis, r.value, r.seed, r.normalized_error, r.probe_error, r.stage2_rounds)
        for r in rows
    ]
    assert strip(first.rows) == strip(second.rows)
    assert [(r.value, r.seed) for r in first.rows] == [
        (v, s) for v in (4.0, 8.0) for s in range(3)
    ]
    shifted = sweep(spec, master_seed=22)
    assert strip(first.rows) != strip(shifted.rows)


def test_sweep_summary_shape():
    spec = SweepSpec(base=TINY, axis="epsilon", values=(1.0, 4.0), n_seeds=2)
    result = sweep(spec, master_seed=5)
    summary = result.summary()
    assert summary["axis"] == "epsilon"
    assert set(summary["per_value"]) == {"1.0", "4.0"}
    entry = summary["per_value"]["1.0"]
    assert entry["n_seeds"] == 2
    assert entry["normalized_error_mean"] > 0.0


def test_rows_csv_is_byte_stable(tmp_path):
    spec = SweepSpec(base=TINY, axis="T", values=(4.0,), n_seeds=2)
    result = sweep(spec, master_seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(result, a, header_lines=["demo = 1"])
    write_rows_csv(sweep(spec, master_seed=9), b, header_lines=["demo = 1"])
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# demo = 1\n")
    assert "wall_ms" in text.splitlines()[1]
    # Timings are blanked by default so files stay reproducible.
    assert text.splitlines()[2].endswith(",")


def test_parallel_sweep_matches_sequential():
    spec = SweepSpec(base=TINY, axis="p_c", values=(0.6, 1.0), n_seeds=2)
    strip = lambda rows: [
        (r.axis, r.value, r.seed, r.normalized_error, r.probe_error, r.stage2_rounds)
        for r in rows
    ]
    sequential = sweep(spec, master_seed=33, jobs=1)
    parallel = sweep(spec, master_seed=33, jobs=2)
    assert strip(sequential.rows) == strip(parallel.rows)


def test_axis_table_is_consistent():
    for axis, (field_name, _, _) in AXES.items():
        assert hasattr(TINY, field_name), axis
