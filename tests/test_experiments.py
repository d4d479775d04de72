"""Sweep machinery: seed splitting, determinism, presets, bound inputs."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from dpconsensus import engine, experiments, graph
from dpconsensus.experiments import (
    AXES,
    ExperimentConfig,
    SweepRow,
    SweepSpec,
    bound_inputs,
    build_run_config,
    cell_seeds,
    preset_sweep,
    single_run_seeds,
    sweep,
)
from dpconsensus.graph import GraphError
from test_rng import oracle_seed

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
    # A repeated value would merge two noise streams into one summary entry.
    with pytest.raises(ValueError, match="duplicate value 4.0"):
        SweepSpec(base=TINY, axis="epsilon", values=(4.0, 2.0, 4.0), n_seeds=2)


# A valid first value and an invalid second one per axis, with the error
# the invalid value's first use would raise.
BAD_GRIDS = [
    ("T", (8.0, 0.0), "horizon must be >= 1, got 0"),
    ("epsilon", (4.0, -1.0), "epsilon must be finite and positive, got -1.0"),
    ("delta_family", (1e-3, 1.0), r"delta must lie in \(0, 1\), got 1.0"),
    ("p_c", (0.6, 0.0), r"edge probability must lie in \(0, 1\], got 0.0"),
    ("p_c", (0.6, 1.5), r"edge probability must lie in \(0, 1\], got 1.5"),
    ("points_per_node", (20.0, 0.0), "n_points must be >= 1, got 0"),
    ("epsilon", (4.0, 1e-159), "a noise variance leaves the float range at epsilon=1e-159"),
    ("epsilon", (4.0, 1e-300), "the noise budget leaves the float range at epsilon=1e-300"),
]


def _record_cell_runs(monkeypatch):
    """The calls that sampling a graph, one or a batch, or running a
    gradient batch makes."""
    calls = []
    for target in (
        "dpconsensus.experiments.gen_erdos_renyi",
        "dpconsensus.experiments.gen_erdos_renyi_graphs",
        "dpconsensus.engine.gradient_blocks",
    ):
        monkeypatch.setattr(target, lambda *args, **kwargs: calls.append(args) or 1 / 0)
    return calls


@pytest.mark.parametrize("axis, values, message", BAD_GRIDS)
def test_a_bad_grid_value_fails_before_any_cell_runs(axis, values, message, monkeypatch):
    calls = _record_cell_runs(monkeypatch)
    with pytest.raises(ValueError, match=message):
        sweep(SweepSpec(base=TINY, axis=axis, values=values, n_seeds=2), master_seed=1)
    assert calls == []


# A bad base value per run-level field, with the error a run would raise
# (the gradient bound's for every value that is not finite and positive);
# TINY has 5 nodes.
BAD_BASES = [
    ({"probe_node": 5}, "probe_node 5 is not a node of the graph"),
    ({"stage2_rel_tol": 1.5}, r"stage2_rel_tol must lie in \[0, 1\), got 1.5"),
    ({"stage2_max_rounds": 0}, "stage2_max_rounds must be >= 1 when given"),
    ({"calibration_grad_bound": -1.0}, "grad_bound must be finite and positive, got -1.0"),
    ({"calibration_grad_bound": 0.0}, "grad_bound must be finite and positive, got 0.0"),
    ({"calibration_grad_bound": 1e-300}, "noise budget leaves the float range at .* 1e-300$"),
]


@pytest.mark.parametrize("changes, message", BAD_BASES)
def test_a_bad_base_value_fails_before_any_cell_runs(changes, message, monkeypatch):
    calls = _record_cell_runs(monkeypatch)
    with pytest.raises(ValueError, match=message):
        base = replace(TINY, **changes)
        sweep(SweepSpec(base=base, axis="epsilon", values=(4.0,), n_seeds=3), master_seed=1)
    assert calls == []


def test_preset_axes_cover_the_studies():
    assert preset_sweep("T").values == (10.0, 100.0, 1000.0)
    assert preset_sweep("epsilon").values == (0.5, 1.0, 2.0, 4.0, 8.0)
    assert preset_sweep("delta_family").values == (1e-3, 1e-6, 1e-9)
    assert preset_sweep("p_c").values == (0.1, 0.3, 0.6, 1.0)
    assert preset_sweep("points_per_node").values == (25.0, 50.0, 100.0, 200.0)
    # Connectivity study runs short so the topology effect beats the noise floor.
    assert preset_sweep("p_c").base.horizon == 50
    assert preset_sweep("T").base.horizon == ExperimentConfig().horizon


def test_an_unknown_preset_axis_fails_by_name_as_a_sweep_spec_does():
    with pytest.raises(ValueError) as spec_error:
        SweepSpec(base=ExperimentConfig(), axis="bogus", values=(1.0,))
    with pytest.raises(ValueError) as preset_error:
        preset_sweep("bogus")
    assert str(preset_error.value) == str(spec_error.value)
    assert "'bogus'" in str(preset_error.value) and "p_c" in str(preset_error.value)


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


@pytest.mark.parametrize("axis", sorted(AXES))
def test_cell_seeds_are_the_derive_seed_streams(axis):
    """Stream labels 1, 2 and 3 (graph, data, noise); the graph and data
    streams take the value index only on an axis that regenerates them.
    Each seed is the first word of numpy's ``SeedSequence`` for its stream."""
    _, regen_graph, regen_data = AXES[axis]
    for master_seed, value_index, seed_index in ((11, 0, 0), (2**64 - 1, 2, 19), (0, 3, 2**33)):
        assert cell_seeds(master_seed, axis, value_index, seed_index) == (
            oracle_seed(master_seed, 1, value_index if regen_graph else 0, seed_index),
            oracle_seed(master_seed, 2, value_index if regen_data else 0, seed_index),
            oracle_seed(master_seed, 3, value_index, seed_index),
        )


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


@pytest.mark.parametrize("axis", ["T", "points_per_node"])
def test_integer_axes_reject_non_integral_values(axis):
    assert TINY.with_value(axis, 4.0) == replace(TINY, **{AXES[axis][0]: 4})
    for bad in (2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"axis {axis} needs integer values, got {bad!r}"):
            TINY.with_value(axis, bad)
    # A sweep rejects the grid before running any cell.
    with pytest.raises(ValueError, match=f"axis {axis}.*2.7"):
        SweepSpec(base=TINY, axis=axis, values=(4.0, 2.7))


def test_a_sweep_builds_each_value_config_and_schedule_once(monkeypatch):
    """The spec keeps the value configs it checks, each with its schedule,
    through pickling to a worker too; every run config of value i holds the
    very schedule of ``spec.configs[i]``, and no config is built again."""
    spec = SweepSpec(base=TINY, axis="epsilon", values=(1.0, 4.0), n_seeds=3)
    assert "schedule" in vars(pickle.loads(pickle.dumps(spec)).configs[1])
    fail = lambda *args: pytest.fail("built a config again")  # noqa: E731
    monkeypatch.setattr(ExperimentConfig, "with_value", fail)
    monkeypatch.setattr(ExperimentConfig, "__post_init__", fail)
    values = list(experiments._values(spec, 7, range(spec.n_seeds)))
    assert [value for value, _ in values] == list(spec.values)
    for (_, configs), value_config in zip(values, spec.configs):
        assert len(configs) == spec.n_seeds
        assert all(config.schedule is value_config.schedule for config in configs)


def test_sweep_rows_are_deterministic_and_ordered():
    spec = SweepSpec(base=TINY, axis="T", values=(4.0, 8.0), n_seeds=3)
    first = sweep(spec, master_seed=21)
    second = sweep(spec, master_seed=21)
    assert first.rows == second.rows
    assert [(r.value, r.seed) for r in first.rows] == [
        (v, s) for v in (4.0, 8.0) for s in range(3)
    ]
    shifted = sweep(spec, master_seed=22)
    assert first.rows != shifted.rows


def test_sweep_summary_shape():
    spec = SweepSpec(base=TINY, axis="epsilon", values=(1.0, 4.0), n_seeds=2)
    result = sweep(spec, master_seed=5)
    summary = result.summary()
    assert summary["axis"] == "epsilon"
    assert set(summary["per_value"]) == {"1.0", "4.0"}
    entry = summary["per_value"]["1.0"]
    assert entry["n_seeds"] == 2
    assert entry["normalized_error_mean"] > 0.0


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_a_non_positive_worker_count(jobs):
    spec = SweepSpec(base=TINY, axis="T", values=(4.0,), n_seeds=1)
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        sweep(spec, master_seed=1, jobs=jobs)


# Two values per axis for the tiny sweeps below.
TINY_VALUES = {
    "T": (4.0, 8.0),
    "epsilon": (1.0, 4.0),
    "delta_family": (1e-3, 1e-6),
    "p_c": (0.6, 1.0),
    "points_per_node": (10.0, 20.0),
}


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("axis", sorted(AXES))
def test_parallel_sweep_matches_sequential(axis, jobs):
    """Workers run every value for contiguous ranges of seeds; at 3 jobs
    2 seeds split into two parts of one seed each, not three."""
    spec = SweepSpec(base=TINY, axis=axis, values=TINY_VALUES[axis], n_seeds=2)
    sequential = sweep(spec, master_seed=33, jobs=1)
    parallel = sweep(spec, master_seed=33, jobs=jobs)
    assert sequential.rows == parallel.rows


def test_parallel_workers_build_every_graph_and_dataset(monkeypatch):
    """At 2 jobs the calling process samples no graph and draws no dataset:
    each worker builds its own seeds' inputs."""
    spec = SweepSpec(base=TINY, axis="p_c", values=TINY_VALUES["p_c"], n_seeds=4)
    sequential = sweep(spec, master_seed=33, jobs=1)
    caller = os.getpid()

    def only_in_workers(name):
        original = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            if os.getpid() == caller:
                raise AssertionError(f"{name} ran in the calling process")
            return original(*args, **kwargs)

        return wrapper

    for name in (
        "gen_erdos_renyi",
        "gen_erdos_renyi_graphs",
        "gen_truncated_gaussian",
        "gen_truncated_gaussian_datasets",
    ):
        monkeypatch.setattr(experiments, name, only_in_workers(name))
    assert sweep(spec, master_seed=33, jobs=2).rows == sequential.rows


@pytest.mark.parametrize("axis", sorted(AXES))
def test_sweep_rows_equal_per_cell_runs(axis, monkeypatch):
    spec = SweepSpec(base=TINY, axis=axis, values=TINY_VALUES[axis], n_seeds=3)
    expected = []
    for value_index, value in enumerate(spec.values):
        for seed_index in range(spec.n_seeds):
            seeds = cell_seeds(9, axis, value_index, seed_index)
            config = build_run_config(TINY.with_value(axis, value), *seeds)
            metrics, end = engine.run(config), config.horizon - 1
            expected.append(
                (axis, value, seed_index, metrics.normalized_error[end],
                 metrics.probe_error[end], metrics.agreement_rounds)
            )
    # Each axis value in one batch, then in three batches of one seed, in
    # blocks of two rounds.
    for block_floats in (None, 2 * TINY.n_nodes * TINY.dimension):
        if block_floats is not None:
            monkeypatch.setattr("dpconsensus.engine._BLOCK_FLOATS", block_floats)
        rows = sweep(spec, master_seed=9).rows
        assert [(r.axis, r.value, r.seed, r.stage2_rounds) for r in rows] == [
            (a, v, s, rounds) for a, v, s, _, _, rounds in expected
        ]
        for row, (*_, error, probe, _) in zip(rows, expected):
            assert row.normalized_error == pytest.approx(error, rel=1e-12, abs=0.0)
            assert row.probe_error == pytest.approx(probe, rel=1e-12, abs=0.0)


def test_the_epsilon_preset_runs_all_values_as_one_batch(monkeypatch):
    """The epsilon values differ only in their noise scales, so 20 or 21
    seeds at 5 values run as one kernel batch of 100 or 105 seeds at
    T=1000; the block budget bounds rounds, not whole trajectories, so a
    21st seed joins that batch rather than stepping alone.  The T values
    change the step sizes, so each still runs as its own batch."""
    batches = []
    kernel = engine.gradient_blocks

    def counted(configs, noise_seeds):
        batches.append((len(noise_seeds), configs[0].horizon))
        return kernel(configs, noise_seeds)

    monkeypatch.setattr(engine, "gradient_blocks", counted)
    for n_seeds in (20, 21):
        spec = replace(preset_sweep("epsilon"), n_seeds=n_seeds)
        batches.clear()
        sweep(spec, master_seed=42)
        assert batches == [(len(spec.values) * n_seeds, 1000)]
    spec = preset_sweep("T")
    batches.clear()
    sweep(spec, master_seed=42)
    assert batches == [(spec.n_seeds, int(value)) for value in spec.values]


def _count_builds(monkeypatch):
    """Every graph ``(n, p_c, seed)`` and dataset ``(n_points, domain, seed,
    node)`` a sweep builds, through the one-graph and one-dataset entry
    points or the batched ones, and the batched calls made."""
    graphs, datasets, batched = [], [], []

    def one_graph(n, p_c, seed):
        graphs.append((n, p_c, seed))

    def graph_batch(n, p_c, seeds):
        batched.append("graphs")
        graphs.extend((n, p_c, seed) for seed in seeds)

    def one_dataset(n_points, domain, seed, node_id=0):
        datasets.append((n_points, domain, seed, node_id))

    def dataset_batch(n_points, domain, seeds, n_nodes):
        batched.append("datasets")
        datasets.extend((n_points, domain, s, node) for s in seeds for node in range(n_nodes))

    for name, record in (
        ("gen_erdos_renyi", one_graph),
        ("gen_erdos_renyi_graphs", graph_batch),
        ("gen_truncated_gaussian", one_dataset),
        ("gen_truncated_gaussian_datasets", dataset_batch),
    ):
        original = getattr(experiments, name)

        def counted(*args, original=original, record=record, **kwargs):
            record(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    return graphs, datasets, batched


@pytest.mark.parametrize(
    "axis, graphs_per_seed, datasets_per_seed",
    [
        ("epsilon", 1, TINY.n_nodes),
        ("p_c", 2, TINY.n_nodes),
        ("points_per_node", 1, 2 * TINY.n_nodes),
    ],
)
def test_sweep_builds_each_graph_and_dataset_once(
    monkeypatch, axis, graphs_per_seed, datasets_per_seed
):
    """Inputs the axis does not regenerate are shared by all its values, and
    a value that builds them takes one batched call per kind."""
    graphs, datasets, batched = _count_builds(monkeypatch)
    n_seeds = 3
    spec = SweepSpec(base=TINY, axis=axis, values=TINY_VALUES[axis], n_seeds=n_seeds)
    sweep(spec, master_seed=4)
    assert len(graphs) == graphs_per_seed * n_seeds
    assert len(datasets) == datasets_per_seed * n_seeds
    assert len(set(graphs)) == len(graphs)
    assert len(set(datasets)) == len(datasets)
    assert batched.count("graphs") == graphs_per_seed
    assert batched.count("datasets") == datasets_per_seed // TINY.n_nodes


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_hopeless_edge_probability_fails_a_sweep_by_name(monkeypatch, jobs):
    """A sweep value whose graphs cannot connect fails with the sampler's
    error after ``_MAX_ATTEMPTS`` streams per graph, in workers too."""
    streams = []

    class Recorded(graph.StreamPrefixes):
        def states(self, rows, indices, n_words=4):
            streams.extend((self.master_seeds[row], index) for row in rows for index in indices)
            return super().states(rows, indices, n_words)

    monkeypatch.setattr(graph, "StreamPrefixes", Recorded)
    monkeypatch.setattr(graph, "_MAX_ATTEMPTS", 25)
    spec = SweepSpec(base=TINY, axis="p_c", values=(1e-6,), n_seeds=2)
    with pytest.raises(GraphError, match="in 25 attempts"):
        sweep(spec, master_seed=5, jobs=jobs)
    if jobs == 1:  # a worker's streams are recorded in its own process
        seeds = [cell_seeds(5, "p_c", 0, seed_index)[0] for seed_index in range(2)]
        assert sorted(streams) == sorted((seed, a) for seed in seeds for a in range(25))


def test_axis_table_is_consistent():
    for axis, (field_name, _, _) in AXES.items():
        assert hasattr(TINY, field_name), axis
