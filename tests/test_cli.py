"""Command-line interface: dispatch, overrides, output contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpconsensus
from dpconsensus import cli, experiments
from dpconsensus.cli import CliError, main, resolve_config
from dpconsensus.experiments import AXES, ExperimentConfig, SweepSpec, preset_sweep

# Small setting shared by the CLI tests; keys exercise every section.
TINY = [
    "--set", "experiment.n_nodes=5",
    "--set", "experiment.points_per_node=20",
    "--set", "experiment.dimension=2",
    "--set", "experiment.horizon=8",
]


def run_cli(*argv) -> int:
    return main(list(argv))


def test_resolve_defaults_match_the_standard_experiment():
    resolved = resolve_config(None, [])
    assert resolved["experiment.n_nodes"] == 10
    assert resolved["experiment.points_per_node"] == 100
    assert resolved["privacy.epsilon"] == 4.0
    assert resolved["privacy.delta"] == 1e-3
    assert resolved["experiment.edge_prob"] == 0.6
    assert resolved["sweep.n_seeds"] == 20
    assert resolved["sweep.values"] == (10.0, 100.0, 1000.0)  # the T axis grid


def test_unknown_key_is_named():
    with pytest.raises(CliError, match="experiment.bogus"):
        resolve_config(None, ["experiment.bogus=1"])


def test_bad_value_is_named():
    with pytest.raises(CliError, match="experiment.horizon"):
        resolve_config(None, ["experiment.horizon=ten"])


def test_config_file_plus_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nhorizon = 12\n\n[privacy]\nepsilon = 2.0\n")
    resolved = resolve_config(str(cfg), ["privacy.epsilon=8.0"])
    assert resolved["experiment.horizon"] == 12
    assert resolved["privacy.epsilon"] == 8.0  # override wins


def test_missing_config_file_is_a_validation_error(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_unknown_command_is_a_validation_error(capsys):
    assert run_cli("frobnicate") == 1


def test_help_lists_configuration_keys(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--help")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for key in ("experiment.horizon", "privacy.epsilon", "sweep.values", "audit.n_samples"):
        assert key in out


def test_run_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("run", *TINY, "--seed", "42", "--output", str(a)) == 0
    assert run_cli("run", *TINY, "--seed", "42", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# dpconsensus")
    assert "# master_seed = 42" in lines[1]
    header_end = max(i for i, line in enumerate(lines) if line.startswith("#"))
    assert lines[header_end + 1] == "stage,t,normalized_error,consensus_dev,probe_error"
    assert any(line.startswith("2,") for line in lines)  # agreement rounds present


def test_rows_csv_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "sweep", *TINY, "--set", "sweep.values=4", "--set", "sweep.n_seeds=2",
            "--seed", "9", "--output", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == f"# dpconsensus {dpconsensus.__version__} sweep"
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "axis,value,seed,normalized_error,probe_error,stage2_rounds,wall_ms"
    # The wall_ms column is always blank so files stay reproducible.
    assert len(body) == 3 and all(row.endswith(",") for row in body[1:])


# Float columns of each CSV the CLI writes.
CSV_FLOAT_COLUMNS = {
    "run": ("normalized_error", "consensus_dev", "probe_error"),
    "schedule": ("step_size", "noise_scale", "sensitivity", "spend"),
    "sweep": ("value", "normalized_error", "probe_error"),
}


def test_csv_lines_end_in_newline_and_floats_round_trip(tmp_path):
    commands = {
        "run": ["run", *TINY],
        "schedule": ["schedule", "--T", "20"],
        "sweep": ["sweep", *TINY, "--set", "sweep.values=4,8", "--set", "sweep.n_seeds=2"],
    }
    for command, argv in commands.items():
        out = tmp_path / f"{command}.csv"
        assert run_cli(*argv, "--output", str(out)) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw, command
        body = [line for line in raw.decode().split("\n")[:-1] if not line.startswith("#")]
        columns = body[0].split(",")
        floats = [columns.index(name) for name in CSV_FLOAT_COLUMNS[command]]
        for line in body[1:]:
            cells = line.split(",")
            assert len(cells) == len(columns), (command, line)
            for i in floats:
                assert repr(float(cells[i])) == cells[i], (command, columns[i], cells[i])


# The benchmark workloads' command lines, and the other commands at their
# defaults.
COMMAND_LINES = {
    "sweep_epsilon": [
        "sweep", "--axis", "epsilon", "--T", "1000", "--set", "sweep.values=0.5,1,2,4,8",
        "--set", "sweep.n_seeds=20", "--jobs", "1",
    ],
    "sweep_connectivity": [
        "sweep", "--axis", "p_c", "--T", "50", "--set", "sweep.values=0.1,0.3,0.6,1.0",
        "--set", "sweep.n_seeds=20", "--jobs", "1",
    ],
    "audit": ["audit", "--T", "100", "--samples", "2000", "--epsilon", "4", "--delta", "1e-3"],
    "bound": ["bound"],
    "run": ["run"],
    "schedule": ["schedule"],
}


def test_each_command_calibrates_each_config_once(tmp_path, monkeypatch):
    """One calibration per ExperimentConfig: the command's base and, for a
    sweep, one per value.  Resolving the keys and building the parser, with
    its key table, build none, so ``--version`` calibrates nothing."""
    calls, calibrate = [], experiments.calibrate_noise_schedule
    monkeypatch.setattr(
        experiments, "calibrate_noise_schedule", lambda *a: calls.append(a) or calibrate(*a)
    )
    counts = {}
    for name, argv in COMMAND_LINES.items():
        before = len(calls)
        assert run_cli(*argv, "--seed", "42", "--output", str(tmp_path / name)) == 0
        counts[name] = len(calls) - before
    with pytest.raises(SystemExit):
        run_cli("--version")
    counts["--version"] = len(calls) - sum(counts.values())
    assert counts == {
        "sweep_epsilon": 6, "sweep_connectivity": 5, "audit": 1, "bound": 1, "run": 1,
        "schedule": 1, "--version": 0,
    }


@pytest.mark.parametrize("axis", sorted(AXES))
def test_resolved_defaults_are_the_preset_and_build_no_config(monkeypatch, axis):
    with monkeypatch.context() as patched:
        patched.setattr(
            ExperimentConfig, "__post_init__", lambda self: pytest.fail("built a config")
        )
        resolved = resolve_config(None, [f"sweep.axis={axis}"])
    spec = SweepSpec(
        base=cli._base_config(resolved),
        axis=axis,
        values=resolved["sweep.values"],
        n_seeds=resolved["sweep.n_seeds"],
    )
    preset = preset_sweep(axis)
    assert (spec.base, spec.values, spec.n_seeds) == (preset.base, preset.values, preset.n_seeds)


def test_sweep_defaults_come_from_the_preset_of_its_axis(tmp_path):
    # No horizon is given: the connectivity preset runs 50 rounds, the T
    # preset's base keeps the standard 1000.
    small = [
        "--set", "experiment.n_nodes=5", "--set", "experiment.points_per_node=20",
        "--set", "experiment.dimension=2", "--set", "sweep.n_seeds=1",
    ]
    for axis, values, horizon in (("p_c", "1.0", 50), ("T", "4", 1000)):
        out = tmp_path / f"{axis}.csv"
        code = run_cli(
            "sweep", *small, "--axis", axis, "--set", f"sweep.values={values}",
            "--output", str(out),
        )
        assert code == 0
        assert f"# experiment.horizon = {horizon}" in out.read_text().splitlines()
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["config"]["experiment.horizon"] == horizon


@pytest.mark.parametrize(
    "argv, key",
    [
        (["schedule", "--T", "ten"], "experiment.horizon"),
        (["sweep", "--epsilon", "big"], "privacy.epsilon"),
        (["bound", "--delta", "small"], "privacy.delta"),
        (["audit", "--samples", "many"], "audit.n_samples"),
    ],
)
def test_bad_shorthand_value_names_its_key(capsys, argv, key):
    assert run_cli(*argv) == 1
    assert f"bad value for {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("privacy.epsilon=nan", "epsilon must be finite and positive, got nan"),
        ("privacy.epsilon=inf", "epsilon must be finite and positive, got inf"),
        ("privacy.calibration_grad_bound=nan", "grad_bound must be finite and positive, got nan"),
    ],
)
def test_non_finite_inputs_fail_by_name(tmp_path, capsys, setting, message):
    out = tmp_path / "schedule.csv"
    code = run_cli("schedule", "--T", "5", "--set", setting, "--output", str(out))
    assert code == 2
    assert f"failure: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_only_the_top_level_help_lists_configuration_keys(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("run", "--help")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out and "configuration keys" not in out


# Values at the ends of the float range, alone or paired, that reached the
# schedule and crashed there or failed without naming their inputs.
OUT_OF_FLOAT_RANGE = [
    ["privacy.epsilon=1e-300"],
    ["privacy.epsilon=1e-159"],
    ["privacy.epsilon=1e300"],
    ["privacy.delta=1e-320"],
    ["experiment.half_width=1e-170"],
    ["experiment.half_width=1e300"],
    ["privacy.calibration_grad_bound=1e-300"],
    ["privacy.calibration_grad_bound=1e300"],
    ["privacy.epsilon=1e10", "privacy.calibration_grad_bound=1e-150"],
    ["privacy.epsilon=1e-9", "privacy.calibration_grad_bound=4e-162"],  # subnormal G^2
]


@pytest.mark.parametrize("values", OUT_OF_FLOAT_RANGE)
@pytest.mark.parametrize("command", ["schedule", "sweep"])
def test_values_out_of_float_range_fail_by_name(tmp_path, capsys, monkeypatch, command, values):
    """Each exits 2 naming epsilon, delta and the gradient bound, writes no
    file, and a sweep samples no graph."""
    for name in ("gen_erdos_renyi", "gen_erdos_renyi_graphs"):
        monkeypatch.setattr(
            f"dpconsensus.experiments.{name}", lambda *a: pytest.fail("sampled a graph")
        )
    out = tmp_path / "out.csv"
    overrides = [arg for value in values for arg in ("--set", value)]
    assert run_cli(command, *overrides, "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and err.count("\n") == 1
    for name in ("epsilon=", "delta=", "gradient bound "):
        assert name in err
    assert not out.exists()


# Every float key of the configuration, with its ExperimentConfig field.
FLOAT_FIELDS = {
    "privacy.epsilon": "epsilon",
    "privacy.delta": "delta",
    "experiment.half_width": "half_width",
    "privacy.calibration_grad_bound": "calibration_grad_bound",
}


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(FLOAT_FIELDS)), st.floats(), min_size=1))
def test_every_float_value_runs_or_fails_by_name(tmp_path_factory, values):
    """Over the whole float range of one or more keys, subnormals,
    infinities and NaN included, either the config rejects the values with a
    ``ValueError`` and ``schedule`` exits 2, or ``schedule`` exits 0 with
    finite, positive noise scales."""
    out = tmp_path_factory.mktemp("schedule") / "schedule.csv"
    overrides = [arg for key, value in values.items() for arg in ("--set", f"{key}={value!r}")]
    argv = ["schedule", *overrides, "--output", str(out)]
    try:
        ExperimentConfig(**{FLOAT_FIELDS[key]: value for key, value in values.items()})
    except ValueError:
        assert main(argv) == 2
        return
    assert main(argv) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    scales = np.array([float(row.split(",")[2]) for row in rows])
    assert len(scales) == 1000
    assert np.isfinite(scales).all() and (scales > 0.0).all()


def test_run_seed_changes_the_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", *TINY, "--seed", "1", "--output", str(a))
    run_cli("run", *TINY, "--seed", "2", "--output", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_schedule_command_writes_table_and_budget_line(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    code = run_cli(
        "schedule", "--T", "1000", "--epsilon", "4", "--delta", "1e-3",
        "--output", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "budget_check: pass=True" in printed
    lines = out.read_text().splitlines()
    assert any("budget_check pass=True" in line for line in lines if line.startswith("#"))
    data_lines = [line for line in lines if not line.startswith("#")]
    assert data_lines[0] == "t,step_size,noise_scale,sensitivity,spend"
    assert len(data_lines) == 1001


def test_schedule_builds_no_graph_or_data(tmp_path, monkeypatch):
    """The schedule depends on the data only through points_per_node, so a
    graph too sparse to sample connected still gets the dense graph's table."""
    def no_sampling(*args, **kwargs):
        pytest.fail("schedule sampled a graph or a dataset")

    for name in (
        "gen_erdos_renyi",
        "gen_erdos_renyi_graphs",
        "gen_truncated_gaussian",
        "gen_truncated_gaussian_datasets",
    ):
        monkeypatch.setattr(f"dpconsensus.experiments.{name}", no_sampling)
    tables = []
    for edge_prob in ("0.02", "0.6"):
        out = tmp_path / f"schedule_{edge_prob}.csv"
        code = run_cli(
            "schedule", "--set", "experiment.n_nodes=60",
            "--set", f"experiment.edge_prob={edge_prob}", "--T", "10", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        tables.append([line for line in lines if not line.startswith("# ") or "budget" in line])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 12  # the budget line, the column names and 10 rounds


def test_sweep_command_writes_rows_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--axis", "T",
        "--set", "sweep.values=4,8",
        "--set", "sweep.n_seeds=2",
        "--output", str(out), "--seed", "7",
    )
    assert code == 0
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["axis"] == "T"
    assert summary["master_seed"] == 7
    assert set(summary["per_value"]) == {"4.0", "8.0"}
    assert summary["config"]["sweep.values"] == [4.0, 8.0]
    again = tmp_path / "again.csv"
    run_cli(
        "sweep", *TINY, "--axis", "T",
        "--set", "sweep.values=4,8", "--set", "sweep.n_seeds=2",
        "--output", str(again), "--seed", "7",
    )
    assert again.read_bytes() == out.read_bytes()


def test_audit_command_reports_the_tail(tmp_path):
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", *TINY, "--samples", "1000", "--T", "6",
        "--output", str(out), "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_samples"] == 1000
    assert payload["pass"] is True
    assert payload["exceed_rate"] <= payload["bound"]
    assert payload["max_deterministic_part"] <= payload["alpha"] / 2.0 * (1 + 1e-12)
    assert payload["config"]["experiment.horizon"] == 6
    assert payload["master_seed"] == 3


def test_bound_command_compares_bound_and_simulation(tmp_path):
    out = tmp_path / "bound.json"
    code = run_cli(
        "bound", *TINY, "--set", "bound.n_runs=50", "--output", str(out), "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["empirical_mean"] <= payload["total"]
    assert set(payload["terms"]) == {"init", "grad", "trans", "floor"}
    assert payload["total"] == pytest.approx(sum(payload["terms"].values()))


def test_bound_command_evaluates_the_bound_once(tmp_path, monkeypatch):
    import dpconsensus.analysis as analysis
    import dpconsensus.cli as cli

    calls, evaluate = [], analysis.mean_error_bound

    def counting(inputs):
        calls.append(inputs)
        return evaluate(inputs)

    monkeypatch.setattr(analysis, "mean_error_bound", counting)
    monkeypatch.setattr(cli, "mean_error_bound", counting)
    out = tmp_path / "bound.json"
    assert run_cli("bound", *TINY, "--set", "bound.n_runs=50", "--output", str(out)) == 0
    assert len(calls) == 1


def test_bound_command_averages_fewer_than_fifty_runs(tmp_path):
    out = tmp_path / "bound.json"
    assert run_cli("bound", *TINY, "--set", "bound.n_runs=10", "--output", str(out)) == 0
    assert json.loads(out.read_text())["n_runs"] == 10


def test_set_flag_requires_key_value(capsys):
    assert run_cli("run", "--set", "horizon") == 1
    assert "--set" in capsys.readouterr().err


def test_sweep_defaults_to_the_preset_grid_of_its_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--axis", "epsilon", "--T", "5", "--set", "sweep.n_seeds=1",
        "--output", str(out),
    )
    assert code == 0
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["config"]["sweep.values"] == grid
    assert sorted(float(v) for v in summary["per_value"]) == grid
    lines = out.read_text().splitlines()
    assert "# sweep.values = 0.5,1.0,2.0,4.0,8.0" in lines
    rows = [line for line in lines if line.startswith("epsilon,")]
    assert [float(row.split(",")[1]) for row in rows] == grid


def test_unknown_sweep_axis_is_named(tmp_path, capsys):
    code = run_cli("sweep", *TINY, "--axis", "bogus", "--output", str(tmp_path / "s.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert "sweep.axis" in err and "bogus" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("audit.node_id", "5", "edit node_id 5 out of range"),  # TINY has 5 nodes
        ("audit.node_id", "-1", "edit node_id -1 out of range"),
        ("audit.point_index", "20", "edit point_index 20 out of range"),  # 20 points
    ],
)
def test_out_of_range_audit_indices_fail_by_name(tmp_path, capsys, key, value, message):
    out = tmp_path / "audit.json"
    code = run_cli(
        "audit", *TINY, "--samples", "1000", "--set", f"{key}={value}", "--output", str(out)
    )
    assert code == 2
    assert f"failure: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bound_with_zero_runs_fails_without_writing(tmp_path, capsys):
    out = tmp_path / "bound.json"
    code = run_cli("bound", *TINY, "--set", "bound.n_runs=0", "--output", str(out))
    assert code == 2
    assert "at least one run" in capsys.readouterr().err
    assert not out.exists()


def test_non_integral_horizon_values_fail_by_name(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--axis", "T", "--set", "sweep.values=2.7,5", "--output", str(out)
    )
    assert code == 2
    assert "axis T needs integer values, got 2.7" in capsys.readouterr().err
    assert not out.exists()


def test_audit_rejects_too_few_samples_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        pytest.fail("collect_samples ran for a sample count the tail audit rejects")

    monkeypatch.setattr("dpconsensus.cli.collect_samples", no_sampling)
    out = tmp_path / "audit.json"
    code = run_cli("audit", *TINY, "--samples", "999", "--output", str(out))
    assert code == 2
    assert "failure: need at least 1000 samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_a_non_positive_worker_count(tmp_path, capsys, jobs):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--set", "sweep.values=4", "--set", "sweep.n_seeds=1",
        "--jobs", jobs, "--output", str(out),
    )
    assert code == 2
    assert f"failure: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "schedule", "bound", "audit"])
def test_every_command_rejects_a_non_positive_worker_count(tmp_path, capsys, command):
    code = run_cli(command, *TINY, "--jobs", "-5", "--output", str(tmp_path / "out"))
    assert code == 2
    assert "failure: jobs must be >= 1, got -5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_graph_error_in_a_sweep_worker_fails_by_name(tmp_path, capsys):
    # Five nodes at edge probability 0.001 almost never form a connected graph.
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--axis", "p_c", "--set", "sweep.values=0.001",
        "--set", "sweep.n_seeds=2", "--jobs", "2", "--output", str(out),
    )
    assert code == 2
    assert "failure: no connected G(5, 0.001) sample in 10000 attempts" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_a_repeated_value_before_any_cell_runs(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", *TINY, "--axis", "epsilon", "--set", "sweep.values=4,2,4.0",
        "--set", "sweep.n_seeds=2", "--output", str(out),
    )
    assert code == 2
    assert "failure: duplicate value 4.0 in values" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_prints_the_version():
    src = str(Path(dpconsensus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "dpconsensus.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == dpconsensus.__version__ == "0.1.0"
