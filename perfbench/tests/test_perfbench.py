"""Tests of the benchmark harness: its description, oracle and span table."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracle, spans  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.workloads import MASTER_SEEDS, WORKLOADS, seed_cycle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_describes_this_harness():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    metrics = bench["end_to_end"] + bench["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    # 4 + 22 runs per workload, each with set-up and at most one pass past the deadline.
    runs = 4 + 22 * len(bench["workloads"])
    assert isinstance(bench["run_seconds"], int) and runs * (bench["run_seconds"] + 10) < 3420


def test_layer_map_names_every_per_layer_metric():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["metrics"]
    bench = _bench()
    assert list(layer_map) == [m["name"] for m in bench["per_layer"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for entry in layer_map.values():
        for move in entry["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in WORKLOADS
        assert set(entry["no_change_on"]) <= set(WORKLOADS)


def test_references_cover_every_master_seed():
    for workload in WORKLOADS.values():
        reference = json.loads(workload.reference_path().read_text())
        assert reference["args"] == list(workload.args)
        assert sorted(reference["seeds"]) == sorted(str(s) for s in MASTER_SEEDS)


def test_even_seeds_cycle_the_development_group_and_odd_seeds_the_held_out_one():
    assert seed_cycle(0) == list(range(42, 52))
    assert seed_cycle(1) == list(range(52, 62))
    assert seed_cycle(4) == [44, 45, 46, 47, 48, 49, 50, 51, 42, 43]
    assert seed_cycle(24) == seed_cycle(4)
    assert {s for n in range(2) for s in seed_cycle(n)} == set(MASTER_SEEDS)


def _run_cli(workload, tmp_path: Path, seed: int) -> dict[str, bytes]:
    from dpconsensus import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.argv(seed, tmp_path)) == 0
    return {name: (tmp_path / name).read_bytes() for name in workload.outputs}


@pytest.fixture(scope="module")
def connectivity_pass(tmp_path_factory):
    from dpconsensus.experiments import preset_sweep

    workload = WORKLOADS["sweep_connectivity"]
    outputs = _run_cli(workload, tmp_path_factory.mktemp("sweep"), 42)
    reference = json.loads(workload.reference_path().read_text())["seeds"]["42"]
    return workload, outputs, reference, preset_sweep("p_c")


def _check(connectivity_pass, outputs, previous=None, exit_code=0):
    workload, _, reference, preset = connectivity_pass
    return oracle.check_pass(workload, exit_code, outputs, previous, reference, 42, preset)


def _scale_first_error(outputs: dict[str, bytes], factor: float) -> dict[str, bytes]:
    """Multiply the first row's normalized_error by ``factor`` in the CSV."""
    lines = outputs["sweep.csv"].decode().splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines) if line.startswith("p_c,"))
    cells = lines[first_row].split(",")
    cells[3] = repr(float(cells[3]) * factor)
    lines[first_row] = ",".join(cells)
    return dict(outputs, **{"sweep.csv": "".join(lines).encode()})


def test_oracle_accepts_the_seed_commit_outputs(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    assert _check(connectivity_pass, outputs, previous=outputs) == []


def test_oracle_admits_reordered_sums_but_not_a_changed_result(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    reordered = _scale_first_error(outputs, 1.0 + 4e-16)
    assert _check(connectivity_pass, reordered) == []
    changed = _scale_first_error(outputs, 1.0 + 1e-6)
    problems = _check(connectivity_pass, changed)
    assert len(problems) == 1 and "normalized_error" in problems[0]


def test_oracle_fails_a_pass_that_differs_from_the_previous_one(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    reordered = _scale_first_error(outputs, 1.0 + 4e-16)
    assert _check(connectivity_pass, reordered, previous=outputs) == [
        "sweep.csv differs from the previous pass"
    ]


def test_oracle_fails_a_nonzero_exit_or_missing_output(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    assert _check(connectivity_pass, outputs, exit_code=2) == ["exit code 2"]
    missing = dict(outputs, **{"sweep.summary.json": None})
    assert _check(connectivity_pass, missing) == ["output not written: sweep.summary.json"]


def test_oracle_fails_a_sweep_off_the_preset_grid(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    text = outputs["sweep.csv"].decode().replace("experiment.horizon = 50", "experiment.horizon = 1000")
    problems = _check(connectivity_pass, dict(outputs, **{"sweep.csv": text.encode()}))
    assert problems == ["header experiment.horizon = '1000', preset has '50'"]


def test_oracle_fails_a_changed_summary(connectivity_pass):
    _, outputs, _, _ = connectivity_pass
    summary = json.loads(outputs["sweep.summary.json"])
    summary["per_value"]["0.1"]["probe_error_mean"] *= 1.001
    changed = dict(outputs, **{"sweep.summary.json": json.dumps(summary).encode()})
    problems = _check(connectivity_pass, changed)
    assert len(problems) == 1 and "probe_error_mean" in problems[0]


def _audit_check(record: dict) -> list[str]:
    workload = WORKLOADS["audit_t100"]
    reference = json.loads(workload.reference_path().read_text())["seeds"]["42"]
    outputs = {"audit.json": json.dumps(record).encode()}
    return oracle.check_pass(workload, 0, outputs, None, reference, 42)


def test_oracle_checks_the_audit_against_reference_and_criterion_7():
    reference = json.loads(WORKLOADS["audit_t100"].reference_path().read_text())["seeds"]["42"]
    assert _audit_check(reference) == []
    over = dict(reference, max_deterministic_part=reference["alpha"] * 0.51)
    assert any("exceeds alpha/2" in p for p in _audit_check(over))
    failed = dict(reference, **{"pass": False})
    assert any(p.startswith("tail audit failed") for p in _audit_check(failed))
    shifted = dict(reference, noise_part_mean=reference["noise_part_mean"] + 1e-6)
    assert [p.split(" ")[0] for p in _audit_check(shifted)] == ["noise_part_mean"]


def _span(span_id, parent, name, start, end, info=None):
    return spans.Span(span_id, parent, 0, name, "test", start, end, info)


def test_layer_metrics_subtract_child_spans_for_self_time():
    table = spans.layer_metrics([
        _span(1, 0, "experiments.build_run_config", 1_000_000, 3_000_000),
        _span(2, 0, "engine.run_gradient_phase", 3_000_000, 7_000_000, 100),
        _span(0, None, "experiments.sweep", 0, 8_000_000),
        _span(3, None, "cli.main", 0, 9_000_000),
    ])
    assert table["experiments.sweep.self_ms"] == pytest.approx(2.0)
    assert table["engine.gradient_round_us"] == pytest.approx(40.0)
    assert table["audit.sample_ms_p99"] == 0.0
    assert set(table) | {"trace.overhead_frac"} == {name for name, _, _ in spans.PER_LAYER}


def test_install_wraps_where_callers_look_up_and_restore_undoes_it():
    from dpconsensus import engine, experiments
    from dpconsensus.experiments import ExperimentConfig, build_run_config

    originals = (experiments.gen_erdos_renyi, vars(engine.RunMetrics)["concat"], engine.run)
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        assert experiments.gen_erdos_renyi.__wrapped__ is originals[0]
        config = build_run_config(ExperimentConfig(n_nodes=3, horizon=5), 1, 2, 3)
        experiments.engine.run(config)
    finally:
        restore()
    assert (experiments.gen_erdos_renyi, vars(engine.RunMetrics)["concat"], engine.run) == originals
    table = spans.layer_metrics(recorder.spans)
    assert table["engine.gradient_rounds"] == 5
    assert table["graph.gen_erdos_renyi.calls"] == 1
    assert table["objectives.gen_truncated_gaussian.calls"] == 3
    assert table["engine.concat.ms"] > 0.0
    names = {s.name for s in recorder.spans}
    assert "objectives.project_box" not in names and "rng.derive_rng" in names


def test_run_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "audit_t100",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
