"""Correctness oracle: a pass fails if any check here reports a problem.

A pass is checked against

* its exit code, which must be 0;
* the previous pass of the same run with the same master seed, which it
  must equal byte for byte;
* reference outputs stored from the seed commit (``reference/*.json``),
  within a tolerance that admits reordered floating-point sums but not a
  changed algorithm;
* the preset grid the sweep must reproduce, and the criterion-7 audit
  invariants (deterministic part at most alpha/2, tail audit passes).

Every check returns a list of human-readable problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

from perfbench.workloads import CONFIG_KEYS, Workload

# Reordering a float sum moves results by ~1e-15 relative (10 nodes, up to
# 1000 rounds); a changed algorithm, noise law or schedule moves them by far
# more than 1e-9.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Slack on alpha/2 for summation order, as in the acceptance suite.
FP_SLACK = 1e-12

SWEEP_FLOAT_COLUMNS = ("normalized_error", "probe_error")
AUDIT_FLOAT_FIELDS = (
    "exceed_rate",
    "bound",
    "alpha",
    "max_deterministic_part",
    "noise_part_mean",
    "noise_part_stddev",
)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def parse_sweep_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """``#`` header lines as ``key -> value`` text, then the table rows."""
    header: dict[str, str] = {}
    body: list[str] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(" = ")
            if sep:
                header[key] = value
        else:
            body.append(line)
    return header, list(csv.DictReader(io.StringIO("".join(body))))


def sweep_record(csv_text: str, summary_text: str) -> dict:
    """The values of a sweep's outputs that the reference pins."""
    _, rows = parse_sweep_csv(csv_text)
    summary = json.loads(summary_text)
    return {
        "rows": [
            [
                float(r["value"]),
                int(r["seed"]),
                float(r["normalized_error"]),
                float(r["probe_error"]),
                int(r["stage2_rounds"]),
            ]
            for r in rows
        ],
        "summary": summary["per_value"],
    }


def audit_record(json_text: str) -> dict:
    """The values of an audit report that the reference pins."""
    payload = json.loads(json_text)
    keys = ("config", "master_seed", "n_samples", "pass", *AUDIT_FLOAT_FIELDS)
    return {key: payload[key] for key in keys}


def check_preset(header: dict[str, str], rows: list[dict[str, str]], preset, master_seed: int) -> list[str]:
    """The sweep ran exactly the cells of ``preset`` (a ``SweepSpec``)."""
    problems = []
    expected = {
        "master_seed": str(master_seed),
        "sweep.axis": preset.axis,
        "sweep.n_seeds": str(preset.n_seeds),
    }
    for field in fields(preset.base):
        key = CONFIG_KEYS.get(field.name)
        if key is None:
            problems.append(f"no CLI key known for ExperimentConfig.{field.name}")
            continue
        expected[key] = str(getattr(preset.base, field.name))
    for key, value in expected.items():
        if header.get(key) != value:
            problems.append(f"header {key} = {header.get(key)!r}, preset has {value!r}")
    try:
        values = [float(v) for v in header.get("sweep.values", "").split(",")]
    except ValueError:
        values = None
    if values != list(preset.values):
        problems.append(f"header sweep.values = {header.get('sweep.values')!r}, preset has {preset.values}")
    cells = [(r["axis"], float(r["value"]), int(r["seed"])) for r in rows]
    grid = [(preset.axis, v, s) for v in preset.values for s in range(preset.n_seeds)]
    if cells != grid:
        problems.append(f"sweep cells differ from preset_sweep({preset.axis!r}): {len(cells)} rows")
    return problems


def compare_sweep(record: dict, reference: dict) -> list[str]:
    problems = []
    got, want = record["rows"], reference["rows"]
    if len(got) != len(want):
        return [f"{len(got)} sweep rows, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        value, seed = w[0], w[1]
        if g[0] != value or g[1] != seed:
            problems.append(f"row {i}: cell ({g[0]}, {g[1]}), reference ({value}, {seed})")
            continue
        for column, a, b in zip(SWEEP_FLOAT_COLUMNS, g[2:4], w[2:4]):
            if not close(a, b):
                problems.append(f"cell ({value}, {seed}) {column} {a!r} != reference {b!r}")
        if g[4] != w[4]:
            problems.append(f"cell ({value}, {seed}) stage2_rounds {g[4]} != reference {w[4]}")
    got_summary, want_summary = record["summary"], reference["summary"]
    if sorted(got_summary) != sorted(want_summary):
        return problems + [f"summary values {sorted(got_summary)} != reference {sorted(want_summary)}"]
    for value, entry in want_summary.items():
        for key, b in entry.items():
            a = got_summary[value].get(key)
            ok = a == b if isinstance(b, int) else isinstance(a, float) and close(a, b)
            if not ok:
                problems.append(f"summary {value} {key} {a!r} != reference {b!r}")
    return problems


def compare_audit(record: dict, reference: dict) -> list[str]:
    problems = []
    for key, value in reference["config"].items():
        if record["config"].get(key) != value:
            problems.append(f"config {key} = {record['config'].get(key)!r}, reference {value!r}")
    for key in ("master_seed", "n_samples", "pass"):
        if record[key] != reference[key]:
            problems.append(f"{key} = {record[key]!r}, reference {reference[key]!r}")
    for key in AUDIT_FLOAT_FIELDS:
        if not close(record[key], reference[key]):
            problems.append(f"{key} {record[key]!r} != reference {reference[key]!r}")
    return problems


def audit_invariants(record: dict) -> list[str]:
    """Criterion 7: the deterministic part stays within alpha/2 and the tail audit passes."""
    problems = []
    half_alpha = record["alpha"] / 2.0
    if not record["max_deterministic_part"] <= half_alpha * (1.0 + FP_SLACK):
        problems.append(
            f"max deterministic part {record['max_deterministic_part']!r} exceeds alpha/2 = {half_alpha!r}"
        )
    if record["pass"] is not True:
        problems.append(f"tail audit failed: exceed_rate {record['exceed_rate']!r} > bound {record['bound']!r}")
    return problems


def check_pass(
    workload: Workload,
    exit_code: int,
    outputs: dict[str, bytes | None],
    previous: dict[str, bytes | None] | None,
    reference: dict,
    master_seed: int,
    preset=None,
) -> list[str]:
    """Every problem with one pass; ``reference`` is the stored record of ``master_seed``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name, data in outputs.items() if data is None]
    if missing:
        return [f"output not written: {', '.join(missing)}"]
    problems = []
    if previous is not None:
        problems += [f"{name} differs from the previous pass" for name in outputs if outputs[name] != previous[name]]
    texts = {name: data.decode() for name, data in outputs.items()}
    try:
        if workload.axis is not None:
            csv_text, summary_text = (texts[name] for name in workload.outputs)
            header, rows = parse_sweep_csv(csv_text)
            problems += check_preset(header, rows, preset, master_seed)
            problems += compare_sweep(sweep_record(csv_text, summary_text), reference)
        else:
            record = audit_record(texts[workload.outputs[0]])
            problems += audit_invariants(record)
            problems += compare_audit(record, reference)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems
