"""Command-line front end.

Commands::

    run       one simulation; writes the per-round trajectory CSV
    sweep     axis sweep; writes the result table CSV and a JSON summary
    audit     Monte Carlo privacy-loss audit; writes a JSON report
    bound     closed-form error bound vs simulated runs; writes JSON
    schedule  noise-schedule table CSV plus a budget check line

Configuration is an INI file of ``[section] key = value`` entries; every
key can also be overridden on the command line with repeated
``--set section.key=value`` flags.  Outputs are a pure function of the
resolved configuration and ``--seed``; CSV files start with ``#`` comment
lines recording both, JSON files embed them under ``config`` and
``master_seed``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .analysis import empirical_vs_bound, mean_error_bound
from .audit import collect_samples, plant_point, tail_audit, worst_case_edit
from .engine import RunConfig, run, run_gradient_phase
from .experiments import (
    ExperimentConfig,
    SweepSpec,
    bound_inputs,
    build_run_config,
    single_run_seeds,
    sweep,
    write_rows_csv,
    write_summary_json,
)
from .privacy import budget_check
from .rng import derive_seed

__all__ = ["CliError", "main", "entrypoint"]

_BOUND_NOISE_STREAM = 11
_DEFAULT_SEED = 42


class CliError(ValueError):
    """Configuration or usage problem; exits with status 1."""


def _optional_int(text: str) -> int | None:
    return None if text.strip().lower() == "none" else int(text)


def _optional_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else float(text)


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty value list")
    return values


# dotted key -> (parser, default); defaults match ExperimentConfig.
_DEFAULT_BASE = ExperimentConfig()
_SCHEMA: dict[str, tuple[Callable, object]] = {
    "experiment.n_nodes": (int, _DEFAULT_BASE.n_nodes),
    "experiment.points_per_node": (int, _DEFAULT_BASE.points_per_node),
    "experiment.edge_prob": (float, _DEFAULT_BASE.edge_prob),
    "experiment.dimension": (int, _DEFAULT_BASE.dimension),
    "experiment.half_width": (float, _DEFAULT_BASE.half_width),
    "experiment.horizon": (int, _DEFAULT_BASE.horizon),
    "experiment.probe_node": (int, _DEFAULT_BASE.probe_node),
    "experiment.strict_first_broadcast": (_bool, _DEFAULT_BASE.strict_first_broadcast),
    "privacy.epsilon": (float, _DEFAULT_BASE.epsilon),
    "privacy.delta": (float, _DEFAULT_BASE.delta),
    "privacy.calibration_grad_bound": (_optional_float, _DEFAULT_BASE.calibration_grad_bound),
    "stage2.rel_tol": (float, _DEFAULT_BASE.stage2_rel_tol),
    "stage2.max_rounds": (_optional_int, _DEFAULT_BASE.stage2_max_rounds),
    "sweep.axis": (str, "T"),
    "sweep.values": (_float_list, (10.0, 100.0, 1000.0)),
    "sweep.n_seeds": (int, 20),
    "audit.n_samples": (int, 10_000),
    "audit.node_id": (int, 0),
    "audit.point_index": (int, 0),
    "bound.n_runs": (int, 50),
}


def _schema_help() -> str:
    lines = ["configuration keys (INI sections; override with --set KEY=VALUE):"]
    for key, (_, default) in _SCHEMA.items():
        shown = ",".join(repr(v) for v in default) if isinstance(default, tuple) else default
        lines.append(f"  {key} = {shown}")
    return "\n".join(lines)


def _load_config_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise CliError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            raw[f"{section}.{key}"] = value
    return raw


def resolve_config(
    config_path: str | None, overrides: Sequence[str]
) -> dict[str, object]:
    """Defaults, then the config file, then ``--set`` overrides."""
    resolved = {key: default for key, (_, default) in _SCHEMA.items()}
    raw: dict[str, str] = {}
    if config_path:
        raw.update(_load_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--set expects section.key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise CliError(f"unknown configuration key: {key}")
        parse, _ = _SCHEMA[key]
        try:
            resolved[key] = parse(value)
        except ValueError as exc:
            raise CliError(f"bad value for {key}: {exc}") from exc
    return resolved


def _base_config(resolved: dict[str, object]) -> ExperimentConfig:
    return ExperimentConfig(
        n_nodes=resolved["experiment.n_nodes"],
        points_per_node=resolved["experiment.points_per_node"],
        edge_prob=resolved["experiment.edge_prob"],
        dimension=resolved["experiment.dimension"],
        half_width=resolved["experiment.half_width"],
        horizon=resolved["experiment.horizon"],
        epsilon=resolved["privacy.epsilon"],
        delta=resolved["privacy.delta"],
        stage2_rel_tol=resolved["stage2.rel_tol"],
        stage2_max_rounds=resolved["stage2.max_rounds"],
        probe_node=resolved["experiment.probe_node"],
        strict_first_broadcast=resolved["experiment.strict_first_broadcast"],
        calibration_grad_bound=resolved["privacy.calibration_grad_bound"],
    )


def _header_lines(command: str, resolved: dict[str, object], seed: int) -> list[str]:
    lines = [f"dpconsensus {__version__} {command}", f"master_seed = {seed}"]
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def _json_config(resolved: dict[str, object]) -> dict:
    return {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in sorted(resolved.items())
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _single_config(resolved: dict[str, object], seed: int) -> RunConfig:
    graph_seed, data_seed, noise_seed = single_run_seeds(seed)
    return build_run_config(_base_config(resolved), graph_seed, data_seed, noise_seed)


def _cmd_run(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    config = _single_config(resolved, args.seed)
    metrics = run(config)
    out = Path(args.output or "run.csv")
    with open(out, "w", newline="") as fh:
        for line in _header_lines("run", resolved, args.seed):
            fh.write(f"# {line}\n")
        fh.write("stage,t,normalized_error,consensus_dev,probe_error\n")
        for stage, t, err, dev, probe in metrics.rows():
            fh.write(f"{stage},{t},{err!r},{dev!r},{probe!r}\n")
    print(f"run: wrote {metrics.t.size} rounds to {out}")
    return 0


def _cmd_schedule(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    base = _base_config(resolved)
    config = _single_config(resolved, args.seed)
    schedule = config.schedule
    report = budget_check(schedule, None, base.budget)
    out = Path(args.output or "schedule.csv")
    with open(out, "w", newline="") as fh:
        for line in _header_lines("schedule", resolved, args.seed):
            fh.write(f"# {line}\n")
        fh.write(
            f"# budget_check pass={report.passed} spent={report.spent!r} "
            f"allowance={report.allowance!r}\n"
        )
        fh.write("t,step_size,noise_scale,sensitivity,spend\n")
        for t, eta, scale, sens, spend in schedule.rows():
            fh.write(f"{t},{eta!r},{scale!r},{sens!r},{spend!r}\n")
    print(
        f"budget_check: pass={report.passed} spent={report.spent:.6g} "
        f"allowance={report.allowance:.6g}"
    )
    print(f"schedule: wrote {schedule.horizon} rounds to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    spec = SweepSpec(
        base=_base_config(resolved),
        axis=resolved["sweep.axis"],
        values=resolved["sweep.values"],
        n_seeds=resolved["sweep.n_seeds"],
    )
    result = sweep(spec, args.seed, jobs=args.jobs)
    out = Path(args.output or "sweep.csv")
    write_rows_csv(result, out, _header_lines("sweep", resolved, args.seed))
    summary_path = out.with_suffix(".summary.json")
    write_summary_json(result, summary_path, _json_config(resolved))
    print(f"sweep: wrote {len(result.rows)} rows to {out} and summary to {summary_path}")
    return 0


def _cmd_audit(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    if args.samples is not None:
        resolved = dict(resolved, **{"audit.n_samples": args.samples})
    base = _base_config(resolved)
    config = _single_config(resolved, args.seed)
    config = plant_point(config, resolved["audit.node_id"], resolved["audit.point_index"])
    edit = worst_case_edit(config, resolved["audit.node_id"], resolved["audit.point_index"])
    samples = collect_samples(config, edit, resolved["audit.n_samples"], args.seed)
    report = tail_audit(samples, base.budget)
    alpha = config.schedule.alpha
    dets = np.array([s.deterministic_part for s in samples])
    noises = np.array([s.noise_part for s in samples])
    payload = {
        "config": _json_config(resolved),
        "master_seed": args.seed,
        "n_samples": report.n_samples,
        "exceed_rate": report.exceed_rate,
        "bound": report.bound,
        "pass": report.passed,
        "alpha": alpha,
        "max_deterministic_part": float(dets.max()),
        "noise_part_mean": float(noises.mean()),
        "noise_part_stddev": float(noises.std()),
    }
    out = Path(args.output or "audit.json")
    _write_json(out, payload)
    print(
        f"audit: exceed_rate={report.exceed_rate!r} bound={report.bound:.6g} "
        f"pass={report.passed} ({out})"
    )
    return 0


def _cmd_bound(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    config = _single_config(resolved, args.seed)
    inputs = bound_inputs(_base_config(resolved), config)
    n_runs = resolved["bound.n_runs"]
    runs = []
    for i in range(n_runs):
        noise_seed = derive_seed(args.seed, _BOUND_NOISE_STREAM, i)
        _, metrics = run_gradient_phase(replace(config, noise_seed=noise_seed))
        runs.append(metrics)
    report = mean_error_bound(inputs)
    comparison = empirical_vs_bound(runs, inputs, min_runs=min(n_runs, 50))
    payload = {
        "config": _json_config(resolved),
        "master_seed": args.seed,
        "terms": report.terms,
        "constants": report.constants,
        "total": report.total,
        **comparison.to_dict(),
    }
    out = Path(args.output or "bound.json")
    _write_json(out, payload)
    print(
        f"bound: total={report.total:.6g} empirical={comparison.empirical_mean:.6g} "
        f"pass={comparison.passed} ({out})"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are validation errors
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpconsensus",
        description=__doc__,
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="master seed (default 42)")
    common.add_argument("--output", help="output file path")
    common.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="single simulation")
    schedule_parser = sub.add_parser("schedule", parents=[common], help="noise schedule table")
    sweep_parser = sub.add_parser("sweep", parents=[common], help="axis sweep")
    audit_parser = sub.add_parser("audit", parents=[common], help="privacy-loss audit")
    bound_parser = sub.add_parser("bound", parents=[common], help="error bound vs simulation")
    for p in (schedule_parser, sweep_parser, audit_parser, bound_parser):
        p.add_argument("--T", type=int, help="shorthand for experiment.horizon")
        p.add_argument("--epsilon", type=float, help="shorthand for privacy.epsilon")
        p.add_argument("--delta", type=float, help="shorthand for privacy.delta")
    sweep_parser.add_argument("--axis", help="shorthand for sweep.axis")
    audit_parser.add_argument("--samples", type=int, help="shorthand for audit.n_samples")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "schedule": _cmd_schedule,
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "bound": _cmd_bound,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = list(args.overrides)
        for flag, key in (
            ("T", "experiment.horizon"),
            ("epsilon", "privacy.epsilon"),
            ("delta", "privacy.delta"),
            ("axis", "sweep.axis"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                overrides.append(f"{key}={value}")
        resolved = resolve_config(args.config, overrides)
        return _COMMANDS[args.command](args, resolved)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
