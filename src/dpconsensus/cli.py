"""Command-line front end.

Commands::

    run       one simulation; writes the per-round trajectory CSV
    sweep     axis sweep; writes the result table CSV and a JSON summary
    audit     Monte Carlo privacy-loss audit; writes a JSON report
    bound     closed-form error bound vs simulated runs; writes JSON
    schedule  noise-schedule table CSV plus a budget check line

Configuration is an INI file of ``[section] key = value`` entries; every
key can also be overridden on the command line with repeated
``--set section.key=value`` flags.  Both apply on top of the defaults of
``preset_sweep(sweep.axis)``.  Outputs are a pure function of the
resolved configuration and ``--seed``; CSV files start with ``#`` comment
lines recording both, JSON files embed them under ``config`` and
``master_seed``.  This module owns both file formats.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .analysis import empirical_vs_bound, mean_error_bound
from .audit import (
    collect_samples, plant_point, require_tail_samples, tail_audit, worst_case_edit
)
from .engine import gradient_phases, run
from .experiments import (
    AXES,
    PRESETS,
    ExperimentConfig,
    SweepSpec,
    bound_inputs,
    build_run_config,
    single_run_seeds,
    sweep,
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


def _axis(text: str) -> str:
    if text not in AXES:
        raise ValueError(f"unknown axis {text!r}; choose one of {sorted(AXES)}")
    return text


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty value list")
    return values


# dotted key -> (parser, ExperimentConfig field)
_FIELDS: dict[str, tuple[Callable, str]] = {
    "experiment.n_nodes": (int, "n_nodes"),
    "experiment.points_per_node": (int, "points_per_node"),
    "experiment.edge_prob": (float, "edge_prob"),
    "experiment.dimension": (int, "dimension"),
    "experiment.half_width": (float, "half_width"),
    "experiment.horizon": (int, "horizon"),
    "experiment.probe_node": (int, "probe_node"),
    "experiment.strict_first_broadcast": (_bool, "strict_first_broadcast"),
    "privacy.epsilon": (float, "epsilon"),
    "privacy.delta": (float, "delta"),
    "privacy.calibration_grad_bound": (_optional_float, "calibration_grad_bound"),
    "stage2.rel_tol": (float, "stage2_rel_tol"),
    "stage2.max_rounds": (_optional_int, "stage2_max_rounds"),
}
# dotted key -> (parser, default) for the other keys; _defaults fills in
# the None ones, like those of _FIELDS, from PRESETS and the dataclasses.
_OTHER: dict[str, tuple[Callable, object]] = {
    "sweep.axis": (_axis, None),
    "sweep.values": (_float_list, None),
    "sweep.n_seeds": (int, None),
    "audit.n_samples": (int, 10_000),
    "audit.node_id": (int, 0),
    "audit.point_index": (int, 0),
    "bound.n_runs": (int, 50),
}
_PARSERS = {key: parse for key, (parse, _) in (_FIELDS | _OTHER).items()}
_DEFAULT_AXIS = "T"

# command-line flag -> (configuration key, commands that take it)
_SHORTHANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "T": ("experiment.horizon", ("schedule", "sweep", "audit", "bound")),
    "epsilon": ("privacy.epsilon", ("schedule", "sweep", "audit", "bound")),
    "delta": ("privacy.delta", ("schedule", "sweep", "audit", "bound")),
    "axis": ("sweep.axis", ("sweep",)),
    "samples": ("audit.n_samples", ("audit",)),
}


def _defaults(axis: str) -> dict[str, object]:
    """Every key's default, from ``PRESETS[axis]`` and the dataclass field defaults."""
    values, overrides = PRESETS[axis]
    base = {f.name: f.default for f in fields(ExperimentConfig)} | overrides
    return {
        **{key: base[name] for key, (_, name) in _FIELDS.items()},
        **{key: default for key, (_, default) in _OTHER.items()},
        "sweep.axis": axis,
        "sweep.values": values,
        "sweep.n_seeds": next(f.default for f in fields(SweepSpec) if f.name == "n_seeds"),
    }


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
    """The preset of ``sweep.axis``, then the config file, then ``--set`` overrides."""
    raw = _load_config_file(config_path) if config_path else {}
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--set expects section.key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    given: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _PARSERS:
            raise CliError(f"unknown configuration key: {key}")
        try:
            given[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise CliError(f"bad value for {key}: {exc}") from exc
    return {**_defaults(given.get("sweep.axis", _DEFAULT_AXIS)), **given}


def _base_config(resolved: dict[str, object]) -> ExperimentConfig:
    return ExperimentConfig(**{name: resolved[key] for key, (_, name) in _FIELDS.items()})


def _write_csv(
    path: Path, header: Sequence[str], columns: str, rows: Iterable[Sequence]
) -> None:
    """``# `` header lines, the column names, then one comma-joined line per row.

    Every line ends in a bare newline.  Cells are written with ``str``,
    which gives a numpy float64 the same shortest round-tripping text that
    ``repr`` gives a Python float.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(f"{columns}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _shown(value: object) -> object:
    """A key's value as headers and help show it: a tuple as its comma-joined reprs."""
    return ",".join(map(repr, value)) if isinstance(value, tuple) else value


def _header_lines(command: str, resolved: dict[str, object], seed: int) -> list[str]:
    lines = [f"dpconsensus {__version__} {command}", f"master_seed = {seed}"]
    return lines + [f"{key} = {_shown(resolved[key])}" for key in sorted(resolved)]


def _write_json(path: Path, resolved: dict[str, object], seed: int, payload: dict) -> None:
    """``payload`` with the resolved configuration and master seed."""
    config = {key: list(v) if isinstance(v, tuple) else v for key, v in resolved.items()}
    payload = {"config": config, "master_seed": seed, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_run(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    config = build_run_config(_base_config(resolved), *single_run_seeds(args.seed))
    metrics = run(config)
    out = Path(args.output or "run.csv")
    _write_csv(
        out,
        _header_lines("run", resolved, args.seed),
        "stage,t,normalized_error,consensus_dev,probe_error",
        zip(
            metrics.stage, metrics.t, metrics.normalized_error,
            metrics.consensus_dev, metrics.probe_error,
        ),
    )
    print(f"run: wrote {metrics.t.size} rounds to {out}")
    return 0


def _cmd_schedule(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    base = _base_config(resolved)
    schedule = base.schedule
    report = budget_check(schedule, base.budget)
    out = Path(args.output or "schedule.csv")
    _write_csv(
        out,
        [
            *_header_lines("schedule", resolved, args.seed),
            f"budget_check pass={report.passed} spent={report.spent!r} "
            f"allowance={report.allowance!r}",
        ],
        "t,step_size,noise_scale,sensitivity,spend",
        zip(
            range(1, schedule.horizon + 1), schedule.step_sizes, schedule.scales,
            schedule.sensitivities, schedule.spends,
        ),
    )
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
    _write_csv(
        out,
        _header_lines("sweep", resolved, args.seed),
        "axis,value,seed,normalized_error,probe_error,stage2_rounds,wall_ms",
        (astuple(row) + ("",) for row in result.rows),  # wall_ms is always blank
    )
    summary_path = out.with_suffix(".summary.json")
    _write_json(summary_path, resolved, args.seed, result.summary())
    print(f"sweep: wrote {len(result.rows)} rows to {out} and summary to {summary_path}")
    return 0


def _cmd_audit(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    require_tail_samples(resolved["audit.n_samples"])
    base = _base_config(resolved)
    config = build_run_config(base, *single_run_seeds(args.seed))
    config = plant_point(config, resolved["audit.node_id"], resolved["audit.point_index"])
    edit = worst_case_edit(config, resolved["audit.node_id"], resolved["audit.point_index"])
    dets, noises = collect_samples(config, edit, resolved["audit.n_samples"], args.seed)
    report = tail_audit(dets + noises, base.budget)
    payload = {
        "n_samples": report.n_samples,
        "exceed_rate": report.exceed_rate,
        "bound": report.bound,
        "pass": report.passed,
        "alpha": config.schedule.alpha,
        "max_deterministic_part": float(dets.max()),
        "noise_part_mean": float(noises.mean()),
        "noise_part_stddev": float(noises.std()),
    }
    out = Path(args.output or "audit.json")
    _write_json(out, resolved, args.seed, payload)
    print(
        f"audit: exceed_rate={report.exceed_rate!r} bound={report.bound:.6g} "
        f"pass={report.passed} ({out})"
    )
    return 0


def _cmd_bound(args: argparse.Namespace, resolved: dict[str, object]) -> int:
    base = _base_config(resolved)
    config = build_run_config(base, *single_run_seeds(args.seed))
    inputs = bound_inputs(base, config)
    n_runs = resolved["bound.n_runs"]
    configs = [
        replace(config, noise_seed=derive_seed(args.seed, _BOUND_NOISE_STREAM, i))
        for i in range(n_runs)
    ]
    report = mean_error_bound(inputs)
    comparison = empirical_vs_bound(gradient_phases(configs), inputs, report)
    payload = {
        "terms": report.terms,
        "constants": report.constants,
        "total": report.total,
        **comparison.to_dict(),
    }
    out = Path(args.output or "bound.json")
    _write_json(out, resolved, args.seed, payload)
    print(
        f"bound: total={report.total:.6g} empirical={comparison.empirical_mean:.6g} "
        f"pass={comparison.passed} ({out})"
    )
    return 0


# command name -> (handler, help text)
_COMMANDS: dict[str, tuple[Callable, str]] = {
    "run": (_cmd_run, "single simulation"),
    "schedule": (_cmd_schedule, "noise schedule table"),
    "sweep": (_cmd_sweep, "axis sweep"),
    "audit": (_cmd_audit, "privacy-loss audit"),
    "bound": (_cmd_bound, "error bound vs simulation"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are validation errors
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    keys = [
        "configuration keys (INI sections; override with --set KEY=VALUE); the experiment,",
        "privacy, stage2 and sweep defaults come from preset_sweep(sweep.axis), here T:",
        *(f"  {key} = {_shown(value)}" for key, value in _defaults(_DEFAULT_AXIS).items()),
    ]
    parser = _Parser(
        prog="dpconsensus",
        description=__doc__,
        epilog="\n".join(keys),
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
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (_, text) in _COMMANDS.items()
    }
    for flag, (key, names) in _SHORTHANDS.items():
        for name in names:
            commands[name].add_argument(f"--{flag}", help=f"shorthand for {key}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:  # every command takes --jobs; only sweep uses it
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        shorthands = [
            f"{key}={getattr(args, flag)}"
            for flag, (key, _) in _SHORTHANDS.items()
            if getattr(args, flag, None) is not None
        ]
        resolved = resolve_config(args.config, [*args.overrides, *shorthands])
        handler, _ = _COMMANDS[args.command]
        return handler(args, resolved)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
