"""Span recording around the library's public functions, from outside ``src/``.

:func:`install` replaces each public function of the traced modules with a
recording wrapper in every module namespace where a caller looks it up
(``experiments.gen_erdos_renyi``, ``engine.run_gradient_phase``,
``audit.derive_seed``, ``cli.sweep``, ...), and returns a callable that puts
the originals back.  A span is named after the module that defines the
function, so calls made through different namespaces sum under one name.

:func:`layer_metrics` turns the spans of one pass into the per-layer table.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

TRACED_MODULES = ("cli", "experiments", "graph", "objectives", "privacy", "engine", "audit", "rng")

# Public functions left unwrapped, with the reason.
UNWRAPPED = {
    "objectives.project_box": "called twice per round; its time stays in the enclosing phase",
    "engine.broadcast_noise_scale": "called once per round; its time stays in the enclosing phase",
    "privacy.lipschitz_step_sensitivity": "called once per round of the schedule being calibrated",
    "experiments.write_rows_csv": "output writing, which the table counts as cli.main self time",
    "experiments.write_summary_json": "output writing, which the table counts as cli.main self time",
}


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    site: str  # module namespace the call was looked up in
    start_ns: int
    end_ns: int
    info: object  # per-function detail the layer table needs, or None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Spans kept in memory; ``trace_id`` tags the pass they belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, site: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            caller = sys._getframe(1).f_code.co_name
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append(Span(span_id, parent, self.trace_id, name, site, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            detail = info(args, kwargs, result, caller) if info is not None else None
            spans.append(Span(span_id, parent, self.trace_id, name, site, start, end, detail))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl_gz(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                record = span._asdict()
                record["info"] = _jsonable(span.info)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _bound(fn: Callable, *names: str) -> Callable:
    """Info hook returning the named arguments of a call, as bound by ``fn``'s signature."""
    signature = inspect.signature(fn)

    def hook(args, kwargs, result, caller):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments[n] for n in names)

    return hook


def _info_hooks(modules: dict) -> dict[str, Callable]:
    graph, objectives = modules["graph"], modules["objectives"]
    return {
        "graph.gen_erdos_renyi": _bound(graph.gen_erdos_renyi, "n", "p_c", "seed"),
        "graph.connected": lambda args, kwargs, result, caller: caller,
        "objectives.gen_truncated_gaussian": _bound(
            objectives.gen_truncated_gaussian, "n_points", "domain", "seed", "node_id"
        ),
        "engine.run_gradient_phase": lambda args, kwargs, result, caller: args[0].horizon,
        "engine.run_agreement_phase": lambda args, kwargs, result, caller: (
            result[0].t - args[0].t,
            args[1].agreement_round_cap(),
        ),
        "audit.coupled_privacy_loss": lambda args, kwargs, result, caller: args[0].schedule.horizon,
    }


def _public_names(module) -> set[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the traced modules' public functions; returns the undo callable."""
    modules = {m: importlib.import_module(f"dpconsensus.{m}") for m in TRACED_MODULES}
    by_module_name = {mod.__name__: short for short, mod in modules.items()}
    public = {short: _public_names(mod) for short, mod in modules.items()}
    hooks = _info_hooks(modules)
    undo: list[Callable[[], None]] = []

    for site, module in modules.items():
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ not in by_module_name:
                continue
            origin = by_module_name[value.__module__]
            name = f"{origin}.{value.__name__}"
            if value.__name__ not in public[origin] or name in UNWRAPPED:
                continue
            setattr(module, attr, recorder.wrap(name, site, value, hooks.get(name)))
            undo.append(lambda module=module, attr=attr, value=value: setattr(module, attr, value))

    run_metrics = modules["engine"].RunMetrics
    concat = vars(run_metrics)["concat"]
    run_metrics.concat = staticmethod(recorder.wrap("engine.concat", "engine", concat.__func__))
    undo.append(lambda: setattr(run_metrics, "concat", concat))

    def restore() -> None:
        for step in undo:
            step()

    return restore


# (metric, unit, better) in the order the per-layer table reports them.
PER_LAYER = (
    ("engine.run_gradient_phase.ms", "ms", "lower"),
    ("engine.gradient_rounds", "count", "lower"),
    ("engine.gradient_round_us", "us", "lower"),
    ("engine.run_agreement_phase.ms", "ms", "lower"),
    ("engine.agreement_rounds", "count", "lower"),
    ("engine.agreement_round_us", "us", "lower"),
    ("engine.agreement_cap_hits", "count", "lower"),
    ("engine.concat.ms", "ms", "lower"),
    ("graph.gen_erdos_renyi.ms", "ms", "lower"),
    ("graph.gen_erdos_renyi.calls", "count", "lower"),
    ("graph.laplacian_lambda_max.ms", "ms", "lower"),
    ("graph.spectral_gap.ms", "ms", "lower"),
    ("graph.er_accept_ratio", "ratio", "higher"),
    ("graph.distinct_ratio", "ratio", "higher"),
    ("objectives.gen_truncated_gaussian.ms", "ms", "lower"),
    ("objectives.gen_truncated_gaussian.calls", "count", "lower"),
    ("objectives.distinct_ratio", "ratio", "higher"),
    ("privacy.calibrate_noise_schedule.ms", "ms", "lower"),
    ("privacy.calibrate_noise_schedule.calls", "count", "lower"),
    ("privacy.budget_check.ms", "ms", "lower"),
    ("experiments.build_run_config.ms", "ms", "lower"),
    ("experiments.build_run_config.calls", "count", "lower"),
    ("experiments.sweep.self_ms", "ms", "lower"),
    ("audit.coupled_privacy_loss.ms", "ms", "lower"),
    ("audit.coupled_privacy_loss.calls", "count", "lower"),
    ("audit.coupled_round_us", "us", "lower"),
    ("audit.sample_ms_p50", "ms", "lower"),
    ("audit.sample_ms_p99", "ms", "lower"),
    ("audit.tail_audit.ms", "ms", "lower"),
    ("rng.derive_seed.calls", "count", "lower"),
    ("rng.derive_seed.ms", "ms", "lower"),
    ("rng.derive_rng.calls", "count", "lower"),
    ("rng.derive_rng.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer table of one pass; a layer that did not run reads 0.

    ``X.ms`` is the total time inside calls to X, ``X.calls`` their count and
    ``X.self_ms`` the total minus the time covered by child spans.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent_id is not None:
            child_ns[span.parent_id] += span.duration_ns

    def ms(name: str) -> float:
        return sum(s.duration_ns for s in by_name[name]) / 1e6

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_ms(name: str) -> float:
        return sum(s.duration_ns - child_ns[s.span_id] for s in by_name[name]) / 1e6

    def info_sum(name: str, index: int | None = None) -> int:
        return sum(s.info if index is None else s.info[index] for s in by_name[name])

    graphs = by_name["graph.gen_erdos_renyi"]
    datasets = by_name["objectives.gen_truncated_gaussian"]
    er_tests = sum(1 for s in by_name["graph.connected"] if s.info == "gen_erdos_renyi")
    gradient_rounds = info_sum("engine.run_gradient_phase")
    agreement_rounds = info_sum("engine.run_agreement_phase", 0)
    audit_rounds = info_sum("audit.coupled_privacy_loss")
    sample_ms = [s.duration_ns / 1e6 for s in by_name["audit.coupled_privacy_loss"]]

    return {
        "engine.run_gradient_phase.ms": ms("engine.run_gradient_phase"),
        "engine.gradient_rounds": gradient_rounds,
        "engine.gradient_round_us": _ratio(ms("engine.run_gradient_phase") * 1e3, gradient_rounds),
        "engine.run_agreement_phase.ms": ms("engine.run_agreement_phase"),
        "engine.agreement_rounds": agreement_rounds,
        "engine.agreement_round_us": _ratio(ms("engine.run_agreement_phase") * 1e3, agreement_rounds),
        "engine.agreement_cap_hits": sum(
            1 for s in by_name["engine.run_agreement_phase"] if s.info[0] >= s.info[1]
        ),
        "engine.concat.ms": ms("engine.concat"),
        "graph.gen_erdos_renyi.ms": ms("graph.gen_erdos_renyi"),
        "graph.gen_erdos_renyi.calls": len(graphs),
        "graph.laplacian_lambda_max.ms": ms("graph.laplacian_lambda_max"),
        "graph.spectral_gap.ms": ms("graph.spectral_gap"),
        "graph.er_accept_ratio": _ratio(len(graphs), er_tests),
        "graph.distinct_ratio": _ratio(len({s.info for s in graphs}), len(graphs)),
        "objectives.gen_truncated_gaussian.ms": ms("objectives.gen_truncated_gaussian"),
        "objectives.gen_truncated_gaussian.calls": len(datasets),
        "objectives.distinct_ratio": _ratio(len({s.info for s in datasets}), len(datasets)),
        "privacy.calibrate_noise_schedule.ms": ms("privacy.calibrate_noise_schedule"),
        "privacy.calibrate_noise_schedule.calls": calls("privacy.calibrate_noise_schedule"),
        "privacy.budget_check.ms": ms("privacy.budget_check"),
        "experiments.build_run_config.ms": ms("experiments.build_run_config"),
        "experiments.build_run_config.calls": calls("experiments.build_run_config"),
        "experiments.sweep.self_ms": self_ms("experiments.sweep"),
        "audit.coupled_privacy_loss.ms": ms("audit.coupled_privacy_loss"),
        "audit.coupled_privacy_loss.calls": len(sample_ms),
        "audit.coupled_round_us": _ratio(ms("audit.coupled_privacy_loss") * 1e3, audit_rounds),
        "audit.sample_ms_p50": _percentile(sample_ms, 50),
        "audit.sample_ms_p99": _percentile(sample_ms, 99),
        "audit.tail_audit.ms": ms("audit.tail_audit"),
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "rng.derive_seed.ms": ms("rng.derive_seed"),
        "rng.derive_rng.calls": calls("rng.derive_rng"),
        "rng.derive_rng.ms": ms("rng.derive_rng"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
