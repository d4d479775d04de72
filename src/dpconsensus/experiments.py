"""Parameter sweeps reproducing the distributed mean-estimation studies.

A sweep varies one axis (gradient rounds, privacy budget, graph
connectivity, or data volume per node) over a value grid, runs every
(value, seed) cell, and collects a tidy result table.  Tables are a pure
function of the sweep spec and master seed: cell streams are derived by
documented splitting, workers never share state, and rows are assembled in
axis-value x seed order regardless of completion order.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine
from .analysis import BoundInputs
from .graph import gen_erdos_renyi
from .objectives import BoxDomain, gen_truncated_gaussian, mean_objective_constants
from .privacy import PrivacyBudget, calibrate_noise_schedule
from .rng import derive_seed

__all__ = [
    "AXES",
    "ExperimentConfig",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "bound_inputs",
    "build_run_config",
    "preset_sweep",
    "single_run_seeds",
    "sweep",
    "write_rows_csv",
    "write_summary_json",
]

# Stream labels for the seed-splitting scheme.
_GRAPH_STREAM = 1
_DATA_STREAM = 2
_NOISE_STREAM = 3

# axis name -> (config field, regenerate graph, regenerate data)
AXES: dict[str, tuple[str, bool, bool]] = {
    "T": ("horizon", False, False),
    "epsilon": ("epsilon", False, False),
    "delta_family": ("delta", False, False),
    "p_c": ("edge_prob", True, False),
    "points_per_node": ("points_per_node", False, True),
}

_INT_FIELDS = {"horizon", "points_per_node"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Scalar description of one simulation; expands to a RunConfig.

    Defaults are the standard study: 10 nodes with 100 points each in the
    4-dimensional unit cube, a connected Erdos-Renyi graph with edge
    probability 0.6, 1000 gradient rounds at epsilon = 4 and
    delta = 1/(n_nodes * points_per_node) = 1e-3.

    ``calibration_grad_bound = None`` calibrates noise with the
    mean-estimation sensitivity (cube half-diameter R*sqrt(p)); set it to
    the objective's Lipschitz constant for the generic calibration.
    """

    n_nodes: int = 10
    points_per_node: int = 100
    edge_prob: float = 0.6
    dimension: int = 4
    half_width: float = 1.0
    horizon: int = 1000
    epsilon: float = 4.0
    delta: float = 1e-3
    stage2_rel_tol: float = 1e-9
    stage2_max_rounds: int | None = None
    probe_node: int = 0
    strict_first_broadcast: bool = False
    calibration_grad_bound: float | None = None

    @property
    def budget(self) -> PrivacyBudget:
        return PrivacyBudget(epsilon=self.epsilon, delta=self.delta)

    @property
    def domain(self) -> BoxDomain:
        return BoxDomain(half_width=self.half_width, dimension=self.dimension)

    @property
    def noise_grad_bound(self) -> float:
        """Gradient bound the noise schedule is calibrated with."""
        if self.calibration_grad_bound is not None:
            return self.calibration_grad_bound
        return self.domain.diameter / 2.0  # per-round gap is at most eta * diameter

    def with_value(self, axis: str, value: float) -> "ExperimentConfig":
        field_name, _, _ = AXES[axis]
        if field_name in _INT_FIELDS:
            value = int(value)
        return replace(self, **{field_name: value})


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentConfig
    axis: str
    values: tuple[float, ...]
    n_seeds: int = 20

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; choose one of {sorted(AXES)}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        object.__setattr__(self, "values", tuple(self.values))


def preset_sweep(axis: str, base: ExperimentConfig | None = None, n_seeds: int = 20) -> SweepSpec:
    """Canonical value grid for each study axis.

    The connectivity sweep runs at 50 gradient rounds: the topology effect
    on a single node's error is proportional to the late-round noise level,
    which at 1000 rounds has decayed to about one percent of the privacy
    floor and is invisible; at 50 rounds it dominates.
    """
    base = base if base is not None else ExperimentConfig()
    values: dict[str, tuple[float, ...]] = {
        "T": (10.0, 100.0, 1000.0),
        "epsilon": (0.5, 1.0, 2.0, 4.0, 8.0),
        "delta_family": (1e-3, 1e-6, 1e-9),
        "p_c": (0.1, 0.3, 0.6, 1.0),
        "points_per_node": (25.0, 50.0, 100.0, 200.0),
    }
    if axis == "p_c":
        base = replace(base, horizon=50)
    return SweepSpec(base=base, axis=axis, values=values[axis], n_seeds=n_seeds)


def build_run_config(
    base: ExperimentConfig, graph_seed: int, data_seed: int, noise_seed: int
) -> engine.RunConfig:
    """Expand a scalar config into a runnable one (graph, data, schedule)."""
    domain = base.domain
    graph = gen_erdos_renyi(base.n_nodes, base.edge_prob, graph_seed)
    datasets = tuple(
        gen_truncated_gaussian(base.points_per_node, domain, data_seed, node_id=i)
        for i in range(base.n_nodes)
    )
    spec = mean_objective_constants(datasets[0], domain)
    schedule = calibrate_noise_schedule(
        base.horizon, base.budget, replace(spec, grad_bound=base.noise_grad_bound)
    )
    return engine.RunConfig(
        graph=graph,
        domain=domain,
        datasets=datasets,
        schedule=schedule,
        noise_seed=noise_seed,
        stage2_rel_tol=base.stage2_rel_tol,
        stage2_max_rounds=base.stage2_max_rounds,
        strict_first_broadcast=base.strict_first_broadcast,
        probe_nodes=(base.probe_node,),
    )


def bound_inputs(base: ExperimentConfig, config: engine.RunConfig) -> BoundInputs:
    """Closed-form bound inputs for ``config`` as built from ``base``."""
    x_star = config.minimizer()
    return BoundInputs(
        s0=float(config.n_nodes * (x_star @ x_star)),  # iterates start at the origin
        spec=mean_objective_constants(config.datasets[0], config.domain),
        beta=config.graph.beta,
        budget=base.budget,
        horizon=config.horizon,
        dimension=config.domain.dimension,
        x_star=x_star,
        n_nodes=config.n_nodes,
        noise_grad_bound=base.noise_grad_bound,
    )


def cell_seeds(
    master_seed: int, axis: str, value_index: int, seed_index: int
) -> tuple[int, int, int]:
    """(graph_seed, data_seed, noise_seed) for one sweep cell.

    Noise streams are unique per cell.  Graph and data streams depend on the
    axis value only when the axis regenerates them, so e.g. the privacy axis
    sees identical graphs and datasets across its values and isolates the
    budget effect.
    """
    _, regen_graph, regen_data = AXES[axis]
    graph_seed = derive_seed(
        master_seed, _GRAPH_STREAM, value_index if regen_graph else 0, seed_index
    )
    data_seed = derive_seed(
        master_seed, _DATA_STREAM, value_index if regen_data else 0, seed_index
    )
    noise_seed = derive_seed(master_seed, _NOISE_STREAM, value_index, seed_index)
    return graph_seed, data_seed, noise_seed


def single_run_seeds(master_seed: int) -> tuple[int, int, int]:
    """Stream triple for a standalone (non-sweep) run."""
    return (
        derive_seed(master_seed, _GRAPH_STREAM, 0, 0),
        derive_seed(master_seed, _DATA_STREAM, 0, 0),
        derive_seed(master_seed, _NOISE_STREAM, 0, 0),
    )


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    seed: int
    normalized_error: float
    probe_error: float
    stage2_rounds: int
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    master_seed: int
    rows: tuple[SweepRow, ...]

    def errors_by_value(self, field_name: str = "normalized_error") -> dict[float, np.ndarray]:
        out: dict[float, list[float]] = {v: [] for v in self.spec.values}
        for row in self.rows:
            out[row.value].append(getattr(row, field_name))
        return {v: np.array(errs) for v, errs in out.items()}

    def mean_by_value(self, field_name: str = "normalized_error") -> dict[float, float]:
        return {
            v: float(errs.mean()) for v, errs in self.errors_by_value(field_name).items()
        }

    def summary(self) -> dict:
        per_value = {}
        for field_name in ("normalized_error", "probe_error"):
            for v, errs in self.errors_by_value(field_name).items():
                entry = per_value.setdefault(str(v), {"n_seeds": int(errs.size)})
                entry[field_name + "_mean"] = float(errs.mean())
                entry[field_name + "_stddev"] = float(errs.std())
        return {"axis": self.spec.axis, "per_value": per_value}


def _run_cell(args: tuple[ExperimentConfig, str, float, int, int, int]) -> SweepRow:
    base, axis, value, seed_index, master_seed, value_index = args
    cell_config = base.with_value(axis, value)
    graph_seed, data_seed, noise_seed = cell_seeds(master_seed, axis, value_index, seed_index)
    config = build_run_config(cell_config, graph_seed, data_seed, noise_seed)
    started = time.perf_counter()
    metrics = engine.run(config)
    wall_ms = (time.perf_counter() - started) * 1e3
    return SweepRow(
        axis=axis,
        value=value,
        seed=seed_index,
        normalized_error=metrics.gradient_end_normalized_error(),
        probe_error=metrics.gradient_end_probe_error(0),
        stage2_rounds=metrics.agreement_rounds,
        wall_ms=wall_ms,
    )


def sweep(spec: SweepSpec, master_seed: int, jobs: int = 1) -> SweepResult:
    """Run every (value, seed) cell; rows in deterministic cell order."""
    tasks = [
        (spec.base, spec.axis, value, seed_index, master_seed, value_index)
        for value_index, value in enumerate(spec.values)
        for seed_index in range(spec.n_seeds)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(task) for task in tasks]
    return SweepResult(spec=spec, master_seed=master_seed, rows=tuple(rows))


def write_rows_csv(
    result: SweepResult,
    path: str | Path,
    header_lines: Sequence[str] = (),
    include_timings: bool = False,
) -> None:
    """Result table as CSV, preceded by '#' comment header lines.

    Wall-clock timings are blanked unless ``include_timings`` is set, so
    that identical (spec, master seed) pairs produce byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "value", "seed", "normalized_error", "probe_error", "stage2_rounds", "wall_ms"]
        )
        for row in result.rows:
            writer.writerow(
                [
                    row.axis,
                    repr(row.value),
                    row.seed,
                    repr(row.normalized_error),
                    repr(row.probe_error),
                    row.stage2_rounds,
                    repr(row.wall_ms) if include_timings else "",
                ]
            )


def write_summary_json(result: SweepResult, path: str | Path, config_payload: dict) -> None:
    payload = {
        "config": config_payload,
        "master_seed": result.master_seed,
        **result.summary(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
