"""Parameter sweeps reproducing the distributed mean-estimation studies.

A sweep varies one axis (gradient rounds, privacy budget, graph
connectivity, or data volume per node) over a value grid, runs every
(value, seed) cell, and collects a tidy result table.  Tables are a pure
function of the sweep spec and master seed: cell streams are derived by
documented splitting, workers never share state, and rows are assembled in
axis-value x seed order regardless of completion order.

A sweep spec builds each value's config and noise schedule once, and every
cell of the value shares them.  A sweep splits its seed indices into
contiguous near-equal parts, one per worker process (one part when
``jobs = 1``).  Each part builds the graphs and datasets of its own seeds
and runs every axis value for them; the engine batches consecutive configs
that can share a kernel batch, so the privacy and connectivity axes run
each part's cells as one batch, and T and points_per_node one batch per
value.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Iterator, Sequence

import numpy as np

from . import engine
from .analysis import BoundInputs
from .graph import CommGraph, GraphError, gen_erdos_renyi, gen_erdos_renyi_graphs
from .objectives import (
    BoxDomain,
    LocalDataset,
    gen_truncated_gaussian,
    gen_truncated_gaussian_datasets,
    mean_objective_constants,
)
from .privacy import NoiseSchedule, PrivacyBudget, calibrate_noise_schedule, noise_budget
from .rng import derive_seed, derive_states

__all__ = [
    "AXES",
    "ExperimentConfig",
    "PRESETS",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "bound_inputs",
    "build_run_config",
    "preset_sweep",
    "single_run_seeds",
    "sweep",
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

# axis -> (canonical value grid, ExperimentConfig overrides of the preset's
# base).  The connectivity sweep runs at 50 gradient rounds: the topology
# effect on a single node's error is proportional to the late-round noise
# level, which at 1000 rounds has decayed to about one percent of the
# privacy floor and is invisible; at 50 rounds it dominates.
PRESETS: dict[str, tuple[tuple[float, ...], dict[str, object]]] = {
    "T": ((10.0, 100.0, 1000.0), {}),
    "epsilon": ((0.5, 1.0, 2.0, 4.0, 8.0), {}),
    "delta_family": ((1e-3, 1e-6, 1e-9), {}),
    "p_c": ((0.1, 0.3, 0.6, 1.0), {"horizon": 50}),
    "points_per_node": ((25.0, 50.0, 100.0, 200.0), {}),
}


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

    def __post_init__(self) -> None:
        # Each check is the one a run would fail later, with its error, so
        # that a bad config or sweep grid fails before any cell runs.
        self.budget, self.domain  # epsilon, delta, half_width and dimension
        if self.n_nodes < 2:
            raise GraphError(f"need n >= 2 nodes, got {self.n_nodes}")
        if not 0.0 < self.edge_prob <= 1.0:
            raise GraphError(f"edge probability must lie in (0, 1], got {self.edge_prob}")
        if self.points_per_node < 1:
            raise ValueError(f"n_points must be >= 1, got {self.points_per_node}")
        noise_budget(self.budget, self.noise_grad_bound)  # a finite, positive bound
        self.schedule  # a horizon >= 1, and scales within the float range
        engine.check_run_settings(self)

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

    @cached_property
    def schedule(self) -> NoiseSchedule:
        """The calibrated schedule, which depends on the data only through
        ``points_per_node``; built once, by the constructor's check."""
        spec = mean_objective_constants(self.points_per_node, self.domain)
        return calibrate_noise_schedule(
            self.horizon, self.budget, replace(spec, grad_bound=self.noise_grad_bound)
        )

    def with_value(self, axis: str, value: float) -> "ExperimentConfig":
        field_name, _, _ = AXES[axis]
        if field_name in _INT_FIELDS:
            if not float(value).is_integer():
                raise ValueError(f"axis {axis} needs integer values, got {value!r}")
            value = int(value)
        return replace(self, **{field_name: value})


@dataclass(frozen=True)
class SweepSpec:
    """A value grid over one axis of ``base``; ``configs[i]`` is
    ``base.with_value(axis, values[i])``, built once, as the grid is checked."""

    base: ExperimentConfig
    axis: str
    values: tuple[float, ...]
    n_seeds: int = 20
    configs: tuple[ExperimentConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_axis(self.axis)
        if not self.values:
            raise ValueError("values must be nonempty")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        object.__setattr__(self, "values", tuple(self.values))
        configs = []
        for i, value in enumerate(self.values):  # reject a bad grid before any cell runs
            if value in self.values[:i]:
                raise ValueError(f"duplicate value {value!r} in values")
            configs.append(self.base.with_value(self.axis, value))
        object.__setattr__(self, "configs", tuple(configs))


def _check_axis(axis: str) -> None:
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; choose one of {sorted(AXES)}")


def preset_sweep(axis: str) -> SweepSpec:
    """The preset sweep of ``axis``: its ``PRESETS`` grid over its base."""
    _check_axis(axis)
    values, overrides = PRESETS[axis]
    return SweepSpec(base=ExperimentConfig(**overrides), axis=axis, values=values)


def _run_config(
    base: ExperimentConfig,
    graph: CommGraph,
    datasets: tuple[LocalDataset, ...],
    noise_seed: int,
) -> engine.RunConfig:
    return engine.RunConfig(
        graph=graph,
        domain=base.domain,
        datasets=datasets,
        schedule=base.schedule,
        noise_seed=noise_seed,
        stage2_rel_tol=base.stage2_rel_tol,
        stage2_max_rounds=base.stage2_max_rounds,
        strict_first_broadcast=base.strict_first_broadcast,
        probe_node=base.probe_node,
    )


def build_run_config(
    base: ExperimentConfig, graph_seed: int, data_seed: int, noise_seed: int
) -> engine.RunConfig:
    """Expand a scalar config into a runnable one (graph, data, schedule)."""
    graph = gen_erdos_renyi(base.n_nodes, base.edge_prob, graph_seed)
    datasets = tuple(
        gen_truncated_gaussian(base.points_per_node, base.domain, data_seed, node_id=i)
        for i in range(base.n_nodes)
    )
    return _run_config(base, graph, datasets, noise_seed)


def bound_inputs(base: ExperimentConfig, config: engine.RunConfig) -> BoundInputs:
    """Closed-form bound inputs for ``config`` as built from ``base``."""
    return BoundInputs(
        spec=mean_objective_constants(base.points_per_node, base.domain),
        beta=config.graph.beta,
        budget=base.budget,
        horizon=config.horizon,
        x_star=config.minimizer(),
        noise_grad_bound=base.noise_grad_bound,
    )


def cell_seeds(
    master_seed: int, axis: str, value_index: int, seed_index: int
) -> tuple[int, int, int]:
    """(graph_seed, data_seed, noise_seed) for one sweep cell.

    Noise streams are unique per cell.  Graph and data streams depend on the
    axis value only when the axis regenerates them, so e.g. the privacy axis
    sees identical graphs and datasets across its values and isolates the
    budget effect.  Each seed is ``derive_seed(master_seed, label,
    value_index or 0, seed_index)`` for its stream label.
    """
    return _value_cell_seeds(master_seed, axis, value_index, [seed_index])[0]


def _value_cell_seeds(
    master_seed: int, axis: str, value_index: int, seed_indices: Sequence[int]
) -> list[tuple[int, int, int]]:
    """``cell_seeds`` of one value's cells, one bulk derivation per stream."""
    _, regen_graph, regen_data = AXES[axis]
    prefixes = (
        (_GRAPH_STREAM, value_index if regen_graph else 0),
        (_DATA_STREAM, value_index if regen_data else 0),
        (_NOISE_STREAM, value_index),
    )
    columns = [
        derive_states(master_seed, prefix, seed_indices, n_words=1)[:, 0].tolist()
        for prefix in prefixes
    ]
    return list(zip(*columns))


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


def _values(
    spec: SweepSpec, master_seed: int, seeds: Sequence[int]
) -> Iterator[tuple[float, list[engine.RunConfig]]]:
    """Each axis value with the run configs of the seed indices ``seeds``,
    in that order.

    Every config of a value shares the schedule of its ``spec.configs``.
    Graphs and datasets are built at the first value, and again at each
    later one only when the axis regenerates them: otherwise their streams
    do not depend on the value, so every value reuses the same inputs.  A
    value's graphs take one batched sampler call, and its datasets another.
    """
    _, regen_graph, regen_data = AXES[spec.axis]
    graphs: list[CommGraph] = []
    data: list[tuple[LocalDataset, ...]] = []
    for value_index, (value, base) in enumerate(zip(spec.values, spec.configs)):
        streams = _value_cell_seeds(master_seed, spec.axis, value_index, seeds)
        graph_seeds, data_seeds, _ = zip(*streams)
        if regen_graph or not graphs:
            graphs = gen_erdos_renyi_graphs(base.n_nodes, base.edge_prob, graph_seeds)
        if regen_data or not data:
            data = gen_truncated_gaussian_datasets(
                base.points_per_node, base.domain, data_seeds, base.n_nodes
            )
        yield value, [
            _run_config(base, graph, datasets, noise_seed)
            for graph, datasets, (_, _, noise_seed) in zip(graphs, data, streams)
        ]


def _run_seeds(spec: SweepSpec, master_seed: int, seeds: range) -> list[SweepRow]:
    """Rows of every value's cells for the seed indices ``seeds``, value
    by value, all run through one ``engine.run_outcomes`` call."""
    cells: list[tuple[float, int]] = []
    configs: list[engine.RunConfig] = []
    for value, value_configs in _values(spec, master_seed, seeds):
        cells += [(value, seed_index) for seed_index in seeds]
        configs += value_configs
    normalized, probe, rounds = engine.run_outcomes(configs)
    return [
        SweepRow(
            axis=spec.axis,
            value=value,
            seed=seed_index,
            normalized_error=float(normalized[cell]),
            probe_error=float(probe[cell]),
            stage2_rounds=int(rounds[cell]),
        )
        for cell, (value, seed_index) in enumerate(cells)
    ]


def sweep(spec: SweepSpec, master_seed: int, jobs: int = 1) -> SweepResult:
    """Run every (value, seed) cell; rows in value x seed order.

    The seed indices split into min(jobs, n_seeds) contiguous near-equal
    parts, each run with all its values in a worker process of its own
    when there is more than one part.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n, count = spec.n_seeds, min(jobs, spec.n_seeds)
    parts = [range(n * i // count, n * (i + 1) // count) for i in range(count)]
    run_part = partial(_run_seeds, spec, master_seed)
    if count > 1:
        with ProcessPoolExecutor(max_workers=count) as pool:
            rows = [row for part_rows in pool.map(run_part, parts) for row in part_rows]
    else:
        rows = run_part(parts[0])
    order = {value: index for index, value in enumerate(spec.values)}
    rows.sort(key=lambda row: (order[row.value], row.seed))
    return SweepResult(spec=spec, master_seed=master_seed, rows=tuple(rows))
