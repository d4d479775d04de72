"""Differentially private consensus-based distributed gradient descent.

A simulator and accounting library for two-phase private distributed
optimization over mixing graphs: Gaussian noise calibrated against a single
aggregate privacy allowance, a synchronous gradient/consensus engine,
closed-form error bounds, an empirical privacy-loss auditor, and the
standard mean-estimation experiment sweeps.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundInputs,
    BoundReport,
    ComparisonReport,
    empirical_vs_bound,
    mean_error_bound,
)
from .audit import (
    AuditReport,
    NeighborEdit,
    collect_samples,
    coupled_runs,
    plant_point,
    tail_audit,
    worst_case_edit,
)
from .engine import (
    RunConfig,
    RunMetrics,
    run,
    run_gradient_phase,
)
from .graph import (
    CommGraph,
    GraphError,
    gen_erdos_renyi,
)
from .objectives import (
    BoxDomain,
    LocalDataset,
    ObjectiveSpec,
    gen_truncated_gaussian,
    grand_mean,
    mean_objective_constants,
    mean_objective_grad,
    mean_objective_value,
    project_box,
)
from .privacy import (
    BudgetReport,
    NoiseSchedule,
    PrivacyBudget,
    budget_check,
    calibrate_noise_schedule,
    exact_delta,
    lipschitz_step_sensitivity,
    noise_budget,
    noiseless_schedule,
    privacy_allowance,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    SweepSpec,
    build_run_config,
    preset_sweep,
    single_run_seeds,
    sweep,
)
