"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a ``[criterion N] PASS/FAIL``
line (visible under ``pytest -s``) before asserting.  Everything runs at the
fixed master seed 42, so outcomes are exactly reproducible.

Criterion 1's utilization envelope is the one the closed-form schedule
provably keeps: it spends sum(1/sqrt(t)) / (2 sqrt(T)) of the allowance,
which comparing the sum with an integral pins between
(sqrt(T + 1) - 1) / sqrt(T) and 1 - 1 / (2 sqrt(T)), and never below 1/2.

One check fails by structural analysis of the system itself, not by an
implementation defect; its failure message carries the numbers:

* criterion 6's mutation flip: the closed-form bound is loose by about
  3600x at T = 1000 (bound 3.38 against a measured mean error of 9.4e-4),
  and almost all of it is the transient (2.81) and gradient (0.55) terms.
  The privacy floor is 0.015, 0.45% of the bound, so no scaling of the
  floor, deleting it included, can push the bound below the empirical mean.
  The floor alone is still ~3N/2 above the measured error, because it
  covers per-node noise while the measured mean iterate averages the noise
  across the N nodes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpconsensus.analysis import BoundInputs, empirical_vs_bound, mean_error_bound
from dpconsensus.audit import collect_samples, plant_point, tail_audit, worst_case_edit
from dpconsensus.cli import main as cli_main
from dpconsensus.engine import RunConfig, gradient_phases, run
from dpconsensus.experiments import (
    ExperimentConfig,
    bound_inputs,
    build_run_config,
    preset_sweep,
    single_run_seeds,
    sweep,
)
from dpconsensus.graph import gen_erdos_renyi
from dpconsensus.objectives import (
    ObjectiveSpec,
    gen_truncated_gaussian,
    mean_objective_constants,
)
from dpconsensus.privacy import (
    PrivacyBudget,
    budget_check,
    calibrate_noise_schedule,
    noise_budget,
    noiseless_schedule,
)
from dpconsensus.rng import derive_states

MASTER_SEED = 42
FP_SLACK = 1e-12
UNIT_SPEC = ObjectiveSpec(grad_bound=1.0, smoothness=1.0, strong_convexity=1.0, dimension=1)


def _stream_seeds(key: tuple[int, ...], indices) -> list[int]:
    """The one-word seeds of the streams ``(MASTER_SEED, *key, i)``."""
    return derive_states(MASTER_SEED, key, indices, n_words=1)[:, 0].tolist()


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}")


def _default_cell(horizon: int) -> tuple[RunConfig, BoundInputs]:
    """Default experiment with the shared graph/data streams of the master
    seed, plus the matching bound inputs."""
    base = ExperimentConfig(horizon=horizon)
    graph_seed, data_seed, _ = single_run_seeds(MASTER_SEED)
    config = build_run_config(base, graph_seed, data_seed, noise_seed=0)
    return config, bound_inputs(base, config)


@pytest.fixture(scope="module")
def bound_runs():
    """End iterates of 50 independent-noise runs of the default experiment
    per horizon."""
    out = {}
    for horizon in (100, 1000):
        config, inputs = _default_cell(horizon)
        configs = [
            replace(config, noise_seed=seed) for seed in _stream_seeds((6, horizon), range(50))
        ]
        out[horizon] = (config, inputs, gradient_phases(configs))
    return out


def test_criterion_1_budget_holds_across_grid():
    worst = 0.0
    for horizon in (1, 10, 100, 1000):
        for epsilon in (0.5, 1.0, 4.0):
            for delta in (1e-3, 1e-6):
                budget = PrivacyBudget(epsilon, delta)
                schedule = calibrate_noise_schedule(horizon, budget, UNIT_SPEC)
                report = budget_check(schedule, budget)
                assert report.passed, (horizon, epsilon, delta)
                assert report.spent <= report.allowance * (1.0 + FP_SLACK)
                worst = max(worst, report.utilization)
    _report("1 (budget)", True, f"24 schedules pass; worst utilization {worst:.4f}")


def test_criterion_1_utilization_envelope():
    # The schedule spends u(T) = sum_{t<=T} t^(-1/2) / (2 sqrt(T)) of the
    # allowance.  Bounding the sum by integrals of x^(-1/2) over [1, T + 1]
    # and 1 + [1, T] gives the envelope below; each term is at least
    # T^(-1/2), so u(T) >= 1/2 as well.  Both bounds are tight at T = 1.
    utilizations = {}
    violations = {}
    for horizon in (1, 10, 100, 1000):
        budget = PrivacyBudget(4.0, 1e-3)
        schedule = calibrate_noise_schedule(horizon, budget, UNIT_SPEC)
        utilization = budget_check(schedule, budget).utilization
        root = math.sqrt(horizon)
        lower = max(0.5, (math.sqrt(horizon + 1) - 1.0) / root)
        upper = 1.0 - 1.0 / (2.0 * root)
        utilizations[horizon] = utilization
        if not lower * (1.0 - FP_SLACK) <= utilization <= upper * (1.0 + FP_SLACK):
            violations[horizon] = (lower, utilization, upper)
    passed = not violations
    _report("1 (utilization envelope)", passed, f"per-horizon {utilizations}")
    assert passed, (
        "the closed-form schedule must spend between max(1/2, "
        "(sqrt(T+1)-1)/sqrt(T)) and 1 - 1/(2 sqrt(T)) of the allowance; "
        f"(lower, utilization, upper) outside it: {violations}"
    )


def test_criterion_2_noise_budget_spot_value():
    value = noise_budget(PrivacyBudget(4.0, 1e-3), 1.0)
    passed = abs(value - 0.20831) <= 1e-4
    _report("2", passed, f"budget constant {value:.6f} vs 0.20831 +- 1e-4")
    assert passed


def test_criterion_3_complete_graph_spectral_gap():
    graph = gen_erdos_renyi(10, 1.0, seed=MASTER_SEED)
    passed = abs(graph.beta - 1 / 3) <= 1e-9
    _report("3", passed, f"complete-graph contraction rate {graph.beta!r}")
    assert passed


@pytest.fixture(scope="module")
def zero_noise_run():
    graph_seed, data_seed = _stream_seeds((4,), [0, 1])
    graph = gen_erdos_renyi(10, 1.0, seed=graph_seed)
    base = ExperimentConfig(edge_prob=1.0)
    datasets = tuple(
        gen_truncated_gaussian(base.points_per_node, base.domain, data_seed, node_id=i)
        for i in range(10)
    )
    spec = mean_objective_constants(base.points_per_node, base.domain)
    config = RunConfig(
        graph=graph,
        domain=base.domain,
        datasets=datasets,
        schedule=noiseless_schedule(1000, spec),
        noise_seed=0,
        stage2_rel_tol=1e-9,
    )
    return config, run(config)


def test_criterion_4_zero_noise_convergence(zero_noise_run):
    config, metrics = zero_noise_run
    x_star = config.minimizer()
    final_mean = metrics.mean_iterate[-1]
    error = float((final_mean - x_star) @ (final_mean - x_star)) / float(x_star @ x_star)
    passed = error < 1e-6
    _report("4", passed, f"zero-noise normalized error {error:.3e} after both phases")
    assert passed


def test_criterion_5_agreement_invariants_on_every_run(bound_runs, zero_noise_run):
    checked = [zero_noise_run[1]]
    config_100, _, _ = bound_runs[100]
    for seed in _stream_seeds((5,), range(5)):
        checked.append(run(replace(config_100, noise_seed=seed)))
    sparse = build_run_config(
        ExperimentConfig(horizon=50, edge_prob=0.3, epsilon=1.0),
        *_stream_seeds((5,), [100, 101, 102]),
    )
    checked.append(run(sparse))
    worst_drift = max(float(np.nanmax(m.mean_drift)) for m in checked)
    worst_ratio = max(float(np.nanmax(m.contraction_ratio)) for m in checked)
    passed = worst_drift <= 1e-10 and worst_ratio <= 1.0 + 1e-8
    _report(
        "5",
        passed,
        f"{len(checked)} runs: max mean drift {worst_drift:.2e}, "
        f"max deviation/geometric-bound ratio {worst_ratio:.6f}",
    )
    assert passed


def test_criterion_6_bound_dominance(bound_runs):
    details = []
    passed = True
    for horizon in (100, 1000):
        _, inputs, runs = bound_runs[horizon]
        comparison = empirical_vs_bound(runs, inputs, mean_error_bound(inputs))
        details.append(
            f"T={horizon}: empirical {comparison.empirical_mean:.4g} <= "
            f"bound {comparison.bound_total:.4g}"
        )
        passed = passed and comparison.passed
    _report("6 (dominance)", passed, "; ".join(details))
    assert passed


def test_criterion_6_mutation_flips_the_verdict(bound_runs):
    _, inputs, runs = bound_runs[1000]
    bound = mean_error_bound(inputs)
    halved = bound.mutated("floor", 0.5)
    comparison = empirical_vs_bound(runs, inputs, bound=halved)
    flipped = not comparison.passed
    floor = bound.terms["floor"]
    split = ", ".join(
        f"{name} {value:.4g}"
        for name, value in sorted(bound.terms.items(), key=lambda item: -item[1])
    )
    _report(
        "6 (mutation)",
        flipped,
        f"halved privacy floor gives bound {comparison.bound_total:.4g} vs "
        f"empirical {comparison.empirical_mean:.4g}; full bound "
        f"{bound.total:.4g} = {split}, floor share {floor / bound.total:.2%}",
    )
    assert flipped, (
        "halving the privacy-floor constant must push the bound below the "
        f"empirical mean, but the bound {bound.total:.4g} splits as {split}: "
        f"the floor is {floor / bound.total:.2%} of it, and without the floor "
        f"the bound is still {bound.total - floor:.4g}, so no scaling of the "
        "floor can flip the verdict. The floor alone is "
        f"{floor / comparison.empirical_mean:.1f}x the measured error (~3N/2: "
        "it covers per-node noise while the measured mean iterate averages it "
        f"across nodes). Halved bound {comparison.bound_total:.4g} still "
        f"exceeds empirical {comparison.empirical_mean:.4g}"
    )


@pytest.fixture(scope="module")
def criterion_7_samples():
    """The planted worst-case audit instance at T=100 and its 10,000
    (deterministic, noise) privacy-loss samples."""
    config, _ = _default_cell(100)
    config = plant_point(config)
    edit = worst_case_edit(config)
    dets, noises = collect_samples(config, edit, 10_000, master_seed=MASTER_SEED)
    return config, dets, noises


def test_criterion_7_privacy_loss_audit(criterion_7_samples):
    config, dets, noises = criterion_7_samples
    half_alpha = config.schedule.alpha / 2.0
    det_ok = bool(np.all(dets <= half_alpha * (1.0 + FP_SLACK)))
    stderr = noises.std() / math.sqrt(noises.size)
    centered = abs(noises.mean()) <= 3.0 * stderr
    report = tail_audit(dets + noises, PrivacyBudget(4.0, 1e-3))
    passed = det_ok and centered and report.passed
    _report(
        "7",
        passed,
        f"max deterministic part {dets.max():.6f} vs half-spend {half_alpha:.6f}; "
        f"noise mean {noises.mean():+.5f} (3se {3 * stderr:.5f}); "
        f"exceed rate {report.exceed_rate} <= {report.bound:.5f}",
    )
    assert det_ok and centered and report.passed


def test_criterion_7_loss_follows_its_gaussian_law(criterion_7_samples):
    """At the worst-case edit the box never binds, so every gap equals its
    sensitivity bound and the loss is exactly N(alpha/2, alpha): a constant
    deterministic part alpha/2 plus a centered noise part of variance alpha."""
    config, dets, noises = criterion_7_samples
    alpha = config.schedule.alpha
    n = noises.size
    det_dev = float(np.max(np.abs(dets / (alpha / 2.0) - 1.0)))
    # Sample variance of n normals has standard error sigma^2 sqrt(2 / (n - 1)).
    var_z = (float(noises.var(ddof=1)) - alpha) / (alpha * math.sqrt(2.0 / (n - 1)))
    # One-sample Kolmogorov-Smirnov distance against N(alpha/2, alpha).
    totals = np.sort(dets + noises)
    scaled = (totals - alpha / 2.0) / math.sqrt(2.0 * alpha)
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in scaled]))
    ranks = np.arange(1, n + 1)
    ks = float(max(np.max(ranks / n - cdf), np.max(cdf - (ranks - 1) / n)))
    ks_critical = 1.628 / math.sqrt(n)  # 1% level
    passed = det_dev <= 1e-9 and abs(var_z) <= 4.0 and ks <= ks_critical
    _report(
        "7 (law)",
        passed,
        f"deterministic part off alpha/2 by {det_dev:.2e} (rel); noise variance z {var_z:+.2f}; "
        f"KS distance {ks:.5f} vs 1% critical {ks_critical:.5f}",
    )
    assert det_dev <= 1e-9, det_dev
    assert abs(var_z) <= 4.0, var_z
    assert ks <= ks_critical, ks


def test_criterion_7_law_holds_at_the_papers_horizon():
    """Criterion 7's law check, unchanged, at the paper's horizon T = 1000 on
    2,000 samples of the planted worst-case instance: the same 1e-9 bound on
    the deterministic part, z-slack of 4 on the noise variance and 1% KS
    level.  The edited node's two local steps from one consensus point do
    not clip here, so the law holds exactly as at T = 100."""
    config = plant_point(_default_cell(1000)[0])
    dets, noises = collect_samples(config, worst_case_edit(config), 2000, master_seed=MASTER_SEED)
    test_criterion_7_loss_follows_its_gaussian_law((config, dets, noises))


def _trend_violations(means: list[float], strict: bool) -> int:
    return sum(
        1 for a, b in zip(means, means[1:]) if (b >= a if strict else b > a)
    )


def _run_trend(axis: str, field: str, strict: bool, label: str) -> None:
    result = sweep(preset_sweep(axis), master_seed=MASTER_SEED)
    means = result.mean_by_value(field)
    violations = _trend_violations(list(means.values()), strict)
    passed = violations <= 1
    pretty = {v: f"{m:.3e}" for v, m in means.items()}
    _report(label, passed, f"{axis} seed-means {pretty}, {violations} adverse pair(s)")
    assert passed, (axis, means)


def test_criterion_8_error_vs_rounds_flattens():
    _run_trend("T", "normalized_error", strict=False, label="8 (rounds)")


def test_criterion_8_error_vs_epsilon_strictly_decreases():
    _run_trend("epsilon", "normalized_error", strict=True, label="8 (epsilon)")


def test_criterion_8_probe_error_vs_connectivity_decreases():
    _run_trend("p_c", "probe_error", strict=False, label="8 (connectivity)")


def test_criterion_8_error_vs_data_volume_decreases():
    _run_trend("points_per_node", "normalized_error", strict=False, label="8 (points)")


def test_criterion_9_byte_identical_replays(tmp_path):
    tiny = [
        "--set", "experiment.n_nodes=6",
        "--set", "experiment.points_per_node=25",
        "--set", "experiment.dimension=3",
        "--set", "experiment.horizon=20",
    ]
    commands = {
        "run": ["run", *tiny],
        "schedule": ["schedule", "--T", "200"],
        "sweep": ["sweep", *tiny, "--axis", "epsilon",
                  "--set", "sweep.values=1,4", "--set", "sweep.n_seeds=2"],
        "audit": ["audit", *tiny, "--samples", "1000", "--T", "6"],
        "bound": ["bound", *tiny, "--set", "bound.n_runs=50"],
    }
    stable = True
    for name, argv in commands.items():
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        for path in (first, second):
            code = cli_main([*argv, "--seed", str(MASTER_SEED), "--output", str(path)])
            assert code == 0, name
        if first.read_bytes() != second.read_bytes():
            stable = False
    _report("9", stable, f"{len(commands)} commands replayed byte-identically")
    assert stable
