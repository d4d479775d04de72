"""Engine behavior: synchronous rounds, noise structure, both phases."""

import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus.engine import (
    RunConfig,
    _agreement_batch,
    _agreement_phase,
    _errors,
    _reference,
    _scale_columns,
    batches,
    gradient_blocks,
    gradient_phases,
    run,
    run_gradient_phase,
)
from dpconsensus import experiments
from dpconsensus.experiments import (
    ExperimentConfig,
    build_run_config,
    preset_sweep,
    single_run_seeds,
)
from dpconsensus.graph import CommGraph, gen_erdos_renyi
from dpconsensus.objectives import (
    BoxDomain,
    LocalDataset,
    gen_truncated_gaussian,
    grand_mean,
    mean_objective_constants,
    mean_objective_grad,
    project_box,
)
from dpconsensus.privacy import (
    PrivacyBudget,
    calibrate_noise_schedule,
    noiseless_schedule,
)
from dpconsensus.rng import derive_rng


def trajectory(configs, noise_seeds):
    """The kernel's blocks joined along the rounds: arrays ``(noise, z, x)``
    of shape ``(S, T, n, p)``, noise row t-1 attached to iterate x(t)."""
    blocks = [
        tuple(np.moveaxis(a, -1, 0).copy() for a in arrays)
        for _, _, *arrays in gradient_blocks(configs, noise_seeds)
    ]
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*blocks))


def block_rounds(monkeypatch, rounds, n_seeds, config):
    """Set the block budget to ``rounds`` rounds of ``n_seeds`` seeds."""
    floats = rounds * n_seeds * config.n_nodes * config.domain.dimension
    monkeypatch.setattr("dpconsensus.engine._BLOCK_FLOATS", floats)
    monkeypatch.setattr("dpconsensus.engine._BLOCK_ROUNDS", rounds)


def make_config(
    n_nodes=6,
    points=40,
    dimension=3,
    horizon=30,
    epsilon=4.0,
    delta=1e-3,
    graph_seed=3,
    data_seed=4,
    noise_seed=5,
    noiseless=False,
    **kwargs,
) -> RunConfig:
    domain = BoxDomain(half_width=1.0, dimension=dimension)
    graph = gen_erdos_renyi(n_nodes, 0.7, seed=graph_seed)
    datasets = tuple(
        gen_truncated_gaussian(points, domain, data_seed, node_id=i) for i in range(n_nodes)
    )
    spec = mean_objective_constants(points, domain)
    calibration = replace(spec, grad_bound=domain.diameter / 2.0)
    schedule = (
        noiseless_schedule(horizon, spec)
        if noiseless
        else calibrate_noise_schedule(horizon, PrivacyBudget(epsilon, delta), calibration)
    )
    return RunConfig(
        graph=graph,
        domain=domain,
        datasets=datasets,
        schedule=schedule,
        noise_seed=noise_seed,
        **kwargs,
    )


def test_each_node_reaches_its_local_mean_in_one_noiseless_step():
    # Without noise round 1 averages x(0) = 0 to z = 0, and with
    # eta_1 = 1/n_points the quadratic step lands exactly on each node's own
    # local mean: x_i(1) = proj(z - (1/n) * n * (z - mean_i)) = mean_i.
    domain = BoxDomain(half_width=1.0, dimension=2)
    datasets = tuple(gen_truncated_gaussian(25, domain, seed=8, node_id=i) for i in range(2))
    spec = mean_objective_constants(25, domain)
    config = RunConfig(
        graph=CommGraph(np.array([[False, True], [True, False]])),
        domain=domain,
        datasets=datasets,
        schedule=noiseless_schedule(1, spec),
        noise_seed=0,
    )
    x, _ = run_gradient_phase(config)
    means = [data.local_mean() for data in datasets]
    assert not np.allclose(means[0], means[1])
    np.testing.assert_allclose(x, means, rtol=0.0, atol=1e-12)


def test_identical_nodes_stay_identical_without_noise():
    domain = BoxDomain(half_width=1.0, dimension=2)
    shared = gen_truncated_gaussian(30, domain, seed=2)
    graph = gen_erdos_renyi(5, 1.0, seed=1)
    datasets = (LocalDataset(points=shared.points),) * 5
    spec = mean_objective_constants(shared.n_points, domain)
    config = RunConfig(
        graph=graph,
        domain=domain,
        datasets=datasets,
        schedule=noiseless_schedule(20, spec),
        noise_seed=0,
    )
    x, _ = run_gradient_phase(config)
    assert np.allclose(x, x[0][None, :], atol=1e-14)


def test_iterates_stay_in_the_box_under_heavy_noise():
    config = make_config(epsilon=0.5, horizon=40)  # large noise scales
    noise, z, x = (a[0] for a in trajectory([config], [config.noise_seed]))
    assert noise.shape == z.shape == x.shape == (40, config.n_nodes, config.domain.dimension)
    assert np.abs(noise[:-1]).max() > config.domain.half_width  # broadcast noise
    for z_t, x_t in zip(z, x):
        assert config.domain.contains(z_t)
        assert config.domain.contains(x_t)


def test_gradient_phase_is_deterministic():
    config = make_config()
    first, m1 = run_gradient_phase(config)
    second, m2 = run_gradient_phase(config)
    assert np.array_equal(first, second)
    assert np.array_equal(m1.normalized_error, m2.normalized_error)
    different = run_gradient_phase(replace(config, noise_seed=99))[0]
    assert not np.array_equal(first, different)


def test_round_matches_sequential_reference_in_any_node_order():
    """One engine round equals a per-node loop over the same broadcast
    snapshot, whatever order the nodes are visited in."""
    config = make_config(horizon=1, strict_first_broadcast=True)
    end, _ = run_gradient_phase(config)

    def reference(order):
        y = np.zeros((config.n_nodes, config.domain.dimension))  # strict round 1
        x = np.empty_like(y)
        eta = float(config.schedule.step_sizes[0])
        for i in order:
            z_i = project_box(config.graph.weights[i] @ y, config.domain)
            grad = mean_objective_grad(z_i, config.datasets[i])
            x[i] = project_box(z_i - eta * grad, config.domain)
        return x

    forward = reference(range(config.n_nodes))
    shuffled = reference([3, 0, 5, 1, 4, 2])
    assert np.array_equal(forward, shuffled)
    assert np.allclose(end, forward, atol=1e-14)


def test_noise_stream_is_node_major_per_round():
    """Replaying the documented draw order reproduces the run exactly."""
    config = make_config(horizon=3)
    end, _ = run_gradient_phase(config)
    n, p = config.n_nodes, config.domain.dimension
    rng = derive_rng(config.noise_seed)
    x = np.zeros((n, p))
    for t in range(1, 4):
        # The round-t broadcast carries x(t-1) under M_{t-1}; x(0) under M_1.
        scale = config.schedule.scales[max(t - 2, 0)]
        noise = rng.standard_normal((n, p)) * scale
        z = project_box(config.graph.weights @ (x + noise), config.domain)
        grads = np.stack(
            [mean_objective_grad(z[i], config.datasets[i]) for i in range(n)]
        )
        x = project_box(z - float(config.schedule.step_sizes[t - 1]) * grads, config.domain)
    assert np.array_equal(end, x)


def test_noise_rows_pair_each_iterate_with_its_scale():
    """Replaying the stream as T+1 per-round draws gives every noise row:
    row t protects x(t) with M_t, and the data-free x(0), which round 1
    broadcasts to consensus points z(1) from x(0) = 0, gets M_1, or exactly
    zero under the strict first broadcast."""
    horizon = 5
    for strict in (False, True):
        config = make_config(horizon=horizon, strict_first_broadcast=strict)
        n, p = config.n_nodes, config.domain.dimension
        scales = config.schedule.scales
        replay = derive_rng(config.noise_seed)
        noise, z, _ = (a[0] for a in trajectory([config], [config.noise_seed]))
        draws = [replay.standard_normal((n, p)) for _ in range(horizon + 1)]
        assert noise.shape == (horizon, n, p)
        first_noise = np.zeros((n, p)) if strict else draws[0] * scales[0]
        assert np.array_equal(
            z[0], project_box(config.graph.weights @ first_noise, config.domain)
        )
        if strict:
            assert np.all(z[0] == 0.0)
        for t in range(1, horizon + 1):  # up to x(T), which row T protects with M_T
            assert np.array_equal(noise[t - 1], draws[t] * scales[t - 1])


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.integers(1, 30),
    block=st.one_of(st.sampled_from([1, 7, "T"]), st.integers(1, 40)),
    n_seeds=st.integers(1, 3),
    strict=st.booleans(),
)
def test_streamed_blocks_equal_the_one_block_trajectory(horizon, block, n_seeds, strict):
    config = make_config(n_nodes=4, points=8, dimension=2, horizon=horizon,
                         strict_first_broadcast=strict)
    seeds = list(range(11, 11 + n_seeds))
    rounds = horizon if block == "T" else block
    with pytest.MonkeyPatch.context() as patch:
        block_rounds(patch, horizon, n_seeds, config)
        whole = trajectory([config], seeds)
        block_rounds(patch, rounds, n_seeds, config)
        firsts = [first for first, *_ in gradient_blocks([config], seeds)]
        streamed = trajectory([config], seeds)
    assert firsts == list(range(1, horizon + 1, min(rounds, horizon)))
    for name, joined, alone in zip(("noise", "z", "x"), streamed, whole):
        assert joined.shape == (n_seeds, horizon, 4, 2)
        assert np.array_equal(joined, alone), name


def projected_reference(config, seed):
    """Rounds 1..T of one seed, projecting every round: noise, z and x of
    shape ``(T, n, p)``, and whether the projection binds in each round."""
    n, p = config.n_nodes, config.domain.dimension
    scales = config.schedule.scales
    first = 0.0 if config.strict_first_broadcast else scales[0]
    noise = derive_rng(seed).standard_normal((config.horizon + 1, n, p))
    noise *= np.concatenate([[first], scales])[:, None, None]
    counts = np.array([[d.n_points] for d in config.datasets], dtype=float)
    sums = np.array([d.points.sum(axis=0) for d in config.datasets])
    x, rows = np.zeros((n, p)), []
    for t, step in enumerate(config.schedule.step_sizes):
        z_free = config.graph.weights @ (x + noise[t])
        z = project_box(z_free, config.domain)
        x_free = z - float(step) * (counts * z - sums)
        x = project_box(x_free, config.domain)
        rows.append((z, x, not (np.array_equal(z, z_free) and np.array_equal(x, x_free))))
    z, x, binds = map(np.array, zip(*rows))
    return noise[1:], z, x, binds


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_projection_free_blocks_equal_projecting_every_round(monkeypatch, stacked, strict):
    """The kernel steps a block without projection and steps it again,
    projected, only if some seed leaves the box.  Its yields equal a loop
    that projects every round bit for bit, and its clip flag says exactly
    in which blocks the projection binds for a seed.  The batch holds the
    first seed that clips in block 1 only, in later blocks only, and never,
    under one shared graph or one graph per seed."""
    horizon, rounds = 8, 2

    def config_of(seed):
        graph_seed = 3 + seed % 3 if stacked else 3
        return make_config(horizon=horizon, epsilon=1.0, strict_first_broadcast=strict,
                           graph_seed=graph_seed, noise_seed=seed)

    references, kinds = {}, {}
    for seed in range(300):
        references[seed] = projected_reference(config_of(seed), seed)
        blocks = references[seed][3].reshape(-1, rounds).any(axis=1)
        kind = "never" if not blocks.any() else "first" if not blocks[1:].any() else (
            "later" if not blocks[0] else "both")
        kinds.setdefault(kind, seed)
        if {"first", "later", "never"} <= kinds.keys():
            break
    seeds = [kinds["first"], kinds["later"], kinds["never"]]
    configs = [config_of(s) for s in seeds] if stacked else [config_of(0)]
    block_rounds(monkeypatch, rounds, len(seeds), configs[0])
    firsts = []
    for first, clipped, *arrays in gradient_blocks(configs, seeds):
        firsts.append(first)
        block = slice(first - 1, first - 1 + rounds)
        for s, seed in enumerate(seeds):
            *expected, binds = references[seed]
            for name, got, want in zip(("noise", "z", "x"), arrays, expected):
                assert np.array_equal(got[..., s], want[block]), (name, first, seed)
            assert clipped[s] == binds[block].any(), (first, seed)
    assert firsts == [1, 3, 5, 7]


def test_a_gradient_batch_logs_its_blocks_and_clipped_seeds(caplog):
    """One DEBUG record per gradient batch: its seeds, blocks, blocks
    stepped again with projection and seeds that clipped, as the kernel's
    clip flags give them.  At T=100 most seeds clip at epsilon 1 and none at
    epsilon 4."""
    graph_seed, data_seed, _ = single_run_seeds(42)
    for epsilon in (1.0, 4.0):
        base = ExperimentConfig(epsilon=epsilon, horizon=100)
        config = build_run_config(base, graph_seed, data_seed, noise_seed=0)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dpconsensus.engine"):
            flags = np.array([c.copy() for _, c, *_ in gradient_blocks([config], range(20))])
        assert flags.shape == (5, 20)
        reruns, clipped = np.count_nonzero(flags.any(axis=1)), np.count_nonzero(flags.any(axis=0))
        message = (f"gradient batch: 20 seeds, 5 blocks, {reruns} rerun with projection, "
                   f"{clipped} seeds clipped")
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [(logging.DEBUG, message)]
        if epsilon == 1.0:
            assert clipped > 10 and 0 < reruns < 5
        else:
            assert clipped == reruns == 0


def _assert_rows_close(batch, singles):
    """Every array of an S-seed kernel call equals the matching one-seed
    call row for row, within 1e-12 relative."""
    for name, stacked, alone in zip(("noise", "z", "x"), batch, zip(*singles)):
        assert stacked.shape[0] == len(alone)
        for s, single in enumerate(alone):
            assert single.shape[0] == 1
            np.testing.assert_allclose(
                stacked[s], single[0], rtol=1e-12, atol=0.0, err_msg=f"{name}[{s}]"
            )


@pytest.mark.parametrize("strict", [False, True])
def test_a_seed_batch_equals_its_single_seed_runs(strict):
    # One config broadcast over the seeds: the audit's batch.
    config = make_config(horizon=12, strict_first_broadcast=strict)
    seeds = [5, 6, 7, 8, 9]
    batch = trajectory([config], seeds)
    _assert_rows_close(batch, [trajectory([config], [s]) for s in seeds])
    # One config per seed, with its own graph and data: a sweep's batch.
    configs = [
        make_config(
            horizon=12, strict_first_broadcast=strict, graph_seed=g, data_seed=d, noise_seed=s
        )
        for g, d, s in ((3, 4, 5), (10, 11, 12), (20, 21, 22))
    ]
    seeds = [c.noise_seed for c in configs]
    batch = trajectory(configs, seeds)
    _assert_rows_close(batch, [trajectory([c], [c.noise_seed]) for c in configs])


def test_batched_gradient_phases_equal_single_runs(monkeypatch):
    configs = [
        make_config(
            horizon=9, graph_seed=g, data_seed=g + 1, noise_seed=g + 2, probe_node=g % 6
        )
        for g in range(7)
    ]
    # A budget of two seeds by two rounds (size 2) splits the seven runs into
    # batches of 2 + 2 + 3 and each batch into blocks of 2 rounds or fewer.
    block_rounds(monkeypatch, 2, 2, configs[0])
    assert [len(batch) for batch in batches(configs, configs[0])] == [2, 2, 3]
    ends = gradient_phases(configs)
    assert ends.shape == (len(configs), 6, 3)
    # The end errors as a sweep takes them: on the stacked end iterates,
    # each seed against its own x* and denominator.
    x_star, denom = map(np.array, zip(*map(_reference, configs)))
    probes = ends[np.arange(len(configs)), [c.probe_node for c in configs]]
    normalized, consensus, probe, mean_iterate = _errors(ends, probes, x_star, denom)
    for s, config in enumerate(configs):
        end, metrics = run_gradient_phase(config)
        assert metrics.t[-1] == 9
        np.testing.assert_allclose(ends[s], end, rtol=1e-12, atol=0.0)
        for name, values in (
            ("normalized_error", normalized),
            ("consensus_dev", consensus),
            ("probe_error", probe),
            ("mean_iterate", mean_iterate),
        ):
            np.testing.assert_allclose(
                values[s], getattr(metrics, name)[-1], rtol=1e-12, atol=0.0
            )


def record_batches(monkeypatch):
    """The noise seeds of each kernel batch, as the kernel is called."""
    seen = []
    kernel = gradient_blocks

    def counted(batch, noise_seeds):
        seen.append(list(noise_seeds))
        return kernel(batch, noise_seeds)

    monkeypatch.setattr("dpconsensus.engine.gradient_blocks", counted)
    return seen


def test_gradient_phases_group_only_consecutive_configs_that_share_a_batch(monkeypatch):
    """Horizons 6, 6, 8, 6 change the step sizes, so the configs run as
    three groups, [6, 6], [8] and [6], in input order; each end iterate is
    its single run's."""
    configs = [
        make_config(horizon=h, graph_seed=g, data_seed=g + 1, noise_seed=g + 2)
        for g, h in enumerate((6, 6, 8, 6))
    ]
    seen = record_batches(monkeypatch)
    ends = gradient_phases(configs)
    assert seen == [[2, 3], [4], [5]]
    assert ends.shape == (len(configs), 6, 3)
    for end, config in zip(ends, configs):
        assert np.array_equal(end, run_gradient_phase(config)[0])


@settings(max_examples=200, deadline=None)
@given(n_items=st.integers(0, 200), size=st.integers(1, 15))
def test_batches_split_items_in_order_into_near_equal_lengths(n_items, size):
    """N items at a budget of ``size`` seeds by ``size`` rounds come in order,
    each exactly once, as max(1, N // size) batches whose lengths differ by
    at most one and lie in [min(N, size), 2 * size - 1]."""
    config = make_config(n_nodes=2, dimension=1, horizon=1)
    items = list(range(n_items))
    with pytest.MonkeyPatch.context() as patch:
        block_rounds(patch, size, size, config)
        split = list(batches(items, config))
    assert [item for batch in split for item in batch] == items
    assert len(split) == max(1, n_items // size)
    lengths = [len(batch) for batch in split]
    assert max(lengths) - min(lengths) <= 1
    assert min(n_items, size) <= min(lengths) and max(lengths) <= 2 * size - 1


def test_a_batch_grows_with_the_horizon_by_its_noise_scales_alone():
    """From T=1000 to T=2000 the traced peak of 20 seeds' gradient phases
    grows by the kernel's horizon-long vectors alone, not by per-round
    metrics, noise, consensus points or iterates: the kernel holds one block
    of rounds, not a trajectory, and the batch keeps only its end iterates."""
    n_seeds, n, p = 20, 10, 4

    def peak(horizon):
        configs = [
            make_config(n_nodes=n, points=20, dimension=p, horizon=horizon, noise_seed=s)
            for s in range(n_seeds)
        ]
        tracemalloc.start()
        try:
            ends = gradient_phases(configs)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ends.shape == (n_seeds, n, p)
        return traced

    # The noise scales of x(0) .. x(T), with room for one more such vector.
    assert peak(2000) - peak(1000) <= 2 * 1000 * 8


def test_gradient_phases_split_batches_at_each_field_they_must_share(monkeypatch):
    """A horizon (so step sizes), a first-broadcast rule and a domain that
    differ from their neighbours', interleaved with configs that agree, each
    start a new batch; the end iterates come back in input order, each equal
    to its single run.  The kernel itself checks only the config count."""
    config = make_config(horizon=6)
    with pytest.raises(ValueError, match="2 configs for 3 noise seeds"):
        trajectory([config, config], [1, 2, 3])
    configs = [config, config]
    for other in (
        make_config(horizon=7),
        replace(config, strict_first_broadcast=True),
        replace(config, domain=BoxDomain(half_width=2.0, dimension=3)),
    ):
        configs += [other, config]
    configs = [replace(c, noise_seed=s) for s, c in enumerate(configs, 10)]
    seen = record_batches(monkeypatch)
    ends = gradient_phases(configs)
    assert seen == [[10, 11], [12], [13], [14], [15], [16], [17]]
    assert len(ends) == len(configs)
    for end, single in zip(ends, configs):
        assert np.array_equal(end, run_gradient_phase(single)[0])


def test_configs_with_different_noise_scales_share_a_batch(monkeypatch):
    """Configs that differ only in their noise scales, graphs and data
    batch together, in any order and in blocks of two rounds, and each
    seed's rows equal its single run bit for bit; equal scale vectors held
    by different schedules count as one."""
    horizon = 6
    configs = [
        make_config(horizon=horizon, epsilon=epsilon, graph_seed=g, noise_seed=s)
        for epsilon, g, s in ((4.0, 3, 5), (1.0, 3, 6), (4.0, 8, 7), (0.5, 9, 8), (1.0, 3, 9))
    ]
    twin = configs[0].schedule
    configs[2] = replace(configs[2], schedule=replace(twin, scales=twin.scales.copy()))
    assert configs[2].schedule.scales is not twin.scales
    columns, column = _scale_columns(configs)
    assert columns.shape == (horizon + 1, 3) and column.tolist() == [0, 1, 0, 2, 1]
    seeds = [c.noise_seed for c in configs]
    for rounds in (horizon, 2):
        block_rounds(monkeypatch, rounds, len(configs), configs[0])
        batch = trajectory(configs, seeds)
        for s, config in enumerate(configs):
            for name, stacked, alone in zip(("noise", "z", "x"), batch,
                                            trajectory([config], [seeds[s]])):
                assert np.array_equal(stacked[s], alone[0]), (name, s)


def pathwise_end(config, noise_seed):
    """x(T) of an unclipped run in closed form.  With every node holding
    n_pts points and eta_t = 1/(n_pts t), each node's gradient factor is
    c_t = 1 - eta_t n_pts = (t-1)/t, a scalar that commutes with W, so with
    S the node sums and nu(t) = M_t times row t of the seed's own standard
    normals (the noise attached to x(t)),

        x(T) = sum_{t>=2} ((t-1)/T) W^(T-t+1) nu(t-1) + sum_t (t/T) eta_t W^(T-t) S,

    evaluated in W's eigenbasis without a round loop."""
    horizon, n, p = config.horizon, config.n_nodes, config.domain.dimension
    n_pts = config.datasets[0].n_points
    assert all(d.n_points == n_pts for d in config.datasets)
    t = np.arange(1, horizon + 1)
    eta = 1.0 / (n_pts * t)
    np.testing.assert_allclose(config.schedule.step_sizes, eta, rtol=1e-14, atol=0.0)
    eigenvalues, basis = np.linalg.eigh(config.graph.weights)
    draws = derive_rng(noise_seed).standard_normal((horizon + 1, n, p))
    noise = draws[1:horizon] * config.schedule.scales[:horizon - 1, None, None]  # nu(t-1), t >= 2
    later = t[1:]
    noise_coeff = ((later - 1) / horizon)[:, None] * eigenvalues ** (horizon - later + 1)[:, None]
    data_coeff = ((t / horizon) * eta)[:, None] * eigenvalues ** (horizon - t)[:, None]
    sums = np.array([d.points.sum(axis=0) for d in config.datasets])
    spectral = np.einsum("tk,tkp->kp", noise_coeff, basis.T @ noise)
    spectral += data_coeff.sum(axis=0)[:, None] * (basis.T @ sums)
    return basis @ spectral


@pytest.mark.parametrize("horizon", [100, 1000])
def test_unclipped_end_iterates_equal_the_pathwise_closed_form(horizon):
    """The epsilon preset's five values, 20 seeds each, run as one batch
    with one scale column per value.  On every seed that the kernel's clip
    flags mark unclipped in every block, its end iterate equals the closed
    form of ``pathwise_end`` to 1e-12, whatever the kernel's loop, layout or
    batching; the check covers seeds of several noise scales."""
    spec = replace(preset_sweep("epsilon"), base=ExperimentConfig(horizon=horizon))
    cells, configs = [], []
    for value, value_configs in experiments._values(spec, 42, range(spec.n_seeds)):
        cells += [(value, seed_index) for seed_index in range(spec.n_seeds)]
        configs += value_configs
    seeds = [c.noise_seed for c in configs]
    clipped = np.zeros(len(configs), dtype=bool)
    for _, flags, _, _, x in gradient_blocks(configs, seeds):
        clipped |= flags
    ends = np.moveaxis(x[-1], -1, 0)
    unclipped = np.flatnonzero(~clipped)
    values = {cells[s][0] for s in unclipped}
    assert len(unclipped) >= 40 and len(values) >= 3, values
    for s in unclipped:
        error = np.max(np.abs(ends[s] - pathwise_end(configs[s], seeds[s])))
        assert error <= 1e-12, (cells[s], error)


def test_a_diverging_batch_member_is_named_by_its_noise_seed(monkeypatch):
    # Scales of 1e308 overflow a standard normal draw beyond ~1.8 to inf.  A
    # seed diverges exactly when one of the rows its gradient rounds send
    # (rows 0..T-1) holds such a draw; every other seed stays finite.
    horizon, n, p = 6, 3, 2
    config = make_config(n_nodes=n, dimension=p, horizon=horizon)
    huge = np.full(horizon, 1e308)
    config = replace(config, schedule=replace(config.schedule, scales=huge))

    def overflowing_rows(seed):
        draws = derive_rng(seed).standard_normal((horizon + 1, n, p))[:horizon]
        with np.errstate(over="ignore"):
            return np.isinf(draws * 1e308).any(axis=(1, 2))

    # Blocks of two rounds: the first block sends rows 0 and 1.
    block_rounds(monkeypatch, 2, 3, config)
    rows = {s: overflowing_rows(s) for s in range(400)}
    finite = [s for s, over in rows.items() if not over.any()]
    in_first_block = next(s for s, over in rows.items() if over[:2].any())
    in_later_block = next(s for s, over in rows.items() if over.any() and not over[:2].any())
    with np.errstate(over="ignore", invalid="ignore"):
        for diverging in (in_first_block, in_later_block):
            blocks = gradient_blocks([config], [finite[0], diverging, finite[1]])
            if diverging == in_later_block:
                first, *_ = next(blocks)  # the first block is finite
                assert first == 1
            with pytest.raises(ValueError, match="non-finite") as caught:
                list(blocks)
            assert f"noise seed(s) [{diverging}]" in str(caught.value)
        # The finite members alone run through.
        trajectory([config], [finite[0], finite[1]])


def test_strict_first_broadcast_only_changes_round_one_message():
    # At T=1 the only broadcast is round 1's, so a strict run (exact zero
    # message) lands where the noiseless schedule does; a noisy one does not.
    noisy = make_config(horizon=1)
    strict = replace(noisy, strict_first_broadcast=True)
    noiseless = make_config(horizon=1, noiseless=True)
    assert np.array_equal(noiseless.schedule.step_sizes, noisy.schedule.step_sizes)
    end_noisy, _ = run_gradient_phase(noisy)
    end_strict, _ = run_gradient_phase(strict)
    end_noiseless, _ = run_gradient_phase(noiseless)
    assert np.array_equal(end_strict, end_noiseless)
    assert not np.array_equal(end_noisy, end_noiseless)


def test_agreement_phase_fixed_point_when_already_agreed():
    config = make_config(horizon=2, noiseless=True)
    vector = np.full((config.n_nodes, config.domain.dimension), 0.25)
    final, metrics = _agreement_phase(vector, config)
    assert metrics.agreement_rounds == 1 and metrics.t.tolist() == [3]
    assert np.allclose(final, vector, atol=1e-14)


def test_agreement_phase_keeps_the_mean_and_contracts():
    config = make_config(horizon=25)
    _, metrics = _agreement_phase(run_gradient_phase(config)[0], config)
    assert metrics.agreement_rounds >= 2
    assert np.nanmax(metrics.mean_drift) <= 1e-10
    assert np.nanmax(metrics.contraction_ratio) <= 1.0 + 1e-8
    # Deviation shrinks geometrically, so the last round is far tighter.
    assert metrics.consensus_dev[-1] < metrics.consensus_dev[np.argmax(metrics.stage == 2)]


def test_agreement_phase_respects_the_round_cap():
    config = make_config(horizon=10, stage2_max_rounds=4, stage2_rel_tol=0.0)
    _, metrics = _agreement_phase(run_gradient_phase(config)[0], config)
    assert metrics.agreement_rounds == 4
    assert metrics.t.tolist() == [11, 12, 13, 14]


def assert_batch_equals_single_runs(states, configs):
    """Run ``states`` through the batched agreement loop and assert, seed by
    seed, the round count and final iterates of the one-seed call."""
    rounds, final = _agreement_batch(np.array(states), configs)
    for s, (x, config) in enumerate(zip(states, configs)):
        single, metrics = _agreement_phase(x, config)
        assert rounds[s] == metrics.agreement_rounds == metrics.t[-1] - config.horizon
        assert np.array_equal(final[s], single), f"seed {s}"
    return rounds


def gradient_ends(configs):
    return [run_gradient_phase(config)[0] for config in configs]


def test_batched_agreement_equals_single_runs_on_different_graphs():
    configs = [
        make_config(horizon=8, graph_seed=g, noise_seed=g + 1, stage2_rel_tol=tol)
        for g, tol in zip(range(6), (1e-9, 1e-6, 1e-12, 1e-9, 1e-3, 1e-9))
    ]
    assert len({c.agreement_round_cap() for c in configs}) > 1
    rounds = assert_batch_equals_single_runs(gradient_ends(configs), configs)
    assert len(set(rounds.tolist())) > 1


def test_a_seed_at_a_fixed_point_leaves_the_batch_after_one_round():
    agreed, running = make_config(horizon=8, noiseless=True), make_config(horizon=8)
    states = [np.full((agreed.n_nodes, agreed.domain.dimension), 0.25), *gradient_ends([running])]
    rounds = assert_batch_equals_single_runs(states, [agreed, running])
    assert rounds[0] == 1 and rounds[1] > 10


def test_a_round_cap_binds_for_some_seeds_of_a_batch():
    configs = [make_config(horizon=8, graph_seed=g, noise_seed=g + 1) for g in range(6)]
    states = gradient_ends(configs)
    free, _ = _agreement_batch(np.array(states), configs)
    cap = int(np.median(free))
    capped = [replace(c, stage2_max_rounds=cap) for c in configs]
    rounds = assert_batch_equals_single_runs(states, capped)
    assert np.array_equal(rounds, np.minimum(free, cap))
    assert (rounds == cap).any() and (rounds < cap).any()


def test_a_zero_tolerance_runs_every_seed_to_its_cap():
    configs = [
        make_config(horizon=8, graph_seed=g, noise_seed=g + 1, stage2_rel_tol=0.0)
        for g in range(4)
    ]
    rounds = assert_batch_equals_single_runs(gradient_ends(configs), configs)
    assert rounds.tolist() == [c.agreement_round_cap() for c in configs]


def test_batched_agreement_memory_does_not_grow_with_the_round_cap():
    """From a cap of 10 rounds to 10,000 the traced peak of 20 seeds'
    agreement phases grows by less than one stack of iterates: the loop
    keeps no per-round rows."""
    n_seeds, n, p = 20, 10, 4
    config = make_config(n_nodes=n, points=20, dimension=p, horizon=5, stage2_rel_tol=0.0)
    states = np.array(
        gradient_ends([replace(config, noise_seed=s) for s in range(n_seeds)])
    )

    def peak(cap):
        configs = [replace(config, stage2_max_rounds=cap)] * n_seeds
        tracemalloc.start()
        try:
            rounds, _ = _agreement_batch(states, configs)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rounds.tolist() == [cap] * n_seeds
        return traced

    assert peak(10_000) - peak(10) <= 8 * n_seeds * n * p


def test_an_agreement_batch_logs_one_debug_record(caplog):
    configs = [
        make_config(horizon=8, graph_seed=g, noise_seed=g + 1, stage2_max_rounds=cap)
        for g, cap in ((0, 3), (1, None), (2, 1000))
    ]
    states = np.array(gradient_ends(configs))
    caplog.set_level(logging.DEBUG, logger="dpconsensus.engine")
    rounds, _ = _agreement_batch(states, configs)
    assert rounds[0] == 3 and 3 < rounds[1] < 1000 and rounds[2] < 1000
    records = [r for r in caplog.records if r.name == "dpconsensus.engine"]
    message = f"agreement batch: 3 seeds, {rounds.max()} rounds at most, 1 at their round cap"
    assert [(r.levelno, r.getMessage()) for r in records] == [(logging.DEBUG, message)]


def test_full_run_concatenates_phases():
    config = make_config(horizon=12)
    metrics = run(config)
    assert metrics.t[0] == 1
    assert np.all(np.diff(metrics.t) == 1)
    switch = np.nonzero(metrics.stage == 2)[0][0]
    assert metrics.t[switch] == 13
    assert math.isnan(metrics.mean_drift[switch - 1])
    assert not math.isnan(metrics.mean_drift[switch])


def test_zero_noise_run_matches_centralized_descent_oracle():
    config = make_config(
        n_nodes=10, points=100, dimension=4, horizon=400, graph_seed=77, noiseless=True
    )
    # Centralized projected gradient descent on the aggregate objective.
    center = grand_mean(config.datasets)
    total_points = sum(d.n_points for d in config.datasets)
    x = np.zeros(config.domain.dimension)
    for t in range(1, 401):
        grad = sum(mean_objective_grad(x, d) for d in config.datasets)
        x = project_box(x - grad / (total_points * t), config.domain)
    metrics = run(config)
    x_bar = metrics.mean_iterate[config.horizon - 1]
    assert np.allclose(x, center, atol=1e-8)
    assert np.allclose(x_bar, x, atol=1e-6)
    denom = float(center @ center)
    assert float((x_bar - center) @ (x_bar - center)) / denom < 1e-6


def test_consensus_deviation_obeys_the_mixing_bound_on_average():
    """Seed-averaged deviation of the consensus points against the bound
    built from the injected noise levels and the gradient bound."""
    n_seeds, horizon = 100, 25
    config = make_config(n_nodes=10, points=50, dimension=3, horizon=horizon, graph_seed=21)
    beta = config.graph.beta
    n, p = config.n_nodes, config.domain.dimension
    grad_bound = mean_objective_constants(50, config.domain).grad_bound
    etas = config.schedule.step_sizes

    _, z, _ = trajectory([config], [1000 + s for s in range(n_seeds)])
    devs = np.linalg.norm(z - z.mean(axis=2, keepdims=True), axis=(2, 3))
    mean_dev = devs.mean(axis=0)
    stderr = devs.std(axis=0) / math.sqrt(n_seeds)
    # Noise scale of each round's broadcast: x(0) under M_1, then x(r-1) under M_{r-1}.
    scales = np.concatenate([config.schedule.scales[:1], config.schedule.scales[:-1]])
    for t in range(1, horizon + 1):
        expected_noise_norm = math.sqrt(n * p) * scales[t - 1]
        tail = sum(
            (2.0 * math.sqrt(n * p) * scales[s - 1] + math.sqrt(n) * grad_bound * etas[s - 1])
            * beta ** (t - s)
            for s in range(1, t)
        )
        bound = expected_noise_norm + tail
        assert mean_dev[t - 1] <= bound + 3.0 * stderr[t - 1]


def test_config_validation():
    config = make_config()
    with pytest.raises(ValueError, match="one dataset per node"):
        RunConfig(
            graph=config.graph,
            domain=config.domain,
            datasets=config.datasets[:-1],
            schedule=config.schedule,
            noise_seed=0,
        )
    stray = LocalDataset(points=np.full((5, 3), 2.0))  # outside the unit box
    with pytest.raises(ValueError, match="dataset of node 5 leaves the domain box"):
        RunConfig(
            graph=config.graph,
            domain=config.domain,
            datasets=config.datasets[:-1] + (stray,),
            schedule=config.schedule,
            noise_seed=0,
        )
    with pytest.raises(ValueError, match="probe"):
        replace(config, probe_node=17)
    for tol in (-1e-3, 1.0, 2.0):
        with pytest.raises(ValueError, match="stage2_rel_tol"):
            replace(config, stage2_rel_tol=tol)


def test_metrics_match_the_per_round_formulas():
    """Every RunMetrics column of a run equals the per-round formulas applied
    to the iterates the gradient kernel returns and to the agreement rounds
    that follow them, whether the gradient phase comes as one block of rounds
    or is reduced block by block (30 rounds as 7 blocks of 4 and one of 2)."""
    config = make_config(horizon=30, probe_node=2)
    metrics = run(config)
    with pytest.MonkeyPatch.context() as patch:
        block_rounds(patch, 4, 1, config)
        blockwise = run(config)
    x_star = config.minimizer()
    denom = max(float(x_star @ x_star), 1e-12)

    def row(stage, t, x, mean_drift=math.nan, ratio=math.nan):
        x_bar = x.mean(axis=0)
        err = x_bar - x_star
        dev = float(np.linalg.norm(x - x_bar[None, :]))
        probe = float(np.sum((x[2] - x_star) ** 2)) / denom
        return (stage, t, float(err @ err) / denom, dev, probe, x_bar, mean_drift, ratio)

    rows = []
    _, _, (xs,) = trajectory([config], [config.noise_seed])
    for t, x in enumerate(xs, start=1):
        rows.append(row(1, t, x))
    mean_end, norm_end = x.mean(axis=0), float(np.linalg.norm(x))
    for k in range(1, config.agreement_round_cap() + 1):
        x_next = config.graph.weights @ x
        norms = np.maximum(np.linalg.norm(x, axis=1), 1e-12)
        rel_change = float(np.max(np.linalg.norm(x_next - x, axis=1) / norms))
        dev = float(np.linalg.norm(x_next - x_next.mean(axis=0)[None, :]))
        drift = float(np.max(np.abs(x_next.mean(axis=0) - mean_end)))
        rows.append(
            row(2, config.horizon + k, x_next, mean_drift=drift,
                ratio=dev / (config.graph.beta**k * norm_end))
        )
        x = x_next
        if rel_change < config.stage2_rel_tol:
            break

    names = (
        "stage", "t", "normalized_error", "consensus_dev", "probe_error",
        "mean_iterate", "mean_drift", "contraction_ratio",
    )
    assert metrics.agreement_rounds >= 2
    for name, expected in zip(names, zip(*rows)):
        for actual in (getattr(metrics, name), getattr(blockwise, name)):
            np.testing.assert_allclose(
                actual, np.array(expected), rtol=1e-14, atol=0.0, err_msg=name
            )
