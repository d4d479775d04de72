"""Stream derivation: the bulk path equals numpy's SeedSequence bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpconsensus
from dpconsensus._state_words import StateWords
from dpconsensus.graph import _MAX_ATTEMPTS
from dpconsensus.rng import (
    StreamPrefixes,
    derive_rng,
    derive_seed,
    derive_states,
    generators,
    seeded_rngs,
)

EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
words64 = st.sampled_from(EDGES) | st.integers(0, 2**64 - 1)
keys = st.lists(words64, max_size=3)
# Attempt numbers up to the graph cap, and some past 2^32 (two entropy words).
indices = st.lists(
    st.integers(0, _MAX_ATTEMPTS) | st.sampled_from(EDGES) | st.integers(2**32, 2**64 - 1),
    max_size=8,
)


# Master seeds of one and of two 32-bit words, mixed in one call, in any
# order and with more masters among them.
MASTER_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]
masters = st.lists(words64, max_size=4).flatmap(lambda extra: st.permutations(MASTER_EDGES + extra))


def seed_sequence_words(master_seed, key, index, n_words):
    return np.random.SeedSequence(master_seed, spawn_key=(*key, index)).generate_state(
        n_words, np.uint64
    )


@settings(max_examples=150, deadline=None)
@given(words64, keys, indices, st.sampled_from([1, 2, 4, 5]))
def test_bulk_words_equal_seed_sequence_words(master_seed, key, finals, n_words):
    """For master seeds and key elements of one or two 32-bit words, and for
    an empty key."""
    states = derive_states(master_seed, key, finals, n_words)
    assert states.shape == (len(finals), n_words) and states.dtype == np.uint64
    for row, index in zip(states, finals):
        assert np.array_equal(row, seed_sequence_words(master_seed, key, index, n_words))


@settings(max_examples=100, deadline=None)
@given(masters, keys, indices, st.sampled_from([1, 2, 4, 5]))
@example(MASTER_EDGES, [], [0, 1, 2**32], 4)
@example(MASTER_EDGES, [3, 2**40], [0, 2**64 - 1], 2)
def test_many_master_words_equal_seed_sequence_words(master_seeds, key, finals, n_words):
    """Many master seeds in one call, master-major, with empty and non-empty
    keys: each master's rows are its ``SeedSequence`` words, and those of a
    one-master call."""
    states = derive_states(master_seeds, key, finals, n_words)
    assert states.shape == (len(master_seeds), len(finals), n_words)
    assert states.dtype == np.uint64
    for rows, master_seed in zip(states, master_seeds):
        for row, index in zip(rows, finals):
            assert np.array_equal(row, seed_sequence_words(master_seed, key, index, n_words))
        assert np.array_equal(rows, derive_states(master_seed, key, finals, n_words))


@settings(max_examples=60, deadline=None)
@given(masters, keys, indices)
def test_bulk_generators_draw_what_derive_rng_draws(master_seeds, key, finals):
    """``generators`` of many masters' words, in master-major order."""
    streams = list(generators(derive_states(master_seeds, key, finals)))
    assert len(streams) == len(master_seeds) * len(finals)
    addresses = [(m, *key, i) for m in master_seeds for i in finals]
    for generator, address in zip(streams, addresses):
        single = derive_rng(*address)
        assert generator.bit_generator.state == single.bit_generator.state
        assert np.array_equal(generator.random(5), single.random(5))
        assert np.array_equal(generator.standard_normal(3), single.standard_normal(3))


@settings(max_examples=100, deadline=None)
@given(st.lists(words64, max_size=8))
@example(EDGES)
def test_seeded_generators_equal_derive_rng(seeds):
    """Plain seeds of one and of two 32-bit words, mixed in one call: each
    generator's words are ``SeedSequence(seed)``'s, and it draws what
    ``derive_rng(seed)`` draws."""
    generators = seeded_rngs(seeds)
    assert len(generators) == len(seeds)
    for generator, seed in zip(generators, seeds):
        words = generator.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert np.array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        single = derive_rng(seed)
        assert generator.bit_generator.state == single.bit_generator.state
        assert np.array_equal(generator.standard_normal(3), single.standard_normal(3))


@pytest.mark.parametrize("master_seed", [0, 7, 2**32 - 1, 2**64 - 1])
def test_every_attempt_stream_of_a_graph_sample(master_seed):
    """All ``_MAX_ATTEMPTS`` attempt streams of one graph seed in one call,
    as ``derive_seed`` words and as first draws of ``derive_rng``."""
    states = derive_states(master_seed, (), range(_MAX_ATTEMPTS), n_words=1)
    assert states[:, 0].tolist() == [derive_seed(master_seed, a) for a in range(_MAX_ATTEMPTS)]
    last = range(_MAX_ATTEMPTS - 3, _MAX_ATTEMPTS)
    for generator, attempt in zip(generators(derive_states(master_seed, (), last)), last):
        assert generator.random() == derive_rng(master_seed, attempt).random()


def test_stream_prefixes_hand_out_each_round_in_order():
    """Rounds of streams from ``StreamPrefixes``, as the graph sampler asks
    for them (fewer masters each round, later indices): each round's words
    are ``derive_states``' for its masters, in row order, and its streams
    draw what ``derive_rng`` draws."""
    master_seeds = [5, 2**32, 2**64 - 1, 0, 9]
    prefixes = StreamPrefixes(master_seeds, (9,))
    for rows, indices in (([0, 1, 2, 3, 4], [0]), ([1, 3, 4], [1, 2]), ([4], range(3, 7))):
        states = prefixes.states(rows, indices)
        expected = derive_states([master_seeds[r] for r in rows], (9,), indices)
        assert np.array_equal(states, expected)
        addresses = [(master_seeds[r], 9, i) for r in rows for i in indices]
        for generator, address in zip(generators(states), addresses, strict=True):
            assert generator.random() == derive_rng(*address).random()


def test_state_words_hand_over_only_what_they_hold():
    words = derive_states(3, (1,), [2])[0]
    assert StateWords(words).generate_state(4, np.uint64) is words
    for n_words, dtype in ((2, np.uint64), (8, np.uint32)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            StateWords(words).generate_state(n_words, dtype)


def test_importing_the_package_leaves_numpy_random_unimported():
    """``numpy.random`` costs about 10 ms to import; only drawing a stream
    imports it."""
    code = (
        "import sys, dpconsensus, dpconsensus.cli\n"
        "assert 'numpy.random' not in sys.modules, 'imported at load'\n"
        "from dpconsensus.rng import derive_states, generators\n"
        "generators(derive_states([1, 2], (), range(3)))\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    src = str(Path(dpconsensus.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
