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
    _RNG_WINDOW,
    derive_rng,
    derive_rngs,
    derive_seed,
    derive_states,
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


@settings(max_examples=60, deadline=None)
@given(words64, keys, indices)
def test_bulk_generators_draw_what_derive_rng_draws(master_seed, key, finals):
    generators = list(derive_rngs(master_seed, key, finals))
    assert len(generators) == len(finals)
    for generator, index in zip(generators, finals):
        single = derive_rng(master_seed, *key, index)
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
    for generator, attempt in zip(derive_rngs(master_seed, (), last), last):
        assert generator.random() == derive_rng(master_seed, attempt).random()


def test_lazy_generators_cross_their_windows_in_order():
    """``derive_rngs`` hands out streams ``_RNG_WINDOW`` at a time; the
    streams on both sides of each window's edge, and the last, are
    ``derive_rng``'s."""
    count = 2 * _RNG_WINDOW + 3
    generators = derive_rngs(5, (9,), range(count))
    for index, generator in enumerate(generators):
        if index % _RNG_WINDOW in (0, _RNG_WINDOW - 1) or index == count - 1:
            assert generator.random() == derive_rng(5, 9, index).random()
    assert index == count - 1


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
        "from dpconsensus.rng import derive_rngs\n"
        "next(derive_rngs(1, (), range(3)))\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    src = str(Path(dpconsensus.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
