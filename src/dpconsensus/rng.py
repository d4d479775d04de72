"""Deterministic random-stream derivation.

Every stochastic component owns an isolated stream derived from a 64-bit
master seed plus a structured key (stream label, axis index, seed index,
...).  Streams are PCG64 generators; normal variates use numpy's ziggurat,
so replays are bit-stable for a fixed numpy build.

Many streams whose keys differ only in their last element (the attempts of
one graph sample, the samples of one audit) are derived in bulk by
``derive_states`` and ``derive_rngs``, with no ``SeedSequence`` built.  They
compute numpy's ``SeedSequence`` hash themselves: its hash constants
advance once per step whatever the data, so the pool left by the key's
shared prefix is hashed once, and each final index adds only its own
word's steps and the output words, vectorised over the indices.  A
vectorised call costs about 35 us whatever the index count, so
``derive_rngs`` derives ``_RNG_WINDOW`` streams per call and hands them out
lazily.  Plain integer seeds with no key (a batch's noise seeds) are
seeded in bulk by ``seeded_rngs``: ``SeedSequence(seed)`` hashes only the
seed's one or two words, zero-padded to the pool size, so the whole pool
is hashed vectorised over the seeds.  The words and generators are
bit-identical to ``seed_sequence(...)``'s, which NEP 19 keeps stable across
numpy releases.  ``numpy.random`` is imported only when a generator is
built.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence hash: pool size, the constants of its entropy hash
# (A), of its output hash (B) and of its mixing step.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Streams ``derive_rngs`` derives per ``derive_states`` call: a graph sample's
# first twelve chunks, 255 attempts, take one call.
_RNG_WINDOW = 256


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for ``master_seed`` refined by an integer key path."""
    return np.random.SeedSequence(
        entropy=master_seed & _MASK64, spawn_key=tuple(k & _MASK64 for k in key)
    )


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator owning the stream addressed by ``(master_seed, *key)``."""
    return np.random.default_rng(seed_sequence(master_seed, *key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse a stream address into a plain 64-bit integer seed."""
    return int(seed_sequence(master_seed, *key).generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """The 32-bit entropy words SeedSequence reads from one integer."""
    value &= _MASK64
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def _constants(init: int, mult: int, count: int) -> list[int]:
    """The first ``count + 1`` hash constants init * mult^k mod 2^32."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


def _hashmix(value, constant, next_constant):
    """One hash step on 32-bit words held in Python ints or uint64 arrays:
    ``constant`` is the hash constant before the step, ``next_constant``
    after it."""
    value = (value ^ constant) * next_constant & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mixing of a hashed word ``y`` into pool word ``x``."""
    mixed = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return mixed ^ mixed >> 16


def _pool(first: list, a: list) -> list:
    """SeedSequence's pool of four words after its first four entropy words
    ``first``, zero-padded: each is hashed into its own pool word under
    constants ``a``, then every pool word is hashed and mixed into each
    other.  Words are Python ints or uint64 arrays, vectorised alike; this
    takes ``a[0]`` .. ``a[16]``."""
    pool = [_hashmix(word, a[k], a[k + 1]) for k, word in enumerate(first)]
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[step], a[step + 1]))
                step += 1
    return pool


def _output_words(pools: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of each row of ``pools``, a
    uint64 array ``(R, 4)``, as C-contiguous rows ``(R, n_words)``.

    Output word j hashes pool word j mod 4; the 32-bit words pair up
    little-endian."""
    b = np.array(_constants(_INIT_B, _MULT_B, 2 * n_words), dtype=np.uint64)
    pools = np.concatenate([pools] * -(-2 * n_words // _POOL_WORDS), axis=1)[:, :2 * n_words]
    return _hashmix(pools, b[:-1], b[1:]).astype("<u4").view("<u8").astype(np.uint64)


def _generators(states: np.ndarray) -> Iterator[np.random.Generator]:
    """A PCG64 generator seeded with each row of four words of ``states``."""
    from numpy.random import PCG64, Generator

    from ._state_words import StateWords

    return (Generator(PCG64(StateWords(words))) for words in states)


def derive_states(
    master_seed: int, key: Sequence[int], indices: Sequence[int], n_words: int = 4
) -> np.ndarray:
    """``seed_sequence(master_seed, *key, i).generate_state(n_words, np.uint64)``
    for every final index ``i`` of ``indices`` (each in [0, 2^64)), as the
    rows of a uint64 array ``(len(indices), n_words)``.

    SeedSequence pads the master seed's words to the pool size (a spawn key
    is always given here), appends the key's words and hashes them into a
    pool of four words.  That pool is computed once, in Python ints; each
    index then mixes in its own word, or two above 2^32, and the output
    words are hashed from the pool, both vectorised over the indices.  The
    rows are C-contiguous.
    """
    master = _words(master_seed)
    entropy = master + [0] * (_POOL_WORDS - len(master)) + [w for k in key for w in _words(k)]
    # The pool's 4 first hashes and 12 cross-mixes, and 4 steps per later
    # word, take 4 constants per entropy word; an index's words, 8 more.
    a = _constants(_INIT_A, _MULT_A, _POOL_WORDS * len(entropy) + 2 * _POOL_WORDS)
    pool = _pool(entropy[:_POOL_WORDS], a)
    step = _POOL_WORDS * _POOL_WORDS
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, a[step], a[step + 1]))
            step += 1
    # One row per index, one column per pool word: the four steps of an
    # index word hash it under four consecutive constants.
    index = np.array(indices, dtype=np.uint64).reshape(-1, 1)
    a = np.array(a[step:], dtype=np.uint64)
    pool = _mix(np.array(pool, dtype=np.uint64), _hashmix(index & _MASK32, a[:4], a[1:5]))
    high = index >> 32
    if high.any():
        rows = np.flatnonzero(high)
        pool[rows] = _mix(pool[rows], _hashmix(high[rows], a[4:8], a[5:9]))
    return _output_words(pool, n_words)


def derive_rngs(
    master_seed: int, key: Sequence[int], indices: Sequence[int]
) -> Iterator[np.random.Generator]:
    """``derive_rng(master_seed, *key, i)`` for each ``i`` of ``indices`` in
    turn, bit for bit: each generator is a PCG64 seeded with its four words
    from ``derive_states``, which derives the words of ``_RNG_WINDOW``
    indices at a time, so a caller that stops early hashes at most one
    window past the streams it drew."""
    for start in range(0, len(indices), _RNG_WINDOW):
        yield from _generators(derive_states(master_seed, key, indices[start:start + _RNG_WINDOW]))


def seeded_rngs(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``derive_rng(seed)`` for each integer seed of ``seeds``, bit for bit.

    With no key, SeedSequence hashes only the seed's one or two 32-bit
    words, zero-padded to the pool size: the pool's first hashes and
    cross-mixes, vectorised over the seeds, then give every pool at once.
    """
    seeds = np.fromiter((seed & _MASK64 for seed in seeds), dtype=np.uint64, count=len(seeds))
    a = _constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
    pool = _pool([seeds & _MASK32, seeds >> 32, np.zeros_like(seeds), np.zeros_like(seeds)], a)
    return list(_generators(_output_words(np.stack(pool, axis=1), 4)))
