"""Deterministic random-stream derivation.

Every stochastic component owns an isolated stream derived from a 64-bit
master seed plus a structured key (stream label, axis index, seed index,
...).  Streams are PCG64 generators; normal variates use numpy's ziggurat,
so replays are bit-stable for a fixed numpy build.

Many streams whose keys differ only in their last element (the attempts of
a round of graph samples, the nodes of a sweep value's datasets, the
samples of one audit) are derived in bulk by ``derive_states``, for one
master seed or for many at once, with no ``SeedSequence`` built.  It
computes numpy's ``SeedSequence`` hash itself: its hash constants advance
once per step whatever the data, so the pool left by each master seed and
the key's shared prefix is hashed once, vectorised over the master seeds,
and each final index adds only its own word's steps and the output words,
vectorised over the masters and indices alike.  ``generators`` seeds a
PCG64 generator from each row of words.  Plain integer seeds with no key
(a batch's noise seeds) are seeded in bulk by ``seeded_rngs``:
``SeedSequence(seed)`` hashes only the seed's one or two words,
zero-padded to the pool size, so the whole pool is hashed vectorised over
the seeds.  The words and generators are bit-identical to
``seed_sequence(...)``'s, which NEP 19 keeps stable across numpy releases.
``numpy.random`` is imported only when a generator is built.
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


def generators(states: np.ndarray) -> Iterator[np.random.Generator]:
    """A PCG64 generator seeded with each row of four words of ``states``,
    a uint64 array ``(..., 4)`` of ``derive_states`` rows, in row order and
    built as it is asked for: ``derive_rng``'s generator for the same
    address, bit for bit."""
    from numpy.random import PCG64, Generator

    from ._state_words import StateWords

    return (Generator(PCG64(StateWords(words))) for words in states.reshape(-1, _POOL_WORDS))


def _seed_words(seeds: np.ndarray) -> list:
    """The four first entropy words of each uint64 seed of ``seeds``: its
    one or two 32-bit words, zero-padded to the pool size."""
    return [seeds & _MASK32, seeds >> 32, np.zeros_like(seeds), np.zeros_like(seeds)]


def _uint64s(seeds: Sequence[int]) -> np.ndarray:
    return np.fromiter((seed & _MASK64 for seed in seeds), dtype=np.uint64, count=len(seeds))


def _prefix_pools(first: list, key: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pools, uint64 ``(M, 4)``, of the stream prefixes ``(m, *key)``
    whose master seeds give the four first entropy words ``first``: Python
    ints for one master (M = 1) or uint64 arrays ``(M,)``.  Also returns the
    8 hash constants that a final index's words take next.

    SeedSequence pads a master seed's words to the pool size (a spawn key
    is always given here), appends the key's words and hashes them in."""
    rest = [w for k in key for w in _words(k)]
    # The pool's 4 first hashes and 12 cross-mixes, and 4 steps per later
    # word, take 4 constants per entropy word; an index's words, 8 more.
    a = _constants(_INIT_A, _MULT_A, _POOL_WORDS * (_POOL_WORDS + len(rest)) + 2 * _POOL_WORDS)
    pool = _pool(first, a)
    step = _POOL_WORDS * _POOL_WORDS
    for word in rest:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, a[step], a[step + 1]))
            step += 1
    pools = np.stack(pool, axis=-1).astype(np.uint64).reshape(-1, _POOL_WORDS)
    return pools, np.array(a[step:], dtype=np.uint64)


def _index_states(
    pools: np.ndarray, a: np.ndarray, indices: Sequence[int], n_words: int
) -> np.ndarray:
    """The words ``(M, len(indices), n_words)`` of each prefix pool of
    ``pools`` ``(M, 4)`` extended by each final index, its own word or two
    above 2^32 hashed under the constants ``a``; every row is C-contiguous."""
    # The four steps of an index word hash it under four consecutive
    # constants, one per pool word.
    index = np.array(indices, dtype=np.uint64).reshape(-1, 1)
    pools = _mix(pools[:, None], _hashmix(index & _MASK32, a[:4], a[1:5]))
    high = index >> 32
    if high.any():
        rows = np.flatnonzero(high)
        pools[:, rows] = _mix(pools[:, rows], _hashmix(high[rows], a[4:8], a[5:9]))
    states = _output_words(pools.reshape(-1, _POOL_WORDS), n_words)
    return states.reshape(len(pools), len(index), n_words)


def derive_states(
    master_seed: int | Sequence[int],
    key: Sequence[int],
    indices: Sequence[int],
    n_words: int = 4,
) -> np.ndarray:
    """``seed_sequence(m, *key, i).generate_state(n_words, np.uint64)`` for
    every final index ``i`` of ``indices`` (each in [0, 2^64)): for one
    master seed ``m``, the rows of a uint64 array ``(len(indices),
    n_words)``; for a sequence of M master seeds, an array ``(M,
    len(indices), n_words)``, master-major.

    The pool of each prefix ``(m, *key)`` is computed once, in Python ints
    for one master and vectorised over many; each index then mixes in its
    own words, and the output words are hashed from the pools, vectorised
    over masters and indices.  Every row is C-contiguous.
    """
    if isinstance(master_seed, (int, np.integer)):
        master = _words(int(master_seed))
        pools = _prefix_pools(master + [0] * (_POOL_WORDS - len(master)), key)
        return _index_states(*pools, indices, n_words)[0]
    return StreamPrefixes(master_seed, key).states(range(len(master_seed)), indices, n_words)


class StreamPrefixes:
    """The stream prefixes ``(m, *key)`` of the master seeds ``m`` of
    ``master_seeds`` and one key, for streams ``(m, *key, i)`` asked for by
    final index later, as in rounds: each prefix's pool is hashed once, at
    construction, vectorised over the master seeds."""

    def __init__(self, master_seeds: Sequence[int], key: Sequence[int] = ()) -> None:
        self.master_seeds = master_seeds
        self._pools, self._constants = _prefix_pools(_seed_words(_uint64s(master_seeds)), key)

    def states(self, rows: Sequence[int], indices: Sequence[int], n_words: int = 4) -> np.ndarray:
        """``derive_states(self.master_seeds[r], key, indices, n_words)`` for
        each r of ``rows``, stacked ``(len(rows), len(indices), n_words)``."""
        return _index_states(self._pools[list(rows)], self._constants, indices, n_words)


def seeded_rngs(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``derive_rng(seed)`` for each integer seed of ``seeds``, bit for bit.

    With no key, SeedSequence hashes only the seed's one or two 32-bit
    words, zero-padded to the pool size: the pool's first hashes and
    cross-mixes, vectorised over the seeds, then give every pool at once.
    """
    a = _constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
    pool = _pool(_seed_words(_uint64s(seeds)), a)
    return list(generators(_output_words(np.stack(pool, axis=1), _POOL_WORDS)))
