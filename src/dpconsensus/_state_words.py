"""A seed sequence that hands a bit generator precomputed state words.

It subclasses ``numpy.random``'s ``ISeedSequence``, and importing
``numpy.random`` costs about 10 ms, which a command that draws no stream
need not pay; so it lives apart from ``rng``, which imports it when it
builds its first generator.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["StateWords"]


class StateWords(ISeedSequence):
    """The uint64 words some ``SeedSequence`` would generate, given in
    advance: ``PCG64(StateWords(words))`` is seeded exactly as ``PCG64`` of
    that sequence, which asks for ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        # PCG64 reads the words from the array's buffer: one contiguous
        # uint64 vector, as each row of ``rng.derive_states`` is.
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(
                f"holds {len(self.words)} uint64 words, asked for {n_words} of {np.dtype(dtype)}"
            )
        return self.words
