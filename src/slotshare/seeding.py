"""Deterministic random streams for parallel Monte Carlo.

Run ``r`` of a simulation seeded with ``s`` draws from a Philox4x64
counter-based generator keyed with the word pair ``(s, r)`` and counter 0, so
every result is reproducible regardless of worker scheduling and can be
replayed from any language with a Philox implementation.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def run_generator(seed: int, run_index: int) -> np.random.Generator:
    """Independent stream for one Monte Carlo run of a batch."""
    key = np.array([seed & _MASK64, run_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
