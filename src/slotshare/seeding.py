"""Deterministic random streams for parallel Monte Carlo.

Stages fall in blocks of ``BLOCK_STAGES``.  Block ``b`` of a simulation
seeded with ``s`` is one Philox4x64 counter-based stream keyed with the word
pair ``(s, b)``, and run ``r`` reads its ``BLOCK_STAGES`` rows of ``width``
uniforms from the stream's double ``r * BLOCK_STAGES * width`` on: from
counter ``r * BLOCK_STAGES * width / 4``, as a counter value gives four
doubles.  So results are reproducible regardless of worker scheduling,
consecutive runs of a block are one stretch of its stream, and any run can
be replayed from any language with a Philox implementation.
"""

from __future__ import annotations

import numpy as np

from .model import ConfigurationError

BLOCK_STAGES = 64


class BlockStream:
    """One Philox4x64 generator that ``seek`` sets to a run's rows of a stage block."""

    def __init__(self):
        # Any seed: ``seek`` sets the key and the counter before each draw.
        self._bits = np.random.Philox(0)
        self._state = self._bits.state
        self.random = np.random.Generator(self._bits).random

    def seek(self, seed: int, block: int, run: int, width: int) -> None:
        """Position the stream at run ``run``'s rows of stage block ``block`` of ``seed``."""
        counter = run * BLOCK_STAGES * width // 4
        if counter >= 2**64:
            raise ConfigurationError(f"run index {run} puts its Philox counter past 64 bits")
        state = self._state["state"]
        state["counter"][0] = counter
        state["key"][:] = seed, block
        # The state's buffer is empty, so the next double starts the counter's four.
        self._bits.state = self._state
