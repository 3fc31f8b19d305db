"""Reproducible random streams.

Every stochastic routine in the package draws from a :class:`SeededRng`, a
counter-based Philox-128 generator keyed by ``(seed, stream)``.  Distinct
stream indices under the same seed give statistically independent streams, so
parallel replicas never need to coordinate.  All consumption goes through
uniform doubles (inverse-transform for exponentials), which keeps output
streams stable for a fixed numpy install.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SeededRng"]


class SeededRng:
    """A named random stream identified by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= seed < 2**64 and 0 <= stream < 2**64):  # Philox's key is two 64-bit words
            raise ValueError("seed and stream must be integers in [0, 2**64)")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream: int) -> "SeededRng":
        """Fresh stream under the same seed (independent of this one)."""
        return SeededRng(self.seed, stream)

    def random(self, size=None):
        """Uniform doubles in [0, 1)."""
        return self.generator.random(size)

    def exponential(self, rate: float) -> float:
        """Exp(rate) waiting time via inverse transform of one uniform."""
        if not 0.0 < rate < math.inf:  # NaN fails too
            raise ValueError(f"rate must be positive and finite, got {rate!r}")
        return -math.log1p(-self.generator.random()) / rate

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"
