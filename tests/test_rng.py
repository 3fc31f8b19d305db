"""Reproducible random streams."""

from __future__ import annotations

import math

import pytest

from kawasaki_dpp.rng import SeededRng


class TestExponential:
    def test_inverse_transform_of_one_uniform(self):
        u = SeededRng(3).random()
        assert SeededRng(3).exponential(2.0) == -math.log1p(-u) / 2.0

    @pytest.mark.parametrize("rate", [0.0, -1.0, -math.inf, math.nan])
    def test_rate_that_is_not_positive_rejected(self, rate):
        # a NaN rate would return a NaN waiting time
        rng = SeededRng(3)
        with pytest.raises(ValueError, match="^rate must be positive and finite, got "):
            rng.exponential(rate)
        assert rng.random() == SeededRng(3).random()  # no uniform was taken

    def test_infinite_rate_rejected(self):
        # it would return a wait of 0.0
        rng = SeededRng(3)
        with pytest.raises(ValueError, match="^rate must be positive and finite, got inf$"):
            rng.exponential(math.inf)
        assert rng.random() == SeededRng(3).random()


class TestKey:
    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (2**64, 0), (5, 2**64 + 1)])
    def test_seed_and_stream_outside_64_bits_refused(self, seed, stream):
        # Philox is keyed by two 64-bit words: 2**64 + 1 would draw stream 1
        message = r"^seed and stream must be integers in \[0, 2\*\*64\)$"
        with pytest.raises(ValueError, match=message):
            SeededRng(seed, stream)

    def test_largest_seed_and_stream_key_philox(self):
        rng = SeededRng(2**64 - 1, 2**64 - 1)
        assert rng.generator.bit_generator.state["state"]["key"].tolist() == [2**64 - 1] * 2
        assert rng.random() != SeededRng(0, 0).random()
