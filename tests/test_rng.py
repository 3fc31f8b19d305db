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
