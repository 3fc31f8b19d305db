"""Swap ratios: inversion, change of variables, stabilization diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kawasaki_dpp.dpp import Configuration, config_probability, enumerate_distribution, sample_many
from kawasaki_dpp.errors import (
    EmptyInputError,
    SamePointError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from kawasaki_dpp.kernel import KernelMatrix, Site, Window, kernel_matrix
from kawasaki_dpp.rn import (
    StabilizationRow,
    SwapPair,
    _enclosing_window,
    apply_transposition,
    rn_derivative,
    rn_stabilization,
    write_stabilization_csv,
)
from kawasaki_dpp.rng import SeededRng


def _column_split(k: KernelMatrix, occupancy) -> np.ndarray:
    """The matrix whose column j is K's at an occupied site j and (I - K)'s at an empty one."""
    complement = np.eye(k.size) - k.entries
    m = np.empty_like(k.entries)
    for j, occupied in enumerate(occupancy):
        m[:, j] = k.entries[:, j] if occupied else complement[:, j]
    return m


# 6-site window [-2.5..2.5], leftmost site occupied, swap leftmost<->rightmost.
# Regression value pinned from the first computation; it equals the ratio of
# the corresponding enumeration pmf entries to every printed digit.
PHI_PIN_6SITE = 0.00064287219242295231


class TestSwapPair:
    def test_distinct(self):
        with pytest.raises(SamePointError):
            SwapPair(Site(1), Site(1))

    def test_separation(self):
        assert SwapPair(Site(-2), Site(3)).separation == 5


class TestApplyTransposition:
    def test_equal_occupancy_fixed_point(self, window6):
        config = Configuration(window6, (1, 0, 0, 0, 0, 1))
        swap = SwapPair(Site(-2), Site(1))
        assert apply_transposition(config, swap) is config

    def test_involution(self, window6):
        config = Configuration(window6, (1, 0, 1, 0, 0, 1))
        swap = SwapPair(Site(-3), Site(0))
        assert apply_transposition(apply_transposition(config, swap), swap) == config

    def test_positional_example(self):
        # occupancy 1010 on a 4-site window; swapping positions 1 and 2 gives 1100
        w = Window.from_indices(0, 3)
        config = Configuration(w, (1, 0, 1, 0))
        swap = SwapPair(Site(1), Site(2))
        assert str(apply_transposition(config, swap)) == "1100"

    def test_outside_window(self, window6):
        with pytest.raises(WindowMismatchError):
            apply_transposition(Configuration.empty(window6), SwapPair(Site(0), Site(40)))


class TestRnDerivative:
    def test_equal_occupancy_gives_exactly_one(self, k6):
        config = Configuration(k6.window, (1, 0, 0, 0, 0, 1))
        assert rn_derivative(k6, config, SwapPair(Site(-3), Site(2))) == 1.0

    def test_inversion_identity(self, k6):
        swap = SwapPair(Site(-3), Site(1))
        for mask in range(64):
            config = Configuration.from_bitmask(k6.window, mask)
            if config_probability(k6, config) <= 0.0:
                continue
            phi = rn_derivative(k6, config, swap)
            swapped = apply_transposition(config, swap)
            assert phi * rn_derivative(k6, swapped, swap) == pytest.approx(1.0, abs=1e-9)

    def test_pinned_regression_and_pmf_oracle(self, real_pair):
        w = Window.centered(6)
        k = kernel_matrix(real_pair, w)
        gamma = Configuration(w, (1, 0, 0, 0, 0, 0))
        swap = SwapPair(w.lo, w.hi)
        phi = rn_derivative(k, gamma, swap)
        assert phi == pytest.approx(PHI_PIN_6SITE, rel=1e-12)
        pmf = enumerate_distribution(k)
        want = pmf.prob(apply_transposition(gamma, swap)) / pmf.prob(gamma)
        assert phi == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_equals_determinant_ratio_reference(self, request, branch):
        # Every state and nn swap of 6 sites, and 3 draws on 40 sites: the
        # ratio is exactly the quotient of the two column-split determinants.
        pair = request.getfixturevalue(branch)
        k6 = kernel_matrix(pair, Window.centered(6))
        k40 = kernel_matrix(pair, Window.centered(40))
        cases = [(k6, [Configuration.from_bitmask(k6.window, mask) for mask in range(64)]),
                 (k40, sample_many(k40, SeededRng(3), 3))]
        for k, configs in cases:
            sites = k.window.sites
            for config in configs:
                for swap in (SwapPair(a, b) for a, b in zip(sites, sites[1:])):
                    swapped = apply_transposition(config, swap)
                    want = (np.linalg.det(_column_split(k, swapped.occupancy))
                            / np.linalg.det(_column_split(k, config.occupancy)))
                    assert rn_derivative(k, config, swap) == want

    def test_zero_probability_denominator(self, window6):
        k = KernelMatrix(window6, np.zeros((6, 6)))
        config = Configuration(window6, (1, 0, 0, 0, 0, 0))
        with pytest.raises(ZeroProbabilityError):
            rn_derivative(k, config, SwapPair(Site(-3), Site(0)))

    def test_change_of_variables_sums_to_one(self, k8, pmf8):
        swap = SwapPair(Site(-4), Site(3))
        total = 0.0
        for mask in range(256):
            config = Configuration.from_bitmask(k8.window, mask)
            p = pmf8.probs[mask]
            if p <= 0.0:
                continue
            total += p * rn_derivative(k8, config, swap)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_square_integral_probe_is_finite(self, k8, pmf8):
        swap = SwapPair(Site(0), Site(1))
        probe = 0.0
        for mask in range(256):
            config = Configuration.from_bitmask(k8.window, mask)
            p = pmf8.probs[mask]
            if p <= 0.0:
                continue
            phi = rn_derivative(k8, config, swap)
            probe += p * phi * phi
        assert math.isfinite(probe)
        assert probe >= 1.0  # Jensen: E[phi^2] >= (E[phi])^2 = 1


class TestStabilization:
    def test_trivial_pattern_is_exactly_one(self, real_pair):
        # equal occupancies at the swap sites: phi = 1 for every sample
        pattern_window = Window.from_indices(3, 4)
        pattern = Configuration(pattern_window, (0, 0))
        swap = SwapPair(Site(3), Site(4))
        table = rn_stabilization(real_pair, pattern, swap, [8, 10], SeededRng(3), n_samples=15)
        for row in table.rows:
            assert row.phi_mean == 1.0
            assert row.phi_std == 0.0
            assert row.n_samples == 15
            assert row.max_inversion_residual == 0.0
        assert table.deltas() == [0.0]

    def test_nontrivial_pattern_reports(self, real_pair):
        pattern_window = Window.from_indices(-1, 0)
        pattern = Configuration(pattern_window, (1, 0))
        swap = SwapPair(Site(-1), Site(0))
        table = rn_stabilization(real_pair, pattern, swap, [6, 8, 10], SeededRng(17),
                                 n_samples=40)
        assert [r.window_size for r in table.rows] == [6, 8, 10]
        for row in table.rows:
            assert row.phi_mean > 0.0
            assert row.phi_std >= 0.0
            # per-sample inversion (the exact identity) holds at every size
            assert row.max_inversion_residual < 1e-10
        assert len(table.deltas()) == 2

    def test_swap_must_fit_window(self, real_pair):
        pattern = Configuration(Window.from_indices(0, 1), (0, 0))
        with pytest.raises(WindowMismatchError):
            rn_stabilization(real_pair, pattern, SwapPair(Site(0), Site(50)), [6],
                             SeededRng(0), n_samples=2)

    def test_needs_a_window_size(self, real_pair):
        # with no rows there is nothing to report, nor any drift between sizes
        pattern = Configuration(Window.from_indices(0, 1), (1, 0))
        with pytest.raises(EmptyInputError, match="^no window sizes$"):
            rn_stabilization(real_pair, pattern, SwapPair(Site(0), Site(1)), [], SeededRng(0))

    def test_needs_a_sample(self, real_pair):
        # the mean and the variance divide by n_samples
        pattern = Configuration(Window.from_indices(0, 1), (1, 0))
        with pytest.raises(ValueError, match="^n_samples must be >= 1, got 0$"):
            rn_stabilization(real_pair, pattern, SwapPair(Site(0), Site(1)), [6],
                             SeededRng(0), n_samples=0)

    def test_pattern_below_floor(self, real_pair):
        # all twenty sites of 0..19 occupied: probability 4.69e-400 by a
        # 400-digit mpmath determinant, below the 1e-300 floor
        pattern = Configuration.full(Window.from_indices(0, 19))
        with pytest.raises(ZeroProbabilityError):
            rn_stabilization(real_pair, pattern, SwapPair(Site(0), Site(19)), [20],
                             SeededRng(1), n_samples=1)

    def test_rare_pattern_is_drawn_exactly(self, real_pair):
        # all eight sites of -2..5 occupied has probability about 1.9e-55;
        # conditioning forces it, so every draw is the pattern itself
        pattern = Configuration.full(Window.from_indices(-2, 5))
        table = rn_stabilization(real_pair, pattern, SwapPair(Site(-2), Site(5)), [8, 10],
                                 SeededRng(1), n_samples=3)
        assert [r.n_samples for r in table.rows] == [3, 3]
        assert table.rows[0].phi_std == 0.0

    def test_mean_ratio_matches_conditional_expectation(self, real_pair):
        # phi averaged over exactly conditioned draws against the enumerated
        # conditional law on the 10-site window -5..4
        pattern = Configuration(Window.from_indices(-1, 0), (1, 0))
        swap = SwapPair(Site(-1), Site(0))
        n_samples = 2000
        table = rn_stabilization(real_pair, pattern, swap, [10], SeededRng(4),
                                 n_samples=n_samples)
        k = kernel_matrix(real_pair, Window.from_indices(-5, 4))
        pmf = enumerate_distribution(k)
        weights, phis = [], []
        for mask in range(1 << 10):
            if (mask >> 4) & 3 == 1 and pmf.probs[mask] > 0.0:
                config = Configuration.from_bitmask(k.window, mask)
                weights.append(pmf.probs[mask])
                phis.append(rn_derivative(k, config, swap))
        weights = np.array(weights) / np.sum(weights)
        mean = float(weights @ np.array(phis))
        sd = math.sqrt(float(weights @ (np.array(phis) - mean) ** 2))
        assert abs(table.rows[0].phi_mean - mean) < 5.0 * sd / math.sqrt(n_samples)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_rows_equal_per_draw_loop(self, request, branch):
        # Reference: both ratios of each draw from rn_derivative, summed in draw order.
        pair = request.getfixturevalue(branch)
        pattern = Configuration(Window.from_indices(-1, 0), (1, 0))
        swap = SwapPair(Site(-2), Site(1))
        sizes, n_samples, rng = [6, 9], 40, SeededRng(8, 2)
        table = rn_stabilization(pair, pattern, swap, sizes, rng, n_samples=n_samples)
        for offset, (size, row) in enumerate(zip(sizes, table.rows)):
            k = kernel_matrix(pair, _enclosing_window(pattern.window, size))
            draws = sample_many(k, rng.spawn(rng.stream + 1 + offset), n_samples, pattern=pattern)
            phis, worst = [], 0.0
            for draw in draws:
                phi = rn_derivative(k, draw, swap)
                reverse = rn_derivative(k, apply_transposition(draw, swap), swap)
                worst = max(worst, abs(phi * reverse - 1.0))
                phis.append(phi)
            assert 1.0 in phis and len(set(phis)) > 1  # equal and unequal occupancies occur
            mean = sum(phis) / n_samples
            var = sum((p - mean) ** 2 for p in phis) / n_samples
            assert row == StabilizationRow(size, mean, math.sqrt(var), n_samples, worst)

    def test_zero_probability_draw_is_reported_first(self, monkeypatch):
        # Site 0 carries no kernel mass, so the draw 110 is impossible; its
        # swap of sites 0 and 2 leads to 011, whose determinant lies far below
        # the clamp floor (this K is no DPP kernel).  The draw's own undefined
        # ratio is what gets reported.
        entries = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 2.0], [0.0, 2.0, 0.5]])
        k = KernelMatrix(Window.from_indices(0, 2), entries)
        draw = Configuration(k.window, (1, 1, 0))
        monkeypatch.setattr("kawasaki_dpp.rn.kernel_matrix", lambda pair, window: k)
        monkeypatch.setattr("kawasaki_dpp.rn.sample_many",
                            lambda k, rng, count, pattern: [draw] * count)
        with pytest.raises(ZeroProbabilityError, match="110"):
            rn_stabilization(None, Configuration(Window.from_indices(1, 1), (1,)),
                             SwapPair(Site(0), Site(2)), [3], SeededRng(0), n_samples=2)

    def test_csv_format(self, real_pair, tmp_path):
        pattern = Configuration(Window.from_indices(3, 4), (0, 0))
        table = rn_stabilization(real_pair, pattern, SwapPair(Site(3), Site(4)), [6],
                                 SeededRng(2), n_samples=5)
        path = tmp_path / "stab.csv"
        write_stabilization_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_size,phi_mean,phi_std,n_samples"
        size, mean, std, count = lines[1].split(",")
        assert (int(size), float(mean), float(std), int(count)) == (6, 1.0, 0.0, 5)
