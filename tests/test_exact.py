"""Exact finite-state analysis: generator, reversibility, forms, spectra."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from kawasaki_dpp.dpp import Configuration
from kawasaki_dpp.dynamics import ProximitySpec, RateModel, rate
from kawasaki_dpp.errors import (
    DimensionMismatchError,
    NotReversibleError,
    NumericalError,
    SizeError,
    ZeroProbabilityError,
)
from kawasaki_dpp.exact import (
    _B,
    _PADE13_SUMS,
    _THETA13,
    GeneratorMatrix,
    build_generator,
    check_reversibility,
    dirichlet_form,
    sector_masks,
    spectrum,
    transition_matrix,
)
from kawasaki_dpp.kernel import AdmissiblePair, KernelMatrix, Site, Window, kernel_matrix
from kawasaki_dpp.rn import SwapPair, apply_transposition

# 6-site window, 3-particle sector, nearest-neighbor Metropolis at (1.5, 1.7).
# Pinned from the first computation.
SPECTRAL_GAP_PIN = 1.0763065511689107


PROXIMITIES = {
    "nn": ProximitySpec.nearest_neighbor(),
    "exp:0.5": ProximitySpec.exp_decay(0.5),
    "range:3": ProximitySpec.finite_range(3),
}


def _models(proximity=None):
    spec = proximity or ProximitySpec.nearest_neighbor()
    return [RateModel.metropolis(spec), RateModel.sqrt_ratio(spec), RateModel.glauber_like(spec)]


def _scalar_moves(g: GeneratorMatrix):
    """(i, j, config, swap) of every move, found pair by pair on Configuration objects."""
    for i in range(g.n_states):
        config = g.configuration(i)
        for swap in g.pairs:
            swapped = apply_transposition(config, swap)
            if swapped != config:
                yield i, g.index_of(swapped.bitmask), config, swap


def _expm_reference(a: np.ndarray) -> np.ndarray:
    """Pade-13 scaling and squaring as first written, one new array per product: the bit pin."""
    n = len(a)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = np.ldexp(a, -s)
    powers = np.empty((3, n, n))  # A^2, A^4, A^6
    np.matmul(a, a, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    w1, w2, z1, z2 = (_PADE13_SUMS @ powers.reshape(3, -1)).reshape(4, n, n)
    w2.flat[::n + 1] += _B[1]
    z2.flat[::n + 1] += _B[0]
    w2 += powers[2] @ w1
    u = a @ w2
    v = powers[2] @ z1
    v += z2
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


class TestSectorMasks:
    def test_combinadic_order(self):
        assert sector_masks(4, 2) == [3, 5, 6, 9, 10, 12]

    def test_counts(self):
        assert len(sector_masks(8, 3)) == math.comb(8, 3)

    def test_range_check(self):
        with pytest.raises(ValueError):
            sector_masks(4, 5)

    @pytest.mark.parametrize("n_sites", range(11))
    def test_equal_to_combinations(self, n_sites):
        for count in range(n_sites + 1):
            want = sorted(sum(1 << i for i in chosen)
                          for chosen in itertools.combinations(range(n_sites), count))
            assert sector_masks(n_sites, count) == want

    def test_listing_takes_no_occupancy_table(self):
        # a (2^20, 20) bool table of every mask would take 20 MiB
        tracemalloc.start()
        try:
            masks = sector_masks(20, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks == [1 << i for i in range(20)]
        assert peak <= 4 << 20

    @pytest.mark.parametrize("n_sites", [21, 64])
    def test_size_cap_before_listing(self, n_sites):
        # 2^64 masks could not be listed; the cap is checked first
        with pytest.raises(SizeError, match="^sector listing capped at 20 sites"):
            sector_masks(n_sites, 3)


class TestBuildGenerator:
    def test_row_sums_vanish(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        assert float(np.abs(g.Q.sum(axis=1)).max()) < 1e-12

    def test_off_diagonals_nonnegative(self, k8):
        g = build_generator(_models()[2], k8, sector=4)
        off = g.Q - np.diag(np.diagonal(g.Q))
        assert off.min() >= 0.0

    def test_two_site_chain_explicit(self, real_pair):
        w = Window.from_indices(0, 1)
        k = kernel_matrix(real_pair, w)
        model = _models()[0]
        g = build_generator(model, k, sector=1)
        assert list(g.states) == [1, 2]
        config01 = Configuration.from_bitmask(w, 1)
        swap = SwapPair(Site(0), Site(1))
        want = 2.0 * rate(model, k, config01, swap)
        assert g.Q[0, 1] == want
        assert g.Q[0, 0] == -want

    def test_measure_matches_enumeration_sector(self, k8, pmf8):
        g = build_generator(_models()[0], k8, sector=3)
        masks, conditional = pmf8.sector(3)
        assert list(masks) == list(g.states)
        assert float(np.abs(g.measure - conditional).max()) < 1e-12

    def test_full_space_measure_sums_to_one(self, k6):
        g = build_generator(_models()[0], k6)
        assert g.n_states == 64
        assert g.measure.sum() == pytest.approx(1.0, rel=1e-12)

    def test_stationarity_all_models(self, k8):
        for model in _models():
            g = build_generator(model, k8, sector=3)
            assert float(np.abs(g.measure @ g.Q).max()) < 1e-10

    @pytest.mark.parametrize("proximity", sorted(PROXIMITIES))
    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("span, sector", [((-3, 2), None), ((-4, 2), 3)])
    def test_off_diagonals_equal_scalar_rates(self, request, branch, proximity, span, sector):
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(*span))
        for model in _models(PROXIMITIES[proximity]):
            g = build_generator(model, k, sector=sector)
            want = np.zeros_like(g.Q)
            for i, j, config, swap in _scalar_moves(g):
                want[i, j] = 2.0 * rate(model, k, config, swap)
            np.fill_diagonal(want, -want.sum(axis=1))
            assert np.array_equal(g.Q, want)

    def test_pairs_leave_out_zero_weight(self, real_pair):
        # exp(-100 d) underflows to 0 at separation 8, the end sites of 9
        k = kernel_matrix(real_pair, Window.centered(9))
        g = build_generator(RateModel.metropolis(ProximitySpec.exp_decay(100.0)), k, sector=4)
        assert len(g.pairs) == 35
        assert all(swap.separation <= 7 for swap in g.pairs)

    def test_zero_probability_state_raises(self):
        # Site 0 is surely occupied, so every state that leaves it empty is impossible.
        w = Window.from_indices(0, 2)
        k = KernelMatrix(w, np.diag([1.0, 0.0, 0.5]))
        with pytest.raises(ZeroProbabilityError, match="010"):
            build_generator(_models()[0], k, sector=1)
        with pytest.raises(ZeroProbabilityError):
            build_generator(_models()[2], k)

    @pytest.mark.parametrize("weight,state", [(1e308, "111000"), (3e306, "011100")])
    def test_non_finite_rate_names_the_state(self, k6, weight, state):
        # 1e308: a rate overflows; 3e306: the rates are finite but a row total is not
        model = RateModel.glauber_like(ProximitySpec.nearest_neighbor(weight))
        with pytest.raises(NumericalError, match=f"^configuration {state} has total jump rate inf$"):
            build_generator(model, k6, sector=3)

    def test_size_caps(self, real_pair, monkeypatch):
        # The state count is capped before any state is listed or determinant taken.
        k15, k16 = (kernel_matrix(real_pair, Window.centered(n)) for n in (15, 16))
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "det", lambda a: pytest.fail("determinant taken"))
            with pytest.raises(SizeError, match="^generator capped at 4096 states, got 32768$"):
                build_generator(_models()[0], k15)
            with pytest.raises(SizeError, match="^generator capped at 4096 states, got 12870$"):
                build_generator(_models()[0], k16, sector=8)
        # 19 sites, sector 2: 171 states, of fair coins
        coins = KernelMatrix(Window.centered(19), np.eye(19) / 2)
        g = build_generator(_models()[0], coins, sector=2)
        assert g.n_states == math.comb(19, 2)


    def test_index_of_is_row_of_state(self, k10):
        g = build_generator(RateModel.metropolis(ProximitySpec.nearest_neighbor()), k10, sector=5)
        assert [g.index_of(mask) for mask in g.states] == list(range(g.n_states))
        for absent in (0b11, (1 << 10) - 1):  # 2 and 10 particles, first and past the end
            with pytest.raises(KeyError):
                g.index_of(absent)


class TestReversibility:
    def test_symmetric_two_state_chain(self, k6):
        states = np.array([1, 2])
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        measure = np.array([0.5, 0.5])
        g = GeneratorMatrix(_models()[0], k6, 1, states, q, measure, ())
        assert check_reversibility(g) == 0.0

    def test_metropolis_residual(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        assert check_reversibility(g) < 1e-12

    @pytest.mark.parametrize("index", [1, 2])
    def test_other_models_residual(self, k8, index):
        g = build_generator(_models()[index], k8, sector=3)
        assert check_reversibility(g) < 1e-10

    @pytest.mark.parametrize("pair", [(1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j)])
    @pytest.mark.parametrize("size, sector", [(10, 5), (11, 5), (6, None)])
    def test_equals_dense_residual_bitwise(self, pair, size, sector):
        # Reference: the residual over all n_states^2 ordered pairs.
        k = kernel_matrix(AdmissiblePair(*pair), Window.centered(size))
        for model in (_models()[0], RateModel.glauber_like(ProximitySpec.exp_decay(0.5))):
            g = build_generator(model, k, sector=sector)
            flux = g.measure[:, np.newaxis] * g.Q
            numerator = np.abs(flux - flux.T)
            np.fill_diagonal(numerator, 0.0)
            want = (numerator / np.maximum(np.maximum(flux, flux.T), 1e-300)).max()
            assert check_reversibility(g) == want > 0.0


class TestDirichletForm:
    def test_constants_give_zero(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        ones = np.ones(g.n_states)
        assert dirichlet_form(g, ones, ones) == 0.0

    def test_generator_identity(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = rng.normal(size=g.n_states)
            h = rng.normal(size=g.n_states)
            lhs = dirichlet_form(g, f, h)
            rhs = float(g.measure @ ((-g.Q @ f) * h))
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("proximity", ["nn", "exp:0.5"])
    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_equals_scalar_rate_sum(self, request, branch, proximity):
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(-4, 3))
        rng = np.random.default_rng(5)
        for model in _models(PROXIMITIES[proximity]):
            g = build_generator(model, k, sector=3)
            f = rng.normal(size=g.n_states)
            h = rng.normal(size=g.n_states)
            terms = [g.measure[i] * rate(model, k, config, swap) * (f[j] - f[i]) * (h[j] - h[i])
                     for i, j, config, swap in _scalar_moves(g)]
            # The ratios differ from the scalar ones in the last bits and the
            # sum runs in another order: a few ulps of the summed magnitudes.
            assert abs(dirichlet_form(g, f, h) - math.fsum(terms)) <= 1e-13 * sum(map(abs, terms))

    def test_nonnegative_energy(self, k8):
        g = build_generator(_models()[1], k8, sector=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.normal(size=g.n_states)
            assert dirichlet_form(g, f, f) >= 0.0

    def test_dimension_mismatch(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        with pytest.raises(DimensionMismatchError):
            dirichlet_form(g, np.ones(3), np.ones(g.n_states))


class TestSpectrum:
    def test_zero_eigenvalue_with_constant_eigenvector(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        assert float(np.abs(g.Q @ np.ones(g.n_states)).max()) < 1e-12
        result = spectrum(g)
        assert abs(result.eigenvalues[0]) < 1e-10

    def test_all_eigenvalues_nonpositive(self, k8):
        g = build_generator(_models()[2], k8, sector=3)
        result = spectrum(g)
        assert float(result.eigenvalues.max()) <= 1e-10

    def test_pinned_gap(self, k6):
        g = build_generator(_models()[0], k6, sector=3)
        result = spectrum(g)
        assert result.spectral_gap == pytest.approx(SPECTRAL_GAP_PIN, rel=1e-9)

    @pytest.mark.parametrize("sector", [3, None])
    def test_symmetrizes_bitwise_as_written(self, k6, sector):
        for model in _models():
            g = build_generator(model, k6, sector=sector)
            root = np.sqrt(g.measure)
            symmetrized = (root[:, np.newaxis] * g.Q) / root[np.newaxis, :]
            want = np.linalg.eigvalsh(0.5 * (symmetrized + symmetrized.T))[::-1]
            assert np.array_equal(spectrum(g).eigenvalues, want)

    def test_nan_residual_is_not_reversible(self, k6):
        states = np.array([1, 2, 4])
        q = np.array([[-1.0, 1.0, 0.0], [math.nan, -1.0, 1.0], [0.0, 1.0, -1.0]])
        g = GeneratorMatrix(_models()[0], k6, 1, states, q, np.full(3, 1.0 / 3.0), ())
        assert math.isnan(check_reversibility(g))
        with pytest.raises(NotReversibleError, match="^reversibility residual nan >= 1e-08$"):
            spectrum(g)

    def test_not_reversible_error(self, k6):
        # directed 3-cycle: stationary for uniform measure but not reversible
        states = np.array([1, 2, 4])
        q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        measure = np.full(3, 1.0 / 3.0)
        g = GeneratorMatrix(_models()[0], k6, 1, states, q, measure, ())
        with pytest.raises(NotReversibleError):
            spectrum(g)


class TestTransitionMatrix:
    def test_identity_at_time_zero(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        assert np.allclose(transition_matrix(g, 0.0), np.eye(g.n_states), atol=1e-14)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_markov_property(self, k8, t):
        g = build_generator(_models()[0], k8, sector=3)
        p_t = transition_matrix(g, t)
        assert float(np.abs(p_t.sum(axis=1) - 1.0).max()) < 1e-9
        assert float(p_t.min()) >= -1e-9

    def test_stationary_measure_is_fixed(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        p_t = transition_matrix(g, 2.0)
        assert float(np.abs(g.measure @ p_t - g.measure).max()) < 1e-12

    def test_negative_time_rejected(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        with pytest.raises(ValueError):
            transition_matrix(g, -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, k8, t):
        # exp(t Q) would be all NaN
        g = build_generator(_models()[0], k8, sector=3)
        with pytest.raises(ValueError, match="^t must be finite and nonnegative"):
            transition_matrix(g, t)

    def test_time_zero_is_exactly_the_identity(self, k8):
        g = build_generator(_models()[0], k8, sector=3)
        assert np.array_equal(transition_matrix(g, 0.0), np.eye(g.n_states))

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("sector", [3, None])
    def test_equals_the_reference_expm_bitwise(self, request, branch, sector):
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(-4, 3))
        for model in _models():
            g = build_generator(model, k, sector=sector)
            scalings = set()
            for t in (0.0, 0.01, 1.0, 50.0):
                norm = float(np.abs(t * g.Q).sum(axis=0).max())
                scalings.add(max(0, math.ceil(math.log2(norm / _THETA13))) if norm else 0)
                assert np.array_equal(transition_matrix(g, t), _expm_reference(t * g.Q)), t
            assert 0 in scalings and max(scalings) > 0

    def test_peak_memory_is_eight_arrays(self, real_pair):
        g = build_generator(_models()[0], kernel_matrix(real_pair, Window.from_indices(-5, 4)),
                            sector=5)
        n = g.n_states
        assert n == 252
        tracemalloc.start()
        try:
            transition_matrix(g, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * n * n * 8

    def test_non_finite_t_q_raises(self, k6):
        g = build_generator(_models()[0], k6, sector=3)
        with pytest.raises(NumericalError, match=r"^t \* Q has 1-norm inf, not finite$"):
            transition_matrix(g, 1e308)

    def test_row_sums_hold_up_to_large_times(self, k6):
        g = build_generator(_models()[0], k6, sector=3)
        assert float(np.abs(transition_matrix(g, 1e3).sum(axis=1) - 1.0).max()) <= 1e-9

    @pytest.mark.parametrize("t, error", [(1e15, "0.0089"), (1e20, "1"), (1e307, "inf")])
    def test_inaccurate_result_raises(self, k6, t, error):
        # the squarings lose the rows' sums: 0.0089 off at 1e15, all-zero rows at 1e20,
        # an overflow (no RuntimeWarning, which the test settings make an error) at 1e307;
        # which of the last two a t meets depends on the generator's last bits
        g = build_generator(_models()[0], k6, sector=3)
        message = rf"^exp\(t Q\) at t = {re.escape(f'{t:g}')} has a row sum off from 1 by {error}"
        with pytest.raises(NumericalError, match=message + r"\S*, above 1e-09$"):
            transition_matrix(g, t)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("window,sector", [(Window.from_indices(-4, 3), 3),
                                               (Window.from_indices(-5, 4), 5)])
    def test_matches_scipy_expm(self, request, branch, window, sector):
        linalg = pytest.importorskip("scipy.linalg")
        k = kernel_matrix(request.getfixturevalue(branch), window)
        for model in _models():
            g = build_generator(model, k, sector=sector)
            for t in (0.1, 1.0, 10.0):
                worst = float(np.abs(transition_matrix(g, t) - linalg.expm(t * g.Q)).max())
                assert worst <= 1e-12, (model.kind, t, worst)
