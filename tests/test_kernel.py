"""Kernel formulas, admissibility and the difference-operator cross-checks.

The live oracle `_mp_kernel` transcribes the closed form directly into
mpmath at 40 digits, independent of the log-space evaluation under test.
Frozen spot values were produced by the same oracle before the build.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from kawasaki_dpp.errors import DomainError, NumericalError, PoleError, SizeError
from kawasaki_dpp.kernel import (
    MAX_WINDOW_SITES,
    AdmissiblePair,
    Branch,
    KernelMatrix,
    Site,
    Window,
    _ab_arrays,
    _site_values,
    ab_values,
    difference_operator_matrix,
    is_admissible,
    kernel_entry,
    kernel_matrix,
    spectral_projection_check,
    write_kernel_csv,
)
from kawasaki_dpp.specfun import _GAMMA_RANGE, _gamma, log_gamma_parts
from kawasaki_dpp.verification import run_suite

mp.mp.dps = 40

# Oracle values, frozen from the mpmath transcription (dps=50).
A_AT_HALF_REAL = 0.9276796211891422874961241  # sqrt(Gamma(2.5)/Gamma(2.7))
K_REAL = {
    (-1, 0): 0.05487177285219238451290084,
    (0, 0): 0.04101927751343729893666114,
    (-1, -1): 0.07538131456838682620637037,
    (2, 6): 0.01488830724817444244773717,
    (-9, 3): 0.009970606499636342936118706,
}
K_CONJ = {
    (-1, 0): 0.2708441571166071650005934,
    (0, 0): 0.145614546174302800804945,
    (3, -3): 0.03921402746435432639864732,
    (-1, -1): 0.6873028604075171308061318,
}

# Interior deviation of the positive-spectrum projection of the truncated
# difference operator from K, central 10 sites, margins (size - 10) / 2.
# Regression baselines pinned from the first computation.
PROJECTION_DEVIATIONS_REAL = {40: 0.10699016357813979, 60: 0.083828051957581917}
PROJECTION_DEVIATIONS_CONJ = {40: 0.032626804015404742, 60: 0.022466233645759393}


def _mp_prefactor(z, zp):
    return mp.sinpi(z) * mp.sinpi(zp) / (mp.pi * mp.sinpi(z - zp))


def _mp_kernel(z, zp, x: Site, y: Site):
    xv = mp.mpf(2 * x.index + 1) / 2
    yv = mp.mpf(2 * y.index + 1) / 2
    if x == y:
        value = _mp_prefactor(z, zp) * (
            mp.digamma(z + xv + mp.mpf(1) / 2) - mp.digamma(zp + xv + mp.mpf(1) / 2)
        )
        return complex(value).real
    def a(t):
        gp = mp.gamma(z + t + mp.mpf(1) / 2)
        gq = mp.gamma(zp + t + mp.mpf(1) / 2)
        return gp / mp.sqrt(gp * gq)
    def b(t):
        gp = mp.gamma(z + t + mp.mpf(1) / 2)
        gq = mp.gamma(zp + t + mp.mpf(1) / 2)
        return gq / mp.sqrt(gp * gq)
    value = _mp_prefactor(z, zp) * (a(xv) * b(yv) - b(xv) * a(yv)) / (xv - yv)
    return complex(value).real


def _vectorized_real_ab(pair: AdmissiblePair, values: np.ndarray):
    """The real branch of A and B as the whole-window numpy path that the per-site loop
    of ``_ab_arrays`` replaced: one pass when every argument is below _GAMMA_RANGE, else
    log-gammas at the far sites and gammas at the near ones."""
    both = np.add.outer((pair.z.real, pair.z_prime.real), values + 0.5)
    in_range = (np.abs(both) < _GAMMA_RANGE).all(axis=0)
    near = in_range.nonzero()[0]
    if near.size == len(values):
        gamma = _gamma(both)
        root = np.sqrt(gamma[0] / gamma[1])
        return np.sign(gamma[0]) * root, np.sign(gamma[1]) / root
    far = (~in_range).nonzero()[0]
    sign = np.empty_like(both)
    log_abs, sign[:, far] = log_gamma_parts(both[:, far])
    gamma = _gamma(both[:, near])
    sign[:, near] = np.sign(gamma)
    root = np.empty(len(values))
    root[far] = np.exp(0.5 * (log_abs[0] - log_abs[1]))
    root[near] = np.sqrt(gamma[0] / gamma[1])
    return sign[0] * root, sign[1] / root


class TestSiteWindow:
    def test_site_value(self):
        assert Site(0).value == 0.5
        assert Site(-4).value == -3.5

    def test_window_sites_and_positions(self):
        w = Window.from_indices(-2, 1)
        assert w.size == 4
        assert [s.index for s in w.sites] == [-2, -1, 0, 1]
        assert w.position(Site(0)) == 2
        assert Site(1) in w and Site(2) not in w

    def test_centered(self):
        w = Window.centered(9)
        assert (w.lo.index, w.hi.index) == (-4, 4)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Window.from_indices(3, 1)


class TestAdmissibility:
    def test_real_interval_true(self):
        assert is_admissible(1.5, 1.7)

    def test_straddling_integer_false(self):
        # n = -1 gives (-0.5)(0.5) < 0
        assert not is_admissible(0.5, 1.5)

    def test_conjugate_true(self):
        assert is_admissible(0.3 + 0.4j, 0.3 - 0.4j)

    def test_integer_false(self):
        # n = -2 gives a zero factor
        assert not is_admissible(2.0, 2.0)

    def test_equal_parameters_unsupported(self):
        assert not is_admissible(1.5, 1.5)

    def test_non_conjugate_complex_false(self):
        assert not is_admissible(0.3 + 0.4j, 0.3 + 0.4j)
        assert not is_admissible(0.3 + 0.4j, 0.4 - 0.3j)

    def test_negative_interval_true(self):
        assert is_admissible(-2.5, -2.1)

    def test_pair_construction_hint(self):
        with pytest.raises(DomainError, match="z' = z \\+ 1e-6"):
            AdmissiblePair(1.5, 1.5)
        with pytest.raises(DomainError):
            AdmissiblePair(0.5, 1.5)

    @pytest.mark.parametrize("z,zp", [(math.nan, 1.7), (math.inf, 1.7), (1.5, -math.inf),
                                      (complex(0.3, math.inf), complex(0.3, -math.inf)),
                                      (complex(math.nan, 0.4), complex(math.nan, -0.4))])
    def test_non_finite_parameters_inadmissible(self, z, zp):
        assert not is_admissible(z, zp)
        with pytest.raises(DomainError, match="is not an admissible pair$"):
            AdmissiblePair(z, zp)

    def test_branch_classification(self, real_pair, conj_pair):
        assert real_pair.branch is Branch.REAL_INTERVAL
        assert conj_pair.branch is Branch.CONJUGATE_PAIR

    @pytest.mark.parametrize("z,zp", [(1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j),
                                      (-2.5, -2.1), (7.25 - 3.0j, 7.25 + 3.0j)])
    def test_product_positivity_invariant(self, z, zp):
        n = np.arange(-10_000, 10_001)
        products = (complex(z) + n) * (complex(zp) + n)
        assert products.real.min() > 0.0
        assert np.abs(products.imag).max() < 1e-12


class TestABValues:
    def test_product_is_one_real(self, real_pair):
        a, b = ab_values(real_pair, Site(0))
        assert abs(a * b - 1.0) < 1e-12

    def test_product_is_one_everywhere(self, real_pair, conj_pair):
        for pair in (real_pair, conj_pair):
            for index in range(-100, 100):
                a, b = ab_values(pair, Site(index))
                assert abs(complex(a * b) - 1.0) < 1e-12

    def test_same_gamma_sign_on_real_branch(self, real_pair):
        for index in range(-25, 25):
            arg = index + 1.0  # x + 1/2 for x = index + 1/2
            _, sign_z = log_gamma_parts(real_pair.z.real + arg)
            _, sign_zp = log_gamma_parts(real_pair.z_prime.real + arg)
            assert sign_z == sign_zp

    @pytest.mark.parametrize("seed", range(4))
    def test_near_integer_pairs_on_far_windows(self, seed):
        # z or z' within 4 ulps of an integer m: a rounded gamma argument can land on
        # the end of its unit interval, a pole (refused) or a positive integer, but the
        # two gammas never differ in sign.
        gen = np.random.default_rng(seed)
        for _ in range(40):
            m = int(gen.integers(-6, 7))
            near = float(m)
            for _ in range(int(gen.integers(1, 5))):
                near = math.nextafter(near, m + 1)
            z, zp = near, m + gen.uniform(0.01, 0.99)
            if gen.random() < 0.5:
                z, zp = zp, z
            pair = AdmissiblePair(z, zp)
            scale = 10 ** int(gen.integers(1, 8))  # centres up to 1e7 away, near and far
            window = Window.centered(7, int(gen.integers(-scale, scale)))
            values = _site_values(window)
            try:
                want = _vectorized_real_ab(pair, values)
            except PoleError as exc:  # the same pole is named
                with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
                    kernel_matrix(pair, window)
                continue
            kernel_matrix(pair, window)
            products = [math.prod(ab_values(pair, x)) for x in window.sites]
            assert max(abs(p - 1.0) for p in products) < 1e-15, (z, zp, window)
            for got, ref in zip(_ab_arrays(pair, values), want):
                np.testing.assert_allclose(got, ref, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_vectorized_path_below_gamma_range(self, seed):
        # Where every gamma argument is below 160 in absolute value, A and B keep their bits.
        gen = np.random.default_rng(seed)
        for _ in range(100):
            m = int(gen.integers(-150, 151))
            pair = AdmissiblePair(*(m + gen.uniform(0.001, 0.999, 2)))
            n = int(gen.integers(1, 41))
            lo = int(gen.integers(-160 - m, 160 - m - n))  # arguments in (m + lo + 1, m + lo + n + 1)
            values = _site_values(Window.from_indices(lo, lo + n - 1))
            both = np.add.outer((pair.z.real, pair.z_prime.real), values + 0.5)
            assert np.abs(both).max() < _GAMMA_RANGE
            for got, want in zip(_ab_arrays(pair, values), _vectorized_real_ab(pair, values)):
                assert got.tobytes() == want.tobytes(), (pair, lo, n)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_vectorized_path_on_far_windows(self, seed):
        # Beyond 160, math.exp against numpy's exp: A and B agree within 4e-16 relative.
        gen = np.random.default_rng(100 + seed)
        for _ in range(100):
            m = int(gen.integers(-150, 151))
            pair = AdmissiblePair(*(m + gen.uniform(0.001, 0.999, 2)))
            scale = 10 ** int(gen.integers(3, 8))
            window = Window.centered(int(gen.integers(1, 41)), int(gen.integers(-scale, scale)))
            values = _site_values(window)
            for got, want in zip(_ab_arrays(pair, values), _vectorized_real_ab(pair, values)):
                np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("z, zp", [(5e-324, 0.38), (-1e-320, -0.5), (1e-310, 0.5)])
    def test_gamma_overflow_refused(self, z, zp):
        # Gamma(z + x + 1/2) is past the doubles at x = -1/2 when |z| < 5.6e-309.
        pair = AdmissiblePair(z, zp)
        for call in (lambda: kernel_matrix(pair, Window.from_indices(-1, 3)),
                     lambda: ab_values(pair, Site(-1)),
                     lambda: kernel_entry(pair, Site(-1), Site(0))):
            with pytest.raises(NumericalError, match=r"^Gamma overflows a double at site -0\.5$"):
                call()

    def test_value_against_oracle(self, real_pair):
        a, _ = ab_values(real_pair, Site(0))
        assert a == pytest.approx(A_AT_HALF_REAL, rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda pair: kernel_entry(pair, Site(2**52), Site(2**52 + 1)),
        lambda pair: kernel_matrix(pair, Window.from_indices(2**52 - 2, 2**52 + 1)),
        lambda pair: ab_values(pair, Site(2**52)),
        lambda pair: difference_operator_matrix(pair, Window.from_indices(2**52 - 2, 2**52 + 1)),
        lambda pair: ab_values(pair, Site(-2**52 - 1)),
    ], ids=["kernel_entry", "kernel_matrix", "ab_values", "difference_operator", "negative"])
    def test_site_beyond_exact_doubles_refused(self, real_pair, conj_pair, call):
        # x = index + 1/2 is an exact double only for |x| < 2^52.
        for pair in (real_pair, conj_pair):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=r"^site index -?450359962737049[67]: x = "
                                                      r"index \+ 1/2 is not an exact double"):
                    call(pair)

    def test_last_exact_sites_admitted(self, real_pair):
        for index in (2**52 - 1, -2**52):
            assert math.prod(ab_values(real_pair, Site(index))) == pytest.approx(1.0, abs=1e-15)

    def test_conjugate_structure(self, conj_pair):
        a, b = ab_values(conj_pair, Site(3))
        assert b == a.conjugate()
        assert abs(abs(a) - 1.0) < 1e-14


class TestKernelEntry:
    def test_frozen_values_real(self, real_pair):
        for (i, j), want in K_REAL.items():
            assert kernel_entry(real_pair, Site(i), Site(j)) == pytest.approx(want, abs=1e-10)

    def test_frozen_values_conjugate(self, conj_pair):
        for (i, j), want in K_CONJ.items():
            assert kernel_entry(conj_pair, Site(i), Site(j)) == pytest.approx(want, abs=1e-10)

    def test_vs_live_oracle(self, real_pair, conj_pair):
        rng = np.random.default_rng(5)
        params = {real_pair: (mp.mpf("1.5"), mp.mpf("1.7")),
                  conj_pair: (mp.mpc("0.3", "0.4"), mp.mpc("0.3", "-0.4"))}
        for pair, (z, zp) in params.items():
            for _ in range(25):
                i, j = rng.integers(-30, 30, size=2)
                got = kernel_entry(pair, Site(int(i)), Site(int(j)))
                want = _mp_kernel(z, zp, Site(int(i)), Site(int(j)))
                assert got == pytest.approx(want, abs=1e-10, rel=1e-10)

    def test_symmetry_is_bitwise(self, real_pair, conj_pair):
        for pair in (real_pair, conj_pair):
            for i, j in itertools.combinations(range(-5, 5), 2):
                assert kernel_entry(pair, Site(i), Site(j)) == kernel_entry(pair, Site(j), Site(i))

    def test_diagonal_in_unit_interval(self, real_pair):
        for site in Window.centered(20).sites:
            value = kernel_entry(real_pair, site, site)
            assert 0.0 < value < 1.0


class TestKernelMatrix:
    def test_size_one(self, real_pair):
        w = Window.from_indices(2, 2)
        k = kernel_matrix(real_pair, w)
        assert k.entries.shape == (1, 1)
        assert k.entries[0, 0] == kernel_entry(real_pair, Site(2), Site(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        # NaN fails every comparison, so the symmetry and diagonal checks alone pass it
        window = Window.from_indices(0, 2)
        off_diagonal = np.eye(3)
        off_diagonal[0, 2] = off_diagonal[2, 0] = value
        for entries in (np.full((3, 3), value), off_diagonal):
            with pytest.raises(NumericalError, match="^kernel matrix has non-finite entries$"):
                KernelMatrix(window, entries)

    def test_matches_entry_loop_bitwise(self, real_pair, conj_pair):
        # every ordered pair, x = y among them, of -6..5 (reflected where the
        # real part of z + x + 1/2 is negative: from index -3 down on the real
        # branch, -2 on the conjugate one) and of the sites where |z + x + 1/2|
        # crosses 160 on either branch, between indices -163 and -161 and
        # between 157 and 159; |x - y| reaches 324
        w = Window.from_indices(-164, 160)
        sites = [Site(i) for i in (*range(-164, -159), *range(-6, 6), *range(156, 161))]
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, w)
            for x in sites:
                for y in sites:
                    assert k.entry(x, y) == kernel_entry(pair, x, y)

    @pytest.mark.parametrize("center", [-159, 157])
    def test_windows_across_the_gamma_range(self, real_pair, center):
        # |z + x + 1/2| crosses 160 inside the window: A and B come from gamma
        # ratios on one side and from log-gamma differences on the other
        k = kernel_matrix(real_pair, Window.centered(12, center))
        z, zp = mp.mpf("1.5"), mp.mpf("1.7")
        for x in k.window.sites:
            for y in k.window.sites:
                assert k.entry(x, y) == kernel_entry(real_pair, x, y)
                assert k.entry(x, y) == pytest.approx(_mp_kernel(z, zp, x, y), abs=1e-12, rel=1e-10)

    def test_eigenvalues_within_unit_interval(self, real_pair, conj_pair):
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, Window.centered(30))
            evals = k.eigenvalues
            assert evals[0] >= -1e-9
            assert evals[-1] <= 1.0 + 1e-9
            k.validate()

    def test_extreme_eigenvalues_vs_power_iteration(self, real_pair):
        # Shifted power iteration approaches the extreme eigenvalues from
        # inside, so it can only confirm the eigh output up to the top-cluster
        # degeneracy (the largest eigenvalues agree to ~1e-8 here); the exact
        # [-1e-9, 1+1e-9] range claim is certified separately by Cholesky.
        k = kernel_matrix(real_pair, Window.centered(30))
        evals = k.eigenvalues

        def dominant(matrix):
            v = np.full(matrix.shape[0], 1.0 / math.sqrt(matrix.shape[0]))
            value = 0.0
            for _ in range(4000):
                w = matrix @ v
                value = float(np.linalg.norm(w))
                v = w / value
            return value

        lam_max = dominant(k.entries + np.eye(30)) - 1.0
        lam_min = 2.0 - dominant(2.0 * np.eye(30) - k.entries)
        assert lam_max == pytest.approx(float(evals[-1]), abs=2e-5)
        assert lam_min == pytest.approx(float(evals[0]), abs=2e-5)
        # one-sided bounds are guaranteed: the Rayleigh estimate sits inside
        # the spectrum
        assert lam_max <= float(evals[-1]) + 1e-9
        assert lam_min >= float(evals[0]) - 1e-9

    def test_eigenvalue_range_certified_by_cholesky(self, real_pair, conj_pair):
        # (1+1e-9)I - K and K + 1e-9 I are both positive definite iff every
        # eigenvalue lies in [-1e-9, 1+1e-9]; Cholesky (potrf) decides
        # positive definiteness through a different factorization than eigh.
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, Window.centered(30))
            eye = np.eye(30)
            np.linalg.cholesky((1.0 + 1e-9) * eye - k.entries)
            np.linalg.cholesky(k.entries + 1e-9 * eye)

    def test_trace_consistency(self, real_pair):
        k = kernel_matrix(real_pair, Window.centered(24))
        assert k.trace == pytest.approx(float(k.diagonal.sum()), abs=1e-14)
        assert k.trace == pytest.approx(float(k.eigenvalues.sum()), abs=1e-10)

    def test_symmetry_on_large_window(self, real_pair):
        k = kernel_matrix(real_pair, Window.centered(100))
        assert float(np.abs(k.entries - k.entries.T).max()) < 1e-12

    def test_principal_minors_nonnegative(self, real_pair):
        k = kernel_matrix(real_pair, Window.centered(12))
        sites = k.window.sites
        for size in range(1, 5):
            for subset in itertools.combinations(sites, size):
                idx = [k.window.position(s) for s in subset]
                minor = float(np.linalg.det(k.entries[np.ix_(idx, idx)]))
                assert minor >= -1e-10

    def test_size_cap(self, real_pair):
        with pytest.raises(SizeError):
            kernel_matrix(real_pair, Window.from_indices(0, 4096))

    @pytest.mark.parametrize("z,zp,center", [
        (1.5, 1.7, -60),  # gamma arguments negative, their signs alternating
        (1.5, 1.7, 40),
        (1.5, 1.7, 300),
        (0.3 + 0.4j, 0.3 - 0.4j, -60),
        (0.3 + 0.4j, 0.3 - 0.4j, 300),
    ])
    def test_far_windows_vs_live_oracle(self, z, zp, center):
        k = kernel_matrix(AdmissiblePair(z, zp), Window.centered(12, center))
        for x in k.window.sites:
            for y in k.window.sites:
                want = _mp_kernel(mp.mpmathify(z), mp.mpmathify(zp), x, y)
                assert k.entry(x, y) == pytest.approx(want, abs=1e-12, rel=1e-10)

    @pytest.mark.parametrize("z", [
        0.3 + 1e-3j, 0.3 - 1e-3j, 0.3 + 0.4j, -2.7 + 50j,
        1.5 + 112.9j,  # pi sinh(2 pi Im z) overflows: a complex prefactor reads 0
        1.5 - 113j, 1.5 + 120j, 0.7 - 1e3j,
        -4.001 - 0.000225j, 1.994 - 0.000243j,  # sin(pi z) near a zero
    ])
    def test_conjugate_scale_against_80_digits(self, z):
        k = kernel_matrix(AdmissiblePair(z, z.conjugate()), Window.from_indices(-3, 3))
        with mp.workdps(80):
            w = mp.mpc(z.real, z.imag)
            prefactor = _mp_prefactor(w, mp.conj(w))
            half = mp.mpf(1) / 2
            values = [mp.mpf(x.index) + half for x in k.window.sites]
            a = [g / abs(g) for g in (mp.gamma(w + v + half) for v in values)]  # B = conj(A)
            for i, x in enumerate(values):
                for j, y in enumerate(values):
                    if i == j:
                        d = mp.digamma(w + x + half) - mp.digamma(mp.conj(w) + x + half)
                    else:
                        d = (a[i] * mp.conj(a[j]) - mp.conj(a[i]) * a[j]) / (x - y)
                    assert abs(k.entries[i, j] - mp.re(prefactor * d)) <= 1e-12

    @pytest.mark.parametrize("imag", [1e5, -1e15, 1e300])
    def test_conjugate_pair_beyond_the_cap_refused(self, imag):
        # Im log Gamma(z + x + 1/2) grows like |Im z| log |Im z|: uncapped, the
        # 7-site kernel is off from mpmath by 5.5e-10 at 1e6
        pair = AdmissiblePair(0.5 + 1j * imag, 0.5 - 1j * imag)
        message = "^" + re.escape(f"|Im z| = {abs(imag):g} exceeds 1000: the phases of Gamma")
        with pytest.raises(NumericalError, match=message):
            kernel_matrix(pair, Window.from_indices(-3, 3))
        with pytest.raises(NumericalError, match=message):
            ab_values(pair, Site(0))

    @pytest.mark.parametrize("branch", ["real", "conj"])
    def test_large_window_bitwise_symmetric(self, real_pair, conj_pair, branch):
        pair = real_pair if branch == "real" else conj_pair
        k = kernel_matrix(pair, Window.centered(1000))
        assert np.array_equal(k.entries, k.entries.T)
        assert 0.0 <= k.diagonal.min() and k.diagonal.max() <= 1.0

    @pytest.mark.parametrize("branch", ["real", "conj"])
    def test_window_at_cap_builds(self, real_pair, conj_pair, branch):
        pair = real_pair if branch == "real" else conj_pair
        w = Window.from_indices(-2048, 2047)
        k = kernel_matrix(pair, w)
        assert k.size == MAX_WINDOW_SITES
        for x, y in ((w.lo, w.hi), (w.hi, w.hi), (Site(0), Site(1))):
            assert k.entry(x, y) == kernel_entry(pair, x, y)

    def test_eigenvalues_take_no_eigenvectors(self, real_pair, conj_pair, monkeypatch):
        def no_eigh(a):
            raise AssertionError("eigenvectors were formed")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, Window.centered(40))
            k.validate()
            evals = k.eigenvalues
            assert not evals.flags.writeable
            assert (np.diff(evals) >= 0.0).all()
            assert np.array_equal(evals, np.linalg.eigvalsh(k.entries))
            assert k.eigenvalues is evals
            assert run_suite("dpp", pair, Window.from_indices(-4, 4), seed=7).failures == 0

    def test_entries_read_only(self, k8):
        with pytest.raises(ValueError):
            k8.entries[0, 0] = 0.0

    def test_csv_export(self, real_pair, tmp_path):
        w = Window.from_indices(-1, 1)
        k = kernel_matrix(real_pair, w)
        path = tmp_path / "kernel.csv"
        write_kernel_csv(k, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x\\y,-0.5,0.5,1.5"
        assert lines[1].startswith("-0.5,")
        parsed = [float(v) for v in lines[2].split(",")[1:]]
        assert parsed == [k.entries[1, 0], k.entries[1, 1], k.entries[1, 2]]


class TestDifferenceOperator:
    def test_structure(self, real_pair):
        w = Window.from_indices(-3, 3)
        d = difference_operator_matrix(real_pair, w)
        assert np.array_equal(d, d.T)
        assert np.count_nonzero(d - np.diag(np.diagonal(d))
                                - np.diag(np.diagonal(d, 1), 1)
                                - np.diag(np.diagonal(d, -1), -1)) == 0
        assert np.diagonal(d, 1).min() > 0.0

    def test_frozen_coefficients(self, real_pair):
        # row of x = 2.5 (index 2) inside a window
        w = Window.from_indices(0, 5)
        d = difference_operator_matrix(real_pair, w)
        row = w.position(Site(2))
        assert d[row, row] == pytest.approx(-8.2, abs=1e-14)
        assert d[row, row + 1] == pytest.approx(4.598912915026767496966105, rel=1e-14)
        assert d[row, row - 1] == pytest.approx(3.598610843089316319412872, rel=1e-14)

    def test_row_action_matches_three_term_formula(self, real_pair, conj_pair):
        w = Window.from_indices(-4, 4)
        rng = np.random.default_rng(3)
        f = rng.normal(size=w.size)
        for pair in (real_pair, conj_pair):
            d = difference_operator_matrix(pair, w)
            z, zp = pair.z, pair.z_prime
            applied = d @ f
            for i, s in enumerate(w.sites[1:-1], start=1):
                x = s.value
                up = math.sqrt(abs((z + x + 0.5) * (zp + x + 0.5))) * f[i + 1]
                down = math.sqrt(abs((z + x - 0.5) * (zp + x - 0.5))) * f[i - 1]
                middle = (2.0 * x + (z + zp).real) * f[i]
                assert applied[i] == pytest.approx(up - middle + down, rel=1e-12, abs=1e-12)

    def test_conjugate_off_diagonals_positive(self, conj_pair):
        d = difference_operator_matrix(conj_pair, Window.centered(16))
        assert np.diagonal(d, 1).min() > 0.0

    def test_coupling_of_a_parameter_near_zero(self):
        # (z + t)(z' + t) underflows to 0 at t = 0 for z = 5e-324; the roots of the factors do not.
        d = difference_operator_matrix(AdmissiblePair(5e-324, 0.38), Window.from_indices(-3, 3))
        coupling = np.diagonal(d, 1)
        assert coupling.min() > 0.0
        assert coupling[2] == pytest.approx(math.sqrt(5e-324) * math.sqrt(0.38), rel=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_coupling_matches_two_branch_formula(self, seed):
        # The branch split the single coupling replaced: the root of the real product,
        # and hypot of z + t on the conjugate branch.
        gen = np.random.default_rng(seed)
        for _ in range(200):
            if gen.random() < 0.5:
                m = int(gen.integers(-1000, 1001))
                pair = AdmissiblePair(*(m + gen.uniform(0.001, 0.999, 2)))
            else:
                z = complex(gen.uniform(-5.0, 5.0), gen.uniform(0.01, 5.0))
                pair = AdmissiblePair(z, z.conjugate())
            scale = 10 ** int(gen.integers(1, 7))
            window = Window.centered(int(gen.integers(2, 61)), int(gen.integers(-scale, scale)))
            values = _site_values(window)
            t = values[:-1] + 0.5
            z, zp = pair.z, pair.z_prime
            if pair.branch is Branch.REAL_INTERVAL:
                want = np.sqrt((z.real + t) * (zp.real + t))
            else:
                want = np.hypot((z + t).real, (z + t).imag)
            d = difference_operator_matrix(pair, window)
            np.testing.assert_allclose(np.diagonal(d, 1), want, rtol=1e-15, atol=0.0)
            assert np.array_equal(np.diagonal(d), -(2.0 * values + (z + zp).real))
            assert np.array_equal(d, d.T)


class TestSpectralProjection:
    def test_report_is_finite(self, real_pair):
        report = spectral_projection_check(real_pair, Window.centered(30), 10)
        assert math.isfinite(report.max_abs_deviation)
        assert math.isfinite(report.commutator_norm)
        assert report.core.size == 10

    def test_deviation_decreases_with_window(self, real_pair, conj_pair):
        for pair, pinned in ((real_pair, PROJECTION_DEVIATIONS_REAL),
                             (conj_pair, PROJECTION_DEVIATIONS_CONJ)):
            got = {}
            for size in (40, 60):
                report = spectral_projection_check(pair, Window.centered(size), (size - 10) // 2)
                got[size] = report.max_abs_deviation
                # interior commutator vanishes identically: the operator is
                # tridiagonal, so interior entries of K D - D K never touch
                # the truncation boundary
                assert report.commutator_norm < 1e-12
            assert got[60] < got[40]
            for size, want in pinned.items():
                assert got[size] == pytest.approx(want, rel=1e-9)

    def test_margin_guards(self, real_pair):
        with pytest.raises(SizeError):
            spectral_projection_check(real_pair, Window.centered(10), 5)
        with pytest.raises(SizeError):
            spectral_projection_check(real_pair, Window.centered(10), -1)
