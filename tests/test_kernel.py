"""Kernel formulas, admissibility and the difference-operator cross-checks.

The live oracles `mp_entry` and `mp_kernel` (from `oracle`) transcribe the
closed form directly into mpmath (gamma and digamma values, never rounded),
independent of the neighbour-ratio evaluation under test.  Frozen spot values
were produced by the same oracle before the build.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from kawasaki_dpp.errors import DomainError, KawasakiDppError, NumericalError, SizeError
from kawasaki_dpp.kernel import (
    MAX_WINDOW_SITES,
    AdmissiblePair,
    Branch,
    KernelMatrix,
    Site,
    Window,
    _site_values,
    ab_values,
    difference_operator_matrix,
    is_admissible,
    kernel_entry,
    kernel_matrix,
    spectral_projection_check,
    write_kernel_csv,
)
from kawasaki_dpp.verification import run_suite
from oracle import mp_entry, mp_kernel, mp_prefactor

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


def _kernel_error(pair: AdmissiblePair, window: Window, dps: int) -> float:
    """max |K - K_mpmath| / max |K_mpmath| of kernel_matrix on the window."""
    want = np.array(mp_kernel(pair.z, pair.z_prime, window.sites, dps)[2].tolist(), dtype=float)
    return float(np.abs(kernel_matrix(pair, window).entries - want).max() / np.abs(want).max())


def _bits(values) -> np.ndarray:
    """The bits of a float or an array of them: -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_entry_contract(pair: AdmissiblePair, k: KernelMatrix, x: Site, y: Site) -> None:
    """kernel_entry(x, y) is bitwise kernel_matrix's on Window(min, max), and within
    5e-14 of max|K| of the enclosing window's entry."""
    got = kernel_entry(pair, x, y)
    assert _bits(got) == _bits(kernel_matrix(pair, Window(min(x, y), max(x, y))).entry(x, y))
    assert abs(got - k.entry(x, y)) <= 5e-14 * np.abs(k.entries).max()


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
            sign_z = math.copysign(1.0, math.gamma(real_pair.z.real + arg))
            sign_zp = math.copysign(1.0, math.gamma(real_pair.z_prime.real + arg))
            assert sign_z == sign_zp == math.copysign(1.0, ab_values(real_pair, Site(index))[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_near_integer_pairs_on_far_windows(self, seed):
        # z or z' within 4 ulps of an integer m: no gamma argument is rounded, so no pole
        # is reachable.  The kernel is within 1e-14 of max|K| of mpmath, and A within
        # 2e-14 (A is up to e^17 here, and log A carries its ulp); only a parameter
        # within 2e-323 of 0, whose sin(pi z) is subnormal, is refused.
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
            if m == 0:
                with pytest.raises(NumericalError, match="^kernel entries leave the normal doubles"):
                    kernel_matrix(pair, window)
            else:
                assert _kernel_error(pair, window, 40) <= 1e-14, (z, zp, window)
            # z + x + 1/2 takes 340 digits to hold exactly for a subnormal z
            a_want, b_want, _ = mp_kernel(z, zp, window.sites, 400 if m == 0 else 40)
            for x, a, b in zip(window.sites, a_want, b_want):
                got = ab_values(pair, x)
                bound = 1e-12 if m == 0 else 2e-14  # |log A| up to 372 for a subnormal z
                assert abs(got[0] - a) <= bound * abs(a) and abs(got[1] - b) <= bound * abs(b)
                assert abs(math.prod(got) - 1.0) < 1e-15, (z, zp, x)

    @pytest.mark.parametrize("z, zp", [(5e-324, 0.38), (-1e-320, -0.5), (1e-310, 0.5)])
    def test_gamma_overflow_refused(self, z, zp):
        # Gamma(z + x + 1/2) is past the doubles at x = -1/2 when |z| < 5.6e-309.  A and B
        # are within 1e-12 of mpmath (log A carries the ulp of 372), and the kernel,
        # whose prefactor is subnormal, is refused.  400 digits hold z + x + 1/2 exactly.
        pair = AdmissiblePair(z, zp)
        for index in (-1, -1000):
            a_want, b_want, _ = mp_kernel(z, zp, [Site(index)], 400)
            try:
                a, b = ab_values(pair, Site(index))
            except KawasakiDppError:
                continue
            assert abs(a - a_want[0]) <= 1e-12 * abs(a_want[0])
            assert abs(b - b_want[0]) <= 1e-12 * abs(b_want[0])
        for call in (lambda: kernel_matrix(pair, Window.from_indices(-1, 3)),
                     lambda: kernel_entry(pair, Site(-1), Site(0))):
            with pytest.raises(NumericalError, match=r"^kernel entries leave the normal doubles "
                                                     r"between sites -0\.5 and"):
                call()

    @pytest.mark.parametrize("pair", [(1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j)], ids=["real", "conj"])
    @pytest.mark.parametrize("index", [-10**6, 10**6])
    def test_against_mpmath_at_a_million(self, pair, index):
        pair = AdmissiblePair(*pair)
        a_want, b_want, _ = mp_kernel(pair.z, pair.z_prime, [Site(index)], 40)
        a, b = ab_values(pair, Site(index))
        assert abs(a - a_want[0]) <= 1e-15 * abs(a_want[0])
        assert abs(b - b_want[0]) <= 1e-15 * abs(b_want[0])

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
                want = mp_entry(z, zp, Site(int(i)), Site(int(j)), 40)
                assert got == pytest.approx(want, abs=1e-10, rel=1e-10)

    def test_symmetry_is_bitwise(self, real_pair, conj_pair):
        # (0.2, 0.8) has an exact zero at (-4, 2)
        for pair in (real_pair, conj_pair, AdmissiblePair(0.2, 0.8)):
            for i, j in itertools.combinations(range(-5, 5), 2):
                assert (_bits(kernel_entry(pair, Site(i), Site(j)))
                        == _bits(kernel_entry(pair, Site(j), Site(i))))

    def test_exact_zero_corner_is_bitwise_the_matrix_entry(self):
        # K(-4, 2) and K(2, -4) of (0.2, 0.8) are 0.0 and -0.0 before the sign is dropped
        pair = AdmissiblePair(0.2, 0.8)
        x, y = Site(-4), Site(2)
        k = kernel_matrix(pair, Window(x, y))
        for a, b in ((x, y), (y, x)):
            assert _bits(kernel_entry(pair, a, b)) == _bits(k.entry(a, b)) == _bits(0.0)

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
        # branch, -2 on the conjugate one) and of the sites between indices
        # -164 and -160 and between 156 and 160; |x - y| reaches 324.  Each entry
        # is bitwise that of its own gap window and near the enclosing window's.
        w = Window.from_indices(-164, 160)
        sites = [Site(i) for i in (*range(-164, -159), *range(-6, 6), *range(156, 161))]
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, w)
            for x in sites:
                for y in sites:
                    _assert_entry_contract(pair, k, x, y)

    @pytest.mark.parametrize("seed", range(4))
    def test_entries_agree_across_enclosing_windows(self, seed):
        # 300 random entries of windows up to the cap, each read off its gap window
        gen = np.random.default_rng(seed)
        pair = AdmissiblePair(*[(1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j), (-2.5, -2.1),
                                (0.7 - 1e3j, 0.7 + 1e3j)][seed])
        k = kernel_matrix(pair, Window.from_indices(*[(-2048, 2047), (-600, -201), (0, 999),
                                                      (300, 419)][seed]))
        bound = 5e-14 * np.abs(k.entries).max()
        for i, j in gen.integers(0, k.size, size=(300, 2)).tolist():
            x, y = k.window.sites[i], k.window.sites[j]
            assert abs(kernel_entry(pair, x, y) - k.entry(x, y)) <= bound

    @pytest.mark.parametrize("center", [-159, 157])
    def test_windows_across_the_gamma_range(self, real_pair, center):
        # |z + x + 1/2| crosses 160 inside the window
        k = kernel_matrix(real_pair, Window.centered(12, center))
        z, zp = mp.mpf("1.5"), mp.mpf("1.7")
        for x in k.window.sites:
            for y in k.window.sites:
                _assert_entry_contract(real_pair, k, x, y)
                want = mp_entry(z, zp, x, y, 40)
                assert k.entry(x, y) == pytest.approx(want, abs=1e-12, rel=1e-10)

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
                want = mp_entry(mp.mpmathify(z), mp.mpmathify(zp), x, y, 40)
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
            prefactor = mp_prefactor(w, mp.conj(w))
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

    @pytest.mark.parametrize("imag", [2e3, 1e5, 1e10, -1e15, 1e300])
    def test_conjugate_pair_past_the_ab_values_cap(self, imag):
        # The kernel takes phase steps, each below pi, and admits every conjugate pair;
        # ab_values takes Im log Gamma(z + x + 1/2), which grows like |Im z| log |Im z|.
        # The oracle's gamma phases take log10 |Im z| digits more to hold 30.
        pair = AdmissiblePair(0.3 + 1j * imag, 0.3 - 1j * imag)
        for center in (0, 385, -10**6):
            window = Window.centered(7, center)
            assert _kernel_error(pair, window, 30 + int(math.log10(abs(imag)))) <= 1e-14
            k = kernel_matrix(pair, window)
            _assert_entry_contract(pair, k, window.lo, window.hi)
        message = "^" + re.escape(f"|Im z| = {abs(imag):g} exceeds 1000: the phases of Gamma")
        with pytest.raises(NumericalError, match=message):
            ab_values(pair, Site(0))

    @pytest.mark.parametrize("branch", ["real", "conj", "real-0.2-0.8"])
    def test_large_window_bitwise_symmetric(self, real_pair, conj_pair, branch):
        pair = {"real": real_pair, "conj": conj_pair}.get(branch) or AdmissiblePair(0.2, 0.8)
        k = kernel_matrix(pair, Window.centered(1000))
        assert np.array_equal(_bits(k.entries), _bits(k.entries).T)
        assert 0.0 <= k.diagonal.min() and k.diagonal.max() <= 1.0

    @pytest.mark.parametrize("z, zp, lo, hi", [
        (0.2, 0.8, -60, 59),  # the block holds 33 pairs of mirrored zeros of opposite sign
        (0.5 + 2j, 0.5 - 2j, -60, 59),  # 32
        (1e-300, 0.5, -5, 4),  # 10
    ])
    def test_mirrored_zeros_are_bitwise_equal(self, z, zp, lo, hi):
        k = kernel_matrix(AdmissiblePair(z, zp), Window.from_indices(lo, hi))
        bits = _bits(k.entries)
        assert np.array_equal(bits, bits.T)
        assert not np.signbit(k.entries[k.entries == 0.0]).any()

    def test_hand_built_asymmetry_keeps_the_upper_triangle(self, real_pair):
        window = Window.from_indices(-20, 19)
        given = kernel_matrix(real_pair, window).entries.copy()
        for i, j in ((1, 0), (39, 0), (25, 3), (5, 30)):  # 1-ulp mirror differences
            given[i, j] = np.nextafter(given[i, j], np.inf)
        k = KernelMatrix(window, given)
        want = np.where(np.tri(window.size, k=-1, dtype=bool), given.T, given)
        assert np.array_equal(_bits(k.entries), _bits(want))
        assert np.array_equal(_bits(k.entries), _bits(k.entries).T)
        assert k.entries[30, 5] == given[5, 30] != given[30, 5]

    @pytest.mark.parametrize("branch", ["real", "conj"])
    def test_window_at_cap_builds(self, real_pair, conj_pair, branch):
        pair = real_pair if branch == "real" else conj_pair
        w = Window.from_indices(-2048, 2047)
        k = kernel_matrix(pair, w)
        assert k.size == MAX_WINDOW_SITES
        for x, y in ((w.lo, w.hi), (w.hi, w.hi), (Site(0), Site(1))):
            _assert_entry_contract(pair, k, x, y)
        with pytest.raises(SizeError, match="^window of 4097 sites exceeds cap 4096$"):
            kernel_entry(pair, w.lo, Site(w.hi.index + 1))

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


_ORACLE_PAIRS = [(1.5, 1.7), (-2.5, -2.1), (0.3 + 0.4j, 0.3 - 0.4j), (0.3 - 0.4j, 0.3 + 0.4j),
                 (-4.001 - 0.000225j, -4.001 + 0.000225j), (-4.001 + 0.000225j, -4.001 - 0.000225j),
                 (0.7 - 1e3j, 0.7 + 1e3j), (0.7 + 1e3j, 0.7 - 1e3j)]


class TestAgainstMpmath:
    """kernel_matrix against an 80-digit mpmath kernel, near the origin and far from it."""

    @pytest.mark.parametrize("center", [0, 385, 10**4, 10**6, -10**6])
    @pytest.mark.parametrize("z, zp", _ORACLE_PAIRS)
    def test_seven_site_windows(self, z, zp, center):
        assert _kernel_error(AdmissiblePair(z, zp), Window.centered(7, center), 80) <= 1e-14

    @pytest.mark.parametrize("center", [0, 385])
    @pytest.mark.parametrize("z, zp", [(0.3, 0.3 + 1e-6), (0.3, 0.3 + 1e-12), (0.3 + 1e-12, 0.3)])
    def test_close_pairs(self, z, zp, center):
        # README's stand-in for equal parameters, z' = z + 1e-6, and a closer one
        assert _kernel_error(AdmissiblePair(z, zp), Window.centered(7, center), 80) <= 1e-14

    @pytest.mark.parametrize("z, zp", [(1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j)])
    def test_window_of_120_sites(self, z, zp):
        assert _kernel_error(AdmissiblePair(z, zp), Window.from_indices(300, 419), 30) <= 5e-14


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
