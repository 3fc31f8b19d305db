"""Kernel formulas, admissibility and the difference-operator cross-checks.

The live oracle `_mp_kernel` transcribes the closed form directly into
mpmath at 40 digits, independent of the log-space evaluation under test.
Frozen spot values were produced by the same oracle before the build.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from kawasaki_dpp.errors import DomainError, NumericalError, SizeError
from kawasaki_dpp.kernel import (
    MAX_WINDOW_SITES,
    AdmissiblePair,
    Branch,
    KernelMatrix,
    Site,
    Window,
    ab_values,
    difference_operator_matrix,
    is_admissible,
    kernel_entry,
    kernel_matrix,
    spectral_projection_check,
    write_kernel_csv,
)
from kawasaki_dpp.specfun import log_gamma_parts

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

    def test_value_against_oracle(self, real_pair):
        a, _ = ab_values(real_pair, Site(0))
        assert a == pytest.approx(A_AT_HALF_REAL, rel=1e-12)

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
        w = Window.from_indices(-6, 5)
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, w)
            for x in w.sites:
                for y in w.sites:
                    assert k.entry(x, y) == kernel_entry(pair, x, y)

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
