"""Special-function accuracy against an independent high-precision oracle.

The functions are differences: log|Gamma(z + t)| - log|Gamma(z' + t)| and
psi(z + t) - psi(z' + t) on a real pair, and theta = Im log Gamma(z + t) and
Im psi(z + t) on a conjugate pair.  Frozen constants were computed with
mpmath at 50 decimal digits; the grid comparisons recompute the oracle live
(mpmath evaluates gamma/digamma through its own arbitrary-precision series,
an entirely separate code path from the package's double-precision series),
with z + t formed exactly.  Where scipy is installed, the same grids also
hold the package to ``scipy.special``.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest

from kawasaki_dpp.kernel import AdmissiblePair, Site, Window, _kernel_arrays, _site_values, ab_values
from kawasaki_dpp.specfun import digamma_difference, log_gamma_difference, sinpi

mp.mp.dps = 40

LOG_GAMMA_NEG_HALF = 1.265512123484645396488946  # log|Gamma(-1/2)| = log(2 sqrt(pi))
LOG_GAMMA_HALF = 0.5723649429247000870717137     # log Gamma(1/2) = log sqrt(pi)
LOG_24 = 3.178053830347945619646942
PSI_ONE = -0.5772156649015328606065121           # -euler_gamma
PSI_HALF = -1.963510026021423479440976           # -euler_gamma - 2 log 2


def _theta(w: complex, t: int = 0) -> float:
    """Im log Gamma(w + t), modulo 2 pi, by the package."""
    return log_gamma_difference(w, w.conjugate(), t)


def _im_psi(w: complex, t: int = 0) -> float:
    """Im psi(w + t) by the package."""
    return digamma_difference(w, w.conjugate(), t).imag / 2.0


def _mp_point(w, t: int):
    """w + t in mpmath, formed exactly from the double w."""
    if isinstance(w, complex):
        return mp.mpc(w.real, w.imag) + t
    return mp.mpf(w) + t


def _turn(x: float) -> float:
    """x reduced to [-pi, pi]: phases agree modulo 2 pi."""
    return abs(math.remainder(x, 2.0 * math.pi))


class TestSignedLog:
    def test_value(self):
        # exp of the difference reconstructs the gamma ratio on both sides of zero
        for x, y in ((0.5, 0.75), (1.0, 3.0), (7.25, 7.5), (-0.5, -0.25), (-2.5, -2.1),
                     (-3.75, -3.5)):
            ratio = math.exp(log_gamma_difference(x, y, 0))
            assert ratio == pytest.approx(abs(math.gamma(x) / math.gamma(y)), rel=1e-14)

    def test_invalid_sign(self):
        # the sign of A = sgn Gamma(z + x + 1/2) is +1 or -1, never 0: Gamma has no zeros
        pair = AdmissiblePair(0.375, 0.5)
        signs = {math.copysign(1.0, ab_values(pair, Site(i))[0]) for i in range(-30, 30)}
        assert signs == {-1.0, 1.0}


class TestLogGammaSigned:
    def test_gamma_one(self):
        # Gamma(1) = Gamma(2) = 1; from t = -1 both arguments are reflected
        assert log_gamma_difference(1.0, 2.0, 0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma_difference(0.75, 0.25, 0) == pytest.approx(
            math.log(math.gamma(0.75) / math.gamma(0.25)), abs=1e-15)

    def test_gamma_five_is_24(self):
        assert log_gamma_difference(5.0, 1.0, 0) == pytest.approx(LOG_24, abs=1e-14)

    def test_gamma_negative_half(self):
        # through the reflection: log|Gamma(-1/2)| - log|Gamma(-1/4)|, and log Gamma(1/2) - ...
        want = LOG_GAMMA_NEG_HALF - math.log(-math.gamma(-0.25))
        assert log_gamma_difference(-0.5, -0.25, 0) == pytest.approx(want, abs=1e-15)
        want = LOG_GAMMA_HALF - math.log(math.gamma(0.25))
        assert log_gamma_difference(-0.5, -0.75, 1) == pytest.approx(want, abs=1e-15)

    def test_recurrence_relative(self):
        # Gamma(x + 1) = x Gamma(x)
        for x in np.linspace(0.2, 160.0, 400):
            assert log_gamma_difference(float(x) + 1.0, float(x), 0) == pytest.approx(
                math.log(x), rel=1e-14, abs=1e-15)

    def test_sign_alternation_on_negative_axis(self):
        # sgn A(x) = sgn Gamma(1/2 + x + 1/2) = (-1)^n at x + 1 = -n
        pair = AdmissiblePair(0.5, 0.75)
        for n in range(1, 21):
            assert math.copysign(1.0, ab_values(pair, Site(-n - 1))[0]) == (-1) ** n

    def test_poles(self):
        # a parameter 1 ulp from an integer m: z + t is 1 ulp of m from 0 at t = -m,
        # and the difference is finite and exact there and beside it
        for m in (-7, -1, 1, 3):
            z, zp = math.nextafter(float(m), m + 1.0), m + 0.5
            for t in (-m - 1, -m, -m + 1):
                want = (mp.log(abs(mp.gamma(_mp_point(z, t))))
                        - mp.log(abs(mp.gamma(_mp_point(zp, t)))))
                got = log_gamma_difference(z, zp, t)
                assert abs(got - float(want)) <= 2e-15 * max(1.0, abs(want)), (m, t)

    def test_vs_oracle_grid(self):
        # real pairs in one unit interval, t across the reflection and the recurrence
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(-50, 50))
            z, zp = (m + rng.uniform(0.001, 0.999, 2)).tolist()
            t = int(rng.integers(-200, 200))
            want = (mp.log(abs(mp.gamma(_mp_point(z, t))))
                    - mp.log(abs(mp.gamma(_mp_point(zp, t)))))
            assert abs(log_gamma_difference(z, zp, t) - float(want)) <= 2e-15 * max(1.0, abs(want))


class TestLogGammaComplex:
    def test_at_one(self):
        # theta(1 + iy) = Im log Gamma(1 + iy), about -euler_gamma y for small y
        for y in (1e-12, 1e-3, 0.5):
            want = mp.im(mp.loggamma(mp.mpc(1.0, y)))
            assert _theta(complex(1.0, y)) == pytest.approx(float(want), rel=1e-14)

    def test_at_half(self):
        for y in (1e-12, 0.4, 3.0):
            want = float(mp.im(mp.loggamma(mp.mpc(0.5, y))))
            assert _turn(_theta(complex(0.5, y)) - want) <= 1e-15 * max(1.0, abs(want))

    def test_schwarz_reflection(self):
        for w in (0.7 + 0.3j, 2.5 - 1.25j, 10.0 + 4.0j, -3.3 + 0.2j):
            assert _turn(_theta(w.conjugate()) + _theta(w)) <= 1e-15

    def test_vs_oracle_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            w = complex(rng.uniform(-40.0, 40.0), rng.uniform(-20.0, 20.0))
            t = int(rng.integers(-1000, 1000))
            want = float(mp.im(mp.loggamma(_mp_point(w, t))))
            assert _turn(_theta(w, t) - want) <= 2e-15 * max(1.0, abs(want))

    def test_continuity_near_positive_axis(self):
        above = _theta(3.0 + 1e-12j)
        below = _theta(3.0 - 1e-12j)
        assert above == -below and abs(above) < 1e-11

    def test_poles(self):
        # Im z = 1e-9 about the pole at -3: theta is finite and exact beside it
        w = -3.0 + 1e-9j
        for t in (-1, 0, 1, 3, 4):
            want = float(mp.im(mp.loggamma(_mp_point(w, t))))
            assert _turn(_theta(w, t) - want) <= 2e-15 * max(1.0, abs(want)), t

    def test_phase_steps_by_arg(self):
        # theta(w + 1) = theta(w) + arg w, modulo 2 pi, across the reflection at Re w = 1/2
        w = -6.7 + 0.01j
        for t in range(0, 14):
            step = _theta(w, t + 1) - _theta(w, t) - cmath.phase(w + t)
            assert _turn(step) <= 1e-14


class TestDigamma:
    def test_recurrence_at_3_7(self):
        assert digamma_difference(4.7, 3.7, 0) == pytest.approx(1.0 / 3.7, rel=1e-15)

    def test_at_one(self):
        assert digamma_difference(1.0, 0.5, 0) == pytest.approx(PSI_ONE - PSI_HALF, rel=1e-15)

    def test_at_half(self):
        # reflected: b = 0.25 is below 1/2
        want = mp.digamma(0.5) - mp.digamma(0.25)
        assert digamma_difference(0.5, 0.25, 0) == pytest.approx(float(want), rel=1e-15)

    def test_recurrence_grid(self):
        xs = np.linspace(0.1, 100.0, 1000)
        residual = max(abs(digamma_difference(float(x) + 1.0, float(x), 0) * x - 1.0) for x in xs)
        assert residual < 1e-14

    def test_vs_oracle_wide_range(self):
        # relative to the difference, on pairs as close as 1e-12 and as far as 1e6
        for z, zp in ((1.5, 1.7), (-2.5, -2.1), (0.3, 0.3 + 1e-12), (0.3 + 1e-12, 0.3),
                      (0.3, 1e-9), (1e-15, 0.5), (-41.25, -41.5)):
            for t in (-10**6, -4100, -41, -5, -1, 0, 1, 3, 19, 20, 42, 1000, 10**6):
                want = mp.digamma(_mp_point(z, t)) - mp.digamma(_mp_point(zp, t))
                got = digamma_difference(z, zp, t)
                assert abs(got - float(want)) <= 1e-15 * abs(want), (z, zp, t)

    def test_poles(self):
        # a parameter 1 ulp from an integer, on both branches: relative to the difference
        for z, zp in ((math.nextafter(-2.0, -1.0), -1.5), (math.nextafter(0.0, 1.0) + 1.0, 1.5),
                      (-2.0 + 1e-12j, -2.0 - 1e-12j)):
            for t in (1, 2, 3):
                a, b = _mp_point(z, t), _mp_point(zp, t)
                want = complex(mp.digamma(a) - mp.digamma(b))
                assert abs(digamma_difference(z, zp, t) - want) <= 1e-15 * abs(want), (z, t)

    def test_complex_argument(self):
        for w in (0.8 + 0.4j, 0.3 + 1e-9j, -4.001 - 0.000225j, 0.7 - 1e3j):
            for t in (-10**6, -30, -3, 0, 7, 10**6):
                want = float(mp.im(mp.digamma(_mp_point(w, t))))
                assert _im_psi(w, t) == pytest.approx(want, rel=1e-15), (w, t)
                assert _im_psi(w.conjugate(), t) == pytest.approx(-want, rel=1e-15)


class TestArrayForms:
    def test_match_scalar_forms(self):
        # the kernel's diagonal, one anchor and -d / (ab) per site, against the series
        # taken at each site on its own: the sum keeps its error at ulps of the largest
        for z, zp in ((1.5, 1.7), (0.3 + 0.4j, 0.3 - 0.4j)):
            pair = AdmissiblePair(z, zp)
            values = _site_values(Window.from_indices(-60, 59))
            _, _, diagonal, scale = _kernel_arrays(pair, values)
            t = (values + 0.5).astype(int).tolist()
            if pair.branch.value == "real_interval":
                scalar = [scale / 2.0 * digamma_difference(1.5, 1.7, s) for s in t]
            else:
                scalar = [-scale * _im_psi(pair.z, s) for s in t]
            np.testing.assert_allclose(diagonal, scalar, rtol=0.0, atol=1e-15 * max(scalar))


class TestSinPi:
    def test_integers_are_exact_zeros(self):
        for n in range(-6, 7):
            assert sinpi(float(n)) == 0.0

    def test_half_integers(self):
        assert sinpi(0.5) == 1.0
        assert sinpi(1.5) == -1.0
        assert sinpi(-0.5) == -1.0

    def test_vs_oracle(self):
        for x in np.linspace(-12.3, 12.3, 247):
            assert abs(sinpi(float(x)) - float(mp.sinpi(mp.mpf(float(x))))) < 5e-16

    @pytest.mark.parametrize("x", [1e-300, -1e-300, 1e-17, -1e-17, -1e-12, -1e-5, -3 - 1e-9])
    def test_within_two_ulps_near_integers(self, x):
        # reduced by the nearest integer, the remainder is exact: no digits are lost below 0
        want = mp.sinpi(mp.mpf(x))
        assert abs(sinpi(x) - want) <= 2.0 * math.ulp(float(want))


# The kernel's gamma arguments are z + t and z' + t for integers t: the real
# pair's 1.5 and 1.7 and the conjugate pair's 0.3 +- 0.4i, from t = -4100 to 4100
# (every 41st) and densely near the origin, where the recurrence and the reflection act.
# 0.8 + 2.5i adds reflected arguments with Re w mod 2 in [1.5, 2).
_STEPS = [*range(-4100, 4101, 41), *range(-30, 31)]
_COMPLEX_POINTS = (0.3 + 0.4j, 0.3 - 0.4j, 0.8 + 2.5j)
# A few ulps, in the metric below; each is about 4x the largest error measured.
_BOUNDS = {
    "log_gamma_real": 1.2e-15,
    "digamma_real": 8e-16,
    "log_gamma_complex": 8e-15,
    "digamma_complex": 1.2e-15,
}


def _error(got, want) -> float:
    """Worst |got - want| / max(1, |want|): absolute near zero, relative beyond."""
    got, want = np.asarray(got), np.asarray(want)
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


@functools.lru_cache(maxsize=None)
def _oracle(name: str) -> tuple[list, np.ndarray]:
    """((z, z', t) per point, 30-digit mpmath values) of one function on its kernel-shaped grid."""
    with mp.workdps(30):
        if name.endswith("real"):
            args = [(1.5, 1.7, t) for t in _STEPS]
            if name == "log_gamma_real":
                f = lambda w: mp.log(abs(mp.gamma(w)))  # noqa: E731
            else:
                f = mp.digamma
            return args, np.array([float(f(_mp_point(z, t)) - f(_mp_point(zp, t)))
                                   for z, zp, t in args])
        args = [(w, w.conjugate(), t) for w in _COMPLEX_POINTS for t in _STEPS]
        f = mp.loggamma if name == "log_gamma_complex" else mp.digamma
        return args, np.array([float(mp.im(f(_mp_point(z, t)))) for z, _, t in args])


def _ours(name: str, args: list) -> np.ndarray:
    if name == "log_gamma_complex":
        return np.array([log_gamma_difference(*a) for a in args])
    if name == "digamma_complex":
        return np.array([digamma_difference(*a).imag / 2.0 for a in args])
    f = log_gamma_difference if name == "log_gamma_real" else digamma_difference
    return np.array([f(*a) for a in args])


def _scipy(special, name: str, args: list) -> np.ndarray:
    a = np.array([z + t for z, _, t in args])
    b = np.array([zp + t for _, zp, t in args])
    if name == "log_gamma_real":
        return special.gammaln(a) - special.gammaln(b)
    if name == "digamma_real":
        return special.digamma(a) - special.digamma(b)
    if name == "log_gamma_complex":
        return special.loggamma(a).imag
    return special.digamma(a).imag


def _phase_error(name: str, got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """got, with a phase moved by the multiple of 2 pi that takes it nearest to want."""
    if name != "log_gamma_complex":
        return got
    return want + np.remainder(got - want + np.pi, 2.0 * np.pi) - np.pi


class TestKernelArgumentGrids:
    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_vs_oracle(self, name):
        args, want = _oracle(name)
        assert _error(_phase_error(name, _ours(name, args), want), want) <= _BOUNDS[name]

    def test_signs_vs_oracle(self):
        # sgn A(x) = sgn Gamma(z + x + 1/2), from floor(z) + t, on the real pair's grid
        pair = AdmissiblePair(1.5, 1.7)
        with mp.workdps(30):
            want = [1.0 if mp.gamma(_mp_point(1.5, t)) > 0 else -1.0 for t in _STEPS]
        assert [math.copysign(1.0, ab_values(pair, Site(t - 1))[0]) for t in _STEPS] == want

    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_within_twice_scipy_error(self, name):
        special = pytest.importorskip("scipy.special")
        args, want = _oracle(name)
        ours = _error(_phase_error(name, _ours(name, args), want), want)
        assert ours <= 2.0 * _error(_phase_error(name, _scipy(special, name, args), want), want)

    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_close_to_scipy(self, name):
        # within both errors: scipy's real differences cancel, and its complex digamma
        # is 1.7e-13 off on this grid
        special = pytest.importorskip("scipy.special")
        args, want = _oracle(name)
        theirs = _phase_error(name, _scipy(special, name, args), want)
        bound = 2.0 * (_BOUNDS[name] + _error(theirs, want))
        assert _error(_phase_error(name, _ours(name, args), theirs), theirs) <= bound

    def test_signs_equal_scipy(self):
        special = pytest.importorskip("scipy.special")
        pair = AdmissiblePair(1.5, 1.7)
        signs = [math.copysign(1.0, ab_values(pair, Site(t - 1))[0]) for t in _STEPS]
        assert signs == special.gammasgn(np.array([1.5 + t for t in _STEPS])).tolist()
