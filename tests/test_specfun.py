"""Special-function accuracy against an independent high-precision oracle.

Frozen constants were computed with mpmath at 50 decimal digits before the
implementation existed; the grid comparisons below recompute the oracle live
(mpmath evaluates gamma/digamma through its own arbitrary-precision series,
an entirely separate code path from the package's double-precision series).
Where scipy is installed, the same grids also hold the package to
``scipy.special``, which it replaced.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from kawasaki_dpp.errors import PoleError
from kawasaki_dpp.specfun import (
    digamma,
    log_gamma_complex,
    log_gamma_parts,
    sinpi,
)

mp.mp.dps = 40

LOG_GAMMA_NEG_HALF = 1.265512123484645396488946  # log|Gamma(-1/2)| = log(2 sqrt(pi))
LOG_GAMMA_HALF = 0.5723649429247000870717137     # log Gamma(1/2) = log sqrt(pi)
LOG_24 = 3.178053830347945619646942
PSI_ONE = -0.5772156649015328606065121           # -euler_gamma
PSI_HALF = -1.963510026021423479440976           # -euler_gamma - 2 log 2


def _signed_log_gamma(x: float) -> tuple[float, int]:
    """log|Gamma(x)| and the sign of Gamma(x) of one real argument, as Python numbers."""
    log_abs, sign = log_gamma_parts(x)
    return float(log_abs), int(sign)


class TestSignedLog:
    def test_value(self):
        # sign * exp(log|Gamma|) reconstructs Gamma on both sides of zero
        for x in (0.5, 1.0, 3.0, 7.25, -0.5, -2.5, -3.75):
            log_abs, sign = _signed_log_gamma(x)
            assert sign * math.exp(log_abs) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_invalid_sign(self):
        # the sign is +1 or -1, never 0: Gamma has no zeros
        _, sign = log_gamma_parts(np.arange(-30.0, 30.0) + 0.375)
        assert set(sign.tolist()) == {-1.0, 1.0}


class TestLogGammaSigned:
    def test_gamma_one(self):
        assert _signed_log_gamma(1.0) == (0.0, 1)

    def test_gamma_five_is_24(self):
        log_abs, sign = _signed_log_gamma(5.0)
        assert sign == 1
        assert log_abs == pytest.approx(LOG_24, abs=1e-14)

    def test_gamma_negative_half(self):
        log_abs, sign = _signed_log_gamma(-0.5)
        assert sign == -1
        assert log_abs == pytest.approx(LOG_GAMMA_NEG_HALF, abs=1e-13)

    def test_recurrence_relative(self):
        # Gamma(x + 1) = x Gamma(x), compared in log space to dodge overflow.
        for x in np.linspace(0.2, 160.0, 400):
            lhs, _ = _signed_log_gamma(x + 1.0)
            rhs, _ = _signed_log_gamma(x)
            ratio = math.exp(rhs + math.log(x) - lhs)
            assert abs(ratio - 1.0) < 1e-11

    def test_sign_alternation_on_negative_axis(self):
        for n in range(1, 21):
            assert _signed_log_gamma(-n + 0.5)[1] == (-1) ** n

    def test_vs_oracle_grid(self):
        xs = list(np.linspace(0.1, 170.0, 113)) + [-0.5, -1.5, -12.3, -99.7, -169.5]
        for x in xs:
            log_abs, sign = _signed_log_gamma(float(x))
            want = mp.gamma(mp.mpf(float(x)))
            assert sign == (1 if want > 0 else -1)
            # relative error of the reconstructed gamma equals the log-domain
            # absolute error for small errors
            assert abs(log_abs - float(mp.log(abs(want)))) < 1e-12 * max(1.0, abs(log_abs))

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma_parts(x)


class TestLogGammaComplex:
    def test_at_one(self):
        assert log_gamma_complex(1 + 0j) == 0 + 0j

    def test_at_half(self):
        got = log_gamma_complex(0.5 + 0j)
        assert got.real == pytest.approx(LOG_GAMMA_HALF, abs=1e-13)
        assert got.imag == 0.0

    def test_schwarz_reflection(self):
        for w in (0.7 + 0.3j, 2.5 - 1.25j, 10.0 + 4.0j):
            assert log_gamma_complex(w.conjugate()) == log_gamma_complex(w).conjugate()

    def test_vs_oracle_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            w = complex(rng.uniform(0.05, 40.0), rng.uniform(-20.0, 20.0))
            got = log_gamma_complex(w)
            want = complex(mp.loggamma(mp.mpc(w.real, w.imag)))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_continuity_near_positive_axis(self):
        above = log_gamma_complex(3.0 + 1e-12j)
        below = log_gamma_complex(3.0 - 1e-12j)
        assert abs(above - below) < 1e-10

    def test_poles(self):
        with pytest.raises(PoleError):
            log_gamma_complex(-3.0 + 0j)


class TestDigamma:
    def test_recurrence_at_3_7(self):
        assert abs(digamma(4.7) - digamma(3.7) - 1.0 / 3.7) < 1e-12

    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(PSI_ONE, abs=1e-12)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(PSI_HALF, abs=1e-12)

    def test_recurrence_grid(self):
        xs = np.linspace(0.1, 100.0, 1000)
        residual = max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in xs)
        assert residual < 1e-12

    def test_vs_oracle_wide_range(self):
        xs = [0.01, 0.5, 3.7, 42.0, 1e3, 1e6, -0.3, -5.5, -41.25]
        for x in xs:
            assert abs(digamma(x) - float(mp.digamma(mp.mpf(x)))) < 1e-12

    def test_complex_argument(self):
        w = 0.8 + 0.4j
        got = digamma(w)
        want = complex(mp.digamma(mp.mpc(w.real, w.imag)))
        assert abs(got - want) < 1e-12
        assert digamma(w.conjugate()) == got.conjugate()

    def test_poles(self):
        for x in (0.0, -2.0):
            with pytest.raises(PoleError):
                digamma(x)
        with pytest.raises(PoleError):
            digamma(complex(-1.0, 0.0))


class TestArrayForms:
    def test_match_scalar_forms(self):
        xs = np.array([-12.3, -0.5, 0.5, 3.7, 42.0])
        log_abs, sign = log_gamma_parts(xs)
        for x, want_log, want_sign in zip(xs, log_abs, sign):
            assert _signed_log_gamma(float(x)) == (want_log, want_sign)
        ws = xs + 0.25j
        assert np.array_equal(log_gamma_complex(ws), [log_gamma_complex(complex(w)) for w in ws])
        assert np.array_equal(digamma(xs), [digamma(float(x)) for x in xs])
        assert np.array_equal(digamma(ws), [digamma(complex(w)) for w in ws])

    def test_pole_anywhere_in_array(self):
        with pytest.raises(PoleError):
            log_gamma_parts(np.array([1.5, -3.0]))
        with pytest.raises(PoleError):
            log_gamma_complex(np.array([1.0 + 1.0j, -2.0 + 0.0j]))
        with pytest.raises(PoleError):
            digamma(np.array([0.5, 0.0]))
        # off the real axis a complex argument is never a pole
        assert np.isfinite(digamma(np.array([-2.0 + 1e-9j]))).all()


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


# The kernel's gamma arguments are z + n and z' + n for integers n: the real
# pair's 1.5 and 1.7 and the conjugate pair's 0.3 +- 0.4i, from n = -4100 to 4100
# (every 41st) and densely near the origin, where the shifts and reflections act.
# 0.8 + 2.5i adds reflected arguments with Re w mod 2 in [1.5, 2), where Hare's
# branch term floor(Re w / 2 + 1/4) differs from floor(Re w / 2).
_STEPS = np.concatenate([np.arange(-4100, 4101, 41), np.arange(-30, 31)]).astype(float)
_REAL_OFFSETS = (1.5, 1.7)
_COMPLEX_OFFSETS = (0.3 + 0.4j, 0.3 - 0.4j, 0.8 + 2.5j)
# Twice scipy.special's own worst error on these grids (scipy 1.17.1), in the
# metric below: the frozen form of "no worse than twice scipy" where scipy is absent.
_BOUNDS = {
    "log_gamma_parts": 2 * 4.19e-16,
    "digamma_real": 2 * 6.31e-16,
    "log_gamma_complex": 2 * 1.38e-15,
    "digamma_complex": 2 * 1.31e-15,
}


def _error(got, want) -> float:
    """Worst |got - want| / max(1, |want|): absolute near zero, relative beyond."""
    got, want = np.asarray(got), np.asarray(want)
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


@functools.lru_cache(maxsize=None)
def _oracle(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(arguments, 30-digit mpmath values) of one function on its kernel-shaped grid."""
    with mp.workdps(30):
        if name in ("log_gamma_parts", "digamma_real"):
            x = np.concatenate([_STEPS + offset for offset in _REAL_OFFSETS])
            if name == "log_gamma_parts":
                return x, np.array([float(mp.log(abs(mp.gamma(mp.mpf(v))))) for v in x])
            return x, np.array([float(mp.digamma(mp.mpf(v))) for v in x])
        w = np.concatenate([_STEPS + offset for offset in _COMPLEX_OFFSETS])
        f = mp.loggamma if name == "log_gamma_complex" else mp.digamma
        return w, np.array([complex(f(mp.mpc(v.real, v.imag))) for v in w])


def _ours(name: str, args: np.ndarray) -> np.ndarray:
    if name == "log_gamma_parts":
        return log_gamma_parts(args)[0]
    if name == "log_gamma_complex":
        return log_gamma_complex(args)
    return digamma(args)


def _scipy(special, name: str, args: np.ndarray) -> np.ndarray:
    if name == "log_gamma_parts":
        return special.gammaln(args)
    if name == "log_gamma_complex":
        return special.loggamma(args)
    return special.digamma(args)


class TestKernelArgumentGrids:
    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_vs_oracle(self, name):
        args, want = _oracle(name)
        assert _error(_ours(name, args), want) <= _BOUNDS[name]

    def test_signs_vs_oracle(self):
        x, _ = _oracle("log_gamma_parts")
        with mp.workdps(30):
            want = [1.0 if mp.gamma(mp.mpf(v)) > 0 else -1.0 for v in x]
        assert log_gamma_parts(x)[1].tolist() == want

    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_within_twice_scipy_error(self, name):
        special = pytest.importorskip("scipy.special")
        args, want = _oracle(name)
        assert _error(_ours(name, args), want) <= 2.0 * _error(_scipy(special, name, args), want)

    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_close_to_scipy(self, name):
        special = pytest.importorskip("scipy.special")
        args, _ = _oracle(name)
        theirs = _scipy(special, name, args)
        assert _error(_ours(name, args), theirs) <= 2.0 * _BOUNDS[name]

    def test_signs_equal_scipy(self):
        special = pytest.importorskip("scipy.special")
        x, _ = _oracle("log_gamma_parts")
        assert np.array_equal(log_gamma_parts(x)[1], special.gammasgn(x))

    def test_entries_do_not_depend_on_their_neighbours(self):
        # One-element calls give the same bits as the whole grid, on every path:
        # Stirling as it is, shifted, reflected, and both.
        for name in sorted(_BOUNDS):
            args, _ = _oracle(name)
            whole = _ours(name, args)
            single = [_ours(name, args[i:i + 1])[0] for i in range(0, len(args), 7)]
            assert np.array_equal(whole[::7], single), name
