"""Gamma-family special functions in log space.

The kernel formulas combine gamma values whose magnitudes overflow double
precision within a few hundred lattice sites, so everything is carried as
logs and recombined only after cancellation.  The methods, in numpy and
``math`` only:

* real log-gamma: log |math.gamma(x)| where Gamma(x) is a normal double
  (|x| < 160), ``math.lgamma`` beyond, and the sign of Gamma(x) in closed
  form (negative exactly when x < 0 and floor(x) is odd);
* complex log-gamma, principal branch: the Stirling series, after Hare's
  reflection log pi - log sin(pi w) - log Gamma(1 - w) with its branch term
  2 pi i floor(Re w / 2 + 1/4) for Re w < 0.1 and |Im w| < 7 (Hare,
  "Computing the principal branch of log-Gamma", J. Algorithms 25, 1997),
  and an upward shift by the n that puts Re w in [7, 8) when Re w and |Im w|
  are below 7;
* digamma, real or complex: the asymptotic series, after
  psi(w) = psi(1 - w) - pi cot(pi w) for Re w < 0.1 and |Im w| < 10, and a
  shift into Re w in [10, 11) below 10, summed so that no term is much
  larger than the result.

Every element is evaluated on its own, whatever else its array holds, so a
one-element call returns the same bits as the same element of a long array;
the kernel evaluates whole windows through the array forms, and its
single-entry calls must agree with them.  Non-positive integer arguments
raise :class:`PoleError`, in scalar and array form alike.  ``sinpi`` adds
the argument reduction that keeps sin(pi x) accurate near integers.

Accuracy, verified by the test suite against an independent high-precision
oracle and against ``scipy.special`` where it is installed: relative error
of the reconstructed gamma below 1e-12 for |x| <= 170, digamma absolute
error below 1e-12 for |x| <= 1e6, and on grids with Re w in [-4100, 4100]
within twice scipy's own error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleError

__all__ = [
    "log_gamma_parts",
    "log_gamma_complex",
    "digamma",
    "sinpi",
]

# Entries with Re w and |Im w| below the shift are the only ones moved before a
# series is summed: reflected to 1 - w if Re w < 0.1, then raised into the strip
# Re w in [shift, shift + 1).  There, and at every other entry, the next term
# of the series is below 1e-16 of the value: 7 for log-gamma, 10 for digamma.
_LOG_GAMMA_SHIFT = 7.0
_DIGAMMA_SHIFT = 10.0
# Gamma(x) is a normal double for |x| < 160.  There log |math.gamma(x)| is 2 to 20
# times more accurate than math.lgamma(x) (rms, against mpmath): lgamma loses up to
# 1e-15 to cancellation near its zeros at 1 and 2.
_GAMMA_RANGE = 160.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
# B_2k / (2k (2k - 1)) and B_2k / 2k for k = 8 .. 1, in pairs for Estrin's scheme:
# log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) w^(2k - 1)),
# psi(w) ~ log w - 1 / (2w) - sum_k B_2k / (2k w^2k).
_STIRLING = np.array([[-3617 / 122400, 1 / 156], [-691 / 360360, 1 / 1188],
                      [-1 / 1680, 1 / 1260], [-1 / 360, 1 / 12]])
_ASYMPTOTIC = np.array([[-3617 / 8160, 1 / 12], [-691 / 32760, 1 / 132],
                        [-1 / 240, 1 / 252], [-1 / 120, 1 / 12]])


def _polynomial(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The degree-7 polynomial in `x` with coefficients `pairs`, highest first, by Estrin's scheme."""
    x2 = x * x
    a = pairs[:, :1] * x + pairs[:, 1:]
    b = a[0::2] * x2 + a[1::2]
    return b[0] * (x2 * x2) + b[1]


def _check_poles(x: np.ndarray, kind: str) -> None:
    """PoleError naming the first integer in `x`, a 1-D array that holds no positive integer."""
    pole = (x == np.floor(x.real)).nonzero()[0]  # a complex x must be real to match
    if pole.size:
        raise PoleError(f"{kind} pole at x = {x[pole[0]]}")


def _small(w: np.ndarray, index: np.ndarray, shift: float) -> np.ndarray:
    """The entries of `index` whose |Im w| is below `shift` (all of them for real `w`)."""
    if index.size and w.dtype.kind == "c":
        return index[np.abs(w.imag[index]) < shift]
    return index


class _Moved:
    """Where the entries of a 1-D array `w` move before a series is summed.

    `flipped` indexes the entries with Re w < 0.1 and |Im w| < `shift`, which
    are reflected to 1 - w; `u` holds their values, and every pole is one
    of them (PoleError).  `raised` indexes the entries whose real part is
    then below `shift`, with |Im w| below it too; each rises by the
    n <= shift that puts it in [shift, shift + 1).  Column i of `terms`
    lists raised entry i's value before the rise plus k, k = 0 .. shift - 1,
    down axis 0, and `live` marks the n in use.  Sums and products over
    them are taken with ``cumsum`` and ``cumprod``, which go down a column in
    order whatever its neighbours; a ``sum`` may add a lone column pairwise.
    `w` is the whole array with the moved values.
    """

    def __init__(self, w: np.ndarray, shift: float, kind: str):
        self.flipped = _small(w, (w.real < 0.1).nonzero()[0], shift)
        if self.flipped.size:
            self.u = w[self.flipped]
            _check_poles(self.u, kind)
            w = w.copy()
            w[self.flipped] = 1.0 - self.u
        self.raised = _small(w, (w.real < shift).nonzero()[0], shift)
        if self.raised.size:
            x = w[self.raised]
            steps = np.ceil(shift - x.real)
            k = np.arange(shift)[:, np.newaxis]
            self.terms, self.live = x + k, k < steps
            if not self.flipped.size:
                w = w.copy()
            w[self.raised] = x + steps
        self.w = w


def _log_gamma(w: np.ndarray) -> np.ndarray:
    """Principal-branch log Gamma over a 1-D complex array."""
    moved = _Moved(w, _LOG_GAMMA_SHIFT, "gamma")
    v = moved.w
    rz = np.reciprocal(v)
    out = (v - 0.5) * np.log(v) - v + (_LOG_SQRT_2PI + rz * _polynomial(rz * rz, _STIRLING))
    if moved.raised.size:
        # log Gamma(x) = log Gamma(x + n) - sum_k log(x + k), principal logs: the real
        # part is the log of the product, and the arguments are summed, so none wraps
        terms = np.where(moved.live, moved.terms, 1.0)
        turn = np.arctan2(terms.imag, terms.real).cumsum(axis=0)[-1]
        out[moved.raised] -= np.log(np.abs(terms.cumprod(axis=0)[-1])) + 1j * turn
        # on the positive real axis log Gamma is real: log |math.gamma|, exact at 1 and 2
        first = moved.terms[0]
        axis = (first.imag == 0.0).nonzero()[0]
        if axis.size:
            out[moved.raised[axis]] = np.log(np.abs(_gamma(first.real[axis])))
    if moved.flipped.size:
        # Hare's reflection: log pi - log sin(pi u) - log Gamma(1 - u)
        # + 2 pi i floor(Re u / 2 + 1/4), signed as Im u; Re u reduced modulo 1 in the sine
        f, u = moved.flipped, moved.u
        branch = np.copysign(2.0 * math.pi, u.imag) * np.floor(0.5 * u.real + 0.25)
        n = np.rint(u.real)
        sine = np.sin(math.pi * (u - n))  # (-1)^n sin(pi u)
        sine = np.where(np.fmod(n, 2.0) == 0.0, sine, -sine)
        out[f] = (_LOG_PI + 1j * branch) - np.log(sine) - out[f]
    return out


def _digamma(w: np.ndarray) -> np.ndarray:
    """psi over a 1-D real or complex array."""
    moved = _Moved(w, _DIGAMMA_SHIFT, "digamma")
    v = moved.w
    rz = np.reciprocal(v)
    rzz = rz * rz
    tail = -0.5 * rz - rzz * _polynomial(rzz, _ASYMPTOTIC)  # psi(v) - log(v)
    out = np.log(v) + tail
    if moved.raised.size:
        # psi(x) = log x + sum_k [log1p(1/(x + k)) - 1/(x + k)] + psi(x + n) - log(x + n):
        # no term is much larger than psi(x) itself, so none rounds its digits away
        r = np.reciprocal(moved.terms)
        gaps = np.where(moved.live, np.log1p(r) - r, 0.0).cumsum(axis=0)[-1]
        out[moved.raised] = np.log(moved.terms[0]) + (gaps + tail[moved.raised])
    if moved.flipped.size:
        # psi(u) = psi(1 - u) - pi cot(pi u), Re u reduced modulo 1 in the cotangent
        u = moved.u
        out[moved.flipped] -= math.pi / np.tan(math.pi * (u - np.rint(u.real)))
    return out


def _map(f, x: np.ndarray) -> np.ndarray:
    """``f`` (``math.gamma`` or ``math.lgamma``) per element of real `x`; PoleError at a pole."""
    try:
        return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    except ValueError:  # raised at the poles only
        _check_poles(x[x <= 0.0], "gamma")
        raise


def _gamma(x: np.ndarray) -> np.ndarray:
    """Gamma(x) per element of real `x` with |x| < _GAMMA_RANGE, where it is a normal double."""
    return _map(math.gamma, x)


def log_gamma_parts(x) -> tuple[np.ndarray, np.ndarray]:
    """log|Gamma(x)| and the sign of Gamma(x) (+1.0 or -1.0), elementwise over real x."""
    x = np.asarray(x, dtype=float)
    near = np.abs(x) < _GAMMA_RANGE
    log_abs = np.empty(x.shape)
    log_abs[near] = np.log(np.abs(_gamma(x[near])))
    log_abs[~near] = _map(math.lgamma, x[~near])
    # Gamma(x) < 0 exactly when x < 0 and floor(x) is odd, where fmod(floor(x), 2) = -1
    sign = np.copysign(1.0, np.fmod(np.floor(x), 2.0) + 0.5)
    return log_abs[()], sign[()]


def log_gamma_complex(w):
    """Principal-branch log-gamma, continuous for Re(w) > 0.

    A scalar gives a complex; an array gives an array, elementwise.
    """
    values = np.asarray(w, dtype=complex)
    values = _log_gamma(values.reshape(-1)).reshape(values.shape)
    return values if isinstance(w, np.ndarray) else complex(values[()])


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x), for real or complex x.

    Real input gives a float, complex input a complex, an array an array
    (elementwise); non-positive integer arguments raise :class:`PoleError`.
    """
    values = np.asarray(x)
    values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
    values = _digamma(values.reshape(-1)).reshape(values.shape)
    if isinstance(x, np.ndarray):
        return values
    return complex(values[()]) if isinstance(x, complex) else float(values[()])


def sinpi(x: float) -> float:
    """sin(pi * x) with integer argument reduction (exact zeros at integers)."""
    x = float(x)
    n = math.floor(x)
    r = x - n
    if r > 0.5:
        r = 1.0 - r
    s = math.sin(math.pi * r)
    return -s if n % 2 else s
