"""Gamma-family special functions in log space.

The kernel formulas combine gamma values whose magnitudes overflow double
precision within a few hundred lattice sites, so everything is carried as
logs and recombined only after cancellation.  Evaluation is backed by
``scipy.special`` (gammaln/gammasgn, loggamma, digamma) with one pole guard
shared by scalar and array arguments; the kernel evaluates whole windows
through the array forms.  ``sinpi`` adds the argument reduction that keeps
sin(pi x) accurate near integers.

Accuracy, verified by the test suite against an independent high-precision
oracle: relative error of the reconstructed gamma below 1e-12 for |x| <= 170,
digamma absolute error below 1e-12 for |x| <= 1e6.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as _sp

from .errors import PoleError

__all__ = [
    "log_gamma_parts",
    "log_gamma_complex",
    "digamma",
    "sinpi",
    "sinpi_complex",
]


def _guard_poles(w, kind: str) -> np.ndarray:
    """``w`` as an array; PoleError if any entry is a non-positive integer."""
    w = np.asarray(w)
    pole = (w == np.floor(w.real)) & (w.real <= 0.0)  # a complex w must be real to match
    if pole.any():
        raise PoleError(f"{kind} pole at x = {w[pole].flat[0]}")
    return w


def log_gamma_parts(x) -> tuple[np.ndarray, np.ndarray]:
    """log|Gamma(x)| and the sign of Gamma(x) (+1.0 or -1.0), elementwise over real x."""
    x = _guard_poles(np.asarray(x, dtype=float), "gamma")
    return _sp.gammaln(x), _sp.gammasgn(x)


def log_gamma_complex(w):
    """Principal-branch log-gamma, continuous for Re(w) > 0.

    A scalar gives a complex; an array gives an array, elementwise.
    """
    values = _sp.loggamma(_guard_poles(np.asarray(w, dtype=complex), "gamma"))
    return values if isinstance(w, np.ndarray) else complex(values)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x), for real or complex x.

    Real input gives a float, complex input a complex, an array an array
    (elementwise); non-positive integer arguments raise :class:`PoleError`.
    """
    values = _sp.digamma(_guard_poles(x, "digamma"))
    if isinstance(x, np.ndarray):
        return values
    return complex(values) if isinstance(x, complex) else float(values)


def sinpi(x: float) -> float:
    """sin(pi * x) with integer argument reduction (exact zeros at integers)."""
    x = float(x)
    n = math.floor(x)
    r = x - n
    if r > 0.5:
        r = 1.0 - r
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def sinpi_complex(w: complex) -> complex:
    """sin(pi * w) with the real part reduced modulo 2."""
    w = complex(w)
    n = math.floor(w.real)
    s = cmath.sin(math.pi * (w - n))
    return -s if n % 2 else s
