"""Gamma-family differences for the kernel anchors, in ``math`` and ``cmath`` only.

With a = z + t and b = z' + t for an integer t, on a real pair (z, z') or a
conjugate pair (z' = conj z), and d = z - z' taken from the parameters:

* ``log_gamma_difference``: log|Gamma(a)| - log|Gamma(b)| on a real pair, and
  theta = Im log Gamma(a) modulo 2 pi on a conjugate pair (half the imaginary
  part of the difference is known only modulo pi);
* ``digamma_difference``: psi(a) - psi(b), on either branch;
* ``sinpi``: sin(pi x), reduced by the nearest integer n (x - n is exact) and
  signed (-1)^n.

Both differences have one shape.  Where Re b < 1/2 they reflect (DLMF 5.5.3,
5.5.4), with the reflection term from the parameters: pi (cot pi a - cot pi b)
= pi sin pi(z' - z) / (sin pi z sin pi z'), which does not cancel for close
parameters; log|sin pi b| - log|sin pi a| as two logs, each log pi + log|r|
for a reduced argument |r| < 1e-8; arg sin pi(z + t) = arg sin pi z + t pi.
They recur upward (DLMF 5.5.1, 5.5.2) until |a| and |b| are both at least 20,
in steps log(a/b) (log1p(d/b) where |d/b| <= 1/2) or d/(ab), and finish with
the Stirling or the asymptotic series (DLMF 5.11.1, 5.11.2) as a difference
in d: log a = log b + log1p(d/b), and a^-m - b^-m = b^-m ((b/a)^m - 1), whose
last factor is built up from b/a - 1 = -d/a by products that lose no digits.
The test suite holds both to mpmath within a few ulps of the difference on
real pairs, z and z' as close as 1e-12 among them, and of the largest term
on conjugate pairs, for t from -1e6 to 1e6.
"""

from __future__ import annotations

import cmath
import math

__all__ = ["digamma_difference", "log_gamma_difference", "sinpi"]

# The recurrence stops where |a| and |b| are both at least this; there the
# seventh term of either series is below 1e-17.
_RISE = 20.0
_LOG_PI = math.log(math.pi)
# The coefficients of w^(1 - 2k) and of w^-2k, k = 1 .. 6, DLMF 5.11.1 and 5.11.2:
# log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) w^(2k - 1)),
# psi(w) ~ log w - 1 / (2w) - sum_k B_2k / (2k w^2k).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_ASYMPTOTIC = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760)


def sinpi(x: float) -> float:
    """sin(pi * x), reduced by the nearest integer: exact zeros at integers, no digits lost near 0."""
    x = float(x)
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


def _log_sinpi(x: float) -> float:
    """log|sin(pi x)| of real x."""
    r = x - round(x)
    return _LOG_PI + math.log(abs(r)) if abs(r) < 1e-8 else math.log(abs(math.sin(math.pi * r)))


def _log_ratio(a, b, u):
    """log(a / b) for u = (a - b) / b, with a and b of one sign, or Re a, Re b > 0."""
    if isinstance(u, complex):  # log1p(u), with |1 + u|^2 - 1 = u_r (2 + u_r) + u_i^2
        return complex(0.5 * math.log1p(u.real * (2.0 + u.real) + u.imag * u.imag),
                       math.atan2(u.imag, 1.0 + u.real))
    return math.log1p(u) if abs(u) <= 0.5 else math.log(abs(a)) - math.log(abs(b))


def _series(z, zp, t: int, psi: bool):
    """psi(a) - psi(b) if `psi`, else log Gamma(a) - log Gamma(b); a = z + t, b = z' + t, Re > 0."""
    d = z - zp
    total = 0.0
    a, b = z + t, zp + t
    while abs(a) < _RISE or abs(b) < _RISE:
        total += d / b / a if psi else -_log_ratio(a, b, d / b)
        t += 1
        a, b = z + t, zp + t
    ell = _log_ratio(a, b, d / b)
    # a^-m - b^-m = b^-m e_m with e_m = (b / a)^m - 1, from e_1 = -d / a by
    # e_(m + 2) = e_m + e_2 + e_m e_2, which loses no digits
    e1 = -d / a
    e2 = e1 * (2.0 + e1)
    r2 = 1.0 / (b * b)
    e, power = (e2, r2) if psi else (e1, 1.0 / b)
    tail = 0.0
    for c in (_ASYMPTOTIC if psi else _STIRLING):
        tail += c * power * e
        power *= r2
        e += e2 + e * e2
    if psi:
        return total + (ell + 0.5 * d / b / a + tail)
    log_b = cmath.log(b) if isinstance(b, complex) else math.log(b)
    return total + (d * log_b + (a - 0.5) * ell - d + tail)


def log_gamma_difference(z, zp, t: int) -> float:
    """log|Gamma(z + t)| - log|Gamma(z' + t)|; for z' = conj z, Im log Gamma(z + t) mod 2 pi."""
    if isinstance(z, complex):
        if z.real + t < 0.5:
            # theta(a) = -arg sin(pi a) - theta(1 - a), and with x = n + r, |r| <= 1/2,
            # arg sin pi(x + iy + t) = atan2(cos(pi r) tanh(pi y), sin(pi r)) + (n + t) pi
            n = round(z.real)
            r = math.pi * (z.real - n)
            turn = math.atan2(math.cos(r) * math.tanh(math.pi * z.imag), math.sin(r))
            return -turn - (n + t) % 2 * math.pi - log_gamma_difference(-z, -zp, 1 - t)
        return 0.5 * _series(z, zp, t, False).imag
    if zp + t < 0.5:
        return _log_sinpi(zp) - _log_sinpi(z) - _series(-z, -zp, 1 - t, False)
    return _series(z, zp, t, False)


def digamma_difference(z, zp, t: int):
    """psi(z + t) - psi(z' + t): a float for real z, z'; 2i Im psi(z + t) for z' = conj z."""
    if isinstance(z, complex):
        if z.real + t < 0.5:
            # -pi (cot pi a - cot pi b) = -2 pi i Im cot pi a, and with y = Im z and c = pi |y|,
            # Im cot pi a = -sgn(y) / (sin^2(pi Re z) / (sinh c cosh c) + tanh c)
            c, s = math.pi * abs(z.imag), sinpi(z.real)
            inverse = 4.0 * math.exp(-2.0 * c) / -math.expm1(-4.0 * c)  # 1 / (sinh c cosh c)
            term = math.copysign(2.0 * math.pi / (s * s * inverse + math.tanh(c)), z.imag)
            return _series(-z, -zp, 1 - t, True) + complex(0.0, term)
        return _series(z, zp, t, True)
    if zp + t < 0.5:
        return _series(-z, -zp, 1 - t, True) - math.pi * sinpi(zp - z) / sinpi(z) / sinpi(zp)
    return _series(z, zp, t, True)
