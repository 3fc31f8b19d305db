"""The kernel's closed form in mpmath: the tests' one oracle for it, and for swap ratios.

With a = z + x + 1/2, b = z' + x + 1/2 and A = Gamma(a) / sqrt(Gamma(a) Gamma(b)),
B = Gamma(b) / sqrt(Gamma(a) Gamma(b)), the kernel is P (A_x B_y - B_x A_y) / (x - y)
off the diagonal and P (psi(a) - psi(b)) on it, P the prefactor.  Gamma and
digamma come from mpmath and are never rounded, independent of the
neighbour-ratio evaluation under test.  :func:`mp_ratios` reads swap ratios off
that kernel by exact algebra.
"""

from __future__ import annotations

import mpmath as mp

__all__ = ["mp_entry", "mp_kernel", "mp_prefactor", "mp_ratios"]


def mp_prefactor(z, zp):
    return mp.sinpi(z) * mp.sinpi(zp) / (mp.pi * mp.sinpi(z - zp))


def mp_kernel(z, zp, sites, dps: int):
    """(A, B, K) over `sites` at `dps` digits, with z + x + 1/2 formed exactly: A and B as
    lists, K as an mp.matrix of the real parts, none of them rounded."""
    with mp.workdps(dps):
        z, zp = mp.mpmathify(z), mp.mpmathify(zp)
        prefactor = mp_prefactor(z, zp)
        half = mp.mpf(1) / 2
        xs = [mp.mpf(site.index) + half for site in sites]
        a, b = [], []
        for x in xs:
            gp, gq = mp.gamma(z + x + half), mp.gamma(zp + x + half)
            root = mp.sqrt(gp * gq)
            a.append(gp / root)
            b.append(gq / root)
        k = mp.matrix(len(xs), len(xs))
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                if i == j:
                    d = mp.digamma(z + x + half) - mp.digamma(zp + x + half)
                else:
                    d = (a[i] * b[j] - b[i] * a[j]) / (x - y)
                k[i, j] = mp.re(prefactor * d)
        return a, b, k


def mp_entry(z, zp, x, y, dps: int) -> float:
    """K(x, y) as a float, from :func:`mp_kernel` on the sites x and y."""
    sites = [x] if x == y else [x, y]
    return float(mp_kernel(z, zp, sites, dps)[2][0, len(sites) - 1])


def mp_ratios(pair, window, occupancy, ends) -> list[float]:
    """phi of the swaps `ends` out of `occupancy`, by G on a 60-digit mpmath kernel.

    G = M^-1 (2K - I) is exact algebra on the kernel of :func:`mp_kernel`.
    """
    k = mp_kernel(pair.z, pair.z_prime, window.sites, 60)[2]
    n = window.size
    with mp.workdps(60):
        eye = mp.eye(n)
        m = mp.matrix(n, n)
        for c in range(n):
            for r in range(n):
                m[r, c] = k[r, c] if occupancy[c] else eye[r, c] - k[r, c]
        g = mp.inverse(m) * (2 * k - eye)
        s = [-1 if bit else 1 for bit in occupancy]
        return [float((1 + s[i] * g[i, i]) * (1 + s[j] * g[j, j]) - s[i] * s[j] * g[i, j] * g[j, i])
                for i, j in ends]
