"""The gamma-family projection kernel on the half-integer lattice.

Sites live on Z' = Z + 1/2 and are encoded by an integer index, site value
``index + 1/2``.  A parameter pair (z, z') is *admissible* when
``(z + n)(z' + n) > 0`` for every integer n; the two supported branches are

* ``RealInterval`` -- z, z' real, both strictly inside the same interval
  (m, m+1) between consecutive integers;
* ``ConjugatePair`` -- z non-real and z' its complex conjugate.

The kernel is assembled from

    K(x, y) = prefactor * (A(x) B(y) - B(x) A(y)) / (x - y),      x != y
    K(x, x) = prefactor * (psi(z + x + 1/2) - psi(z' + x + 1/2)),

with ``prefactor = sin(pi z) sin(pi z') / (pi sin(pi (z - z')))`` and

    A(x) = Gamma(z + x + 1/2) / sqrt(Gamma(z + x + 1/2) Gamma(z' + x + 1/2)),

B(x) the same with z and z' exchanged.  On the real branch A(x)^2 is the
gamma ratio itself where both gammas are normal doubles, and the exponential
of a log-gamma difference beyond.  On the conjugate branch A(x) is a
unit-modulus complex number with B(x) = conj(A(x)), taken from the phase of
the complex log-gamma; every downstream combination is mathematically real
and is formed in real arithmetic.

No value is cached between calls: each call evaluates a whole window, or
one or two sites for single entries and A/B.  Real-branch gammas are taken
site by site, everything else in vectorized passes.  A 4096-site window
(the cap) builds in about 0.5 s at a peak RSS of about 325 MiB (2-vCPU Xeon
at 2.0 GHz, numpy 2.4).

The same kernel is, equivalently, the spectral projection onto the positive
part of the spectrum of a second-order symmetric difference operator;
:func:`spectral_projection_check` probes that characterization numerically
on truncated windows.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, SizeError, WindowMismatchError
from .specfun import _GAMMA_RANGE, _check_poles, digamma, log_gamma_complex, sinpi
from .util import format_float, write_csv

__all__ = [
    "Site",
    "Window",
    "Branch",
    "AdmissiblePair",
    "KernelMatrix",
    "ProjectionReport",
    "is_admissible",
    "ab_values",
    "kernel_entry",
    "kernel_matrix",
    "difference_operator_matrix",
    "spectral_projection_check",
    "write_kernel_csv",
    "MAX_WINDOW_SITES",
]

MAX_WINDOW_SITES = 4096
# Largest |Im z| of a conjugate pair: the phases Im log Gamma(z + x + 1/2) grow like
# |Im z| log |Im z|: a 7-site kernel is off by up to 3.8e-12 at 1e4, 2.8e-13 at 1e3.
_CONJUGATE_IM_CAP = 1e3
# Rows write_kernel_csv formats together; their texts for later rows are one piece per column.
_MIRROR_ROWS = 32


@dataclass(frozen=True, order=True)
class Site:
    """A half-integer lattice point x = index + 1/2."""

    index: int

    @property
    def value(self) -> float:
        return self.index + 0.5

    def __str__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True)
class Window:
    """A contiguous, inclusive block of lattice sites."""

    lo: Site
    hi: Site

    def __post_init__(self):
        if self.lo.index > self.hi.index:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")

    @classmethod
    def from_indices(cls, lo_index: int, hi_index: int) -> "Window":
        return cls(Site(lo_index), Site(hi_index))

    @classmethod
    def centered(cls, size: int, center_index: int = 0) -> "Window":
        """A window of `size` sites centered (up to parity) on an index."""
        if size < 1:
            raise ValueError("window size must be >= 1")
        lo = center_index - size // 2
        return cls.from_indices(lo, lo + size - 1)

    @property
    def size(self) -> int:
        return self.hi.index - self.lo.index + 1

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(Site(i) for i in range(self.lo.index, self.hi.index + 1))

    def __contains__(self, site: Site) -> bool:
        return self.lo.index <= site.index <= self.hi.index

    def position(self, site: Site) -> int:
        """Offset of a site within the window (0 = lo)."""
        if site not in self:
            raise WindowMismatchError(f"site {site} outside window {self}")
        return site.index - self.lo.index

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


class Branch(enum.Enum):
    """Which admissibility branch a parameter pair lives on."""

    REAL_INTERVAL = "real_interval"
    CONJUGATE_PAIR = "conjugate_pair"


def _classify(z: complex, z_prime: complex) -> Branch | None:
    z = complex(z)
    z_prime = complex(z_prime)
    if not (cmath.isfinite(z) and cmath.isfinite(z_prime)) or z == z_prime:
        # No kernel has a non-finite parameter; equal ones only arise as a limit.
        return None
    if z.imag == 0.0 and z_prime.imag == 0.0:
        a, b = z.real, z_prime.real
        if a == math.floor(a) or b == math.floor(b):
            return None
        if math.floor(a) == math.floor(b):
            return Branch.REAL_INTERVAL
        return None
    if z.imag != 0.0 and z_prime == z.conjugate():
        return Branch.CONJUGATE_PAIR
    return None


def is_admissible(z: complex, z_prime: complex) -> bool:
    """Whether (z, z') lies in the supported admissible domain.

    True iff the pair is a non-real conjugate pair, or both parameters are
    real non-integers inside a common unit interval (m, m+1); a parameter
    with an infinite or NaN part is inadmissible.  Either branch
    implies (z + n)(z' + n) > 0 for all integers n.  Equal parameters are
    reported as inadmissible: that case is defined only through a limit and
    is outside the supported domain (perturb, e.g. z' = z + 1e-6).
    """
    return _classify(z, z_prime) is not None


@dataclass(frozen=True)
class AdmissiblePair:
    """A validated parameter pair (z, z') for the kernel."""

    z: complex
    z_prime: complex
    branch: Branch = field(init=False, compare=False)

    def __post_init__(self):
        z = complex(self.z)
        z_prime = complex(self.z_prime)
        branch = _classify(z, z_prime)
        if branch is None:
            msg = f"(z, z') = ({z}, {z_prime}) is not an admissible pair"
            if z == z_prime:
                msg += "; equal parameters are unsupported, try z' = z + 1e-6"
            raise DomainError(msg)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "z_prime", z_prime)
        object.__setattr__(self, "branch", branch)


def _site_values(window: Window) -> np.ndarray:
    """The window's x = index + 1/2; DomainError unless each is an exact double, |x| < 2^52."""
    for index in (window.lo.index, window.hi.index):
        if not -2**52 <= index < 2**52:
            raise DomainError(f"site index {index}: x = index + 1/2 is not an exact double, "
                              f"|x| must be below 2^52")
    return np.arange(window.lo.index, window.hi.index + 1) + 0.5


def _ab_arrays(pair: AdmissiblePair, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B at the site values; on the conjugate branch cos and sin of arg A."""
    z, zp = pair.z, pair.z_prime
    if pair.branch is Branch.REAL_INTERVAL:
        # A = sign * sqrt(|Gamma(z + x + 1/2) / Gamma(z' + x + 1/2)|), and B = sign / sqrt(...),
        # site by site.  Where both gammas are normal doubles the ratio is taken as it is:
        # a difference of logs would lose ulp(log Gamma), about 1e-14 at x = 100.
        # Admissibility puts both arguments in one unit interval; rounding moves one at
        # most onto an end, a pole (PoleError) or a positive integer, so the two gammas
        # agree in sign.
        p, q = [], []
        zr, zpr = z.real, zp.real
        for x in values.tolist():
            t = x + 0.5  # gamma arguments are z + x + 1/2
            a, b = zr + t, zpr + t
            try:
                if abs(a) < _GAMMA_RANGE and abs(b) < _GAMMA_RANGE:
                    gamma = math.gamma(a)
                    root = math.sqrt(gamma / math.gamma(b))
                    sign = math.copysign(1.0, gamma)
                else:
                    root = math.exp(0.5 * (math.lgamma(a) - math.lgamma(b)))
                    # Gamma(a) < 0 exactly when a < 0 and floor(a) is odd
                    sign = -1.0 if a < 0.0 and math.floor(a) % 2 else 1.0
            except ValueError:  # raised at the poles only
                both = np.add.outer((zr, zpr), values + 0.5)
                _check_poles(both[both <= 0.0], "gamma")
                raise
            except OverflowError:  # Gamma(a) for |a| below 5.6e-309
                raise NumericalError(f"Gamma overflows a double at site {x}") from None
            p.append(sign * root)
            q.append(sign / root)
        return np.array(p), np.array(q)
    # Conjugate branch: Gamma(z' + x + 1/2) = conj(Gamma(z + x + 1/2)), so
    # A(x) = Gamma/|Gamma| = cos(theta) + i sin(theta) and B = conj(A).
    if abs(z.imag) > _CONJUGATE_IM_CAP:
        raise NumericalError(f"|Im z| = {abs(z.imag):g} exceeds {_CONJUGATE_IM_CAP:g}: "
                             f"the phases of Gamma(z + x + 1/2) have lost their digits")
    theta = log_gamma_complex(z + (values + 0.5)).imag
    return np.cos(theta), np.sin(theta)


def _kernel_block(pair: AdmissiblePair, values: np.ndarray) -> np.ndarray:
    """K(x, y) for x (rows) and y (columns) over the distinct site values ``values``.

    The only path that evaluates K.  Besides the result it allocates one
    array of the block's size.  Both branches scale p_x q_y - q_x p_y, with
    (p, q) from :func:`_ab_arrays`, by one real scale.  On the conjugate
    branch, z = x + iy, A = p + i q and B = conj(A) give A_x B_y - B_x A_y =
    -2i (p_x q_y - q_x p_y), and the prefactor -i (sin^2 pi x + sinh^2 pi y) /
    (pi sinh 2 pi y) is purely imaginary: the scale is 2 Im(prefactor) and the
    diagonal -scale Im psi(z + x + 1/2), in real arithmetic, as complex array
    products may fuse multiply-adds and break the bitwise symmetry K(x, y) = K(y, x).
    """
    z, zp = pair.z, pair.z_prime
    p, q = _ab_arrays(pair, values)
    arg = values + 0.5
    if pair.branch is Branch.REAL_INTERVAL:
        prefactor = sinpi(z.real) * sinpi(zp.real) / (math.pi * sinpi(z.real - zp.real))
        psi_p, psi_q = digamma(np.add.outer((z.real, zp.real), arg))
        diagonal = prefactor * (psi_p - psi_q)
        scale = prefactor
    else:
        a = math.pi * abs(z.imag)
        s = sinpi(z.real)
        # -sgn(y) (sin^2 pi x / (sinh a cosh a) + tanh a) / pi, a = pi |y|, with no overflow
        inverse = 4.0 * math.exp(-2.0 * a) / -math.expm1(-4.0 * a)  # 1 / (sinh a cosh a)
        scale = -math.copysign((s * s * inverse + math.tanh(a)) / math.pi, z.imag)
        diagonal = -scale * digamma(z + arg).imag
    out = np.multiply.outer(p, q)
    scratch = np.multiply.outer(q, p)
    out -= scratch
    out *= scale
    denominator = np.subtract.outer(values, values, out=scratch)
    np.fill_diagonal(denominator, 1.0)
    out /= denominator
    np.fill_diagonal(out, diagonal)
    return out


def ab_values(pair: AdmissiblePair, x: Site) -> tuple:
    """The pair (A(x), B(x)).

    Real floats on the RealInterval branch; on the ConjugatePair branch a
    unit-modulus complex pair with B = conj(A).  A(x) * B(x) = 1 in both
    cases.
    """
    p, q = _ab_arrays(pair, _site_values(Window(x, x)))
    if pair.branch is Branch.REAL_INTERVAL:
        return float(p[0]), float(q[0])
    a = complex(p[0], q[0])
    return a, a.conjugate()


def kernel_entry(pair: AdmissiblePair, x: Site, y: Site) -> float:
    """K(x, y) off the block over x and y; the digamma diagonal formula is used when x = y."""
    values = np.unique(np.concatenate([_site_values(Window(s, s)) for s in (x, y)]))
    return float(_kernel_block(pair, values)[0, -1])


class KernelMatrix:
    """Dense symmetric restriction of the kernel to a window.

    Immutable after construction (the entry array is marked read-only).
    Construction checks that the entries are finite, symmetry to 1e-12 and
    the diagonal against [0, 1]; :meth:`validate` checks the eigenvalues, which
    are computed once, in O(n^3), with no eigenvector: nothing samples spectrally.
    """

    def __init__(self, window: Window, entries: np.ndarray):
        given = np.asarray(entries, dtype=float)
        n = window.size
        if given.shape != (n, n):
            raise ValueError(f"entries shape {given.shape} != window size {n}")
        if not np.isfinite(given).all():
            raise NumericalError("kernel matrix has non-finite entries")
        # Checked before the private copy is made, by blocks of 128 rows against
        # the matching columns: a whole transpose strides a row per element.
        b = 128
        asym = float(max(np.abs(given[s:s + b, s:] - given[s:, s:s + b].T).max()
                         for s in range(0, n, b)))
        if asym > 1e-12:
            raise NumericalError(f"kernel matrix asymmetry {asym:g} exceeds 1e-12")
        diag = np.diagonal(given)
        if diag.min() < -1e-12 or diag.max() > 1.0 + 1e-12:
            raise NumericalError("kernel diagonal outside [0, 1]")
        entries = given.copy()
        entries.setflags(write=False)
        self.window = window
        self.entries = entries

    @property
    def size(self) -> int:
        return self.window.size

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def entry(self, x: Site, y: Site) -> float:
        return float(self.entries[self.window.position(x), self.window.position(y)])

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues, ascending and read-only; no eigenvectors are formed."""
        evals = np.linalg.eigvalsh(self.entries)
        evals.setflags(write=False)
        return evals

    def validate(self) -> None:
        """Full invariant check; raises NumericalError on violation."""
        evals = self.eigenvalues
        if evals[0] < -1e-9 or evals[-1] > 1.0 + 1e-9:
            raise NumericalError(
                f"eigenvalues [{evals[0]:g}, {evals[-1]:g}] outside [-1e-9, 1+1e-9]"
            )

    def __repr__(self) -> str:
        return f"KernelMatrix(window={self.window}, size={self.size})"


def kernel_matrix(pair: AdmissiblePair, window: Window) -> KernelMatrix:
    """The window restriction K_W, entry-identical to kernel_entry calls.

    The whole window is one :func:`_kernel_block`.  It is exactly symmetric
    because swapping x and y negates both the A/B combination and (x - y).
    """
    if window.size > MAX_WINDOW_SITES:
        raise SizeError(f"window of {window.size} sites exceeds cap {MAX_WINDOW_SITES}")
    return KernelMatrix(window, _kernel_block(pair, _site_values(window)))


def difference_operator_matrix(pair: AdmissiblePair, window: Window) -> np.ndarray:
    """Truncation of the second-order difference operator to a window.

    Symmetric tridiagonal: diagonal -(2x + z + z'), off-diagonal
    sqrt((z + x + 1/2)(z' + x + 1/2)) coupling x to x + 1.  Sites outside the
    window are dropped (zero Dirichlet boundary).
    """
    z, zp = pair.z, pair.z_prime
    values = _site_values(window)
    t = values[:-1] + 0.5
    # Admissibility makes (z + t)(z' + t) = |z + t| |z' + t| > 0 on both branches
    coupling = np.sqrt(np.abs(z + t)) * np.sqrt(np.abs(zp + t))
    return np.diag(-(2.0 * values + (z + zp).real)) + np.diag(coupling, 1) + np.diag(coupling, -1)


@dataclass(frozen=True)
class ProjectionReport:
    """Interior comparison of K against the truncated-operator projection."""

    window: Window
    margin: int
    core: Window
    max_abs_deviation: float
    commutator_norm: float


def spectral_projection_check(pair: AdmissiblePair, window: Window, margin: int) -> ProjectionReport:
    """Compare K with the positive-spectrum projection of the truncated operator.

    Diagonalizes the window truncation of the difference operator, builds the
    projection P onto its positive eigenspaces, and reports, over the window
    shrunk by `margin` sites on each side,

    * ``max_abs_deviation`` = max |P(x, y) - K(x, y)|,
    * ``commutator_norm``   = max |(K D - D K)(x, y)|.

    Both shrink as the window grows around a fixed core; the truncation is
    exact only in the infinite-volume limit, so the values are empirical
    diagnostics, not certified bounds.
    """
    if margin < 0:
        raise SizeError("margin must be nonnegative")
    if window.size - 2 * margin < 1:
        raise SizeError(f"margin {margin} leaves no interior in window {window}")
    d_op = difference_operator_matrix(pair, window)
    evals, evecs = np.linalg.eigh(d_op)
    positive = evecs[:, evals > 0.0]
    projection = positive @ positive.T
    k_mat = kernel_matrix(pair, window).entries
    core_slice = slice(margin, window.size - margin)
    deviation = float(np.abs(projection - k_mat)[core_slice, core_slice].max())
    commutator = k_mat @ d_op - d_op @ k_mat
    commutator_norm = float(np.abs(commutator)[core_slice, core_slice].max())
    core = Window.from_indices(window.lo.index + margin, window.hi.index - margin)
    return ProjectionReport(window, margin, core, deviation, commutator_norm)


def _kernel_lines(sites: tuple[Site, ...], entries: np.ndarray,
                  unmirrored: dict[int, list[tuple[int, str]]]):
    """The data lines of :func:`write_kernel_csv`, made one row at a time."""
    n = len(sites)
    fields = ",%.17g" * n  # fields[6 * j:] formats the n - j entries of row j from the diagonal
    pending = [[] for _ in range(n)]  # per column i: texts of K(i, j), j < i, one piece per block
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(r0 + _MIRROR_ROWS, n)
        uppers, texts = [], []
        for j in range(r0, r1):
            upper = fields[6 * j:] % tuple(entries[j, j:].tolist())
            mirror = upper.split(",")  # mirror[1 + i - j] becomes the text of K(i, j)
            for i, text in unmirrored.get(j, ()):
                mirror[1 + i - j] = text
            uppers.append(upper)
            texts.append(mirror)
        later = zip(*(mirror[1 + r1 - j:] for j, mirror in enumerate(texts, r0)))
        for column, piece in zip(pending[r1:], map(",".join, later)):
            column.append(piece)
        for i in range(r0, r1):
            within = [texts[j - r0][1 + i - j] for j in range(r0, i)]
            yield ",".join([str(sites[i]), *pending[i], *within]) + uppers[i - r0]
            pending[i] = None


def write_kernel_csv(k: KernelMatrix, path) -> None:
    r"""Export a kernel matrix as CSV: header ``x\y,<sites>``, %.17g entries.

    Each entry on or above the diagonal is formatted once.  Its mirror below
    the diagonal reuses that text when the two are bitwise equal, as they are
    in every :func:`kernel_matrix`; a mirror that differs (a hand-built
    KernelMatrix may be asymmetric by up to 1e-12, or hold -0.0 against 0.0)
    is formatted on its own.  Rows are formatted 32 at a time, and the texts
    they lend to later rows are joined into one piece per column; a column's
    pieces are dropped once its row is written.  Lines go to
    :func:`~kawasaki_dpp.util.write_csv` as they are made, which writes them
    in bounded chunks, so the file is never held whole.  The pieces peak at
    about n^2/4 texts: at the 4096-site cap the writer adds 115-128 MiB to
    the process's RSS and takes 5.0-6.2 s (1 BLAS thread, 2-vCPU Xeon).
    """
    sites = k.window.sites
    entries = k.entries
    bits = entries.view(np.int64)
    unmirrored: dict[int, list[tuple[int, str]]] = {}  # row j -> (i, text of K(i, j)), i > j
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(bits != bits.T))):
        if i > j:
            unmirrored.setdefault(j, []).append((i, format_float(float(entries[i, j]))))
    write_csv(path, "x\\y," + ",".join(str(s) for s in sites),
              _kernel_lines(sites, entries, unmirrored))
