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

B(x) the same with z and z' exchanged (on the conjugate branch, B = conj(A)
with |A| = 1).  No gamma value is taken: K depends on A and B only through
the ratios of neighbouring sites, A(x + 1) / A(x) = sgn(a) sqrt(a / b) with
a = z + x + 1/2 and b = z' + x + 1/2, and through psi(a) - psi(b), which
moves by -(z - z') / (ab) per site; each window takes one anchor series
(:mod:`kawasaki_dpp.specfun`), and ``ab_values`` one series at its site.
Nothing is cached between calls.  A 4096-site window (the cap) builds in
0.31-0.45 s at a peak RSS of 293 MiB (2-vCPU Xeon, numpy 2.4), and a larger
one is refused before any work.  The kernel admits every conjugate pair but
one with a subnormal Im z; ``ab_values`` caps |Im z| at 1e3.

The same kernel is, equivalently, the spectral projection onto the positive
part of the spectrum of a second-order symmetric difference operator;
:func:`spectral_projection_check` probes that characterization numerically
on truncated windows.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, SizeError, WindowMismatchError
from .specfun import digamma_difference, log_gamma_difference, sinpi
from .util import write_csv

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
# Largest |Im z| of a conjugate pair in ab_values, which takes the phase Im log Gamma(z + x + 1/2)
# at its site: it grows like |Im z| log |Im z| and keeps its ulp, 1.7e-12 off at 1e3.  The
# kernel takes only phase steps, each below pi, and admits every conjugate pair.
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


def _exact(index: int) -> int:
    """The index; DomainError unless x = index + 1/2 is an exact double, |x| < 2^52."""
    if not -2**52 <= index < 2**52:
        raise DomainError(f"site index {index}: x = index + 1/2 is not an exact double, "
                          f"|x| must be below 2^52")
    return index


def _site_values(window: Window) -> np.ndarray:
    """The window's x = index + 1/2, exact doubles (:func:`_exact`); SizeError past the cap."""
    if window.size > MAX_WINDOW_SITES:
        raise SizeError(f"window of {window.size} sites exceeds cap {MAX_WINDOW_SITES}")
    return np.arange(_exact(window.lo.index), _exact(window.hi.index) + 1) + 0.5


def _kernel_arrays(pair: AdmissiblePair, values: np.ndarray) -> tuple:
    """(p, q, diagonal, scale) over contiguous site values, in O(n).

    K(x, y) = scale (p_x q_y - q_x p_y) / (x - y).  With a = z + x + 1/2,
    b = z' + x + 1/2 and d = z - z' from the parameters, neighbours differ by a
    step log(a / b) (log1p(d / b) where |d / b| <= 1/2) on the real branch, and
    by arg(a) on the conjugate one, taken as arg(-a) and a flip of sign where
    Re a < 0.  S sums the steps, 0 at the middle site; sigma = (-1)^(flips).
    Real: p, q = sigma sinh(S / 2), sigma cosh(S / 2), p_x q_y - q_x p_y = sigma
    sigma sinh((S_x - S_y) / 2) is half of A_x B_y - B_x A_y, and the scale is
    twice the prefactor.  Conjugate: p + i q = sigma e^(iS) is A up to one
    phase, A_x B_y - B_x A_y = -2i (p_x q_y - q_x p_y), and the scale is
    2 Im(prefactor), the prefactor -i (sin^2 pi x + sinh^2 pi y) /
    (pi sinh 2 pi y) being imaginary (z = x + iy).  The diagonal is scale / 2
    times psi(a) - psi(b) (or -2 Im psi(a)): one series at the first site, then
    -d / (ab) (or -2 Im(1 / a)) per site.  NumericalError, before the diagonal,
    unless the prefactor is a finite normal double (not so for a real parameter
    within about 1e-308 of an integer, or a subnormal Im z) and, on the real
    branch, |S / 2| <= 354, where cosh^2 stays finite, or, on the conjugate one,
    |a|^2 is a normal double at every site (not so for |Im z| below about 1e-154
    where Re a = 0), so the step 2 Im a / |a|^2 stays finite.
    """
    z, zp = pair.z, pair.z_prime
    t = values + 0.5  # a = z + t, b = z' + t
    real = pair.branch is Branch.REAL_INTERVAL
    if real:
        z, zp = z.real, zp.real
        a, b = z + t, zp + t
        u = (z - zp) / b
        step = np.log(np.abs(a)) - np.log(np.abs(b))
        np.log1p(u, out=step, where=np.abs(u) <= 0.5)
        flip = a < 0.0
        scale = 2.0 * sinpi(z) * sinpi(zp) / (math.pi * sinpi(z - zp))
    else:
        x, y = z.real + t, z.imag
        norm = x * x + y * y  # |a|^2
        flip = x < 0.0
        step = np.arctan2(np.where(flip, -y, y), np.abs(x))
        c, s = math.pi * abs(y), sinpi(z.real)
        # -sgn(y) (sin^2 pi Re z / (sinh c cosh c) + tanh c) / pi, c = pi |y|, with no overflow
        inverse = 4.0 * math.exp(-2.0 * c) / -math.expm1(-4.0 * c)  # 1 / (sinh c cosh c)
        scale = -math.copysign((s * s * inverse + math.tanh(c)) / math.pi, y)
    total = np.cumsum(np.append(0.0, step[:-1]))
    total -= total[len(total) // 2]
    h = 0.5 * total
    if not (2.0 * sys.float_info.min <= abs(scale) < math.inf
            and (np.abs(h).max() <= 354.0 if real else norm.min() >= sys.float_info.min)):
        raise NumericalError(f"kernel entries leave the normal doubles between sites "
                             f"{values[0]:g} and {values[-1]:g}")
    sign = np.where(np.cumsum(np.append(False, flip[:-1])) % 2, -1.0, 1.0)
    if not real:
        psi = np.append(-digamma_difference(z, zp, int(t[0])).imag, (2.0 * y / norm)[:-1])
        return sign * np.cos(total), sign * np.sin(total), 0.5 * scale * np.cumsum(psi), scale
    psi = np.append(digamma_difference(z, zp, int(t[0])), -(u / a)[:-1])
    return sign * np.sinh(h), sign * np.cosh(h), 0.5 * scale * np.cumsum(psi), scale


def _kernel_block(pair: AdmissiblePair, values: np.ndarray) -> np.ndarray:
    """K(x, y) for x (rows) and y (columns) over contiguous site values.

    The only path that evaluates K as a block; besides the result it allocates
    one array of the block's size.  It is real arithmetic throughout, as complex
    array products may fuse multiply-adds and break the bitwise symmetry.
    """
    p, q, diagonal, scale = _kernel_arrays(pair, values)
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
    """The pair (A(x), B(x)), from one series at x, with A(x) * B(x) = 1.

    Real floats on the RealInterval branch; on the ConjugatePair branch a
    unit-modulus complex pair with B = conj(A).
    """
    t = _exact(x.index) + 1  # gamma arguments are z + x + 1/2
    z, zp = pair.z, pair.z_prime
    if pair.branch is Branch.REAL_INTERVAL:
        half = 0.5 * log_gamma_difference(z.real, zp.real, t)
        # Gamma(a) < 0 exactly when floor(a) = floor(z) + t is negative and odd
        floor = math.floor(z.real) + t
        sign = -1.0 if floor < 0 and floor % 2 else 1.0
        return sign * math.exp(half), sign * math.exp(-half)
    if abs(z.imag) > _CONJUGATE_IM_CAP:
        raise NumericalError(f"|Im z| = {abs(z.imag):g} exceeds {_CONJUGATE_IM_CAP:g}: "
                             f"the phases of Gamma(z + x + 1/2) have lost their digits")
    theta = log_gamma_difference(z, zp, t)
    a = complex(math.cos(theta), math.sin(theta))
    return a, a.conjugate()


def kernel_entry(pair: AdmissiblePair, x: Site, y: Site) -> float:
    """K(x, y), the corner entry of the O(n) pass over ``Window(min, max)``.

    It costs O(|x - y|), forms no n^2 block, and is bitwise :func:`kernel_matrix`'s
    entry on that window (0.0 for -0.0) and within 5e-14 of max|K| of any enclosing window's.
    A gap of more than MAX_WINDOW_SITES sites raises SizeError.
    """
    window = Window(min(x, y), max(x, y))
    values = _site_values(window)
    p, q, diagonal, scale = _kernel_arrays(pair, values)
    if x == y:
        return float(diagonal[0] + 0.0)
    i, j = (0, -1) if x < y else (-1, 0)
    return float((p[i] * q[j] - q[i] * p[j]) * scale / (values[i] - values[j]) + 0.0)


class KernelMatrix:
    """Dense symmetric restriction of the kernel to a window.

    Immutable after construction (the entry array is marked read-only).
    Construction checks that the entries are finite, symmetry to 1e-12 and
    the diagonal against [0, 1]; :meth:`validate` checks the eigenvalues, which
    are computed once, in O(n^3), with no eigenvector: nothing samples spectrally.
    The entries equal their transpose bit for bit: an input symmetric in value (every
    :func:`kernel_matrix`) is stored plus 0.0, which turns -0.0 into 0.0 and changes
    nothing else, and any other keeps its upper triangle, mirrored below the diagonal.
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
        entries = given + 0.0 if asym == 0.0 else np.triu(given) + np.triu(given, 1).T
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
    """The window restriction K_W, one :func:`_kernel_block`.

    Symmetric in value, as swapping x and y negates both the A/B combination and
    (x - y); an exact zero and its mirror may differ in sign until KernelMatrix adds 0.0.
    """
    return KernelMatrix(window, _kernel_block(pair, _site_values(window)))


def difference_operator_matrix(pair: AdmissiblePair, window: Window) -> np.ndarray:
    """Truncation of the second-order difference operator to a window.

    Symmetric tridiagonal: diagonal -(2x + z + z'), off-diagonal
    sqrt((z + x + 1/2)(z' + x + 1/2)) coupling x to x + 1.  Sites outside the
    window are dropped (zero Dirichlet boundary); the window is capped as K's.
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


def _kernel_lines(sites: tuple[Site, ...], entries: np.ndarray):
    """The data lines of :func:`write_kernel_csv`, made one row at a time."""
    n = len(sites)
    fields = ",%.17g" * n  # fields[6 * j:] formats the n - j entries of row j from the diagonal
    pending = [[] for _ in range(n)]  # per column i: texts of K(i, j), j < i, one piece per block
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(r0 + _MIRROR_ROWS, n)
        uppers = [fields[6 * j:] % tuple(entries[j, j:].tolist()) for j in range(r0, r1)]
        texts = [upper.split(",") for upper in uppers]  # texts[j - r0][1 + i - j]: K(i, j)
        later = zip(*(mirror[1 + r1 - j:] for j, mirror in enumerate(texts, r0)))
        for column, piece in zip(pending[r1:], map(",".join, later)):
            column.append(piece)
        for i in range(r0, r1):
            within = [texts[j - r0][1 + i - j] for j in range(r0, i)]
            yield ",".join([str(sites[i]), *pending[i], *within]) + uppers[i - r0]
            pending[i] = None


def write_kernel_csv(k: KernelMatrix, path) -> None:
    r"""Export a kernel matrix as CSV: header ``x\y,<sites>``, %.17g entries.

    Each entry on or above the diagonal is formatted once, and its mirror
    below the diagonal reuses that text: a :class:`KernelMatrix` is bitwise
    symmetric.  Rows are formatted 32 at a time, and the texts they lend to
    later rows are joined into one piece per column; a column's pieces are
    dropped once its row is written.  Lines go to
    :func:`~kawasaki_dpp.util.write_csv` as they are made, which writes them
    in bounded chunks, so the file is never held whole.  The pieces peak at
    about n^2/4 texts: at the 4096-site cap the writer adds 115-128 MiB to
    the process's RSS and takes 5.0-6.2 s (1 BLAS thread, 2-vCPU Xeon).
    """
    sites = k.window.sites
    write_csv(path, "x\\y," + ",".join(str(s) for s in sites), _kernel_lines(sites, k.entries))
