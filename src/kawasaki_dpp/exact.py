"""Exact finite-state analysis of the swap dynamics.

On a small window the full jump process is a finite continuous-time Markov
chain, so everything can be checked against linear algebra: the generator
matrix Q (off-diagonal 2c per unordered swap, zero row sums), reversibility
of the window law, the quadratic-form identity between the Dirichlet form
and the generator, and the spectrum of the symmetrized generator.

Swap dynamics conserves particle number, so the chain is reducible across
particle-count sectors; sectored builds restrict the state list to one count
(states ordered by ascending bitmask, the combinadic order) and renormalize
the measure within the sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dpp import Configuration, _live, _occupancy, _probabilities, _sector_masks
from .dynamics import RateModel, _pair_table, _state_edges, candidate_pairs, rate_from_ratio
from .errors import DimensionMismatchError, NotReversibleError, NumericalError, SizeError
from .kernel import KernelMatrix
from .rn import SwapPair

__all__ = [
    "GeneratorMatrix",
    "SpectrumResult",
    "sector_masks",
    "build_generator",
    "check_reversibility",
    "dirichlet_form",
    "spectrum",
    "transition_matrix",
    "MAX_GENERATOR_STATES",
]

MAX_GENERATOR_STATES = 4096

_REVERSIBILITY_GATE = 1e-8
# Largest |row sum - 1| transition_matrix returns; its callers check the same 1e-9.
_ROW_SUM_TOLERANCE = 1e-9

# Coefficients b_0 .. b_13 of the degree-13 Pade approximant to exp, divided by
# b_0 so that V = I + ... and exp(0) comes out as the identity exactly, and the
# 1-norm up to which the approximant is exact to double precision (Higham
# 2005, table 2.3).  _PADE13_SUMS weights A^2, A^4 and A^6 in the four sums
# that make U and V.
_B = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_PADE13_SUMS = np.array([[_B[9], _B[11], _B[13]], [_B[3], _B[5], _B[7]],
                         [_B[8], _B[10], _B[12]], [_B[2], _B[4], _B[6]]])
_THETA13 = 5.371920351148152


def sector_masks(n_sites: int, count: int) -> list[int]:
    """Bitmasks with the given particle count, ascending (combinadic order)."""
    return _sector_masks(n_sites, count).tolist()


@dataclass
class GeneratorMatrix:
    """Generator of the swap chain on an ordered state list.

    ``Q[i, j]`` is the rate from state i to state j (2c per unordered swap),
    diagonals make rows sum to zero, and ``measure`` is the window law
    restricted to the state list and renormalized.
    """

    model: RateModel
    kernel: KernelMatrix
    sector: int | None
    states: np.ndarray
    Q: np.ndarray
    measure: np.ndarray
    pairs: tuple[SwapPair, ...]

    @property
    def window(self):
        return self.kernel.window

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, mask: int) -> int:
        """Row of the state `mask`, by binary search of the ascending states; KeyError if absent."""
        i = int(np.searchsorted(self.states, mask))
        if i == len(self.states) or self.states[i] != mask:
            raise KeyError(mask)
        return i

    def configuration(self, i: int) -> Configuration:
        return Configuration.from_bitmask(self.window, int(self.states[i]))


def build_generator(
    model: RateModel, k: KernelMatrix, sector: int | None = None
) -> GeneratorMatrix:
    """Assemble Q and the (sector-)normalized measure for a window chain.

    The state list, 2^n states or C(n, sector), is capped at
    :data:`MAX_GENERATOR_STATES`: past it SizeError names the count before any
    state is listed.  The state probabilities come from one batched
    determinant, and each swap's rate is read off its two states' ratio, the
    source state checked by :func:`dpp._live`.  Rates are taken with overflow
    warnings off; NumericalError names the first state whose total rate is not
    finite.
    """
    n = k.size
    n_states = 1 << n if sector is None else math.comb(n, sector) if 0 <= sector <= n else 0
    if n_states > MAX_GENERATOR_STATES:
        raise SizeError(f"generator capped at {MAX_GENERATOR_STATES} states, got {n_states}")
    states = np.arange(1 << n, dtype=np.int64) if sector is None else _sector_masks(n, sector)
    occupied = _occupancy(states, n)
    weights = _probabilities(k, occupied)
    total = weights.sum()
    if total <= 0.0:
        raise NumericalError("state list carries zero probability")
    measure = weights / total
    positions, u = _pair_table(k.window, model.proximity)
    src, dst, pair = _state_edges(states, occupied, positions)
    phi = weights[dst] / _live(k, occupied[src], weights[src])
    q = np.zeros((len(states), len(states)))
    with np.errstate(over="ignore"):
        q[src, dst] = 2.0 * rate_from_ratio(model.kind, u[pair], phi)
        total = q.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(total))
    if len(bad):
        config = Configuration.from_bitmask(k.window, int(states[bad[0]]))
        raise NumericalError(f"configuration {config} has total jump rate {total[bad[0]]:g}")
    np.fill_diagonal(q, -total)
    return GeneratorMatrix(model, k, sector, states, q, measure,
                           candidate_pairs(k.window, model.proximity))


def check_reversibility(g: GeneratorMatrix) -> float:
    """Max relative detailed-balance residual over ordered state pairs.

    residual = |mu_i Q_ij - mu_j Q_ji| / max(flux_ij, flux_ji, 1e-300).  It is 0
    where Q_ij and Q_ji are both 0, so only Q's off-diagonal nonzeros are visited.
    """
    src, dst = np.nonzero(g.Q)
    off = src != dst
    src, dst = src[off], dst[off]
    flux = g.measure[src] * g.Q[src, dst]
    back = g.measure[dst] * g.Q[dst, src]
    denominator = np.maximum(np.maximum(flux, back), 1e-300)
    return float((np.abs(flux - back) / denominator).max(initial=0.0))


def dirichlet_form(g: GeneratorMatrix, f: np.ndarray, h: np.ndarray) -> float:
    """The quadratic energy form, evaluated directly from the rates.

    (1/2) sum_eta mu(eta) sum_{ordered (x,y)} c(eta,x,y) (grad F)(grad H);
    the 1/2 cancels against counting each unordered pair once.  Rates are
    recomputed from the model on the swap edges, with each ratio read off
    the measure (not off Q), so the generator identity test compares two
    independent evaluations.
    """
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    if f.shape != (g.n_states,) or h.shape != (g.n_states,):
        raise DimensionMismatchError(
            f"vectors must have shape ({g.n_states},), got {f.shape} and {h.shape}"
        )
    positions, u = _pair_table(g.window, g.model.proximity)
    src, dst, pair = _state_edges(g.states, _occupancy(g.states, g.window.size), positions)
    mu = g.measure
    live = mu[src] > 0.0
    src, dst, pair = src[live], dst[live], pair[live]
    c = rate_from_ratio(g.model.kind, u[pair], mu[dst] / mu[src])
    return float(np.sum(mu[src] * c * (f[dst] - f[src]) * (h[dst] - h[src])))


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of the symmetrized generator (descending; top value ~ 0)."""

    eigenvalues: np.ndarray
    spectral_gap: float


def spectrum(g: GeneratorMatrix) -> SpectrumResult:
    """Eigenvalues of D^{1/2} Q D^{-1/2} with D = diag(measure).

    Requires the reversibility residual below 1e-8 (the similarity transform
    symmetrizes Q only for reversible chains).  All eigenvalues are <= 0 up
    to floating error, the top one is 0, and the spectral gap is minus the
    second-largest.
    """
    residual = check_reversibility(g)
    if not residual < _REVERSIBILITY_GATE:  # NaN fails too
        raise NotReversibleError(
            f"reversibility residual {residual:g} >= {_REVERSIBILITY_GATE:g}"
        )
    if g.measure.min() <= 0.0:
        raise NumericalError("measure must be strictly positive to symmetrize")
    root = np.sqrt(g.measure)
    symmetrized = root[:, np.newaxis] * g.Q
    symmetrized /= root
    symmetrized += symmetrized.T
    symmetrized *= 0.5
    ascending = np.linalg.eigvalsh(symmetrized)
    descending = ascending[::-1].copy()
    descending.setflags(write=False)
    gap = -float(descending[1]) if len(descending) > 1 else 0.0
    return SpectrumResult(descending, gap)


def _expm(q: np.ndarray, t: float) -> np.ndarray:
    """exp(t q) by Pade-13 scaling and squaring.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005): a = t q is scaled by
    2^-s so that its 1-norm is at most theta_13, the [13/13] Pade approximant
    r = (V - U)^-1 (V + U) is formed, and r is squared s times.  Scaling by a
    power of two is exact, so t = 0 gives the identity exactly.  NumericalError
    if t q has no finite 1-norm.

    At most 8 n x n arrays are live besides q: a, scaled in place, the
    (3, n, n) powers A^2, A^4, A^6 and the (4, n, n) sums W1, W2, Z1, Z2.
    Later products go to dead slots (A^6 W1 to A^2's, U to A^4's, V to W1's,
    V - U and V + U to Z1's and Z2's), and a and the powers are dropped before
    the solve, which holds the sums and LAPACK's two copies.
    """
    n = len(q)
    with np.errstate(over="ignore"):
        a = t * q
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise NumericalError(f"t * Q has 1-norm {norm:g}, not finite")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    np.ldexp(a, -s, out=a)
    powers = np.empty((3, n, n))  # A^2, A^4, A^6
    np.matmul(a, a, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    # b13 A6 + b11 A4 + b9 A2, then the b7, b12 and b6 sums, in one product
    sums = (_PADE13_SUMS @ powers.reshape(3, -1)).reshape(4, n, n)
    w1, w2, z1, z2 = sums
    w2.flat[::n + 1] += _B[1]
    z2.flat[::n + 1] += _B[0]
    w2 += np.matmul(powers[2], w1, out=powers[0])
    u = np.matmul(a, w2, out=powers[1])
    v = np.matmul(powers[2], z1, out=w1)
    v += z2
    np.subtract(v, u, out=z1)
    np.add(v, u, out=z2)
    del a, powers, u, v, w1, w2
    r = np.linalg.solve(z1, z2)
    del sums, z1, z2
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the result
        for _ in range(s):
            r = r @ r
    return r


def transition_matrix(g: GeneratorMatrix, t: float) -> np.ndarray:
    """exp(t Q): the time-t Markov transition kernel of the chain, by Pade-13 (:func:`_expm`).

    It is taken of Q itself: exp of the symmetrized generator, conjugated
    back, loses up to 8e-3 where the measure spans many decades.  It holds at
    most 8 n x n arrays besides Q (see :func:`_expm`).  NumericalError if t Q
    is not finite, or if a row sum of the result is off from 1 by more than
    1e-9: the squarings lose accuracy as t grows (on a 20-state sector the
    error is 5e-13 at t = 1e3, 4.5e-6 at t = 1e10, and the rows vanish or
    overflow beyond t = 1e20), while t <= 50 stays within 7e-12.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    p_t = _expm(g.Q, t)
    with np.errstate(invalid="ignore"):  # inf - inf in an overflowed row
        error = float(np.abs(p_t.sum(axis=1) - 1.0).max(initial=0.0))
    if not error <= _ROW_SUM_TOLERANCE:  # NaN fails too
        raise NumericalError(f"exp(t Q) at t = {t:g} has a row sum off from 1 by {error:g}, "
                             f"above {_ROW_SUM_TOLERANCE:g}")
    return p_t
