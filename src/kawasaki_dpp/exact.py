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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dpp import Configuration, _occupancy, _probabilities, _sector_masks, _swap_ratios
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
    "MAX_FULL_SPACE_SITES",
    "MAX_SECTOR_SITES",
]

MAX_FULL_SPACE_SITES = 14
MAX_SECTOR_SITES = 18

_REVERSIBILITY_GATE = 1e-8


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

    The state probabilities come from one batched determinant, and each
    swap's rate is read off its two states' ratio, from :func:`dpp._swap_ratios`.
    """
    n = k.size
    if sector is None:
        if n > MAX_FULL_SPACE_SITES:
            raise SizeError(f"full state space capped at {MAX_FULL_SPACE_SITES} sites, got {n}")
        states = np.arange(1 << n, dtype=np.int64)
    else:
        if n > MAX_SECTOR_SITES:
            raise SizeError(f"sectored build capped at {MAX_SECTOR_SITES} sites, got {n}")
        states = _sector_masks(n, sector)
    occupied = _occupancy(states, n)
    weights = _probabilities(k, occupied)
    total = weights.sum()
    if total <= 0.0:
        raise NumericalError("state list carries zero probability")
    measure = weights / total
    positions, u = _pair_table(k.window, model.proximity)
    src, dst, pair = _state_edges(states, occupied, positions, u)
    _, phi = _swap_ratios(k, occupied[src], weights[src], weights[dst])
    q = np.zeros((len(states), len(states)))
    q[src, dst] = 2.0 * rate_from_ratio(model.kind, u[pair], phi)
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(model, k, sector, states, q, measure,
                           candidate_pairs(k.window, model.proximity))


def check_reversibility(g: GeneratorMatrix) -> float:
    """Max relative detailed-balance residual over ordered state pairs.

    residual = |mu_i Q_ij - mu_j Q_ji| / max(flux_ij, flux_ji, 1e-300).
    """
    flux = g.measure[:, np.newaxis] * g.Q
    numerator = np.abs(flux - flux.T)
    np.fill_diagonal(numerator, 0.0)
    denominator = np.maximum(np.maximum(flux, flux.T), 1e-300)
    return float((numerator / denominator).max())


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
    src, dst, pair = _state_edges(g.states, _occupancy(g.states, g.window.size), positions, u)
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
    if residual >= _REVERSIBILITY_GATE:
        raise NotReversibleError(
            f"reversibility residual {residual:g} >= {_REVERSIBILITY_GATE:g}"
        )
    if g.measure.min() <= 0.0:
        raise NumericalError("measure must be strictly positive to symmetrize")
    root = np.sqrt(g.measure)
    symmetrized = (root[:, np.newaxis] * g.Q) / root[np.newaxis, :]
    symmetrized = 0.5 * (symmetrized + symmetrized.T)
    ascending = np.linalg.eigvalsh(symmetrized)
    descending = ascending[::-1].copy()
    descending.setflags(write=False)
    gap = -float(descending[1]) if len(descending) > 1 else 0.0
    return SpectrumResult(descending, gap)


def transition_matrix(g: GeneratorMatrix, t: float) -> np.ndarray:
    """exp(t Q): the time-t Markov transition kernel of the chain."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return scipy.linalg.expm(t * g.Q)
