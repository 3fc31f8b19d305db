"""Finite-window determinantal point process machinery.

A window occupancy is determinantal with kernel matrix K: the probability of
seeing exactly the configuration eta is the determinant of the matrix whose
column at an occupied site is the corresponding column of K and at an empty
site the column of I - K.  Correlation functions (inclusion probabilities)
are principal minors of K.

The module provides exact configuration probabilities, correlation minors,
exhaustive enumeration of the full law on small windows, and an exact
sequential Schur-complement sampler (Poulson, arXiv:1905.00165; Launay,
Galerne and Desolneux, arXiv:1802.08429): no eigendecomposition, batched
draws, and exact conditioning on a local pattern by forcing its sites first.
On windows of up to 12 sites, unconditioned draws are by inverse CDF
(Devroye, Non-Uniform Random Variate Generation, 1986, ch. III) over the
full law, built once per kernel from the enumeration's determinants
(:class:`_LawTable`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateSiteError,
    EmptyInputError,
    NumericalError,
    SizeError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from .kernel import KernelMatrix, Site, Window
from .rng import SeededRng
from .util import write_csv

__all__ = [
    "Configuration",
    "Pmf",
    "config_probability",
    "correlation",
    "enumerate_distribution",
    "sample",
    "sample_many",
    "empirical_correlation",
    "clamp_counter",
    "write_pmf_csv",
    "write_samples_csv",
    "MAX_ENUMERATION_SITES",
]

MAX_ENUMERATION_SITES = 20

# Determinants in [-1e-12, 0) are floating noise around an exact zero and are
# clamped; anything more negative is treated as a genuine failure.
_CLAMP_FLOOR = -1e-12

# Each (n, n, B) stack, of determinants or of sampling chunks, holds about
# this many matrix entries.
_STACK_ENTRIES = 1 << 20
# Rounding may take a conditional probability p up to 1e-8 outside [0, 1]:
# p is valid when |p - 0.5| is at most this.
_HALF_WIDTH = 0.5 + 1e-8
# Configurations and patterns less likely than this count as impossible.
_PROBABILITY_FLOOR = 1e-300


class _ClampCounter:
    """Counts tiny negative determinants clamped to zero (reported by verify)."""

    def __init__(self):
        self.count = 0

    def reset(self) -> None:
        self.count = 0


clamp_counter = _ClampCounter()


@dataclass(frozen=True)
class Configuration:
    """A 0/1 occupancy per window site.

    Position i corresponds to the site at window.lo + i, and contributes bit
    ``1 << i`` to :attr:`bitmask`; the string form lists positions left to
    right from the lowest site.
    """

    window: Window
    occupancy: tuple[int, ...]

    def __post_init__(self):
        if len(self.occupancy) != self.window.size:
            raise ValueError(
                f"occupancy length {len(self.occupancy)} != window size {self.window.size}"
            )
        if any(b not in (0, 1) for b in self.occupancy):
            raise ValueError("occupancy entries must be 0 or 1")

    @classmethod
    def from_bitmask(cls, window: Window, mask: int) -> "Configuration":
        if mask < 0 or mask >> window.size:
            raise ValueError(f"bitmask {mask} out of range for window {window}")
        return cls(window, tuple((mask >> i) & 1 for i in range(window.size)))

    @classmethod
    def from_occupied(cls, window: Window, sites: Iterable[Site]) -> "Configuration":
        occ = [0] * window.size
        for s in sites:
            occ[window.position(s)] = 1
        return cls(window, tuple(occ))

    @classmethod
    def empty(cls, window: Window) -> "Configuration":
        return cls(window, (0,) * window.size)

    @classmethod
    def full(cls, window: Window) -> "Configuration":
        return cls(window, (1,) * window.size)

    @cached_property
    def particle_count(self) -> int:
        return sum(self.occupancy)

    @cached_property
    def bitmask(self) -> int:
        mask = 0
        for i, b in enumerate(self.occupancy):
            mask |= b << i
        return mask

    def occupancy_at(self, site: Site) -> int:
        return self.occupancy[self.window.position(site)]

    def occupied_sites(self) -> tuple[Site, ...]:
        return tuple(s for s, b in zip(self.window.sites, self.occupancy) if b)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.occupancy)


class Pmf:
    """The exact law of the window occupancy, indexed by bitmask."""

    def __init__(self, window: Window, probs: np.ndarray):
        probs = np.array(probs, dtype=float)
        if probs.shape != (1 << window.size,):
            raise ValueError(f"need {1 << window.size} probabilities, got {probs.shape}")
        _clamp(probs)
        _require_total(probs.sum())
        probs.setflags(write=False)
        self.window = window
        self.probs = probs

    @property
    def size(self) -> int:
        return self.window.size

    def prob(self, config: Configuration) -> float:
        if config.window != self.window:
            raise WindowMismatchError("configuration window differs from pmf window")
        return float(self.probs[config.bitmask])

    def total(self) -> float:
        return float(self.probs.sum())

    def marginal(self, site: Site) -> float:
        """P(site occupied)."""
        return self.occupied_marginal([site])

    def occupied_marginal(self, sites: Sequence[Site]) -> float:
        """P(all listed sites occupied)."""
        need = 0
        for s in sites:
            need |= 1 << self.window.position(s)
        masks = np.arange(1 << self.size)
        return float(self.probs[(masks & need) == need].sum())

    def sector(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Bitmasks with the given particle count and their renormalized law."""
        masks = _sector_masks(self.size, count)
        weights = self.probs[masks]
        total = weights.sum()
        if total <= 0.0:
            raise NumericalError(f"sector {count} has zero total probability")
        return masks, weights / total


def _require_total(total: float) -> None:
    """NumericalError unless the law's total (not NaN) is within 1e-9 of 1."""
    if not abs(total - 1.0) <= 1e-9:
        raise NumericalError(f"pmf total {float(total)!r} deviates from 1 by more than 1e-9")


def _occupancy(masks: np.ndarray, n: int) -> np.ndarray:
    """(S, n) bool occupancy rows of S bitmasks: column i is bit i."""
    return np.column_stack([(masks >> i) & 1 == 1 for i in range(n)])


def _sector_masks(n: int, count: int) -> np.ndarray:
    """Bitmasks of n sites with the given particle count, ascending (combinadic order)."""
    if count < 0 or count > n:
        raise ValueError(f"count {count} out of range for {n} sites")
    masks = np.arange(1 << n, dtype=np.int64)
    return masks[_occupancy(masks, n).sum(axis=1) == count]


def _clamp(probs: np.ndarray) -> np.ndarray:
    """Zero the entries of `probs` in [-1e-12, 0) in place, counted in :data:`clamp_counter`."""
    lowest = probs.min(initial=0.0)
    if lowest < 0.0:
        if lowest < _CLAMP_FLOOR:
            raise NumericalError(f"probability {lowest:g} below clamp floor {_CLAMP_FLOOR:g}")
        negative = probs < 0.0
        clamp_counter.count += int(negative.sum())
        probs[negative] = 0.0
    return probs


def _probabilities(k: KernelMatrix, occupied: np.ndarray) -> np.ndarray:
    """Exact probabilities of the (S, n) bool occupancy rows, clamped by :func:`_clamp`.

    Determinants go in stacks of about 2^20 matrix entries, each factored on
    its own, so the values do not depend on the stack size.
    """
    entries = k.entries
    complement = np.eye(k.size) - entries
    probs = np.empty(len(occupied))
    batch = max(1, _STACK_ENTRIES // k.size ** 2)
    for start in range(0, len(occupied), batch):
        rows = occupied[start:start + batch, np.newaxis, :]
        probs[start:start + len(rows)] = np.linalg.det(np.where(rows, entries, complement))
    return _clamp(probs)


def _check_ratio_defined(window: Window, occupied, probs) -> None:
    """ZeroProbabilityError at the first state below 1e-300: a swap ratio out of it is undefined.

    `occupied` holds the states' occupancy rows and `probs` their probabilities.
    """
    low = np.flatnonzero(np.asarray(probs) < _PROBABILITY_FLOOR)
    if len(low):
        config = Configuration(window, tuple(int(b) for b in occupied[low[0]]))
        raise ZeroProbabilityError(
            f"configuration {config} has probability {probs[low[0]]:g}; ratio undefined"
        )


def config_probability(k: KernelMatrix, config: Configuration) -> float:
    """Exact probability that the window occupancy equals `config`.

    det of the matrix taking K-columns at occupied sites and (I - K)-columns
    at empty ones.  Tiny negative determinants (floating noise) are clamped
    to zero and counted in :data:`clamp_counter`.
    """
    if config.window != k.window:
        raise WindowMismatchError("configuration window differs from kernel window")
    return float(_probabilities(k, np.array([config.occupancy], dtype=bool))[0])


def correlation(k: KernelMatrix, sites: Iterable[Site]) -> float:
    """P(all listed sites occupied): the principal minor det K[sites, sites]."""
    sites = list(sites)
    if len(set(sites)) != len(sites):
        raise DuplicateSiteError(f"duplicate sites in {sites}")
    idx = [k.window.position(s) for s in sites]
    if not idx:
        return 1.0
    sub = k.entries[np.ix_(idx, idx)]
    return float(np.linalg.det(sub))


def enumerate_distribution(k: KernelMatrix) -> Pmf:
    """The full law over all 2^n configurations (n <= 20).

    One batched determinant per configuration (:func:`_probabilities`) keeps
    the million-state case within a few seconds and modest memory.
    """
    n = k.size
    if n > MAX_ENUMERATION_SITES:
        raise SizeError(f"enumeration capped at {MAX_ENUMERATION_SITES} sites, got {n}")
    return Pmf(k.window, _probabilities(k, _occupancy(np.arange(1 << n), n)))


def _sequential_pass(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw sites 0..len(u)-1 of every matrix in the stack m, shape (n, n, B), in place.

    Site i is occupied when u[i] < p = m[i, i] (u = -inf forces it in, +inf
    out); a rank-one Schur update with pivot p (in) or p - 1 (out) then
    conditions the later sites.  A diagonal entry is final once visited, so
    the diagonal, shape (B, len(u)), holds the conditional probabilities.
    The batch axis is last so that each update sweeps contiguous memory.
    """
    for i in range(min(len(u), len(m) - 1)):
        p = m[i, i]
        column = m[i + 1:, i:i + 1] / (p - (u[i] >= p))
        trailing = m[i + 1:, i + 1:]
        trailing -= column * m[i, i + 1:]
    return np.diagonal(m)[:, :len(u)]


def _require_probabilities(probs: np.ndarray) -> None:
    """NumericalError unless every conditional probability (not NaN) is in [-1e-8, 1 + 1e-8]."""
    distance = np.abs(probs - 0.5)
    if not distance.max(initial=0.0) <= _HALF_WIDTH:
        worst = probs.flat[np.argmax(distance)]
        raise NumericalError(f"conditional probability {worst:g} outside [-1e-8, 1+1e-8]")


class _LawTable:
    """The cumulative law of a window of up to 12 sites, for draws by inverse CDF.

    ``cumulative[m]`` is P(bitmask <= m): the running sum of the 2^n
    probabilities :func:`enumerate_distribution` takes, divided by its last
    entry, which is then exactly 1.  A uniform u in [0, 1) draws the first
    mask whose entry exceeds u, so a mask of probability 0 is never drawn.
    """

    def __init__(self, k: KernelMatrix):
        n = k.size
        cumulative = np.cumsum(_probabilities(k, _occupancy(np.arange(1 << n), n)))
        _require_total(cumulative[-1])
        self.cumulative = cumulative / cumulative[-1]
        self.bounds = self.cumulative.tolist()
        self.window = k.window
        self.configs: dict[int, Configuration] = {}

    def config(self, mask: int) -> Configuration:
        """The one Configuration of draw `mask`."""
        return self.configs.get(mask) or self.configs.setdefault(
            mask, Configuration.from_bitmask(self.window, mask))


def _law_table(k: KernelMatrix) -> _LawTable | None:
    """`k`'s law table, kept on `k` as its eigh is; None past 12 sites (2^n n^2 > 2^20 entries)."""
    if "_law_table" not in vars(k):
        n = k.size
        k._law_table = _LawTable(k) if (1 << n) * n * n <= _STACK_ENTRIES else None
    return k._law_table


def sample_many(
    k: KernelMatrix, rng: SeededRng, count: int, pattern: Configuration | None = None
) -> list[Configuration]:
    """`count` exact draws, conditioned on `pattern` (a configuration on a sub-window) if given.

    Unconditioned draws on up to 12 sites take one uniform each and find
    their masks in the kernel's cumulative law (:class:`_LawTable`) with one
    ``np.searchsorted``.  Other draws visit the sites in window order, each
    kept with its conditional probability given the sites before it: the
    diagonal entry of the running Schur complement of K.  They run as a
    batch, in chunks of about 2^20 matrix entries, each draw taking one
    uniform per free site in (draw, site) order.  Either way the draws equal
    `count` successive :func:`sample` calls.  The pattern's sites are forced
    first, once; its probability is the product of the forced factors p or
    1 - p, summed in log space.  Raises WindowMismatchError for a pattern
    outside the window, ZeroProbabilityError for one of probability below
    1e-300, and NumericalError for a probability below the clamp floor or a
    visited conditional probability outside [-1e-8, 1 + 1e-8], which no
    valid kernel gives.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    table = _law_table(k) if pattern is None else None
    if table is not None:
        masks = np.searchsorted(table.cumulative, rng.random(count), side="right")
        return [table.config(mask) for mask in masks.tolist()]
    bits, order, m = (), np.arange(k.size), k.entries[:, :, np.newaxis]
    if pattern is not None:
        inner = pattern.window
        if inner.lo not in k.window or inner.hi not in k.window:
            raise WindowMismatchError(f"pattern window {inner} not inside kernel window {k.window}")
        start, bits = k.window.position(inner.lo), pattern.occupancy
        order = np.r_[start:start + len(bits), :start, start + len(bits):k.size]
        m = k.entries[np.ix_(order, order)][:, :, np.newaxis]
        occupied = np.array(bits, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = _sequential_pass(m, np.where(occupied, -np.inf, np.inf)[:, np.newaxis])[0]
            log_probability = np.log(np.where(occupied, probs, 1.0 - probs)).sum()
        # NaN when a forced factor is not positive: the pattern is impossible
        if not log_probability >= math.log(_PROBABILITY_FLOOR):
            raise ZeroProbabilityError(f"pattern {pattern} has probability below 1e-300 on {k.window}")
        _require_probabilities(probs)
        m = m[len(bits):, len(bits):]
    free = order[len(bits):]
    # Equal draws share one immutable Configuration; small windows repeat them often.
    shared: dict[tuple, Configuration] = {}
    draws = []
    chunk = max(1, _STACK_ENTRIES // max(1, free.size ** 2))
    for first in range(0, count, chunk):
        u = rng.random((min(chunk, count - first), free.size))
        probs = _sequential_pass(m.repeat(len(u), axis=2), u.T)
        _require_probabilities(probs)
        occupancy = np.empty((len(u), k.size), dtype=np.int8)
        occupancy[:, order[:len(bits)]] = bits
        occupancy[:, free] = u < probs
        draws += [shared.get(row) or shared.setdefault(row, Configuration(k.window, row))
                  for row in map(tuple, occupancy.tolist())]
    return draws


def sample(k: KernelMatrix, rng: SeededRng) -> Configuration:
    """One exact draw from the window process, equal to ``sample_many(k, rng, 1)[0]``.

    On up to 12 sites it bisects the kernel's cumulative law (:class:`_LawTable`)
    with one uniform.
    """
    table = _law_table(k)
    if table is None:
        return sample_many(k, rng, 1)[0]
    return table.config(bisect_right(table.bounds, rng.random()))


def empirical_correlation(samples: Sequence[Configuration], sites: Iterable[Site]) -> float:
    """Fraction of samples in which every listed site is occupied."""
    if not samples:
        raise EmptyInputError("no samples")
    window = samples[0].window
    if any(s.window != window for s in samples):
        raise WindowMismatchError("samples drawn on different windows")
    sites = list(sites)
    if not sites:
        return 1.0
    need = 0
    for s in sites:
        need |= 1 << window.position(s)
    hits = sum(1 for c in samples if c.bitmask & need == need)
    return hits / len(samples)


def write_pmf_csv(pmf: Pmf, path) -> None:
    """Export a pmf as CSV: ``bitmask,probability`` with %.17g entries."""
    write_csv(path, "bitmask,probability", "%d,%.17g", enumerate(pmf.probs.tolist()))


def write_samples_csv(samples: Sequence[Configuration], path) -> None:
    """Export samples as CSV: ``sample_index,<x=...>,...`` with 0/1 entries."""
    if not samples:
        raise EmptyInputError("no samples")
    window = samples[0].window
    header = "sample_index," + ",".join(f"x={s}" for s in window.sites)
    write_csv(path, header, "%d" + ",%d" * window.size,
              ((i, *c.occupancy) for i, c in enumerate(samples)))
