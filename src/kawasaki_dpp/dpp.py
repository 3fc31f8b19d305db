"""Finite-window determinantal point process machinery.

A window occupancy is determinantal with kernel matrix K: the probability of
seeing exactly the configuration eta is the determinant of the matrix whose
column at an occupied site is the corresponding column of K and at an empty
site the column of I - K.  Correlation functions (inclusion probabilities)
are principal minors of K.

The module provides exact configuration probabilities, correlation minors,
exhaustive enumeration of the full law on small windows, and an exact sampler
(spectral decomposition, Bernoulli selection of eigenvectors, then sequential
orthogonal-projection point draws).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateSiteError,
    EmptyInputError,
    NumericalError,
    SizeError,
    WindowMismatchError,
)
from .kernel import KernelMatrix, Site, Window
from .rng import SeededRng

__all__ = [
    "Configuration",
    "Pmf",
    "config_probability",
    "correlation",
    "enumerate_distribution",
    "sample",
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

_ENUMERATION_BATCH = 1 << 14


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

    @property
    def particle_count(self) -> int:
        return sum(self.occupancy)

    @property
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
        if probs.min() < _CLAMP_FLOOR:
            raise NumericalError(f"probability {probs.min():g} below clamp floor")
        negative = probs < 0.0
        if negative.any():
            clamp_counter.count += int(negative.sum())
            probs[negative] = 0.0
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise NumericalError(f"pmf total {total!r} deviates from 1 by more than 1e-9")
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

    def configurations(self) -> Iterator[Configuration]:
        for mask in range(1 << self.size):
            yield Configuration.from_bitmask(self.window, mask)

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
        masks = np.array([m for m in range(1 << self.size) if bin(m).count("1") == count])
        weights = self.probs[masks]
        total = weights.sum()
        if total <= 0.0:
            raise NumericalError(f"sector {count} has zero total probability")
        return masks, weights / total


def _probability_matrix(k: KernelMatrix, config: Configuration) -> np.ndarray:
    occupied = np.array(config.occupancy, dtype=bool)
    entries = k.entries
    out = np.where(occupied[np.newaxis, :], entries, np.eye(k.size) - entries)
    return out


def config_probability(k: KernelMatrix, config: Configuration) -> float:
    """Exact probability that the window occupancy equals `config`.

    det of the matrix taking K-columns at occupied sites and (I - K)-columns
    at empty ones.  Tiny negative determinants (floating noise) are clamped
    to zero and counted in :data:`clamp_counter`.
    """
    if config.window != k.window:
        raise WindowMismatchError("configuration window differs from kernel window")
    det = float(np.linalg.det(_probability_matrix(k, config)))
    if det < _CLAMP_FLOOR:
        raise NumericalError(f"configuration determinant {det:g} below clamp floor")
    if det < 0.0:
        clamp_counter.count += 1
        return 0.0
    return det


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

    Determinants are evaluated in batches of stacked matrices so that the
    million-state case stays within a few seconds and modest memory.
    """
    n = k.size
    if n > MAX_ENUMERATION_SITES:
        raise SizeError(f"enumeration capped at {MAX_ENUMERATION_SITES} sites, got {n}")
    entries = k.entries
    complement = np.eye(n) - entries
    total = 1 << n
    probs = np.empty(total)
    columns = np.arange(n)
    for start in range(0, total, _ENUMERATION_BATCH):
        stop = min(start + _ENUMERATION_BATCH, total)
        masks = np.arange(start, stop, dtype=np.int64)
        occupied = ((masks[:, np.newaxis] >> columns) & 1).astype(bool)
        stacked = np.where(occupied[:, np.newaxis, :], entries, complement)
        probs[start:stop] = np.linalg.det(stacked)
    if probs.min() < _CLAMP_FLOOR:
        raise NumericalError(f"enumerated probability {probs.min():g} below clamp floor")
    return Pmf(k.window, probs)


def sample(k: KernelMatrix, rng: SeededRng) -> Configuration:
    """One exact draw from the window process.

    Eigenvectors are kept independently with probability equal to their
    eigenvalue; the kept columns V then yield points sequentially: a site x
    is drawn with probability ||row_x(V)||^2 / t, the column with the largest
    entry at x is used to zero row x out of the others and dropped, and the
    remainder is re-orthonormalized by QR.  Deterministic given the rng state.
    """
    n = k.size
    evals, evecs = k.checked_eigh
    keep = rng.random(n) < np.clip(evals, 0.0, 1.0)
    vectors = evecs[:, keep].copy()
    occupancy = [0] * n
    remaining = vectors.shape[1]
    while remaining > 0:
        weights = np.einsum("ij,ij->i", vectors, vectors)
        cumulative = np.cumsum(weights)
        u = rng.random() * cumulative[-1]
        x = min(int(np.searchsorted(cumulative, u, side="right")), n - 1)
        occupancy[x] = 1
        remaining -= 1
        if remaining == 0:
            break
        pivot = int(np.argmax(np.abs(vectors[x])))
        column = vectors[:, pivot] / vectors[x, pivot]
        vectors = vectors - np.outer(column, vectors[x])
        vectors = np.delete(vectors, pivot, axis=1)
        vectors, _ = np.linalg.qr(vectors)
    return Configuration(k.window, tuple(occupancy))


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
    lines = ["bitmask,probability"]
    for mask in range(1 << pmf.size):
        lines.append(f"{mask},{pmf.probs[mask]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_samples_csv(samples: Sequence[Configuration], path) -> None:
    """Export samples as CSV: ``sample_index,<x=...>,...`` with 0/1 entries."""
    if not samples:
        raise EmptyInputError("no samples")
    window = samples[0].window
    header = "sample_index," + ",".join(f"x={s}" for s in window.sites)
    lines = [header]
    for i, c in enumerate(samples):
        lines.append(f"{i}," + ",".join(str(b) for b in c.occupancy))
    Path(path).write_text("\n".join(lines) + "\n")
