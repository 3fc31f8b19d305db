"""Swap ratios: the Radon-Nikodym derivative of a transposed configuration.

For a transposition of two sites, the density of the swapped law against the
original one evaluates, on a finite window, to the exact ratio of the two
configuration probabilities:

    phi(gamma, x, y) = P(sigma_{x,y} gamma) / P(gamma).

The ratio obeys the inversion identity phi(sigma gamma) = 1 / phi(gamma) and
integrates to one against the window law.  The infinite-volume ratio depends
on the entire configuration; :func:`rn_stabilization` probes how the window
ratio drifts as the window grows around a fixed local pattern, averaging it
over draws conditioned exactly on that pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dpp import Configuration, _live, _probabilities, config_probability, sample_many
from .errors import EmptyInputError, SamePointError, SizeError, WindowMismatchError
from .kernel import AdmissiblePair, KernelMatrix, Site, Window, kernel_matrix
from .rng import SeededRng
from .util import write_csv

__all__ = [
    "SwapPair",
    "StabilizationRow",
    "StabilizationTable",
    "apply_transposition",
    "rn_derivative",
    "rn_stabilization",
    "write_stabilization_csv",
]


@dataclass(frozen=True)
class SwapPair:
    """An unordered pair of distinct lattice sites."""

    x: Site
    y: Site

    def __post_init__(self):
        if self.x == self.y:
            raise SamePointError(f"swap pair needs distinct sites, got {self.x} twice")

    @property
    def separation(self) -> int:
        return abs(self.x.index - self.y.index)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def apply_transposition(config: Configuration, swap: SwapPair) -> Configuration:
    """Exchange the occupancies of the two swap sites (an involution)."""
    i = config.window.position(swap.x)
    j = config.window.position(swap.y)
    occ = config.occupancy
    if occ[i] == occ[j]:
        return config
    flipped = list(occ)
    flipped[i], flipped[j] = flipped[j], flipped[i]
    return Configuration(config.window, tuple(flipped))


def rn_derivative(k: KernelMatrix, config: Configuration, swap: SwapPair) -> float:
    """phi(gamma, x, y) = P(sigma gamma) / P(gamma) on the window; P(gamma) passes `dpp._live`."""
    rows = np.array([config.occupancy, apply_transposition(config, swap).occupancy], dtype=bool)
    own = _live(k, rows[:1], np.array([config_probability(k, config)]))
    return float((_probabilities(k, rows[1:]) / own)[0])


@dataclass(frozen=True)
class StabilizationRow:
    """Summary of the swap ratio over one window size."""

    window_size: int
    phi_mean: float
    phi_std: float
    n_samples: int
    max_inversion_residual: float


@dataclass(frozen=True)
class StabilizationTable:
    """Window-growth summary of conditioned swap ratios."""

    pattern: Configuration
    swap: SwapPair
    rows: tuple[StabilizationRow, ...]

    def deltas(self) -> list[float]:
        """|phi_mean(next) - phi_mean(prev)| between successive sizes."""
        means = [r.phi_mean for r in self.rows]
        return [abs(b - a) for a, b in zip(means, means[1:])]


def _enclosing_window(inner: Window, size: int) -> Window:
    extra = size - inner.size
    if extra < 0:
        raise SizeError(f"window size {size} smaller than pattern support {inner.size}")
    lo = inner.lo.index - extra // 2
    return Window.from_indices(lo, lo + size - 1)


def rn_stabilization(
    pair: AdmissiblePair,
    pattern: Configuration,
    swap: SwapPair,
    window_sizes: list[int],
    rng: SeededRng,
    n_samples: int = 100,
) -> StabilizationTable:
    """Swap-ratio drift as the window grows around a fixed local pattern.

    For each size, the pattern window is symmetrically extended, samples
    are drawn conditioned exactly on the pattern (the far occupancies follow
    the window process given the pattern; ZeroProbabilityError below
    1e-300), and the mean/std of the swap ratio are recorded together with
    the worst per-sample inversion residual |phi(gamma) * phi(sigma gamma) - 1|.
    The ratios are read off two batched probability calls per size, over the
    draws and then over their transpositions (the draws are checked against
    the 1e-300 floor in between).  Each size uses its own random stream
    (rng.stream + 1 + position), so sizes can run concurrently.

    The drift between successive sizes is a diagnostic (see
    :meth:`StabilizationTable.deltas`); no convergence rate is asserted.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not window_sizes:
        raise EmptyInputError("no window sizes")
    rows = []
    for offset, size in enumerate(window_sizes):
        window = _enclosing_window(pattern.window, size)
        if swap.x not in window or swap.y not in window:
            raise WindowMismatchError(
                f"window {window} of size {size} does not contain swap pair {swap}"
            )
        k = kernel_matrix(pair, window)
        stream = rng.spawn(rng.stream + 1 + offset)
        draws = sample_many(k, stream, n_samples, pattern=pattern)
        occupied = np.array([d.occupancy for d in draws], dtype=bool).reshape(-1, size)
        own = _live(k, occupied, _probabilities(k, occupied))
        ends = [window.position(swap.x), window.position(swap.y)]
        swapped = occupied.copy()
        swapped[:, ends] = occupied[:, ends[::-1]]
        back = _probabilities(k, swapped)
        phi = back / own
        inverse = own / _live(k, swapped, back)
        worst = float(np.abs(phi * inverse - 1.0).max(initial=0.0))
        phis = phi.tolist()
        mean = sum(phis) / n_samples
        var = sum((p - mean) ** 2 for p in phis) / n_samples
        rows.append(StabilizationRow(size, mean, math.sqrt(var), n_samples, worst))
    return StabilizationTable(pattern, swap, tuple(rows))


def write_stabilization_csv(table: StabilizationTable, path) -> None:
    """Export as CSV: ``window_size,phi_mean,phi_std,n_samples``."""
    write_csv(path, "window_size,phi_mean,phi_std,n_samples",
              ("%d,%.17g,%.17g,%d" % (r.window_size, r.phi_mean, r.phi_std, r.n_samples)
               for r in table.rows))
