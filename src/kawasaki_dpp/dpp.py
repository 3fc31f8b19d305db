"""Finite-window determinantal point process machinery.

A window occupancy is determinantal with kernel matrix K: the probability of
seeing exactly the configuration eta is the determinant of the matrix whose
column at an occupied site is the corresponding column of K and at an empty
site the column of I - K.  Correlation functions (inclusion probabilities)
are principal minors of K.

The module provides exact configuration probabilities, correlation minors,
the full law of small windows and exact draws, free or conditioned on a
local pattern.  Law and draws come from the same sequential Schur
complements of K (Poulson, arXiv:1905.00165; Launay, Galerne and Desolneux,
arXiv:1802.08429) through one rank-one step, :func:`_schur_step`, and no
eigendecomposition.  Free draws on up to 12 sites are by inverse CDF over
the law (Devroye, Non-Uniform Random Variate Generation, 1986, ch. III);
on more, single draws read a memo of visited conditional probabilities.
Passes on more than 48 sites are blocked: rank-one steps on a strip of 48
columns, then one product for the trailing block.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

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
# Sites of a Schur pass drawn by rank-one steps on a strip before one product
# updates the trailing block; passes on at most this many sites take steps only.
_PANEL = 48
# Draw sites one sample_many call may return: count times the window's sites.
_DRAW_ENTRIES = 1 << 26
# Draws times sites cubed, as a draw's Schur pass costs O(n^3): no request the two caps admit
# on 256-4096 sites takes more than 180 s (128 draws on 2048: 40-48 s; 1 BLAS thread, Xeon).
_DRAW_WORK = 1 << 40
# Conditional probabilities kept per kernel by :class:`_NodeMemo`.
_MEMO_ENTRIES = 1 << 15
# Probabilities write_pmf_csv converts to Python floats at a time, not as one list.
_CSV_ROWS = 1 << 12


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
    """The exact law of the window occupancy, indexed by bitmask.

    ``clamped`` counts the entries in [-1e-12, 0) that :func:`_clamp` zeroed.
    """

    def __init__(self, window: Window, probs: np.ndarray):
        probs = np.array(probs, dtype=float)
        if probs.shape != (1 << window.size,):
            raise ValueError(f"need {1 << window.size} probabilities, got {probs.shape}")
        self.clamped = _clamp(probs, partial(Configuration.from_bitmask, window))
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise NumericalError(f"pmf total {float(total)!r} deviates from 1 by more than 1e-9")
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


def _occupancy(masks: np.ndarray, n: int) -> np.ndarray:
    """(S, n) bool occupancy rows of S bitmasks: column i is bit i."""
    return np.column_stack([(masks >> i) & 1 == 1 for i in range(n)])


def _sector_masks(n: int, count: int) -> np.ndarray:
    """Bitmasks of n sites with the given particle count, ascending (combinadic order).

    SizeError past :data:`MAX_ENUMERATION_SITES`, before the 2^n masks are listed.
    """
    if count < 0 or count > n:
        raise ValueError(f"count {count} out of range for {n} sites")
    if n > MAX_ENUMERATION_SITES:
        raise SizeError(f"sector listing capped at {MAX_ENUMERATION_SITES} sites, got {n}")
    counts = np.zeros(1 << n, dtype=np.int8)  # popcounts, doubled up one bit at a time
    for i in range(n):
        counts[1 << i:2 << i] = counts[:1 << i] + 1
    return np.flatnonzero(counts == count)


def _clamp(probs: np.ndarray, configuration: Callable[[int], Configuration]) -> int:
    """Zero the entries of `probs` in [-1e-12, 0) in place, and return how many there were.

    Below the floor, NumericalError names ``configuration(i)`` of the lowest entry i.
    """
    lowest = probs.min(initial=0.0)
    if lowest < _CLAMP_FLOOR:
        raise NumericalError(f"configuration {configuration(int(np.argmin(probs)))} has "
                             f"probability {lowest:g} below clamp floor {_CLAMP_FLOOR:g}")
    negative = probs < 0.0
    probs[negative] = 0.0
    return int(negative.sum())


def _probabilities(k: KernelMatrix, occupied: np.ndarray) -> np.ndarray:
    """Exact probabilities of the (S, n) bool occupancy rows, clamped by :func:`_clamp`.

    Determinants go in stacks of about 2^20 matrix entries, each factored on
    its own, so the values do not depend on the stack size.  NumericalError
    names the first row whose determinant is not finite (overflow, say).
    """
    entries = k.entries
    complement = np.eye(k.size) - entries
    probs = np.empty(len(occupied))
    batch = max(1, _STACK_ENTRIES // k.size ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(occupied), batch):
            rows = occupied[start:start + batch, np.newaxis, :]
            probs[start:start + len(rows)] = np.linalg.det(np.where(rows, entries, complement))
    if not np.isfinite(probs).all():
        first = np.argmin(np.isfinite(probs))
        config = Configuration(k.window, tuple(map(int, occupied[first])))
        raise NumericalError(f"configuration {config} has determinant {probs[first]:g}, not finite")
    _clamp(probs, lambda row: Configuration(k.window, tuple(map(int, occupied[row]))))
    return probs


def _live(k: KernelMatrix, occupied, own) -> np.ndarray:
    """`own`, the probabilities of the states of bool rows `occupied`, if none is below 1e-300.

    Else ZeroProbabilityError names the first that is.  Each determinant ratio
    P(sigma gamma) / P(gamma) divides by one; a caller that takes the swaps'
    probabilities after the states' checks the states in between.
    """
    low = np.flatnonzero(own < _PROBABILITY_FLOOR)
    if len(low):
        config = Configuration(k.window, tuple(map(int, occupied[low[0]])))
        raise ZeroProbabilityError(
            f"configuration {config} has probability {own[low[0]]:g}; ratio undefined"
        )
    return own


def config_probability(k: KernelMatrix, config: Configuration) -> float:
    """Exact probability that the window occupancy equals `config`.

    det of the matrix taking K-columns at occupied sites and (I - K)-columns
    at empty ones.  A tiny negative determinant (floating noise) is clamped
    to zero by :func:`_clamp`.
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
    """The full law over all 2^n configurations (n <= 20), built one site per level.

    Level i holds each configuration of sites 0..i-1 with its probability, its
    trailing Schur complement of K in an (n - i, n - i, 2^i) stack, and q, the
    diagonal of I minus that, kept apart so that q = 1 - p keeps its digits as
    p nears 1.  :func:`_schur_step` splits each at site i into an empty copy
    (factor q, pivot -q), then an occupied one (factor and pivot p): bit i of
    the index is site i.  A prefix of probability 0 passes 0 on, so its zero
    pivot gives no NaN; a negative one (no valid kernel) reaches the clamp floor.
    """
    n = k.size
    if n > MAX_ENUMERATION_SITES:
        raise SizeError(f"enumeration capped at {MAX_ENUMERATION_SITES} sites, got {n}")
    m, q, probs = k.entries[:, :, None], 1.0 - np.diag(k.entries)[:, None], np.ones(1)
    with np.errstate(all="ignore"):  # the stacks of dead prefixes divide by zero
        for i in range(n):
            factor, row = np.stack([q[0], m[0, 0]]), m[0, 1:, None]  # (empty, occupied) by prefix
            m, column = _schur_step(m[:, :, None], factor * [[-1.0], [1.0]])
            m = m.reshape(len(row), len(row), factor.size)
            q = (q[1:, None] + column * row).reshape(len(row), factor.size)
            probs = np.where(probs == 0.0, 0.0, probs * factor).ravel()
    if not np.isfinite(probs).all():
        first = int(np.argmin(np.isfinite(probs)))
        raise NumericalError(f"configuration {Configuration.from_bitmask(k.window, first)} has "
                             f"probability {probs[first]:g}, not finite")
    return Pmf(k.window, probs)


def _schur_step(m: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition each matrix of the (r, r, ...) stack m on its site 0: the one rank-one update.

    Returns m[1:, 1:] - column * m[0, 1:] and the column m[1:, 0] / pivot.  The
    caller picks the pivot, p for site 0 occupied and p - 1 or -q for it empty;
    it broadcasts against m[0, 0], so it may widen the stack.
    """
    column = m[1:, 0] / pivot
    trailing = column[:, None] * m[0, 1:]
    return np.subtract(m[1:, 1:], trailing, out=trailing), column


def _sequential_pass(m: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw sites 0..len(u)-1 of K from the (n, n) kernel m and the (len,) uniforms u,
    or from the (n, n, 1) stack m once per column of the (len, B) uniforms u.

    Site i is occupied when u[i] < p, its diagonal entry given the sites before
    it (u = -inf forces it in, +inf out); :func:`_schur_step` with pivot p (in)
    or p - 1 (out) conditions the later sites and widens the stack to B draws.
    Each step updates a block of at most :data:`_PANEL` sites whole, so such
    windows keep their bits.  On a larger block the next :data:`_PANEL` sites
    step on the strip of their columns, then T - C R^T updates the trailing
    block T: C and R hold the strip's divided and undivided columns on T's
    rows, and by symmetry R's columns are the rows the steps would read.
    Later sites then move by rounding (about 1e-14); each draw's product is
    the same BLAS call in any batch.  Returns the (B, len(u)) or (len(u),)
    conditional probabilities and the conditioned stack.
    """
    probs = np.empty(u.shape)
    for start in range(0, len(u), _PANEL):
        if len(m) <= _PANEL:
            for i in range(start, len(u)):
                probs[i] = p = m[0, 0]
                m, _ = _schur_step(m, p - (u[i] >= p))
            break
        width = min(_PANEL, len(u) - start)
        # widened to u's batch, each draw's strip contiguous
        strip = np.broadcast_to(m[:, :width], (len(m), width) + u.shape[1:]).T.copy().T
        rows = np.empty(u.shape[1:] + (width, len(m) - width))  # R^T and C: one BLAS call per draw
        columns = np.empty(u.shape[1:] + (len(m) - width, width))
        for i, x in enumerate(u[start:start + width]):
            probs[start + i] = p = strip[0, 0]
            rows[..., i, :] = strip[width - i:, 0].T
            strip, column = _schur_step(strip, p - (x >= p))
            columns[..., i] = column[width - i - 1:].T
        trailing = columns @ rows
        np.subtract(np.moveaxis(m[width:, width:], (0, 1), (-2, -1)), trailing, out=trailing)
        m = np.moveaxis(trailing, (-2, -1), (0, 1))
    return probs.T, m


def _require_probabilities(probs: np.ndarray) -> None:
    """NumericalError unless every conditional probability (not NaN) is in [-1e-8, 1 + 1e-8]."""
    distance = np.abs(probs - 0.5)
    if not distance.max(initial=0.0) <= _HALF_WIDTH:
        worst = probs.flat[np.argmax(distance)]
        raise NumericalError(f"conditional probability {worst:g} outside [-1e-8, 1+1e-8]")


class _Draws:
    """What a kernel keeps for its single draws (see :func:`_draws`), with one
    shared Configuration per drawn mask."""

    def __init__(self, k: KernelMatrix):
        self.window = k.window
        self.configs: dict[int, Configuration] = {}

    def config(self, mask: int) -> Configuration:
        """The one Configuration of draw `mask`."""
        return self.configs.get(mask) or self.configs.setdefault(
            mask, Configuration.from_bitmask(self.window, mask))


class _LawTable(_Draws):
    """The cumulative law of a window of up to 12 sites, for draws by inverse CDF.

    ``cumulative[m]`` is P(bitmask <= m): the running sum of the law
    :func:`enumerate_distribution` returns, divided by its last entry, which
    is then exactly 1.  A uniform u in [0, 1) draws the first
    mask whose entry exceeds u, so a mask of probability 0 is never drawn.
    """

    def __init__(self, k: KernelMatrix):
        super().__init__(k)
        cumulative = np.cumsum(enumerate_distribution(k).probs)
        self.cumulative = cumulative / cumulative[-1]
        self.bounds = self.cumulative.tolist()

    def draw(self, rng: SeededRng) -> Configuration:
        """The first mask whose entry exceeds one uniform, found by bisection."""
        return self.config(bisect_right(self.bounds, rng.random()))


class _NodeMemo(_Draws):
    """The conditional probabilities that single draws on a kernel have visited.

    ``probs[prefix | 1 << i]`` is P(site i occupied | sites 0..i-1 as in
    bitmask `prefix`), as a one-draw :func:`_sequential_pass` on K itself gave
    it: a function of the prefix alone, so a draw read off the memo equals its
    pass bit for bit.  A memo that would pass :data:`_MEMO_ENTRIES` is
    emptied in place, Configurations too, and the draw goes in from the root.
    """

    def __init__(self, k: KernelMatrix):
        super().__init__(k)
        self.entries = k.entries
        self.probs: dict[int, float] = {}

    def draw(self, rng: SeededRng) -> Configuration:
        """The draw of one uniform u[i] per site: site i is occupied iff u[i] < p."""
        u = rng.random(len(self.entries))
        mask, uniforms = 0, u.tolist()
        for depth, x in enumerate(uniforms):
            p = self.probs.get(mask | 1 << depth)
            if p is None:
                break
            if x < p:
                mask |= 1 << depth
        else:
            return self.config(mask)
        visited, _ = _sequential_pass(self.entries, u)
        _require_probabilities(visited)
        if len(self.probs) + len(u) - depth > _MEMO_ENTRIES:
            self.probs.clear()
            self.configs.clear()
            mask, depth = 0, 0
        for i, p in enumerate(visited[depth:].tolist(), depth):
            self.probs[mask | 1 << i] = p
            if uniforms[i] < p:
                mask |= 1 << i
        return self.config(mask)


def _draws(k: KernelMatrix) -> _LawTable | _NodeMemo:
    """`k`'s draw table, kept on `k` like its eigenvalues: its law table on up to 12 sites,
    else its memo of visited conditional probabilities."""
    if "_draws" not in vars(k):
        k._draws = _LawTable(k) if k.size <= 12 else _NodeMemo(k)
    return k._draws


def sample_many(
    k: KernelMatrix, rng: SeededRng, count: int, pattern: Configuration | None = None
) -> list[Configuration]:
    """`count` exact draws, conditioned on `pattern` (a configuration on a sub-window) if given.

    Free draws on up to 12 sites take one uniform each and find their masks
    in the kernel's cumulative law (:class:`_LawTable`) by ``np.searchsorted``.
    Other draws take one uniform per free site, in (draw, site) order, and
    one :func:`_sequential_pass` per chunk of about 2^20 matrix entries.
    Either way they equal `count` successive :func:`sample` calls.  A
    pattern's sites are forced first, once, and the draws start from the
    stack that pass leaves; its probability is the product of the forced
    factors p or 1 - p, summed in log space.  Raises WindowMismatchError for
    a pattern outside the window, ZeroProbabilityError for one of
    probability below 1e-300, NumericalError for a probability below the
    clamp floor or a visited conditional probability outside
    [-1e-8, 1 + 1e-8], which no valid kernel gives, and SizeError, before
    any allocation, when `count` draws of the window's sites exceed
    :data:`_DRAW_ENTRIES` (distinct draws each hold a tuple of them) or take
    more than :data:`_DRAW_WORK` in count times the sites cubed (their time).
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count * k.size > _DRAW_ENTRIES:
        raise SizeError(f"{count} draws of {k.size} sites exceed the cap of "
                        f"{_DRAW_ENTRIES} drawn sites")
    if count * k.size ** 3 > _DRAW_WORK:
        raise SizeError(f"{count} draws of {k.size} sites exceed the bound of "
                        f"{_DRAW_WORK} on draws times sites cubed")
    table = _draws(k) if pattern is None else None
    if isinstance(table, _LawTable):
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
            (probs,), m = _sequential_pass(m, np.where(occupied, -np.inf, np.inf)[:, np.newaxis])
            log_probability = np.log(np.where(occupied, probs, 1.0 - probs)).sum()
        # NaN when a forced factor is not positive: the pattern is impossible
        if not log_probability >= math.log(_PROBABILITY_FLOOR):
            raise ZeroProbabilityError(f"pattern {pattern} has probability below 1e-300 on {k.window}")
        _require_probabilities(probs)
    free = order[len(bits):]
    # Equal draws share one immutable Configuration; small windows repeat them often.
    shared: dict[tuple, Configuration] = {}
    draws = []
    chunk = max(1, _STACK_ENTRIES // max(1, free.size ** 2))
    for first in range(0, count, chunk):
        u = rng.random((min(chunk, count - first), free.size))
        probs, _ = _sequential_pass(m, u.T)
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
    with one uniform.  On more it takes one uniform per site and walks the
    kernel's memo of the conditional probabilities earlier draws visited
    (:class:`_NodeMemo`, at most 2^15, 3.7 MiB with its Configurations on
    30 sites); only at a node it lacks does it run the one-draw Schur pass
    from the root, and it records the draw's nodes only after they pass the
    [-1e-8, 1 + 1e-8] check.
    """
    return _draws(k).draw(rng)


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
    probs = pmf.probs
    write_csv(path, "bitmask,probability",
              ("%d,%.17g" % row for start in range(0, len(probs), _CSV_ROWS)
               for row in enumerate(probs[start:start + _CSV_ROWS].tolist(), start)))


def write_samples_csv(samples: Sequence[Configuration], path) -> None:
    """Export samples as CSV: ``sample_index,<x=...>,...`` with 0/1 entries.

    Each distinct Configuration object's occupancy is formatted once, keyed
    by identity as in ``write_trajectory_csv``: :func:`sample_many` shares
    one Configuration per drawn mask.
    """
    if not samples:
        raise EmptyInputError("no samples")
    window = samples[0].window
    header = "sample_index," + ",".join(f"x={s}" for s in window.sites)
    occupancy = ",".join(["%d"] * window.size)
    texts = {key: occupancy % c.occupancy for key, c in {id(c): c for c in samples}.items()}
    write_csv(path, header, (f"{i},{texts[id(c)]}" for i, c in enumerate(samples)))
