"""Kawasaki swap dynamics on a window.

Particles exchange occupancies of site pairs at configuration-dependent
rates built from the swap ratio phi and a symmetric proximity weight u:

* ``Metropolis``  c = u * min(phi, 1)
* ``SqrtRatio``   c = u * sqrt(phi)
* ``GlauberLike`` c = u * (phi + 1)

Each of these factors as c = sqrt(phi) * a with a invariant under the swap,
which makes the window law a reversible (symmetrizing, hence invariant)
measure for the jump process.  The continuous-time chain is realized by the
standard jump-chain construction: exponential waiting times at the total
rate, next swap chosen proportionally to the per-pair rates.

Rates are exact for the window process with a closed boundary; swaps never
cross the window edge, so the particle number is conserved and stationarity
holds sector by sector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dpp import Configuration, _check_ratio_defined, _occupancy, _probabilities, _sector_masks
from .errors import SamePointError, WindowMismatchError, ZeroProbabilityError
from .kernel import KernelMatrix, Site, Window
from .rn import SwapPair, apply_transposition, rn_derivative
from .rng import SeededRng
from .util import format_complex, write_csv, write_json

__all__ = [
    "ProximityKind",
    "ProximitySpec",
    "RateKind",
    "RateModel",
    "Trajectory",
    "proximity_u",
    "rate",
    "rate_from_ratio",
    "symmetry_check",
    "candidate_pairs",
    "total_jump_rate",
    "simulate",
    "sector_graph_connected",
    "write_trajectory_csv",
    "trajectory_sidecar",
]


class ProximityKind(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    EXP_DECAY = "exp_decay"
    FINITE_RANGE = "finite_range"


@dataclass(frozen=True)
class ProximitySpec:
    """Symmetric nonnegative pair weight u(x, y), summable in y for fixed x."""

    kind: ProximityKind
    weight: float = 1.0
    alpha: float | None = None
    reach: int | None = None

    def __post_init__(self):
        if self.weight <= 0.0:
            raise ValueError("weight must be positive")
        if self.kind is ProximityKind.EXP_DECAY:
            if self.alpha is None or self.alpha <= 0.0:
                raise ValueError("exponential decay needs alpha > 0")
        if self.kind is ProximityKind.FINITE_RANGE:
            if self.reach is None or self.reach < 1:
                raise ValueError("finite range needs reach >= 1")

    @classmethod
    def nearest_neighbor(cls, weight: float = 1.0) -> "ProximitySpec":
        return cls(ProximityKind.NEAREST_NEIGHBOR, weight)

    @classmethod
    def exp_decay(cls, alpha: float, weight: float = 1.0) -> "ProximitySpec":
        return cls(ProximityKind.EXP_DECAY, weight, alpha=alpha)

    @classmethod
    def finite_range(cls, reach: int, weight: float = 1.0) -> "ProximitySpec":
        return cls(ProximityKind.FINITE_RANGE, weight, reach=reach)

    def max_separation(self) -> int | None:
        """Largest separation with u > 0 (None = unbounded)."""
        if self.kind is ProximityKind.NEAREST_NEIGHBOR:
            return 1
        if self.kind is ProximityKind.FINITE_RANGE:
            return self.reach
        return None

    def label(self) -> str:
        if self.kind is ProximityKind.NEAREST_NEIGHBOR:
            return f"nn(weight={self.weight:g})"
        if self.kind is ProximityKind.EXP_DECAY:
            return f"exp(alpha={self.alpha:g}, weight={self.weight:g})"
        return f"range(reach={self.reach}, weight={self.weight:g})"


def proximity_u(spec: ProximitySpec, x: Site, y: Site) -> float:
    """u(x, y) for distinct sites; symmetric in its arguments."""
    if x == y:
        raise SamePointError(f"proximity weight needs distinct sites, got {x} twice")
    d = abs(x.index - y.index)
    if spec.kind is ProximityKind.NEAREST_NEIGHBOR:
        return spec.weight if d == 1 else 0.0
    if spec.kind is ProximityKind.EXP_DECAY:
        return spec.weight * math.exp(-spec.alpha * d)
    return spec.weight if d <= spec.reach else 0.0


class RateKind(enum.Enum):
    METROPOLIS = "metropolis"
    SQRT_RATIO = "sqrt_ratio"
    GLAUBER_LIKE = "glauber_like"


@dataclass(frozen=True)
class RateModel:
    """A swap-rate recipe: c(gamma, x, y) = f(phi) * u(x, y)."""

    kind: RateKind
    proximity: ProximitySpec

    @classmethod
    def metropolis(cls, proximity: ProximitySpec) -> "RateModel":
        return cls(RateKind.METROPOLIS, proximity)

    @classmethod
    def sqrt_ratio(cls, proximity: ProximitySpec) -> "RateModel":
        return cls(RateKind.SQRT_RATIO, proximity)

    @classmethod
    def glauber_like(cls, proximity: ProximitySpec) -> "RateModel":
        return cls(RateKind.GLAUBER_LIKE, proximity)


def rate_from_ratio(kind: RateKind, u, phi):
    """The rate formula as a pure function of the weight and the swap ratio (floats or arrays)."""
    if kind is RateKind.METROPOLIS:
        return u * np.minimum(phi, 1.0)
    if kind is RateKind.SQRT_RATIO:
        return u * np.sqrt(phi)
    return u * (phi + 1.0)


def rate(model: RateModel, k: KernelMatrix, config: Configuration, swap: SwapPair) -> float:
    """c(gamma, x, y); zero-weight pairs short-circuit the ratio evaluation."""
    u = proximity_u(model.proximity, swap.x, swap.y)
    if u == 0.0:
        return 0.0
    phi = rn_derivative(k, config, swap)
    return float(rate_from_ratio(model.kind, u, phi))


def symmetry_check(
    model: RateModel, k: KernelMatrix, config: Configuration, swap: SwapPair
) -> float:
    """Detailed-balance residual |P(gamma) c(gamma) - P(sigma gamma) c(sigma gamma)|.

    Both rates are read off the two probabilities.  The state's own
    probability is taken and checked first, as in :func:`total_jump_rate`.
    """
    swapped = apply_transposition(config, swap)
    if config.window != k.window:
        raise WindowMismatchError("configuration window differs from kernel window")
    occupied = np.array([config.occupancy, swapped.occupancy], dtype=bool)
    own = _probabilities(k, occupied[:1])
    _check_ratio_defined(k.window, occupied, own)
    probs = np.append(own, _probabilities(k, occupied[1:]))
    if probs.min() <= 0.0:
        raise ZeroProbabilityError("symmetry check needs both configurations to be possible")
    u = proximity_u(model.proximity, swap.x, swap.y)
    if u == 0.0:
        return 0.0
    _check_ratio_defined(k.window, occupied, probs)
    forward, backward = probs * rate_from_ratio(model.kind, u, probs[::-1] / probs)
    return float(abs(forward - backward))


def _pair_table(window: Window, proximity: ProximitySpec) -> tuple[np.ndarray, np.ndarray]:
    """The (P, 2) window positions and the weights u of the window's candidate pairs.

    Pairs are listed by first position, then by second, and u is taken once
    per separation from :func:`proximity_u`.  Pairs whose weight is 0 (an
    exponential weight can underflow) are left out.
    """
    bound = proximity.max_separation()
    reach = max(1, window.size - 1 if bound is None else min(bound, window.size - 1))
    first, step = np.divmod(np.arange(window.size * reach), reach)
    second = first + step + 1
    separation = np.array([proximity_u(proximity, Site(0), Site(d)) for d in range(1, reach + 1)])
    kept = (second < window.size) & (separation[step] > 0.0)
    return np.column_stack([first[kept], second[kept]]), separation[step[kept]]


def candidate_pairs(window: Window, proximity: ProximitySpec) -> tuple[SwapPair, ...]:
    """All unordered site pairs of the window with positive weight."""
    sites = window.sites
    positions, _ = _pair_table(window, proximity)
    return tuple(SwapPair(sites[i], sites[j]) for i, j in positions.tolist())


def _state_edges(
    states: np.ndarray, occupied: np.ndarray, positions: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, pair) of every positive-weight swap between the ascending bitmasks `states`.

    `occupied` holds their (S, n) occupancy rows, and `positions` and `u` the
    window positions and weights of the candidate pairs.  A swap exchanges
    the unequal occupancies at ``positions[pair]``; edges run by row, then by
    pair.  `states` is a whole sector or the full space, so every swapped
    state is listed.
    """
    moves = occupied[:, positions[:, 0]] != occupied[:, positions[:, 1]]
    src, pair = np.nonzero(moves)
    dst = np.searchsorted(states, states[src] ^ (1 << positions).sum(axis=1)[pair])
    return src, dst, pair


def _rate_table(
    model: RateModel, k: KernelMatrix, occupied: np.ndarray, positions: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pair index, rate 2c) of each positive-rate swap out of the bool occupancy row `occupied`.

    The row's own probability is checked before its swapped rows are evaluated.
    """
    pair = np.flatnonzero(occupied[positions[:, 0]] != occupied[positions[:, 1]])
    if not len(pair):
        return pair, np.empty(0)
    row = occupied[np.newaxis]
    own = _probabilities(k, row)
    _check_ratio_defined(k.window, row, own)
    swapped = row.repeat(len(pair), axis=0)
    swapped[np.arange(len(pair))[:, np.newaxis], positions[pair]] ^= True
    rates = 2.0 * rate_from_ratio(model.kind, u[pair], _probabilities(k, swapped) / own[0])
    positive = rates > 0.0
    return pair[positive], rates[positive]


def total_jump_rate(
    model: RateModel, k: KernelMatrix, config: Configuration
) -> tuple[float, list[tuple[SwapPair, float]]]:
    """Total exit rate and the per-pair breakdown.

    Each unordered pair with unequal occupancy carries rate 2c (the
    generator sums over ordered pairs and c is symmetric); equal-occupancy
    pairs are omitted since swapping them does nothing, and so are pairs of
    rate zero.  Pairs come in :func:`candidate_pairs` order.  The state's
    own probability is checked first; the swap ratios then come from one
    batched determinant call over its swapped neighbours, and the total is
    summed in pair order.
    """
    if config.window != k.window:
        raise WindowMismatchError("configuration window differs from kernel window")
    positions, u = _pair_table(k.window, model.proximity)
    pair, rates = _rate_table(model, k, np.array(config.occupancy, dtype=bool), positions, u)
    total = float(np.cumsum(rates)[-1]) if len(rates) else 0.0
    sites = k.window.sites
    return total, [(SwapPair(sites[i], sites[j]), r)
                   for (i, j), r in zip(positions[pair].tolist(), rates.tolist())]


@dataclass
class Trajectory:
    """A simulated swap history: events are (time, pair) with times increasing."""

    seed: int
    stream: int
    initial: Configuration
    events: list[tuple[float, SwapPair]]
    t_max: float
    absorbed: bool = False

    @property
    def n_events(self) -> int:
        return len(self.events)

    def _masks(self) -> list[int]:
        """Bitmask of the state before each event, then of the final state."""
        window = self.initial.window
        masks = [self.initial.bitmask]
        for _, swap in self.events:
            i, j = window.position(swap.x), window.position(swap.y)
            mask = masks[-1]
            masks.append(mask ^ (1 << i | 1 << j) if (mask >> i ^ mask >> j) & 1 else mask)
        return masks

    def final_configuration(self) -> Configuration:
        return Configuration.from_bitmask(self.initial.window, self._masks()[-1])

    def state_occupation(self) -> dict[int, float]:
        """Total holding time per visited state bitmask, up to t_max."""
        times = [0.0] + [when for when, _ in self.events] + [self.t_max]
        holding: dict[int, float] = {}
        for mask, start, end in zip(self._masks(), times, times[1:]):
            holding[mask] = holding.get(mask, 0.0) + (end - start)
        return holding


def simulate(
    model: RateModel,
    k: KernelMatrix,
    initial: Configuration,
    t_max: float,
    rng: SeededRng,
) -> Trajectory:
    """Run the jump chain to time t_max.

    Waiting times are exponential at the current total rate; the executed
    swap is chosen proportionally to the per-pair rates.  The chain runs on
    a bitmask and a bool occupancy row, with a state's rate table (the pairs
    and rates of :func:`total_jump_rate`) held as indices into one pair
    table.  Tables are memoized by bitmask (the swap ratio depends on the
    whole configuration, so a swap invalidates every pair's rate; caching by
    state keeps revisits cheap without approximating).  If the total rate
    hits zero the state is absorbing and the trajectory idles until t_max.
    """
    if initial.window != k.window:
        raise WindowMismatchError("initial configuration window differs from kernel window")
    if t_max < 0.0:
        raise ValueError("t_max must be nonnegative")
    positions, u = _pair_table(k.window, model.proximity)
    ends = positions.tolist()
    tables: dict[int, tuple[float, list[int], np.ndarray]] = {}
    occupied = np.array(initial.occupancy, dtype=bool)
    mask = initial.bitmask
    t = 0.0
    executed: list[tuple[float, int]] = []
    absorbed = False
    while True:
        table = tables.get(mask)
        if table is None:
            pair, rates = _rate_table(model, k, occupied, positions, u)
            cumulative = np.cumsum(rates)
            total = float(cumulative[-1]) if len(rates) else 0.0
            table = tables[mask] = (total, pair.tolist(), cumulative)
        total, pairs, cumulative = table
        if total <= 0.0:
            absorbed = True
            break
        t_next = t + rng.exponential(total)
        if t_next > t_max:
            break
        choice = min(int(cumulative.searchsorted(rng.random() * total, side="right")),
                     len(pairs) - 1)
        i, j = ends[pairs[choice]]
        occupied[i], occupied[j] = occupied[j], occupied[i]
        mask ^= 1 << i | 1 << j
        t = t_next
        executed.append((t, pairs[choice]))
    sites = k.window.sites
    swaps = {p: SwapPair(sites[ends[p][0]], sites[ends[p][1]]) for p in {p for _, p in executed}}
    events = [(when, swaps[p]) for when, p in executed]
    return Trajectory(rng.seed, rng.stream, initial, events, t_max, absorbed)


def sector_graph_connected(window: Window, proximity: ProximitySpec, count: int) -> bool:
    """Whether the swap graph restricted to a particle-count sector is connected."""
    # Imported here: it adds about 5 MiB to every process that imports the package.
    import scipy.sparse.csgraph

    masks = _sector_masks(window.size, count)
    positions, u = _pair_table(window, proximity)
    src, dst, _ = _state_edges(masks, _occupancy(masks, window.size), positions, u)
    graph = scipy.sparse.coo_matrix((np.ones(len(src)), (src, dst)), shape=(len(masks),) * 2)
    return scipy.sparse.csgraph.connected_components(graph, directed=False)[0] == 1


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Export events as CSV: ``time,x,y`` with %.17g times."""
    write_csv(path, "time,x,y", "%.17g,%s,%s",
              ((when, swap.x, swap.y) for when, swap in trajectory.events))


def trajectory_sidecar(trajectory: Trajectory, z: complex, z_prime: complex, model: RateModel) -> dict:
    """Reproducibility metadata for a trajectory (JSON-serializable)."""
    window = trajectory.initial.window
    return {
        "seed": trajectory.seed,
        "stream": trajectory.stream,
        "z": format_complex(z),
        "z_prime": format_complex(z_prime),
        "window": [window.lo.index, window.hi.index],
        "rate_model": model.kind.value,
        "proximity": {
            "kind": model.proximity.kind.value,
            "weight": model.proximity.weight,
            "alpha": model.proximity.alpha,
            "reach": model.proximity.reach,
        },
        "t_max": trajectory.t_max,
        "initial_bitmask": trajectory.initial.bitmask,
        "n_events": trajectory.n_events,
    }


def write_trajectory_sidecar(
    trajectory: Trajectory, z: complex, z_prime: complex, model: RateModel, path
) -> None:
    write_json(trajectory_sidecar(trajectory, z, z_prime, model), path)
