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
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .dpp import (
    _STACK_ENTRIES,
    Configuration,
    _live,
    _occupancy,
    _probabilities,
    _sector_masks,
    config_probability,
)
from .errors import NumericalError, SamePointError, WindowMismatchError, ZeroProbabilityError
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

# simulate draws its uniforms this many at a time; even, as an event takes two.
_UNIFORM_BLOCK = 512

# A rate table's swap ratios are read off G = M^-1 (2K - I).  Their relative
# error is estimated as cond_1(M), taken as ||M||_1 ||G||_1, times the error of
# a kernel entry against an mpmath kernel; a state whose estimate exceeds the
# tolerance is refused.  Against that oracle the estimate bounds the observed
# ratio error (see tests/test_dynamics.py::TestConditionGuard).
_KERNEL_ERROR = 1.5e-14
_RATIO_TOLERANCE = 1e-2


class ProximityKind(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    EXP_DECAY = "exp_decay"
    FINITE_RANGE = "finite_range"


@dataclass(frozen=True)
class ProximitySpec:
    """Symmetric nonnegative pair weight u(x, y), summable in y for fixed x.

    The weight and alpha are finite and positive: a NaN would drop every pair.
    A finite range's reach is an ``int`` (not a ``bool``) of at least 1.
    """

    kind: ProximityKind
    weight: float = 1.0
    alpha: float | None = None
    reach: int | None = None

    def __post_init__(self):
        if not 0.0 < self.weight < math.inf:
            raise ValueError("weight must be finite and positive")
        if self.kind is ProximityKind.EXP_DECAY:
            if self.alpha is None or not 0.0 < self.alpha < math.inf:
                raise ValueError("exponential decay needs a finite alpha > 0")
        if self.kind is ProximityKind.FINITE_RANGE:
            if type(self.reach) is not int or self.reach < 1:
                raise ValueError(f"finite range needs an integer reach >= 1, got {self.reach!r}")

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

    Both probabilities pass :func:`dpp._live`, the state's first:
    ZeroProbabilityError names the state or its swap, whatever the weight.
    """
    rows = np.array([config.occupancy, apply_transposition(config, swap).occupancy], dtype=bool)
    own = _live(k, rows[:1], np.array([config_probability(k, config)]))
    probs = np.append(own, _live(k, rows[1:], _probabilities(k, rows[1:])))
    phi = probs[::-1] / probs
    u = proximity_u(model.proximity, swap.x, swap.y)
    if u == 0.0:
        return 0.0
    fluxes = probs * rate_from_ratio(model.kind, u, phi)
    return float(abs(fluxes[0] - fluxes[1]))


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
    states: np.ndarray, occupied: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, pair) of every positive-weight swap between the ascending bitmasks `states`.

    `occupied` holds their (S, n) occupancy rows, and `positions` the window
    positions of the candidate pairs, all of positive weight.  A swap exchanges
    the unequal occupancies at ``positions[pair]``; edges run by row, then by
    pair.  `states` is a whole sector or the full space, so every swapped
    state is listed.
    """
    moves = occupied[:, positions[:, 0]] != occupied[:, positions[:, 1]]
    src, pair = np.nonzero(moves)
    dst = np.searchsorted(states, states[src] ^ (1 << positions).sum(axis=1)[pair])
    return src, dst, pair


def _rate_table(
    model: RateModel, k: KernelMatrix, occupied: np.ndarray, positions: np.ndarray, u: np.ndarray,
    store: _RateStore,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(pair index, rate 2c) of each positive-rate swap out of bool row `occupied`, and cond_1(M).

    M takes K's column at each occupied site and I - K's at each empty one, so
    P(eta) = det M.  Swapping unequal sites i, j adds s_c (2K - I)[:, c] to columns
    c = i, j of M, with s_c = -1 at the occupied site and +1 at the empty one.  So
    with S = diag(s) and H = M^-1 (2K - I) S, one solve, the determinant lemma
    gives phi = det(I + H[idx, idx]) = (1 + H_ii)(1 + H_jj) - H_ij H_ji for every
    pair, idx = [i, j]; H is G = M^-1 (2K - I) with its columns signed.  No
    probability is taken.  In order: the solve, whose LinAlgError (M exactly
    singular) is a ZeroProbabilityError naming the state; the condition guard,
    NumericalError when the ratios' error estimate cond_1(M) * 1.5e-14, with
    cond_1(M) estimated as ||M||_1 ||H||_1, exceeds :data:`_RATIO_TOLERANCE`;
    then phi.  A ratio in [-estimate, 0) is noise around an exact zero: it is set
    to 0; a lower one is a NumericalError naming the state, and so is a total rate
    that is not finite (rates are taken with overflow warnings off).  A state
    without moves takes no solve, and its estimate is 0.
    """
    sides = occupied[positions]
    pair = np.flatnonzero(sides[:, 0] != sides[:, 1])
    if not len(pair):
        return pair, np.empty(0), 0.0
    m, signed = np.where(occupied, *store.columns)
    try:
        h = np.linalg.solve(m, signed)
    except np.linalg.LinAlgError:
        config = Configuration(k.window, tuple(map(int, occupied)))
        raise ZeroProbabilityError(
            f"configuration {config} has probability 0; ratio undefined") from None
    condition = float(np.where(occupied, *store.column_sums).max() * np.abs(h).sum(axis=0).max())
    error = condition * _KERNEL_ERROR
    if not error <= _RATIO_TOLERANCE:  # NaN fails too
        config = Configuration(k.window, tuple(map(int, occupied)))
        raise NumericalError(
            f"configuration {config} is ill-conditioned: swap ratios may be off by "
            f"{error:.2g} relative (cond_1 about {condition:.2g}), above {_RATIO_TOLERANCE:g}")
    ends = positions[pair]
    block = h[ends[:, :, np.newaxis], ends[:, np.newaxis, :]]
    phi = (1.0 + block[:, 0, 0]) * (1.0 + block[:, 1, 1]) - block[:, 0, 1] * block[:, 1, 0]
    lowest = phi.min()
    if lowest < -error:
        config = Configuration(k.window, tuple(map(int, occupied)))
        raise NumericalError(
            f"configuration {config} has swap ratio {lowest:g}, below its error bound "
            f"-{error:.2g}")
    phi[phi < 0.0] = 0.0
    with np.errstate(over="ignore"):
        rates = 2.0 * rate_from_ratio(model.kind, u[pair], phi)
        if not rates.min() > 0.0:
            positive = rates > 0.0
            pair, rates = pair[positive], rates[positive]
        total = np.cumsum(rates)[-1] if len(rates) else 0.0
    if not math.isfinite(total):
        config = Configuration(k.window, tuple(map(int, occupied)))
        raise NumericalError(f"configuration {config} has total jump rate {total:g}")
    return pair, rates, condition


def total_jump_rate(
    model: RateModel, k: KernelMatrix, config: Configuration
) -> tuple[float, list[tuple[SwapPair, float]]]:
    """Total exit rate and the per-pair breakdown.

    Each unordered pair with unequal occupancy carries rate 2c (the
    generator sums over ordered pairs and c is symmetric); equal-occupancy
    pairs are omitted since swapping them does nothing, and so are pairs of
    rate zero.  Pairs come in :func:`candidate_pairs` order.  The ratios
    come from :func:`_rate_table` (one solve, no determinant), which refuses a
    state whose total is not finite; the total is summed in pair order.
    """
    if config.window != k.window:
        raise WindowMismatchError("configuration window differs from kernel window")
    store = _rate_store(k)
    positions, u, swaps = store.pairs(model.proximity)
    pair, rates, _ = _rate_table(model, k, np.array(config.occupancy, dtype=bool), positions, u,
                                 store)
    total = float(np.cumsum(rates)[-1]) if len(rates) else 0.0
    return total, list(zip(map(swaps.__getitem__, pair.tolist()), rates.tolist()))


@dataclass
class Trajectory:
    """A simulated swap history: events are (time, pair) with times increasing."""

    seed: int
    stream: int
    initial: Configuration
    events: list[tuple[float, SwapPair]]
    t_max: float
    absorbed: bool = False
    # What the run took, outside equality: rate tables built, the largest cond_1
    # estimate of its tables, and the final bitmask (None: replay).
    rate_table_misses: int = field(default=0, compare=False)
    worst_condition: float = field(default=0.0, compare=False)
    final_mask: int | None = field(default=None, compare=False)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def _masks(self) -> list[int]:
        """Bitmask of the state before each event, then of the final state."""
        window = self.initial.window
        lo, n = window.lo.index, window.size
        mask = self.initial.bitmask
        masks = [mask]
        for _, swap in self.events:
            i, j = swap.x.index - lo, swap.y.index - lo
            if not (0 <= i < n and 0 <= j < n):
                raise WindowMismatchError(f"swap {swap} outside window {window}")
            if (mask >> i ^ mask >> j) & 1:
                mask ^= 1 << i | 1 << j
            masks.append(mask)
        return masks

    def final_configuration(self) -> Configuration:
        mask = self._masks()[-1] if self.final_mask is None else self.final_mask
        return Configuration.from_bitmask(self.initial.window, mask)

    def state_occupation(self) -> dict[int, float]:
        """Total holding time per visited state bitmask, up to t_max."""
        times = [0.0] + [when for when, _ in self.events] + [self.t_max]
        holding: dict[int, float] = {}
        for mask, start, end in zip(self._masks(), times, times[1:]):
            holding[mask] = holding.get(mask, 0.0) + (end - start)
        return holding


class _RateStore:
    """One kernel's rate tables, by rate model and state bitmask, and what their solves share.

    A table is ``(total, pairs, cumulative, successors)``: the total exit rate, then the
    pair-table index, running rate sum and resulting bitmask of each positive-rate swap, as
    plain lists.  `pairs` and `successors` repeat their last move, so any index
    ``bisect_right`` returns into `cumulative` reads a move.  Tables are pure in the kernel,
    so every :func:`simulate` call on it shares them.  Rates and successors count against
    the 2^20-entry budget of a determinant stack; a table that would overflow it clears the
    tables first.

    For :func:`_rate_table` it also keeps ``columns``, the columns that an occupied and an
    empty site give M and (2K - I) S: (K, I - 2K) and (I - K, 2K - I), stacked so one
    ``np.where`` makes both; and the column abs-sums of K and of I - K, so ||M||_1 is one
    masked max.

    By proximity it keeps the window's :func:`_pair_table` and :func:`candidate_pairs`, so
    the events of every :func:`simulate` call, and :func:`total_jump_rate`'s pairs, share
    one SwapPair per pair, built once.
    """

    def __init__(self, k: KernelMatrix):
        complement = np.eye(k.size) - k.entries
        reflected = k.entries - complement
        self.columns = np.stack([k.entries, -reflected]), np.stack([complement, reflected])
        self.column_sums = np.abs(k.entries).sum(axis=0), np.abs(complement).sum(axis=0)
        self.tables: dict[RateModel, dict[int, tuple]] = {}
        self.entries = 0
        self.window = k.window
        self.candidates: dict[ProximitySpec, tuple] = {}

    def pairs(self, proximity: ProximitySpec) -> tuple:
        """The window's pair positions and weights under `proximity`, and each pair's SwapPair."""
        if proximity not in self.candidates:
            self.candidates[proximity] = (*_pair_table(self.window, proximity),
                                          candidate_pairs(self.window, proximity))
        return self.candidates[proximity]

    def keep(self, model: RateModel, mask: int, table: tuple) -> None:
        """Store `table`, of state `mask` under `model`; a full store is emptied in place."""
        size = len(table[2]) + 1 + len(table[3])
        if self.entries + size > _STACK_ENTRIES:
            for kept in self.tables.values():
                kept.clear()
            self.entries = 0
        self.tables.setdefault(model, {})[mask] = table
        self.entries += size


def _rate_store(k: KernelMatrix) -> _RateStore:
    """`k`'s rate-table store, kept on `k` as its law table is."""
    if "_rate_store" not in vars(k):
        k._rate_store = _RateStore(k)
    return k._rate_store


def _mask_table(
    model: RateModel, k: KernelMatrix, mask: int, positions: np.ndarray, u: np.ndarray
) -> tuple[tuple[float, list[int], list[float], list[int]], float]:
    """The :class:`_RateStore` table of the state with bitmask `mask`, and its cond_1 estimate.

    The bool occupancy row is unpacked from the mask's bytes, so a mask of
    any width works.
    """
    n = k.size
    occupied = np.unpackbits(np.frombuffer(mask.to_bytes(-(-n // 8), "little"), np.uint8),
                             count=n, bitorder="little").view(bool)
    pair, rates, condition = _rate_table(model, k, occupied, positions, u, _rate_store(k))
    cumulative = np.cumsum(rates).tolist()
    total = cumulative[-1] if cumulative else 0.0
    pairs = pair.tolist() + pair[-1:].tolist()
    successors = [mask ^ (1 << i | 1 << j) for i, j in positions[pairs].tolist()]
    return (total, pairs, cumulative, successors), condition


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
    an integer bitmask.  Each state's rate table (the pairs and rates of
    :func:`total_jump_rate`, and the state each pair leads to) is kept in the
    kernel's :class:`_RateStore`, so later calls on the kernel, such as
    replicas and continuations of one run, share it (the swap ratio depends
    on the whole configuration, so a swap invalidates every pair's rate;
    caching by state keeps revisits cheap without approximating).  A missing
    table costs one solve and no determinant (see :func:`_rate_table`); a state
    whose ratios are ill-conditioned raises NumericalError.  If the total rate
    hits zero the state is absorbing and the trajectory idles until t_max.
    The trajectory keeps the final bitmask and the largest cond_1 estimate of
    the tables the run built.

    Each event takes two uniforms from `rng`, the wait and then the choice,
    and the final wait past t_max takes one.  They are drawn in blocks, each
    wait u giving the exponential -log1p(-u) by ``math.log1p``, and on every
    exit (the horizon, an absorbing state, or a state refused with an error)
    `rng` is left exactly where one scalar draw per uniform would leave it.
    """
    if initial.window != k.window:
        raise WindowMismatchError("initial configuration window differs from kernel window")
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")
    store = _rate_store(k)
    positions, u, swaps = store.pairs(model.proximity)
    tables = store.tables.setdefault(model, {})
    generator = rng.generator
    bits = generator.bit_generator
    mask, t, misses, worst = initial.bitmask, 0.0, 0, 0.0
    times, chosen = [], []
    add_time, add_pair = times.append, chosen.append
    absorbed, waited = False, 0
    # `block` is drawn from state `before`, after `start` events; each event since
    # takes two of its uniforms, and the wait past t_max one more (`waited`).
    before, start = bits.state, 0
    try:
        while True:
            block = generator.random(_UNIFORM_BLOCK)
            # lw = log1p(-u) <= 0 for the wait's uniform u, and t - lw / total is
            # t + (-lw) / total to the bit: negation is exact, rounding sign-symmetric.
            for lw, v in zip(map(math.log1p, (-block[::2]).tolist()), block[1::2].tolist()):
                table = tables.get(mask)
                if table is None:
                    table, condition = _mask_table(model, k, mask, positions, u)
                    store.keep(model, mask, table)
                    misses += 1
                    worst = max(worst, condition)
                total, pairs, cumulative, successors = table
                if total <= 0.0:
                    absorbed = True
                    break
                t_next = t - lw / total
                if t_next > t_max:
                    waited = 1
                    break
                choice = bisect_right(cumulative, v * total)
                mask = successors[choice]
                t = t_next
                add_time(t)
                add_pair(pairs[choice])
            else:  # the block is used up
                before, start = bits.state, len(times)
                continue
            break
    finally:
        bits.state = before
        generator.random(2 * (len(times) - start) + waited)
    events = list(zip(times, map(swaps.__getitem__, chosen)))
    return Trajectory(rng.seed, rng.stream, initial, events, t_max, absorbed, misses, worst,
                      mask)


def sector_graph_connected(window: Window, proximity: ProximitySpec, count: int) -> bool:
    """Whether the swap graph restricted to a particle-count sector is connected.

    Components by hooking and pointer jumping: each state points to a state
    of its component with a smaller or equal index.  Every round hooks the
    root of each edge's source under the smaller root of its destination,
    then jumps each pointer to its root.  The edges come in both directions,
    so the roots fall until no edge joins two trees; the sector is connected
    when every state's root is state 0.
    """
    masks = _sector_masks(window.size, count)
    positions, _ = _pair_table(window, proximity)
    src, dst, _ = _state_edges(masks, _occupancy(masks, window.size), positions)
    root = np.arange(len(masks))
    while True:
        np.minimum.at(root, root[src], root[dst])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        if np.array_equal(root[src], root[dst]):
            return not root.any()


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Export events as CSV: ``time,x,y`` with %.17g times.

    Each distinct swap object's ``x,y`` text is formatted once.  Labels are
    keyed by identity: :func:`simulate` shares one SwapPair per pair, and
    hashing a SwapPair costs about as much as formatting it.
    """
    swaps = {id(swap): swap for _, swap in trajectory.events}
    labels = {key: f"{swap.x},{swap.y}" for key, swap in swaps.items()}
    write_csv(path, "time,x,y",
              ("%.17g,%s" % (when, labels[id(swap)]) for when, swap in trajectory.events))


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
