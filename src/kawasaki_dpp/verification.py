"""Bundled verification suites.

Each suite re-runs the module-level invariants at user-supplied parameters
and reports one named check per invariant, with the measured value and the
tolerance it was held to.  Checks with ``tolerance=None`` are diagnostics:
they are recorded (and must be finite) but carry no pass gate beyond that.
Each bounded check compares two computations, so that a library fault can fail
it; what the library already refuses is not checked again.

Suites run on central subwindows of the window, capped so that enumeration
stays cheap.  The kernel suite caps them at 200 sites (A's neighbour ratios),
100 (kernel), 12 (minors) and 50 (difference operator); its projection probe
takes the 40 sites about the window's centre.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .dpp import (
    Configuration,
    _live,
    _occupancy,
    _probabilities,
    correlation,
    empirical_correlation,
    enumerate_distribution,
    sample,
    sample_many,
)
from .dynamics import (
    _KERNEL_ERROR,
    ProximitySpec,
    RateKind,
    RateModel,
    _pair_table,
    _rate_store,
    _state_edges,
    rate_from_ratio,
    sector_graph_connected,
    simulate,
)
from .errors import KawasakiDppError
from .exact import (
    build_generator,
    check_reversibility,
    dirichlet_form,
    spectrum,
    transition_matrix,
)
from .kernel import (
    AdmissiblePair,
    KernelMatrix,
    Window,
    ab_values,
    difference_operator_matrix,
    kernel_matrix,
    spectral_projection_check,
)
from .rn import SwapPair
from .rng import SeededRng
from .util import write_json

__all__ = ["Check", "Report", "SUITE_NAMES", "check_suite_window", "run_suite"]

SUITE_NAMES = ("kernel", "dpp", "rn", "dynamics", "exact")


@dataclass(frozen=True)
class Check:
    """One named result; only a ``<suite>_error`` check has a ``message``, the error's text."""

    name: str
    passed: bool
    value: float
    tolerance: float | None
    message: str | None = None

    def to_dict(self) -> dict:
        fields = {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "tolerance": self.tolerance,
        }
        return fields if self.message is None else {**fields, "message": self.message}


@dataclass(frozen=True)
class Report:
    suite: str
    checks: tuple[Check, ...]

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path) -> None:
        write_json(self.to_dict(), path)


def _bounded(name: str, value: float, tolerance: float) -> Check:
    return Check(name, bool(abs(value) <= tolerance), float(value), float(tolerance))


def _flag(name: str, passed: bool, value: float = 0.0) -> Check:
    return Check(name, bool(passed), float(value), None)


def _diagnostic(name: str, value: float) -> Check:
    return Check(name, bool(math.isfinite(value)), float(value), None)


def _subwindow(window: Window, cap: int) -> Window:
    if window.size <= cap:
        return window
    lo = window.lo.index + (window.size - cap) // 2
    return Window.from_indices(lo, lo + cap - 1)


def verify_kernel(pair: AdmissiblePair, window: Window, seed: int) -> list[Check]:
    checks: list[Check] = []
    z, zp = pair.z, pair.z_prime

    n_range = np.arange(-10_000, 10_001)
    lowest = float(((z + n_range) * (zp + n_range)).real.min())
    checks.append(_flag("admissibility_product_positive", lowest > 0.0, lowest))

    # ab_values' series at each site against A(x + 1) / A(x) = a / sqrt(ab), by Gamma(a + 1)
    # = a Gamma(a), a = z + x + 1/2, b = z' + x + 1/2.  A conjugate ratio carries two phase
    # errors, which grow with |Im z| and |x|: at the cap |Im z| = 1e3, 2.3e-12 about the
    # origin and 9.2e-12 near |x| = 2^52 on 200 sites; below 1e-13 on the real branch.
    ab_sites = _subwindow(window, 200).sites
    a_values = np.array([ab_values(pair, x)[0] for x in ab_sites])
    t = np.array([x.index + 1.0 for x in ab_sites[:-1]])
    step = (z + t) / np.sqrt(((z + t) * (zp + t)).real)
    ratio_err = float(np.abs(a_values[1:] / a_values[:-1] / step - 1.0).max(initial=0.0))
    checks.append(_bounded("ab_neighbour_ratio_max_error", ratio_err, 2e-11))

    k = kernel_matrix(pair, _subwindow(window, 100))
    diag_margin = min(float(k.diagonal.min()), float(1.0 - k.diagonal.max()))
    checks.append(_flag("kernel_diagonal_in_unit_interval", diag_margin > 0.0, diag_margin))
    evals = k.eigenvalues
    eig_excess = max(float(-evals[0]), float(evals[-1] - 1.0), 0.0)
    checks.append(_bounded("kernel_eigenvalue_range_excess", eig_excess, 1e-9))
    checks.append(_bounded("kernel_trace_vs_eigensum", abs(k.trace - float(evals.sum())), 1e-10))

    # The principal minors of sizes 1 to 4, one stacked det per size.
    km = kernel_matrix(pair, _subwindow(window, 12))
    worst_minor = 0.0
    for size in range(1, min(km.size, 4) + 1):
        idx = np.array(list(itertools.combinations(range(km.size), size)))
        minors = np.linalg.det(km.entries[idx[:, :, np.newaxis], idx[:, np.newaxis, :]])
        worst_minor = min(worst_minor, float(minors.min()))
    checks.append(Check("principal_minors_min", worst_minor >= -1e-10, worst_minor, 1e-10))

    off = np.diagonal(difference_operator_matrix(pair, _subwindow(window, 50)), offset=1)
    checks.append(_flag("difference_operator_offdiag_positive",
                        bool(off.min() > 0.0) if off.size else True,
                        float(off.min()) if off.size else 1.0))

    probe = spectral_projection_check(pair, Window.centered(40, window.lo.index + window.size // 2),
                                      15)
    checks.append(_diagnostic("projection_deviation_40", probe.max_abs_deviation))
    checks.append(_bounded("projection_commutator_interior", probe.commutator_norm, 1e-12))
    return checks


def verify_dpp(pair: AdmissiblePair, window: Window, seed: int) -> list[Check]:
    checks: list[Check] = []
    enum_window = _subwindow(window, 12)
    k = kernel_matrix(pair, enum_window)
    pmf = enumerate_distribution(k)
    sites = enum_window.sites
    marg_err = max(abs(pmf.marginal(s) - k.entry(s, s)) for s in sites)
    checks.append(_bounded("marginal_vs_diagonal_max", marg_err, 1e-10))
    pair_err = max(
        (abs(pmf.occupied_marginal([a, b]) - correlation(k, [a, b]))
         for a, b in itertools.combinations(sites, 2)),
        default=0.0,  # a one-site window has no pairs
    )
    checks.append(_bounded("pair_marginal_vs_minor_max", pair_err, 1e-10))

    sample_window = _subwindow(window, 8)
    ks = kernel_matrix(pair, sample_window)
    pmf_s = enumerate_distribution(ks)
    n_samples = 200_000
    samples = sample_many(ks, SeededRng(seed), n_samples)
    counts = np.bincount([c.bitmask for c in samples], minlength=1 << ks.size)
    total_particles = sum(c.particle_count for c in samples)
    tv = 0.5 * float(np.abs(counts / n_samples - pmf_s.probs).sum())
    # E[tv] <= sum_i sqrt(p_i (1 - p_i) / N) / 2, and one draw moves tv by at most 1/N, so
    # by McDiarmid's inequality exact draws pass with probability at least 1 - 1e-6
    tv_bound = (0.5 * float(np.sqrt(pmf_s.probs * (1.0 - pmf_s.probs) / n_samples).sum())
                + math.sqrt(math.log(1e6) / (2.0 * n_samples)))
    checks.append(_bounded("sampler_tv_vs_enumeration", tv, tv_bound))

    lam = np.clip(ks.eigenvalues, 0.0, 1.0)
    count_sd = math.sqrt(float((lam * (1.0 - lam)).sum()) / n_samples)
    mean_err_sigmas = abs(total_particles / n_samples - ks.trace) / count_sd
    checks.append(_bounded("sampler_mean_count_sigmas", mean_err_sigmas, 4.0))

    probe_sites = sample_window.sites[: 2]
    mc = empirical_correlation(samples, probe_sites)
    exact = correlation(ks, probe_sites)
    sd = math.sqrt(max(exact * (1.0 - exact), 1e-12) / n_samples)
    checks.append(_bounded("empirical_correlation_sigmas", (mc - exact) / sd, 4.0))

    # one draw at a time on a fresh stream of the same seed replays the batch
    replay_rng = SeededRng(seed)
    replay = all(sample(ks, replay_rng) == c for c in samples[:200])
    checks.append(_flag("sampler_seed_determinism", replay))

    clamped = pmf.clamped + pmf_s.clamped  # each law's own clamps, counted once
    checks.append(_diagnostic("clamped_negative_probabilities", float(clamped)))
    return checks


def verify_rn(pair: AdmissiblePair, window: Window, seed: int) -> list[Check]:
    rn_window = _subwindow(window, 10)
    k = kernel_matrix(pair, rn_window)
    sites, mid = rn_window.sites, (rn_window.size - 1) // 2  # check_suite_window: 2 sites
    swaps = {SwapPair(sites[0], sites[-1]), SwapPair(sites[mid], sites[mid + 1])}

    # One enumerated law: each state's swapped state is its mask with both
    # swap bits flipped, or the state itself at equal occupancies.
    probs = enumerate_distribution(k).probs
    masks = np.arange(1 << rn_window.size)
    live = probs > 0.0
    occupied = _occupancy(masks[live], rn_window.size)
    change_worst = square_probe = 0.0
    p = probs[live]
    for swap in swaps:
        i, j = rn_window.position(swap.x), rn_window.position(swap.y)
        moves = (masks >> i ^ masks >> j) & 1 == 1
        q = probs[np.where(moves, masks ^ (1 << i | 1 << j), masks)[live]]
        phi = q / _live(k, occupied, p)
        # Summed one state at a time, in mask order: the mass of the swaps of the states
        # of positive probability, 1 unless a swap takes probability 0 to a positive one.
        change_worst = max(change_worst, abs(float(np.cumsum(p * phi)[-1]) - 1.0))
        square_probe = max(square_probe, float(np.cumsum(p * phi * phi)[-1]))
    return [_bounded("rn_change_of_variables_error", change_worst, 1e-9),
            _diagnostic("rn_square_integral_probe", square_probe)]


def _models() -> list[RateModel]:
    nn = ProximitySpec.nearest_neighbor()
    return [RateModel.metropolis(nn), RateModel.sqrt_ratio(nn), RateModel.glauber_like(nn)]


def verify_dynamics(pair: AdmissiblePair, window: Window, seed: int) -> list[Check]:
    checks: list[Check] = []
    dyn_window = _subwindow(window, 10)
    k = kernel_matrix(pair, dyn_window)
    n = dyn_window.size
    nn = ProximitySpec.nearest_neighbor()

    # One edge table over the enumerated law: every nearest-neighbour move
    # src -> dst, with the probabilities p and q of its two ends.
    probs = enumerate_distribution(k).probs
    positions, u = _pair_table(dyn_window, nn)
    states = np.arange(1 << n)
    src, dst, swap = _state_edges(states, _occupancy(states, n), positions)
    possible = (probs[src] > 0.0) & (probs[dst] > 0.0)
    p, q, weight = probs[src[possible]], probs[dst[possible]], u[swap[possible]]

    balance_worst = 0.0
    factor_worst = 0.0
    for model in _models():
        forward = rate_from_ratio(model.kind, weight, q / p)
        backward = rate_from_ratio(model.kind, weight, p / q)
        flux = np.maximum(p * forward, q * backward)
        balanced = flux > 0.0
        balance = np.abs(p * forward - q * backward)[balanced] / flux[balanced]
        balance_worst = max(balance_worst, float(balance.max(initial=0.0)))
        a_fwd = forward / np.sqrt(q / p)
        a_bwd = backward / np.sqrt(p / q)
        scale = np.maximum(np.abs(a_fwd), np.abs(a_bwd))
        scaled = scale > 0.0
        factor = np.abs(a_fwd - a_bwd)[scaled] / scale[scaled]
        factor_worst = max(factor_worst, float(factor.max(initial=0.0)))
    checks.append(_bounded("detailed_balance_max_relative", balance_worst, 1e-10))
    checks.append(_bounded("rate_factorization_max_relative", factor_worst, 1e-10))

    # Summability diagnostics for the rate field, worst site.  The field
    # covers every pair: an equal-occupancy pair has ratio 1.
    live = probs > 0.0
    moves = live[src]
    phi = np.ones((1 << n, len(positions)))
    phi[src[moves], swap[moves]] = probs[dst[moves]] / probs[src[moves]]
    touching = np.zeros((len(positions), n))
    touching[np.arange(len(positions))[:, np.newaxis], positions] = 1.0
    out_metropolis = rate_from_ratio(RateKind.METROPOLIS, u, phi[live]) @ touching
    out_glauber = rate_from_ratio(RateKind.GLAUBER_LIKE, u, phi[live]) @ touching
    checks.append(_diagnostic("l2_condition_probe_metropolis",
                              float((probs[live] @ out_metropolis ** 2).max())))
    checks.append(_diagnostic("l1_condition_probe_glauber",
                              float((probs[live] @ out_glauber).max())))

    connected = all(sector_graph_connected(dyn_window, nn, count) for count in range(n + 1))
    checks.append(_flag("sector_graph_connected", connected))

    model = _models()[0]
    initial = Configuration.from_bitmask(dyn_window, (1 << (dyn_window.size // 2)) - 1)
    t_a = simulate(model, k, initial, 50.0, SeededRng(seed, stream=5))
    t_b = simulate(model, k, initial, 50.0, SeededRng(seed, stream=5))
    checks.append(_flag("trajectory_seed_determinism", t_a.events == t_b.events,
                        float(t_a.n_events)))
    # Each event must move a particle to an empty site; the replay leaves the
    # mask unchanged on any other swap.
    masks = t_a._masks()
    checks.append(_flag("trajectory_particle_conservation",
                        all(before != after for before, after in zip(masks, masks[1:]))))
    checks.append(_bounded("rate_table_vs_determinants", _rate_table_error(model, k),
                           t_a.worst_condition * _KERNEL_ERROR))
    return checks


def _rate_table_error(model: RateModel, k: KernelMatrix) -> float:
    """Largest relative gap between the running rate sums of each table `k`'s rate store keeps
    under `model` (ratios off one inverse) and those from one batch of determinant ratios."""
    store = _rate_store(k)
    tables = [(mask, table) for mask, table in store.tables.get(model, {}).items() if table[2]]
    if not tables:
        return 0.0
    moves = [len(table[2]) for _, table in tables]  # pairs and successors hold one more
    pair = [i for (_, table), size in zip(tables, moves) for i in table[1][:size]]
    successors = [s for (_, table), size in zip(tables, moves) for s in table[3][:size]]
    occupied = _occupancy(np.array([mask for mask, _ in tables] + successors), k.size)
    probs = _probabilities(k, occupied)
    own = np.repeat(_live(k, occupied[:len(tables)], probs[:len(tables)]), moves)
    rates = 2.0 * rate_from_ratio(model.kind, store.pairs(model.proximity)[1][pair],
                                  probs[len(tables):] / own)
    running = np.concatenate([np.cumsum(part) for part in np.split(rates, np.cumsum(moves)[:-1])])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.abs(np.concatenate([t[2] for _, t in tables]) / running - 1.0).max())


def verify_exact(pair: AdmissiblePair, window: Window, seed: int) -> list[Check]:
    checks: list[Check] = []
    ex_window = _subwindow(window, 8)
    k = kernel_matrix(pair, ex_window)
    sector = max(1, ex_window.size // 2 - 1)

    generators = [build_generator(model, k, sector=sector) for model in _models()]
    reversibility_worst = max([0.0] + [check_reversibility(g) for g in generators])
    checks.append(_bounded("reversibility_max_residual", reversibility_worst, 1e-10))

    g = generators[0]  # metropolis
    checks.append(_bounded("stationarity_muQ_max", float(np.abs(g.measure @ g.Q).max()), 1e-10))

    vec_rng = np.random.default_rng(seed)
    identity_worst = 0.0
    for _ in range(50):
        f = vec_rng.normal(size=g.n_states)
        h = vec_rng.normal(size=g.n_states)
        lhs = dirichlet_form(g, f, h)
        rhs = float(g.measure @ ((-g.Q @ f) * h))
        identity_worst = max(identity_worst, abs(lhs - rhs))
    checks.append(_bounded("dirichlet_generator_identity_max", identity_worst, 1e-10))

    spec = spectrum(g)
    checks.append(_bounded("spectrum_max_eigenvalue", float(spec.eigenvalues[0]), 1e-10))
    checks.append(_diagnostic("spectral_gap", spec.spectral_gap))

    semigroup_entry_min = min([0.0] + [float(transition_matrix(g, t).min())
                                       for t in (0.1, 1.0, 10.0)])
    checks.append(Check("semigroup_entry_min", semigroup_entry_min >= -1e-9,
                        semigroup_entry_min, 1e-9))
    return checks


_SUITES = {
    "kernel": verify_kernel,
    "dpp": verify_dpp,
    "rn": verify_rn,
    "dynamics": verify_dynamics,
    "exact": verify_exact,
}


def check_suite_window(suite: str, window: Window) -> Window:
    """`window`, if every check of `suite` (or ``all``) runs on it; ValueError otherwise.

    The rn suite swaps two sites of its window; the others run on one site.
    """
    if suite in ("rn", "all") and window.size < 2:
        raise ValueError(f"the rn suite needs at least 2 sites, got {window.size}")
    return window


def run_suite(suite: str, pair: AdmissiblePair, window: Window, seed: int) -> Report:
    """Run one named suite (or ``all``) and aggregate a report.

    Under ``all``, a suite that raises KawasakiDppError is one failed check ``<suite>_error``
    whose ``message`` is the error's text."""
    check_suite_window(suite, window)
    if suite == "all":
        checks: list[Check] = []
        for name in SUITE_NAMES:
            try:
                checks.extend(_SUITES[name](pair, window, seed))
            except KawasakiDppError as error:
                checks.append(Check(f"{name}_error", False, 0.0, None, str(error)))
        return Report("all", tuple(checks))
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    return Report(suite, tuple(_SUITES[suite](pair, window, seed)))
