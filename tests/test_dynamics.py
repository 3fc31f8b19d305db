"""Rate models, detailed balance, and the jump-chain simulator."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from kawasaki_dpp import dynamics
from kawasaki_dpp.dpp import (
    _STACK_ENTRIES,
    Configuration,
    _probabilities,
    config_probability,
    sample_many,
)
from kawasaki_dpp.dynamics import (
    _UNIFORM_BLOCK,
    ProximitySpec,
    RateKind,
    RateModel,
    Trajectory,
    _pair_table,
    candidate_pairs,
    proximity_u,
    rate,
    rate_from_ratio,
    sector_graph_connected,
    simulate,
    symmetry_check,
    total_jump_rate,
    trajectory_sidecar,
    write_trajectory_csv,
)
from kawasaki_dpp.errors import (
    NumericalError,
    SamePointError,
    SizeError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from kawasaki_dpp.exact import build_generator
from kawasaki_dpp.kernel import KernelMatrix, Site, Window, kernel_matrix
from kawasaki_dpp.rn import SwapPair, apply_transposition, rn_derivative, rn_stabilization
from kawasaki_dpp.rng import SeededRng
from oracle import mp_kernel, mp_ratios


PROXIMITIES = {
    "nn": ProximitySpec.nearest_neighbor(),
    "range:3": ProximitySpec.finite_range(3),
    "exp:0.5": ProximitySpec.exp_decay(0.5),
}

# Weights that stay positive, reach a few sites, underflow from separation 2 or 3
# on, or vanish at every separation.
SEARCH_PROXIMITIES = {
    "nn": ProximitySpec.nearest_neighbor(),
    "nn:1e-320": ProximitySpec.nearest_neighbor(1e-320),
    **{f"range:{r}": ProximitySpec.finite_range(r) for r in (1, 2, 3, 9)},
    **{f"exp:{a:g}": ProximitySpec.exp_decay(a) for a in (0.5, 300.0, 700.0, 745.0, 1000.0)},
    "exp:2,1e-320": ProximitySpec.exp_decay(2.0, 1e-320),
    "exp:0.5,5e-324": ProximitySpec.exp_decay(0.5, 5e-324),
}


def _all_models(proximity=None):
    proximity = proximity or ProximitySpec.nearest_neighbor()
    return [RateModel.metropolis(proximity), RateModel.sqrt_ratio(proximity),
            RateModel.glauber_like(proximity)]


def _loop_candidate_pairs(window, proximity):
    """Reference: the pairs of the window listed site by site."""
    sites = window.sites
    bound = proximity.max_separation()
    pairs = []
    for i, x in enumerate(sites):
        far = len(sites) if bound is None else min(len(sites), i + bound + 1)
        for j in range(i + 1, far):
            pairs.append(SwapPair(x, sites[j]))
    return tuple(pairs)


def _loop_simulate(model, k, initial, t_max, rng):
    """Reference: the jump chain on Configuration objects, one total_jump_rate table per state.

    Returns the events, the absorbed flag, the final configuration and the
    holding time per visited bitmask.
    """
    tables = {}
    config, t, events, absorbed = initial, 0.0, [], False
    holding = {}
    while True:
        if config.bitmask not in tables:
            total, per_pair = total_jump_rate(model, k, config)
            cumulative = np.cumsum([r for _, r in per_pair]) if per_pair else np.empty(0)
            tables[config.bitmask] = (total, [p for p, _ in per_pair], cumulative)
        total, pairs, cumulative = tables[config.bitmask]
        if total <= 0.0:
            absorbed = True
            break
        t_next = t + rng.exponential(total)
        if t_next > t_max:
            break
        choice = min(int(np.searchsorted(cumulative, rng.random() * total, side="right")),
                     len(pairs) - 1)
        holding[config.bitmask] = holding.get(config.bitmask, 0.0) + (t_next - t)
        t = t_next
        config = apply_transposition(config, pairs[choice])
        events.append((t, pairs[choice]))
    holding[config.bitmask] = holding.get(config.bitmask, 0.0) + (t_max - t)
    return events, absorbed, config, holding


class TestProximity:
    def test_nearest_neighbor(self):
        spec = ProximitySpec.nearest_neighbor()
        assert proximity_u(spec, Site(0), Site(1)) == 1.0
        assert proximity_u(spec, Site(0), Site(3)) == 0.0

    def test_exp_decay(self):
        spec = ProximitySpec.exp_decay(alpha=1.0, weight=2.0)
        assert proximity_u(spec, Site(0), Site(2)) == pytest.approx(2.0 * math.exp(-2.0))

    def test_finite_range(self):
        spec = ProximitySpec.finite_range(reach=2, weight=0.5)
        assert proximity_u(spec, Site(0), Site(2)) == 0.5
        assert proximity_u(spec, Site(0), Site(3)) == 0.0

    def test_symmetry(self):
        spec = ProximitySpec.exp_decay(alpha=0.7, weight=1.3)
        assert proximity_u(spec, Site(-2), Site(4)) == proximity_u(spec, Site(4), Site(-2))

    @pytest.mark.parametrize("seed", range(3))
    def test_non_increasing_in_the_separation(self, seed):
        # sector_graph_connected rests on this: a weight of 0 at separation 1 is 0 at all.
        gen = np.random.default_rng(seed)
        separations = np.unique(np.r_[1:60, np.geomspace(60, 1e5, 100).astype(int)]).tolist()
        for _ in range(60):
            weight = float(gen.choice([5e-324, 1e-320, 1e-310]) if gen.random() < 0.3
                           else math.exp(gen.uniform(-690.0, 690.0)))
            alpha = math.exp(gen.uniform(-7.0, 7.0))
            for spec in (ProximitySpec.nearest_neighbor(weight),
                         ProximitySpec.finite_range(int(gen.integers(1, 30)), weight),
                         ProximitySpec.exp_decay(alpha, weight)):
                x = Site(int(gen.integers(-1000, 1000)))
                u = [proximity_u(spec, x, Site(x.index + d)) for d in separations]
                assert all(a >= b for a, b in zip(u, u[1:])), spec

    def test_same_point(self):
        with pytest.raises(SamePointError):
            proximity_u(ProximitySpec.nearest_neighbor(), Site(2), Site(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ProximitySpec.nearest_neighbor(weight=0.0)
        with pytest.raises(ValueError):
            ProximitySpec.exp_decay(alpha=-1.0)
        with pytest.raises(ValueError):
            ProximitySpec.finite_range(reach=0)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ProximitySpec.nearest_neighbor(weight=math.nan), id="nan-weight"),
        pytest.param(lambda: ProximitySpec.finite_range(2, weight=math.inf), id="inf-weight"),
        pytest.param(lambda: ProximitySpec.exp_decay(alpha=math.nan), id="nan-alpha"),
        pytest.param(lambda: ProximitySpec.exp_decay(alpha=math.inf), id="inf-alpha"),
    ])
    def test_non_finite_weight_or_alpha_rejected(self, make):
        # a NaN weight or alpha would drop every pair and absorb every chain at once
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("reach", [2.5, 2.0, True, None])
    def test_non_integer_reach_rejected(self, reach):
        # a float reach would crash the pair table's arange; True would label itself reach=True
        with pytest.raises(ValueError, match="^finite range needs an integer reach >= 1, got "):
            ProximitySpec.finite_range(reach)


class TestRateFormulas:
    def test_metropolis(self):
        assert rate_from_ratio(RateKind.METROPOLIS, 1.0, 4.0) == 1.0
        assert rate_from_ratio(RateKind.METROPOLIS, 1.0, 0.25) == 0.25

    def test_sqrt_ratio(self):
        assert rate_from_ratio(RateKind.SQRT_RATIO, 2.0, 4.0) == 4.0

    def test_glauber_like(self):
        assert rate_from_ratio(RateKind.GLAUBER_LIKE, 0.5, 4.0) == 2.5

    def test_rate_combines_u_and_phi(self, k6):
        config = Configuration(k6.window, (1, 0, 1, 0, 0, 0))
        swap = SwapPair(Site(-3), Site(-2))
        phi = rn_derivative(k6, config, swap)
        for model in _all_models():
            assert rate(model, k6, config, swap) == rate_from_ratio(model.kind, 1.0, phi)

    def test_zero_weight_short_circuits(self, k6):
        config = Configuration(k6.window, (1, 0, 0, 0, 0, 0))
        far = SwapPair(Site(-3), Site(2))  # separation 5, NN weight 0
        assert rate(_all_models()[0], k6, config, far) == 0.0

    @pytest.mark.parametrize("kernel_window, ends", [((0, 5), (0, 3)), ((0, 5), (10, 13)),
                                                     ((10, 15), (10, 20))])
    def test_zero_weight_pair_checks_the_windows(self, real_pair, kernel_window, ends):
        # A configuration on 10..15 against a kernel on 0..5, or a swap leaving the window:
        # rn_derivative raises, and so must rate, though the weight is 0
        k = kernel_matrix(real_pair, Window.from_indices(*kernel_window))
        config = Configuration(Window.from_indices(10, 15), (1, 0, 1, 0, 0, 0))
        swap = SwapPair(*map(Site, ends))
        model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
        assert proximity_u(model.proximity, swap.x, swap.y) == 0.0
        with pytest.raises(WindowMismatchError):
            rn_derivative(k, config, swap)
        with pytest.raises(WindowMismatchError):
            rate(model, k, config, swap)


class TestSymmetryCheck:
    def test_equal_occupancy_is_exactly_zero(self, k6):
        config = Configuration(k6.window, (1, 0, 0, 0, 0, 1))
        assert symmetry_check(_all_models()[0], k6, config, SwapPair(Site(-3), Site(2))) == 0.0

    def test_equals_six_probability_formula(self, k6):
        # Reference: the two fluxes from config_probability and the scalar rate.
        for proximity in PROXIMITIES.values():
            swaps = _loop_candidate_pairs(k6.window, proximity)
            for model in _all_models(proximity):
                for mask in range(0, 64, 3):
                    config = Configuration.from_bitmask(k6.window, mask)
                    for swap in swaps:
                        swapped = apply_transposition(config, swap)
                        forward = config_probability(k6, config) * rate(model, k6, config, swap)
                        backward = config_probability(k6, swapped) * rate(model, k6, swapped, swap)
                        assert symmetry_check(model, k6, config, swap) == abs(forward - backward)

    def test_state_is_checked_before_its_swap(self):
        # as in TestTotalJumpRate: 110 is impossible, and its swap 011 has a
        # determinant far below the clamp floor; the state's own undefined
        # ratio is what gets reported
        entries = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 2.0], [0.0, 2.0, 0.5]])
        k = KernelMatrix(Window.from_indices(0, 2), entries)
        config, swap = Configuration(k.window, (1, 1, 0)), SwapPair(Site(0), Site(2))
        for check in (lambda: rn_derivative(k, config, swap),
                      lambda: total_jump_rate(_all_models()[0], k, config),
                      lambda: symmetry_check(_all_models()[0], k, config, swap)):
            with pytest.raises(ZeroProbabilityError, match="^configuration 110 has probability 0;"):
                check()

    def test_impossible_swap_is_named_whatever_the_weight(self):
        # Site 0 is surely occupied: 101 is possible, its swap 011 is not.
        # exp(-1000) underflows, so the second model gives the pair weight 0.
        k = KernelMatrix(Window.from_indices(0, 2), np.diag([1.0, 0.0, 0.5]))
        config, swap = Configuration(k.window, (1, 0, 1)), SwapPair(Site(0), Site(1))
        for proximity in (ProximitySpec.nearest_neighbor(), ProximitySpec.exp_decay(1000.0)):
            with pytest.raises(ZeroProbabilityError,
                               match="^configuration 011 has probability 0; ratio undefined$"):
                symmetry_check(RateModel.metropolis(proximity), k, config, swap)

    def test_metropolis_relative_residual(self, k6):
        model = _all_models()[0]
        rng = np.random.default_rng(1)
        swaps = [SwapPair(a, b) for a, b in zip(k6.window.sites, k6.window.sites[1:])]
        for _ in range(50):
            mask = int(rng.integers(0, 64))
            config = Configuration.from_bitmask(k6.window, mask)
            for swap in swaps:
                if config.occupancy_at(swap.x) == config.occupancy_at(swap.y):
                    continue
                residual = symmetry_check(model, k6, config, swap)
                flux = config_probability(k6, config) * rate(model, k6, config, swap)
                if flux > 0.0:
                    assert residual / flux < 1e-12

    def test_glauber_random_configs(self, k6):
        # independent route: fluxes evaluated here, not by symmetry_check, with
        # the determinants that the rates' ratios divide
        model = _all_models()[2]
        rng = np.random.default_rng(7)
        swaps = [SwapPair(a, b) for a, b in zip(k6.window.sites, k6.window.sites[1:])]
        checked = 0
        while checked < 100:
            mask = int(rng.integers(0, 64))
            config = Configuration.from_bitmask(k6.window, mask)
            for swap in swaps:
                if config.occupancy_at(swap.x) == config.occupancy_at(swap.y):
                    continue
                swapped = apply_transposition(config, swap)
                forward = config_probability(k6, config) * rate(model, k6, config, swap)
                backward = config_probability(k6, swapped) * rate(model, k6, swapped, swap)
                assert abs(forward - backward) <= 1e-10 * max(forward, backward)
                checked += 1

    def test_factorization_symmetric_part(self, k6):
        # c / sqrt(phi) must be invariant under the swap for all three models
        swaps = [SwapPair(a, b) for a, b in zip(k6.window.sites, k6.window.sites[1:])]
        for model in _all_models():
            for mask in range(64):
                config = Configuration.from_bitmask(k6.window, mask)
                for swap in swaps:
                    if config.occupancy_at(swap.x) == config.occupancy_at(swap.y):
                        continue
                    swapped = apply_transposition(config, swap)
                    a_fwd = rate(model, k6, config, swap) / math.sqrt(
                        rn_derivative(k6, config, swap))
                    a_bwd = rate(model, k6, swapped, swap) / math.sqrt(
                        rn_derivative(k6, swapped, swap))
                    assert a_fwd == pytest.approx(a_bwd, rel=1e-10)


class TestTotalJumpRate:
    def test_full_and_empty_have_no_moves(self, k6):
        model = _all_models()[0]
        for config in (Configuration.full(k6.window), Configuration.empty(k6.window)):
            total, per_pair = total_jump_rate(model, k6, config)
            assert total == 0.0
            assert per_pair == []

    def test_single_interior_particle_has_two_moves(self, k6):
        model = _all_models()[0]
        config = Configuration.from_occupied(k6.window, [Site(0)])
        total, per_pair = total_jump_rate(model, k6, config)
        assert len(per_pair) == 2
        assert total == pytest.approx(sum(r for _, r in per_pair))

    def test_rates_are_twice_c(self, k6):
        # The table's ratios come from one inverse and rate's from two determinants:
        # they agree to 3.7e-13 relative here.
        model = _all_models()[1]
        config = Configuration(k6.window, (0, 1, 1, 0, 1, 0))
        _, per_pair = total_jump_rate(model, k6, config)
        assert per_pair, "expected at least one move"
        for swap, r in per_pair:
            assert r == pytest.approx(2.0 * rate(model, k6, config, swap), rel=1e-12)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_equals_scalar_loop_on_wide_window(self, request, branch):
        # 70 sites: a move past position 62 would overflow a signed 64-bit bitmask.
        window = Window.from_indices(-65, 4)
        k = kernel_matrix(request.getfixturevalue(branch), window)
        farthest = 0
        for proximity in (ProximitySpec.nearest_neighbor(), ProximitySpec.finite_range(3, 0.7)):
            for model in _all_models(proximity):
                for config in sample_many(k, SeededRng(17), 3):
                    want_pairs, want_total = [], 0.0
                    for swap in candidate_pairs(window, proximity):
                        if config.occupancy_at(swap.x) != config.occupancy_at(swap.y):
                            r = 2.0 * rate(model, k, config, swap)
                            if r > 0.0:
                                want_pairs.append((swap, r))
                                want_total += r
                    # Inverse against determinants: 8.3e-15 relative at most on these draws.
                    total, per_pair = total_jump_rate(model, k, config)
                    assert [swap for swap, _ in per_pair] == [swap for swap, _ in want_pairs]
                    assert [r for _, r in per_pair] == pytest.approx([r for _, r in want_pairs],
                                                                     rel=1e-12)
                    assert total == pytest.approx(want_total, rel=1e-12)
                    farthest = max([farthest] + [window.position(s.y) for s, _ in want_pairs])
        assert farthest >= 63

    def test_zero_probability_state_raises(self):
        # Site 0 is surely occupied: leaving it empty is impossible.
        k = KernelMatrix(Window.from_indices(0, 2), np.diag([1.0, 0.0, 0.5]))
        with pytest.raises(ZeroProbabilityError):
            total_jump_rate(_all_models()[0], k, Configuration.from_bitmask(k.window, 0b010))
        # An impossible state without moves has nothing to divide.
        assert total_jump_rate(_all_models()[0], k, Configuration.full(k.window)) == (0.0, [])

    def test_zero_state_is_checked_before_its_neighbours(self):
        # Site 0 carries no kernel mass, so 110 is impossible.  Its swap of
        # sites 0 and 2 leads to 011, whose determinant 0.25 - 4 lies far below
        # the clamp floor (this K is no DPP kernel): the state's own undefined
        # ratio is what gets reported.
        entries = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 2.0], [0.0, 2.0, 0.5]])
        k = KernelMatrix(Window.from_indices(0, 2), entries)
        model = RateModel.metropolis(ProximitySpec.exp_decay(0.5))
        with pytest.raises(ZeroProbabilityError, match="110"):
            total_jump_rate(model, k, Configuration(k.window, (1, 1, 0)))

    def test_wide_window_bounds_each_determinant_stack(self, real_pair, monkeypatch):
        # 256 sites and swaps across up to 16 of them: the state and its
        # swapped rows no longer fit one stack of determinants.
        k = kernel_matrix(real_pair, Window.from_indices(-128, 127))
        config = sample_many(k, SeededRng(5), 1)[0]
        model = RateModel.metropolis(ProximitySpec.finite_range(16, 0.7))
        positions, _ = _pair_table(k.window, model.proximity)
        swapped = np.array([config.occupancy] * (1 + len(positions)), dtype=bool)
        rows = np.arange(1, len(swapped))[:, np.newaxis]
        swapped[rows, positions] = swapped[rows, positions[:, ::-1]]
        stacks = []
        det = np.linalg.det

        def recording_det(a):
            stacks.append(a.size)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", recording_det)
        probs = _probabilities(k, swapped)
        assert max(stacks) <= _STACK_ENTRIES < sum(stacks)
        monkeypatch.undo()
        # The table, from one inverse, against those determinants: 1e-12 relative.
        _, per_pair = total_jump_rate(model, k, config)
        index = {(positions[p, 0], positions[p, 1]): p for p in range(len(positions))}
        for swap, r in per_pair:
            p = index[k.window.position(swap.x), k.window.position(swap.y)]
            phi = probs[1 + p] / probs[0]
            assert r == pytest.approx(2.0 * 0.7 * min(phi, 1.0), rel=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 40])
    @pytest.mark.parametrize("proximity", PROXIMITIES.values(), ids=PROXIMITIES.keys())
    def test_pair_table_equals_scalar_loop(self, size, proximity):
        window = Window.from_indices(-3, size - 4)
        want = _loop_candidate_pairs(window, proximity)
        positions, u = _pair_table(window, proximity)
        assert positions.shape == (len(want), 2)
        assert positions.tolist() == [[window.position(p.x), window.position(p.y)] for p in want]
        assert u.tolist() == [proximity_u(proximity, p.x, p.y) for p in want]
        assert candidate_pairs(window, proximity) == want

    def test_candidate_pairs_respect_range(self, window8):
        nn_pairs = candidate_pairs(window8, ProximitySpec.nearest_neighbor())
        assert len(nn_pairs) == 7
        all_pairs = candidate_pairs(window8, ProximitySpec.exp_decay(alpha=0.5))
        assert len(all_pairs) == 28

    def test_zero_weight_pairs_are_left_out(self):
        # exp(-100 d) underflows to 0 from separation 8 on: 10 of the 66 pairs of 12 sites
        window, proximity = Window.centered(12), ProximitySpec.exp_decay(100.0)
        positions, u = _pair_table(window, proximity)
        assert len(u) == 56 and (u > 0.0).all()
        assert (positions[:, 1] - positions[:, 0] <= 7).all()
        pairs = candidate_pairs(window, proximity)
        assert pairs == tuple(p for p in _loop_candidate_pairs(window, proximity)
                              if proximity_u(proximity, p.x, p.y) > 0.0)


class TestDeterminantCount:
    def test_each_ratio_caller_takes_its_determinants(self, real_pair, monkeypatch):
        # (np.linalg.det calls, matrices) of each caller of the swap ratios.
        k = kernel_matrix(real_pair, Window.centered(8))
        config = Configuration(k.window, (1, 0, 1, 1, 0, 0, 1, 0))  # 5 nn moves
        swap = SwapPair(k.window.sites[0], k.window.sites[1])
        model = _all_models()[0]
        stacks = []
        det = np.linalg.det

        def recording_det(a):
            stacks.append(len(a) if a.ndim == 3 else 1)
            return det(a)

        def counts(call) -> tuple[int, int]:
            stacks.clear()
            call()
            return len(stacks), sum(stacks)

        inverses = []
        inv = np.linalg.inv

        def recording_inv(a):
            inverses.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "det", recording_det)
        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        assert counts(lambda: rn_derivative(k, config, swap)) == (2, 2)
        # One inverse for its 5 ratios, and no determinant
        assert counts(lambda: total_jump_rate(model, k, config)) == (0, 0)
        assert inverses == [(8, 8)]
        _, per_pair = total_jump_rate(model, k, config)
        assert len(per_pair) == 5
        for move, r in per_pair:
            assert r == pytest.approx(2.0 * rate(model, k, config, move), rel=1e-12)
        inverses.clear()
        assert counts(lambda: symmetry_check(model, k, config, swap)) == (2, 2)
        pattern = Configuration(Window.from_indices(0, 1), (1, 0))
        sizes = [4, 6, 8]
        calls, _ = counts(lambda: rn_stabilization(real_pair, pattern, SwapPair(Site(0), Site(1)),
                                                   sizes, SeededRng(1), n_samples=10))
        assert calls == 2 * len(sizes)
        assert counts(lambda: build_generator(model, k, sector=4))[0] == 1
        assert inverses == []


class TestSimulate:
    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, k6, t_max):
        # the jump loop ends only past t_max, which no event time passes here
        config = Configuration(k6.window, (1, 0, 1, 0, 0, 0))
        with pytest.raises(ValueError, match="^t_max must be finite and nonnegative"):
            simulate(_all_models()[0], k6, config, t_max, SeededRng(1))

    def test_zero_horizon(self, k6):
        config = Configuration(k6.window, (1, 0, 1, 0, 0, 0))
        trajectory = simulate(_all_models()[0], k6, config, 0.0, SeededRng(1))
        assert trajectory.events == []
        assert not trajectory.absorbed

    def test_conserves_particles_and_orders_times(self, k6):
        config = Configuration(k6.window, (1, 1, 0, 1, 0, 0))
        trajectory = simulate(_all_models()[0], k6, config, 100.0, SeededRng(4))
        assert trajectory.n_events > 10
        times = [t for t, _ in trajectory.events]
        assert all(a < b for a, b in zip(times, times[1:]))
        state = config
        for _, swap in trajectory.events:
            state = apply_transposition(state, swap)
            assert state.particle_count == config.particle_count
        assert trajectory.final_configuration() == state

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_kept_final_state_equals_the_replay(self, request, branch):
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(10))
        initial = Configuration(k.window, tuple(i % 2 for i in range(10)))
        for t_max in (0.0, 3.0, 300.0):
            trajectory = simulate(_all_models()[0], k, initial, t_max, SeededRng(9))
            replayed = dataclasses.replace(trajectory, final_mask=None)
            assert trajectory.final_mask == replayed._masks()[-1]
            assert trajectory.final_configuration() == replayed.final_configuration()

    def test_worst_condition_is_the_largest_of_the_run_s_tables(self, real_pair):
        k = kernel_matrix(real_pair, Window.centered(12))
        model = _all_models()[0]
        positions, u = _pair_table(k.window, model.proximity)
        initial = Configuration(k.window, tuple(i % 2 for i in range(12)))
        first = simulate(model, k, initial, 50.0, SeededRng(2))
        estimates = []
        for mask in first.state_occupation():
            occupied = np.array(Configuration.from_bitmask(k.window, mask).occupancy, dtype=bool)
            estimates.append(dynamics._rate_table(model, k, occupied, positions, u)[2])
        assert first.rate_table_misses == len(estimates)
        assert first.worst_condition == max(estimates) > 1e6
        # A rerun builds no table, so it reports none.
        assert simulate(model, k, initial, 50.0, SeededRng(2)).worst_condition == 0.0

    def test_replay_skips_an_equal_occupancy_event(self, k6):
        config = Configuration(k6.window, (1, 1, 0, 1, 0, 0))
        trajectory = Trajectory(0, 0, config, [(1.0, SwapPair(Site(-3), Site(-2)))], 2.0)
        assert trajectory.final_configuration() == config
        assert trajectory.state_occupation() == {config.bitmask: 2.0}

    @pytest.mark.parametrize("swap", [SwapPair(Site(2), Site(3)), SwapPair(Site(-3), Site(-4))])
    def test_replay_rejects_an_event_outside_the_window(self, k6, swap):
        config = Configuration(k6.window, (1, 1, 0, 1, 0, 0))
        trajectory = Trajectory(0, 0, config, [(1.0, swap)], 2.0)
        for replay in (trajectory.final_configuration, trajectory.state_occupation):
            with pytest.raises(WindowMismatchError, match="outside window"):
                replay()

    def test_seed_determinism(self, k6):
        config = Configuration(k6.window, (1, 0, 1, 0, 0, 0))
        a = simulate(_all_models()[0], k6, config, 50.0, SeededRng(11, 2))
        b = simulate(_all_models()[0], k6, config, 50.0, SeededRng(11, 2))
        c = simulate(_all_models()[0], k6, config, 50.0, SeededRng(11, 3))
        assert a.events == b.events
        assert a.events != c.events
        assert a.seed == 11 and a.stream == 2

    def test_absorbing_state(self, k6):
        trajectory = simulate(_all_models()[0], k6, Configuration.empty(k6.window),
                              5.0, SeededRng(0))
        assert trajectory.absorbed
        assert trajectory.events == []

    def test_state_occupation_sums_to_horizon(self, k6):
        config = Configuration(k6.window, (1, 0, 1, 0, 1, 0))
        trajectory = simulate(_all_models()[0], k6, config, 80.0, SeededRng(6))
        holding = trajectory.state_occupation()
        assert sum(holding.values()) == pytest.approx(80.0, rel=1e-12)

    def test_window_mismatch(self, k6, window8):
        with pytest.raises(WindowMismatchError):
            simulate(_all_models()[0], k6, Configuration.empty(window8), 1.0, SeededRng(0))

    def test_ergodic_average_small(self, k8, pmf8):
        # quick version of the long-run check: 3 particles on 8 sites
        model = _all_models()[0]
        initial = Configuration(k8.window, (1, 1, 1, 0, 0, 0, 0, 0))
        trajectory = simulate(model, k8, initial, 5000.0, SeededRng(12))
        masks, conditional = pmf8.sector(3)
        holding = trajectory.state_occupation()
        empirical = np.array([holding.get(int(m), 0.0) for m in masks]) / trajectory.t_max
        tv = 0.5 * float(np.abs(empirical - conditional).sum())
        assert trajectory.n_events > 5000
        assert tv < 0.1

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("proximity", PROXIMITIES.values(), ids=PROXIMITIES.keys())
    def test_equals_configuration_loop(self, request, branch, proximity):
        # On 70 sites, bitmasks outgrow a signed 64-bit integer.
        pair = request.getfixturevalue(branch)
        farthest = 0
        for window, t_max, runs in ((Window.from_indices(-4, 3), 30.0, 3),
                                    (Window.from_indices(-65, 4), 5.0, 1)):
            k = kernel_matrix(pair, window)
            starts = sample_many(k, SeededRng(21), runs)
            for model, initial in zip(_all_models(proximity), starts):
                trajectory = simulate(model, k, initial, t_max, SeededRng(5, 1))
                events, absorbed, final, holding = _loop_simulate(model, k, initial, t_max,
                                                                  SeededRng(5, 1))
                assert trajectory.n_events > 0
                assert trajectory.events == events
                assert trajectory.absorbed == absorbed
                assert trajectory.final_configuration() == final
                assert trajectory.state_occupation() == holding
                farthest = max([farthest] + [window.position(s.y) for _, s in events])
        assert farthest >= 63


class TestSimulateStream:
    """simulate draws its uniforms in blocks but leaves the stream where scalar draws would."""

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("case", ["longer_than_a_block", "zero_horizon", "absorbing"])
    def test_stream_continues_as_after_scalar_draws(self, request, branch, case):
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(-3, 2))
        model = _all_models()[0]
        initial, t_max = {
            "longer_than_a_block": (Configuration(k.window, (1, 0, 1, 0, 1, 0)), 400.0),
            "zero_horizon": (Configuration(k.window, (1, 0, 1, 0, 1, 0)), 0.0),
            "absorbing": (Configuration.full(k.window), 5.0),
        }[case]
        rng, reference = SeededRng(8, 3), SeededRng(8, 3)
        trajectory = simulate(model, k, initial, t_max, rng)
        events, absorbed, _, _ = _loop_simulate(model, k, initial, t_max, reference)
        assert trajectory.events == events and trajectory.absorbed == absorbed
        assert rng.random() == reference.random()
        # Each event takes two uniforms and the wait past t_max one more.
        used = 2 * len(events) + (not absorbed)
        assert rng.random() == SeededRng(8, 3).random(used + 2)[-1]
        if case == "longer_than_a_block":
            assert 2 * len(events) > _UNIFORM_BLOCK
        else:
            assert used == (case == "zero_horizon")

    @staticmethod
    def _assert_stream_ends_at(model, k, initial, t_max, used):
        """simulate equals the reference loop, and both took exactly `used` uniforms."""
        rng, reference = SeededRng(8, 3), SeededRng(8, 3)
        trajectory = simulate(model, k, initial, t_max, rng)
        events, absorbed, _, _ = _loop_simulate(model, k, initial, t_max, reference)
        assert trajectory.events == events and trajectory.absorbed == absorbed
        assert 2 * len(events) + (not absorbed) == used
        assert rng.random() == reference.random() == SeededRng(8, 3).random(used + 1)[-1]

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_horizon_at_a_block_boundary(self, request, branch):
        # t_max is the time of the event that uses up the first block, so the
        # wait past t_max is the first uniform of a second block.
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(-3, 2))
        model, initial = _all_models()[0], Configuration(k.window, (1, 0, 1, 0, 1, 0))
        events, _, _, _ = _loop_simulate(model, k, initial, 1000.0, SeededRng(8, 3))
        t_max = events[_UNIFORM_BLOCK // 2 - 1][0]
        self._assert_stream_ends_at(model, k, initial, t_max, _UNIFORM_BLOCK + 1)

    def test_absorbed_at_a_block_boundary(self, conj_pair, monkeypatch):
        # The state that the event using up the first block leads to, first
        # reached there, is made absorbing: no second block is drawn.
        window = Window.from_indices(-6, 5)
        k = kernel_matrix(conj_pair, window)
        model = _all_models(PROXIMITIES["range:3"])[0]
        initial = Configuration(window, tuple(i % 2 for i in range(window.size)))
        events, _, _, _ = _loop_simulate(model, k, initial, 300.0, SeededRng(8, 3))
        states = [initial]
        for _, swap in events[:_UNIFORM_BLOCK // 2]:
            states.append(apply_transposition(states[-1], swap))
        trap = list(states[-1].occupancy)
        assert states[-1] not in states[:-1]
        build = dynamics._rate_table

        def trapping(model, k, occupied, *rest):
            if occupied.tolist() == trap:
                return np.empty(0, dtype=int), np.empty(0), 0.0
            return build(model, k, occupied, *rest)

        monkeypatch.setattr(dynamics, "_rate_table", trapping)
        self._assert_stream_ends_at(model, k, initial, 300.0, _UNIFORM_BLOCK)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_event_cap_leaves_the_stream_after_its_events(self, request, monkeypatch, branch):
        # With the cap at three blocks' events the run is refused at the end of the
        # third block, the stream left past the two uniforms of each event.
        cap = 3 * _UNIFORM_BLOCK // 2
        monkeypatch.setattr(dynamics, "_MAX_EVENTS", cap)
        k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(-3, 2))
        model, initial = _all_models()[0], Configuration(k.window, (1, 0, 1, 0, 1, 0))
        rng = SeededRng(8, 3)
        with pytest.raises(SizeError, match=rf"^simulate reached its cap of {cap} events "
                                            r"before t_max = 1e\+308$"):
            simulate(model, k, initial, 1e308, rng)
        assert rng.random() == SeededRng(8, 3).random(2 * cap + 1)[-1]
        # A horizon reached one event short of the cap runs as before.
        events, _, _, _ = _loop_simulate(model, k, initial, 1000.0, SeededRng(8, 3))
        self._assert_stream_ends_at(model, k, initial, events[cap - 2][0], 2 * cap - 1)

    @pytest.mark.parametrize("after", [100, 400], ids=["first_block", "later_block"])
    def test_refusal_mid_run_leaves_the_stream_after_its_events(self, conj_pair, monkeypatch,
                                                                after):
        # The table of the first state reached anew after `after` events is
        # refused: the stream is left past the two uniforms of each event before it.
        window = Window.from_indices(-6, 5)
        model = _all_models(PROXIMITIES["range:3"])[0]
        initial = Configuration(window, tuple(i % 2 for i in range(window.size)))
        events, _, _, _ = _loop_simulate(model, kernel_matrix(conj_pair, window), initial, 300.0,
                                         SeededRng(8, 3))
        states = [initial]
        for _, swap in events:
            states.append(apply_transposition(states[-1], swap))
        taken = next(e for e in range(after, len(states)) if states[e] not in states[:e])
        assert (taken < _UNIFORM_BLOCK // 2) == (after < _UNIFORM_BLOCK // 2)
        refused_build = len(set(states[:taken])) + 1
        build, built = dynamics._rate_table, []

        def refusing(*args):
            built.append(args[0])
            if len(built) == refused_build:
                raise NumericalError("refused")
            return build(*args)

        monkeypatch.setattr(dynamics, "_rate_table", refusing)
        rng = SeededRng(8, 3)
        with pytest.raises(NumericalError, match="^refused$"):
            simulate(model, kernel_matrix(conj_pair, window), initial, 300.0, rng)
        assert rng.random() == SeededRng(8, 3).random(2 * taken + 1)[-1]


def _counting_rate_table(monkeypatch) -> list:
    """Patch dynamics._rate_table to record one entry per table built."""
    built = []
    build = dynamics._rate_table

    def counting(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(dynamics, "_rate_table", counting)
    return built


def _no_determinant(a):
    raise AssertionError("a determinant was taken")


class TestRateStore:
    """Rate tables are kept per kernel and model, within the determinant stack budget."""

    def test_second_run_builds_no_table(self, real_pair, window8, monkeypatch):
        k = kernel_matrix(real_pair, window8)
        model, initial = _all_models()[0], Configuration(window8, (1, 0, 1, 0, 1, 0, 0, 1))
        built = _counting_rate_table(monkeypatch)
        first = simulate(model, k, initial, 40.0, SeededRng(2))
        assert len(built) == len(first.state_occupation()) > 1
        built.clear()
        assert simulate(model, k, initial, 40.0, SeededRng(2)).events == first.events
        assert built == []

    def test_models_and_kernels_keep_their_own_tables(self, real_pair, window8, monkeypatch):
        k = kernel_matrix(real_pair, window8)
        initial = Configuration(window8, (1, 0, 1, 0, 1, 0, 0, 1))
        built = _counting_rate_table(monkeypatch)
        metropolis, sqrt_ratio = _all_models()[:2]
        simulate(metropolis, k, initial, 20.0, SeededRng(2))
        built.clear()
        other_model = simulate(sqrt_ratio, k, initial, 20.0, SeededRng(2))
        assert len(built) == len(other_model.state_occupation())
        assert set(built) == {sqrt_ratio}
        assert set(k._rate_store.tables) == {metropolis, sqrt_ratio}
        built.clear()
        other_kernel = simulate(metropolis, kernel_matrix(real_pair, window8), initial, 20.0,
                                SeededRng(2))
        assert len(built) == len(other_kernel.state_occupation())

    def test_store_stays_within_a_small_budget(self, conj_pair, window8, monkeypatch):
        model, initial = _all_models()[2], Configuration(window8, (1, 1, 0, 1, 0, 0, 1, 0))
        want = simulate(model, kernel_matrix(conj_pair, window8), initial, 60.0, SeededRng(4))
        budget = 40
        monkeypatch.setattr(dynamics, "_STACK_ENTRIES", budget)
        k = kernel_matrix(conj_pair, window8)
        store = dynamics._rate_store(k)
        keep = store.keep
        counts = []

        def watched_keep(*args):
            keep(*args)
            # Rates, the total and successors of each table.
            stored = sum(len(table[2]) + 1 + len(table[3]) for tables in store.tables.values()
                         for table in tables.values())
            assert stored == store.entries <= budget
            counts.append(stored)

        monkeypatch.setattr(store, "keep", watched_keep)
        got = simulate(model, k, initial, 60.0, SeededRng(4))
        assert got.events == want.events
        assert got.state_occupation() == want.state_occupation()
        # The stored count fell at least once: the store was cleared.
        assert sorted(counts) != counts

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [8, 10, 12])
    def test_warm_memo_tables_equal_fresh_kernel_tables(self, request, branch, size):
        # Each model's chain runs on the store the models before it warmed; a
        # table depends on its state alone, so a fresh kernel builds it bitwise.
        window = Window.centered(size)
        initial = Configuration(window, tuple(i % 2 for i in range(size)))
        for proximity in (PROXIMITIES["nn"], PROXIMITIES["range:3"]):
            k = kernel_matrix(request.getfixturevalue(branch), window)
            for model in _all_models(proximity):
                assert simulate(model, k, initial, 1000.0, SeededRng(3)).n_events > 1000
            positions, u = _pair_table(window, proximity)
            for model, tables in k._rate_store.tables.items():
                for mask, table in tables.items():
                    fresh = KernelMatrix(window, k.entries)
                    assert dynamics._mask_table(model, fresh, mask, positions, u)[0] == table

    def test_chain_takes_one_inverse_per_table(self, real_pair, monkeypatch):
        # The three models' chains take one inverse per table and no determinant.
        k = kernel_matrix(real_pair, Window.centered(10))
        initial = Configuration(k.window, tuple(i % 2 for i in range(10)))
        inverses = []
        inv = np.linalg.inv

        def recording_inv(a):
            inverses.append(a.tobytes())
            return inv(a)

        monkeypatch.setattr(np.linalg, "det", _no_determinant)
        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        runs = [simulate(model, k, initial, 500.0, SeededRng(42, 1)) for model in _all_models()]
        monkeypatch.undo()
        store = k._rate_store
        misses = sum(t.rate_table_misses for t in runs)
        assert misses == len(inverses) == sum(map(len, store.tables.values()))
        # Each model inverts each of its states' A once; the models share states.
        assert len(set(inverses)) == len(set().union(*store.tables.values())) < misses
        # Against the determinant reference: each state's ratios are those of
        # rn_derivative within the state's own error estimate.
        metropolis = _all_models()[0]
        positions, u = _pair_table(k.window, metropolis.proximity)
        for mask in store.tables[metropolis]:
            config = Configuration.from_bitmask(k.window, mask)
            pair, rates, condition = dynamics._rate_table(
                metropolis, k, np.array(config.occupancy, dtype=bool), positions, u)
            for p, r in zip(pair.tolist(), rates.tolist()):
                swap = SwapPair(k.window.sites[positions[p, 0]], k.window.sites[positions[p, 1]])
                phi = rn_derivative(k, config, swap)
                assert abs(r / 2.0 - min(phi, 1.0)) <= condition * dynamics._KERNEL_ERROR * phi

    def test_store_keeps_no_square_array(self, real_pair):
        # 1024 sites: a table peaks at about 3 n^2 doubles (A, its inverse and
        # one absolute value), and the store keeps none of them: the call leaves
        # less than n^2 / 2 doubles allocated.
        k = kernel_matrix(real_pair, Window.from_indices(-512, 511))
        n, config = k.size, sample_many(k, SeededRng(1), 1)[0]
        model = RateModel.metropolis(PROXIMITIES["nn"])
        tracemalloc.start()
        try:
            _, per_pair = total_jump_rate(model, k, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert per_pair
        assert peak <= 3.5 * 8 * n * n and kept <= 0.5 * 8 * n * n

    def test_chain_and_total_rate_take_no_determinant(self, conj_pair, monkeypatch):
        k = kernel_matrix(conj_pair, Window.centered(8))
        model = RateModel.sqrt_ratio(PROXIMITIES["range:3"])
        initial = Configuration(k.window, (1, 1, 0, 1, 0, 0, 1, 0))
        monkeypatch.setattr(np.linalg, "det", _no_determinant)
        total, per_pair = total_jump_rate(model, k, initial)
        assert total > 0.0 and len(per_pair) > 1
        assert simulate(model, k, initial, 50.0, SeededRng(7)).n_events > 10
        with pytest.raises(AssertionError):
            rate(model, k, initial, per_pair[0][0])

    @pytest.mark.parametrize("path", ["simulate", "total_jump_rate"])
    def test_non_finite_total_rate_names_the_state(self, real_pair, window6, path):
        # Rates of 2u (phi + 1) with u = 1e308 overflow.  Both paths refuse the
        # state in _rate_table; an overflow RuntimeWarning would fail the test.
        k = kernel_matrix(real_pair, window6)
        model = RateModel.glauber_like(ProximitySpec.nearest_neighbor(1e308))
        config = Configuration(window6, (1, 0, 1, 0, 0, 0))
        with pytest.raises(NumericalError, match="^configuration 101000 has total jump rate inf$"):
            if path == "simulate":
                simulate(model, k, config, 5.0, SeededRng(0))
            else:
                total_jump_rate(model, k, config)


class TestConditionGuard:
    """A table's ratios come from one inverse, behind a guard on cond_1(A) * 1.5e-14."""

    @pytest.mark.parametrize("size, refused", [(12, False), (20, False), (28, True), (36, True)])
    def test_alternating_start_against_mpmath(self, real_pair, monkeypatch, size, refused):
        # The estimate bounds the ratios' error against the oracle.  The kernel's
        # entries are within 2.2e-16 of mpmath here, not the 1.5e-14 the estimate
        # assumes, so at 28 sites the refused ratios are off by 8.4e-3, inside the
        # tolerance; at 36 they are off by 3.5.
        window = Window.from_indices(-(size // 2), size // 2 - 1)
        k = kernel_matrix(real_pair, window)
        config = Configuration(window, tuple(i % 2 for i in range(size)))
        model = RateModel.sqrt_ratio(ProximitySpec.nearest_neighbor())
        tolerance = dynamics._RATIO_TOLERANCE
        if refused:
            with pytest.raises(NumericalError, match=f"^configuration {config} is ill-conditioned"):
                total_jump_rate(model, k, config)
            monkeypatch.setattr(dynamics, "_RATIO_TOLERANCE", math.inf)
        positions, u = _pair_table(window, model.proximity)
        pair, rates, condition = dynamics._rate_table(
            model, k, np.array(config.occupancy, dtype=bool), positions, u)
        # Every nn pair moves; a ratio that rounding took to 0 or below has no rate.
        want = np.array(mp_ratios(real_pair, window, config.occupancy, positions.tolist()))
        phi = np.zeros(len(positions))
        phi[pair] = (rates / 2.0) ** 2
        error = float(np.max(np.abs(phi - want) / want))
        estimate = condition * dynamics._KERNEL_ERROR
        assert error <= estimate
        assert (estimate > tolerance) is refused
        assert (error > tolerance) is (size == 36)

    def test_rates_on_a_far_window_against_mpmath(self, real_pair):
        # -6..5 about 385 with particles at positions 3 and 8: the rates the chain runs
        # on agree with those of a kernel of mpmath entries within the guard's estimate
        window = Window.centered(12, 385)
        entries = mp_kernel(real_pair.z, real_pair.z_prime, window.sites, 60)[2]
        exact = KernelMatrix(window, np.array(entries.tolist(), dtype=float))
        model = RateModel.sqrt_ratio(ProximitySpec.nearest_neighbor())
        positions, u = _pair_table(window, model.proximity)
        occupied = np.isin(np.arange(12), [3, 8])
        pair, rates, condition = dynamics._rate_table(
            model, kernel_matrix(real_pair, window), occupied, positions, u)
        want_pair, want, _ = dynamics._rate_table(model, exact, occupied, positions, u)
        assert np.array_equal(pair, want_pair)
        assert float(np.max(np.abs(rates - want) / want)) <= condition * dynamics._KERNEL_ERROR

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [6, 8, 10, 12])
    @pytest.mark.parametrize("proximity", ["nn", "range:3"])
    def test_ratios_equal_rn_derivative_within_the_estimate(self, request, branch, size,
                                                            proximity):
        # Inverse against two determinants: at most 0.15 of the estimate apart here.
        window = Window.centered(size)
        k = kernel_matrix(request.getfixturevalue(branch), window)
        model = RateModel.sqrt_ratio(PROXIMITIES[proximity])
        positions, u = _pair_table(window, model.proximity)
        starts = [Configuration(window, tuple(i % 2 for i in range(size)))]
        for config in starts + sample_many(k, SeededRng(5), 4):
            pair, rates, condition = dynamics._rate_table(
                model, k, np.array(config.occupancy, dtype=bool), positions, u)
            estimate = condition * dynamics._KERNEL_ERROR
            for p, r in zip(pair.tolist(), rates.tolist()):
                swap = SwapPair(window.sites[positions[p, 0]], window.sites[positions[p, 1]])
                want = rn_derivative(k, config, swap)
                assert abs((r / (2.0 * u[p])) ** 2 - want) <= estimate * want

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [8, 16, 24, 32, 40])
    def test_estimate_is_cond_1_of_the_determinant_matrix(self, request, branch, size):
        # cond_1(A) = ||A||_1 ||A^-1||_1 equals cond_1(M) of M, whose column is
        # K's at each occupied site and I - K's at each empty one.
        window = Window.centered(size)
        k = kernel_matrix(request.getfixturevalue(branch), window)
        model = RateModel.sqrt_ratio(PROXIMITIES["range:3"])
        positions, u = _pair_table(window, model.proximity)
        for config in sample_many(k, SeededRng(13), 3):
            occupied = np.array(config.occupancy, dtype=bool)
            _, _, condition = dynamics._rate_table(model, k, occupied, positions, u)
            m = np.where(occupied, k.entries, np.eye(size) - k.entries)
            assert condition == pytest.approx(np.linalg.cond(m, 1), rel=1e-10)

    def test_impossible_swap_has_rate_zero(self):
        # Sites 0 and 1 hold exactly one particle (a rank-one projection block),
        # so moving the particle of site 2 to site 1 is impossible: phi = 0.  Here
        # rounding takes it to -2.2e-16, which is clamped to 0: the first two
        # models drop the swap (the square root of -2.2e-16 would warn), and
        # the Glauber-like rate 2u (phi + 1) is 2 exactly.
        c, s = math.cos(0.7), math.sin(0.7)
        entries = np.array([[c * c, c * s, 0.0], [c * s, s * s, 0.0], [0.0, 0.0, 0.5]])
        k = KernelMatrix(Window.from_indices(0, 2), entries)
        config = Configuration(k.window, (1, 0, 1))
        metropolis, sqrt_ratio, glauber = _all_models()
        for model in (metropolis, sqrt_ratio):
            _, per_pair = total_jump_rate(model, k, config)
            assert [swap for swap, _ in per_pair] == [SwapPair(Site(0), Site(1))]
        _, per_pair = total_jump_rate(glauber, k, config)
        assert dict(per_pair)[SwapPair(Site(1), Site(2))] == 2.0

    def test_ratio_below_its_error_bound_names_the_state(self):
        # Not a DPP kernel: out of 101 (P = 2.125, cond_1(A) about 5), swapping
        # sites 1 and 2 leads to 110, whose determinant is -1.875.  phi = -0.88
        # is no rounding noise, so it is refused, as the determinants refuse it.
        entries = np.array([[0.5, 2.0, 0.0], [2.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
        k = KernelMatrix(Window.from_indices(0, 2), entries)
        config = Configuration(k.window, (1, 0, 1))
        model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
        for call in (lambda: total_jump_rate(model, k, config),
                     lambda: simulate(model, k, config, 1.0, SeededRng(0))):
            with pytest.raises(NumericalError,
                               match=r"^configuration 101 has swap ratio -0\.88\d*, below its "
                                     r"error bound -"):
                call()
        with pytest.raises(NumericalError, match="below clamp floor"):
            rn_derivative(k, config, SwapPair(Site(1), Site(2)))

    def test_independent_sites_far_below_the_probability_floor(self):
        # K = I/2 on 1000 sites: fair coins, A = diag(+-1/2), so cond_1(A) = 1
        # and every phi = 1, but P(eta) = 2^-1000 = 9.3e-302.  The tables take no
        # probability, so they run; the determinant reference divides by P(eta)
        # and refuses it.
        window = Window.from_indices(0, 999)
        k = KernelMatrix(window, np.eye(1000) / 2.0)
        config = Configuration(window, tuple(i % 2 for i in range(1000)))
        model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
        total, per_pair = total_jump_rate(model, k, config)
        assert total == 1998.0 and {r for _, r in per_pair} == {2.0}
        trajectory = simulate(model, k, config, 2e-3, SeededRng(1))
        assert trajectory.n_events > 0 and trajectory.worst_condition == 1.0
        with pytest.raises(ZeroProbabilityError, match=r"has probability 9\.33\d*e-302; ratio"):
            rn_derivative(k, config, per_pair[0][0])


class TestSectorGraph:
    @pytest.mark.parametrize("count", range(7))
    def test_nearest_neighbor_sectors_connected(self, window6, count):
        assert sector_graph_connected(window6, ProximitySpec.nearest_neighbor(), count)

    def test_larger_window(self, window10):
        assert sector_graph_connected(window10, ProximitySpec.nearest_neighbor(), 5)

    def test_count_out_of_range(self, window6):
        with pytest.raises(ValueError):
            sector_graph_connected(window6, ProximitySpec.nearest_neighbor(), 7)

    @pytest.mark.parametrize("size", [21, 64, 4096])
    def test_size_cap_before_listing(self, size):
        # No state is listed, so windows past a listing's reach are answered too.
        assert sector_graph_connected(Window.centered(size), ProximitySpec.nearest_neighbor(), 2)

    @pytest.mark.parametrize("count", range(7))
    def test_no_positive_weight_leaves_only_the_end_sectors_connected(self, window6, count):
        # exp(-1000 d) underflows to 0 at every separation, so no swap is possible
        connected = sector_graph_connected(window6, ProximitySpec.exp_decay(1000.0), count)
        assert connected == (count in (0, 6))

    @pytest.mark.parametrize("name", SEARCH_PROXIMITIES)
    def test_equals_breadth_first_search(self, name):
        # Every count of windows of 1-9 sites, against a search over the sector's
        # states along the pairs whose weight is positive.
        proximity = SEARCH_PROXIMITIES[name]
        for size in range(1, 10):
            window = Window.centered(size)
            pairs = [(window.position(p.x), window.position(p.y))
                     for p in _loop_candidate_pairs(window, proximity)
                     if proximity_u(proximity, p.x, p.y) > 0.0]
            for count in range(size + 1):
                assert sector_graph_connected(window, proximity, count) == \
                    _search_connected(size, count, pairs), (size, count)


def _search_connected(n_sites: int, count: int, pairs) -> bool:
    """Reference: breadth-first search over the sector's bitmasks, one swap at a time."""
    states = [m for m in range(1 << n_sites) if bin(m).count("1") == count]
    seen, frontier = {states[0]}, [states[0]]
    while frontier:
        step = []
        for mask in frontier:
            for i, j in pairs:
                if (mask >> i ^ mask >> j) & 1:
                    other = mask ^ (1 << i | 1 << j)
                    if other not in seen:
                        seen.add(other)
                        step.append(other)
        frontier = step
    return len(seen) == len(states)


class TestTrajectoryIo:
    def test_csv_and_sidecar(self, real_pair, k6, tmp_path):
        config = Configuration(k6.window, (1, 0, 1, 0, 0, 0))
        model = _all_models()[0]
        trajectory = simulate(model, k6, config, 20.0, SeededRng(3))
        csv_path = tmp_path / "events.csv"
        write_trajectory_csv(trajectory, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "time,x,y"
        assert len(lines) == trajectory.n_events + 1
        first_time, x, y = lines[1].split(",")
        assert float(first_time) == trajectory.events[0][0]

        sidecar = trajectory_sidecar(trajectory, real_pair.z, real_pair.z_prime, model)
        assert sidecar["seed"] == 3
        assert sidecar["z"] == "1.5"
        assert sidecar["z_prime"] == "1.7"
        assert sidecar["window"] == [-3, 2]
        assert sidecar["rate_model"] == "metropolis"
        assert sidecar["initial_bitmask"] == config.bitmask
        assert sidecar["n_events"] == trajectory.n_events
        json.dumps(sidecar)  # serializable
