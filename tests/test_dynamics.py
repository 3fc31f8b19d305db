"""Rate models, detailed balance, and the jump-chain simulator."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from kawasaki_dpp.dpp import _STACK_ENTRIES, Configuration, config_probability, sample_many
from kawasaki_dpp.dynamics import (
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
from kawasaki_dpp.errors import SamePointError, WindowMismatchError, ZeroProbabilityError
from kawasaki_dpp.kernel import KernelMatrix, Site, Window, kernel_matrix
from kawasaki_dpp.rn import SwapPair, apply_transposition, rn_derivative
from kawasaki_dpp.rng import SeededRng


PROXIMITIES = {
    "nn": ProximitySpec.nearest_neighbor(),
    "range:3": ProximitySpec.finite_range(3),
    "exp:0.5": ProximitySpec.exp_decay(0.5),
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

    def test_glauber_random_configs(self, k6, pmf6):
        # independent route: fluxes evaluated with enumeration probabilities
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
                forward = pmf6.prob(config) * rate(model, k6, config, swap)
                backward = pmf6.prob(swapped) * rate(model, k6, swapped, swap)
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
        model = _all_models()[1]
        config = Configuration(k6.window, (0, 1, 1, 0, 1, 0))
        _, per_pair = total_jump_rate(model, k6, config)
        assert per_pair, "expected at least one move"
        for swap, r in per_pair:
            assert r == 2.0 * rate(model, k6, config, swap)

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
                    assert total_jump_rate(model, k, config) == (want_total, want_pairs)
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
        stacks = []
        det = np.linalg.det

        def recording_det(a):
            stacks.append(a.size)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", recording_det)
        model = RateModel.metropolis(ProximitySpec.finite_range(16, 0.7))
        _, per_pair = total_jump_rate(model, k, config)
        assert max(stacks) <= _STACK_ENTRIES < sum(stacks)
        for swap, r in per_pair[:3]:
            assert r == 2.0 * rate(model, k, config, swap)

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


class TestSimulate:
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

    def test_replay_skips_an_equal_occupancy_event(self, k6):
        config = Configuration(k6.window, (1, 1, 0, 1, 0, 0))
        trajectory = Trajectory(0, 0, config, [(1.0, SwapPair(Site(-3), Site(-2)))], 2.0)
        assert trajectory.final_configuration() == config
        assert trajectory.state_occupation() == {config.bitmask: 2.0}

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


class TestSectorGraph:
    @pytest.mark.parametrize("count", range(7))
    def test_nearest_neighbor_sectors_connected(self, window6, count):
        assert sector_graph_connected(window6, ProximitySpec.nearest_neighbor(), count)

    def test_larger_window(self, window10):
        assert sector_graph_connected(window10, ProximitySpec.nearest_neighbor(), 5)

    def test_count_out_of_range(self, window6):
        with pytest.raises(ValueError):
            sector_graph_connected(window6, ProximitySpec.nearest_neighbor(), 7)


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
