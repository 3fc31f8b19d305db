"""Window DPP machinery: probabilities, enumeration, sampling.

The inclusion-exclusion oracle expands exact-configuration probabilities in
correlation minors only, an independent route to the same number as the
column-split determinant under test.
"""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import kawasaki_dpp.dpp as dpp_mod
from kawasaki_dpp.dpp import (
    Configuration,
    Pmf,
    config_probability,
    correlation,
    empirical_correlation,
    enumerate_distribution,
    sample,
    sample_many,
    write_pmf_csv,
    write_samples_csv,
)
from kawasaki_dpp.dynamics import ProximitySpec, RateModel, simulate, symmetry_check, total_jump_rate
from kawasaki_dpp.errors import (
    DuplicateSiteError,
    EmptyInputError,
    NumericalError,
    SizeError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from kawasaki_dpp.exact import build_generator
from kawasaki_dpp.kernel import KernelMatrix, Site, Window, kernel_matrix
from kawasaki_dpp.rn import SwapPair, rn_derivative
from kawasaki_dpp.rng import SeededRng

# A correct sampler exceeds the total-variation bound with probability below this.
_TV_FALSE_ALARM = 1e-6


def _tv_bound(probs: np.ndarray, n_draws: int) -> float:
    """Total-variation bound for an empirical law of N exact draws.

    Its expectation is at most sum_i sqrt(p_i (1 - p_i) / N) / 2, and one draw
    moves it by at most 1/N, so McDiarmid's inequality adds
    sqrt(ln(1/delta) / (2N)) at false-alarm rate delta.
    """
    return (0.5 * float(np.sqrt(probs * (1.0 - probs) / n_draws).sum())
            + math.sqrt(math.log(1.0 / _TV_FALSE_ALARM) / (2.0 * n_draws)))


def _inclusion_exclusion_probability(k: KernelMatrix, config: Configuration) -> float:
    """P(gamma = config) from correlation minors alone."""
    occupied = list(config.occupied_sites())
    empty = [s for s in k.window.sites if s not in occupied]
    total = 0.0
    for extra in range(len(empty) + 1):
        for subset in itertools.combinations(empty, extra):
            total += (-1) ** extra * correlation(k, occupied + list(subset))
    return total


def _pmf_entry(value: float) -> float:
    """Bitmask 1 of a hand-built one-site Pmf whose entries are 1 and `value` < 0.

    A Pmf that zeroes the entry counts it in ``clamped``.
    """
    pmf = Pmf(Window.from_indices(0, 0), np.array([1.0, value]))
    assert pmf.clamped == 1
    return float(pmf.probs[1])


def _schur_pass(k: KernelMatrix, u: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Bitmasks of the draws for the (B, n) uniforms `u`, one Schur pass per draw,
    as Python ints of any width, and the (B, n) conditional probabilities they visit.

    A copy of the stack pass that unconditioned draws take on windows of
    more than 12 sites: site i is occupied when u[:, i] is below the running
    diagonal, and a rank-one update with pivot p (in) or p - 1 (out)
    conditions the later sites.
    """
    m = k.entries[:, :, np.newaxis].repeat(len(u), axis=2)
    for i in range(k.size - 1):
        p = m[i, i]
        column = m[i + 1:, i:i + 1] / (p - (u[:, i] >= p))
        m[i + 1:, i + 1:] -= column * m[i, i + 1:]
    probs = np.diagonal(m)
    masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
             for row in u < probs]
    return masks, probs


def _inverse_cdf(k: KernelMatrix, u: np.ndarray) -> np.ndarray:
    """Bitmasks of the draws for the uniforms `u`, one each, by inverse CDF over the enumerated law.

    A draw is the first mask whose cumulative probability exceeds its
    uniform: the number of masks whose cumulative probability is at most it.
    """
    cumulative = np.cumsum(enumerate_distribution(k).probs)
    return (u[:, np.newaxis] >= cumulative / cumulative[-1]).sum(axis=1)


def _not_a_kernel(seed: int) -> KernelMatrix:
    """Random symmetric entries with the diagonal in [0, 1] on 13 sites: accepted
    by KernelMatrix, but not a kernel, and drawn site by site."""
    rnd = np.random.default_rng(seed)
    half = rnd.uniform(-0.7, 0.7, (13, 13))
    entries = half + half.T
    np.fill_diagonal(entries, rnd.uniform(0.0, 1.0, 13))
    return KernelMatrix(Window.centered(13), entries)


def _count_passes(monkeypatch) -> list:
    """One entry per :func:`_sequential_pass` call from now on: the size of its batch,
    1 for a single draw's 1-D uniforms."""
    passes, stack_pass = [], dpp_mod._sequential_pass
    monkeypatch.setattr(dpp_mod, "_sequential_pass",
                        lambda m, u: passes.append(u.shape[1] if u.ndim > 1 else 1)
                        or stack_pass(m, u))
    return passes


def _determinant(value: float) -> float:
    """The both-occupied probability of a two-site K = [[0, b], [b, 0]]: -b^2 = `value`."""
    b = math.sqrt(-value)
    k = KernelMatrix(Window.from_indices(0, 1), np.array([[0.0, b], [b, 0.0]]))
    return float(dpp_mod._probabilities(k, np.array([[True, True]]))[0])


class TestConfiguration:
    def test_bitmask_roundtrip(self, window6):
        for mask in range(1 << 6):
            config = Configuration.from_bitmask(window6, mask)
            assert config.bitmask == mask
            assert config.particle_count == bin(mask).count("1")

    def test_string_form(self, window6):
        config = Configuration(window6, (1, 0, 1, 0, 0, 1))
        assert str(config) == "101001"

    def test_cached_counts_leave_equality_hash_and_repr(self, window6):
        read, fresh = (Configuration(window6, (1, 0, 1, 1, 0, 0)) for _ in range(2))
        assert (read.bitmask, read.particle_count) == (13, 3)
        assert {"bitmask", "particle_count"} <= vars(read).keys()
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert read != Configuration(window6, (1, 0, 1, 1, 0, 1))

    def test_occupancy_validation(self, window6):
        with pytest.raises(ValueError):
            Configuration(window6, (1, 0))
        with pytest.raises(ValueError):
            Configuration(window6, (2, 0, 0, 0, 0, 0))

    def test_occupied_sites(self, window6):
        config = Configuration.from_occupied(window6, [Site(-3), Site(2)])
        assert config.occupancy == (1, 0, 0, 0, 0, 1)
        assert config.occupancy_at(Site(-3)) == 1
        assert config.occupancy_at(Site(0)) == 0


class TestConfigProbability:
    def test_single_site_occupied(self, real_pair):
        w = Window.from_indices(0, 0)
        k = kernel_matrix(real_pair, w)
        occupied = Configuration(w, (1,))
        assert config_probability(k, occupied) == pytest.approx(k.entries[0, 0], rel=1e-14)
        empty = Configuration(w, (0,))
        assert config_probability(k, empty) == pytest.approx(1.0 - k.entries[0, 0], rel=1e-14)

    def test_empty_configuration_is_complement_determinant(self, k6):
        want = float(np.linalg.det(np.eye(6) - k6.entries))
        got = config_probability(k6, Configuration.empty(k6.window))
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_inclusion_exclusion_oracle(self, real_pair):
        w = Window.from_indices(-1, 1)
        k = kernel_matrix(real_pair, w)
        total = 0.0
        for mask in range(8):
            config = Configuration.from_bitmask(w, mask)
            got = config_probability(k, config)
            want = _inclusion_exclusion_probability(k, config)
            assert got == pytest.approx(want, abs=1e-12)
            total += got
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_window_mismatch(self, k6, window8):
        with pytest.raises(WindowMismatchError):
            config_probability(k6, Configuration.empty(window8))

    def test_non_finite_determinant_names_the_configuration(self):
        # Finite, symmetric, with its diagonal in [0, 1]: KernelMatrix accepts
        # it, but every determinant overflows.  No RuntimeWarning escapes.
        big = 1e200
        k = KernelMatrix(Window.from_indices(0, 2),
                         [[0.5, big, big], [big, 0.5, big], [big, big, 0.5]])
        config, swap = Configuration(k.window, (1, 0, 1)), SwapPair(Site(0), Site(1))
        model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
        for call in (lambda: config_probability(k, config),
                     lambda: rn_derivative(k, config, swap),
                     lambda: symmetry_check(model, k, config, swap)):
            with pytest.raises(NumericalError,
                               match="^configuration 101 has determinant -inf, not finite$"):
                call()
        # The rate tables take no determinant: the condition guard refuses the state.
        for call in (lambda: total_jump_rate(model, k, config),
                     lambda: simulate(model, k, config, 1.0, SeededRng(0))):
            with pytest.raises(NumericalError, match="^configuration 101 is ill-conditioned"):
                call()
        # the sector's first state, bitmask 3
        with pytest.raises(NumericalError, match="^configuration 110 has determinant -inf,"):
            build_generator(model, k, sector=2)


class TestCorrelation:
    def test_singleton(self, k6):
        site = Site(0)
        assert correlation(k6, [site]) == pytest.approx(k6.entry(site, site), rel=1e-14)

    def test_empty_site_set(self, k6):
        assert correlation(k6, []) == 1.0

    def test_pair_formula_and_negative_association(self, k6):
        x, y = Site(-1), Site(1)
        got = correlation(k6, [x, y])
        kxx, kyy, kxy = k6.entry(x, x), k6.entry(y, y), k6.entry(x, y)
        assert got == pytest.approx(kxx * kyy - kxy * kxy, rel=1e-12)
        assert got <= kxx * kyy

    def test_triple_vs_enumeration(self, k6, pmf6):
        sites = [Site(-2), Site(0), Site(1)]
        want = pmf6.occupied_marginal(sites)
        assert correlation(k6, sites) == pytest.approx(want, abs=1e-10)

    def test_errors(self, k6):
        with pytest.raises(DuplicateSiteError):
            correlation(k6, [Site(0), Site(0)])
        with pytest.raises(WindowMismatchError):
            correlation(k6, [Site(100)])


class TestEnumerateDistribution:
    def test_size_one(self, real_pair):
        w = Window.from_indices(0, 0)
        k = kernel_matrix(real_pair, w)
        pmf = enumerate_distribution(k)
        assert pmf.probs[1] == pytest.approx(k.entries[0, 0], abs=1e-15)
        assert pmf.probs[0] == pytest.approx(1.0 - k.entries[0, 0], abs=1e-15)

    @pytest.mark.parametrize("size", [2, 5, 10, 12])
    def test_sums_to_one(self, real_pair, size):
        pmf = enumerate_distribution(kernel_matrix(real_pair, Window.centered(size)))
        assert pmf.total() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_match_kernel(self, real_pair, conj_pair):
        for pair in (real_pair, conj_pair):
            k = kernel_matrix(pair, Window.centered(10))
            pmf = enumerate_distribution(k)
            for s in k.window.sites:
                assert pmf.marginal(s) == pytest.approx(k.entry(s, s), abs=1e-10)

    def test_pair_marginals_match_minors(self, k6, pmf6):
        for a, b in itertools.combinations(k6.window.sites, 2):
            assert pmf6.occupied_marginal([a, b]) == pytest.approx(
                correlation(k6, [a, b]), abs=1e-10
            )

    def test_nonnegative(self, pmf8):
        assert float(pmf8.probs.min()) >= 0.0

    def test_size_cap(self, real_pair):
        with pytest.raises(SizeError):
            enumerate_distribution(kernel_matrix(real_pair, Window.centered(21)))

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_probabilities_do_not_depend_on_stack_size(self, request, branch):
        n = 14
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(n))
        assert dpp_mod._STACK_ENTRIES // n ** 2 < 1 << n  # the library splits the states
        # Reference: all 2^14 matrices in one stack, negatives clamped.
        occupied = dpp_mod._occupancy(np.arange(1 << n), n)
        want = np.linalg.det(np.where(occupied[:, np.newaxis, :], k.entries, np.eye(n) - k.entries))
        want[want < 0.0] = 0.0
        assert dpp_mod._probabilities(k, occupied).tobytes() == want.tobytes()

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("centre", [0, -20])
    @pytest.mark.parametrize("size", [1, 2, 8, 12, 14])
    def test_prefix_tree_equals_determinants(self, request, branch, centre, size):
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size, centre))
        want = dpp_mod._probabilities(k, dpp_mod._occupancy(np.arange(1 << size), size))
        got = enumerate_distribution(k).probs
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [8, 12])
    def test_dense_window_keeps_relative_digits(self, request, branch, size):
        # every diagonal entry near 0.995: the empty factors 1 - p are small,
        # and 1 - p taken from p itself differs 19-64x more (up to 1.5e-10)
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size, -20))
        want = dpp_mod._probabilities(k, dpp_mod._occupancy(np.arange(1 << size), size))
        got = enumerate_distribution(k).probs
        likely = want > 1e-9
        assert (np.abs(got - want)[likely] / want[likely]).max() <= 1e-11

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_twenty_sites_fit_the_cap(self, request, branch):
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(20))
        tracemalloc.start()
        try:
            pmf = enumerate_distribution(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(pmf.total() - 1.0) <= 1e-9
        assert peak < 64 << 20

    def test_takes_no_determinant(self, monkeypatch, real_pair):
        def det(*args):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", det)
        pmf = enumerate_distribution(kernel_matrix(real_pair, Window.centered(10)))
        assert pmf.total() == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_probability_names_a_configuration(self):
        # the 1e200 kernel of test_non_finite_determinant_names_the_configuration
        big = 1e200
        k = KernelMatrix(Window.from_indices(0, 2),
                         [[0.5, big, big], [big, 0.5, big], [big, big, 0.5]])
        with pytest.raises(NumericalError, match=r"^configuration [01]{3} has probability "
                                                 r"(nan|-?inf), not finite$"):
            enumerate_distribution(k)

    def test_clamp_floor_names_the_lowest_bitmask(self):
        # not a kernel: sites 0 and 1 have P(00) = -3.625 and P(11) = -3.875,
        # and site 2 is independent of them, so a negative prefix must reach
        # the leaves: P(110) = -3.875 * 0.7 is the lowest
        k = KernelMatrix(Window.from_indices(0, 2),
                         np.array([[0.5, 2.0, 0.0], [2.0, 0.25, 0.0], [0.0, 0.0, 0.3]]))
        with pytest.raises(NumericalError, match=r"^configuration 110 has probability -2\.7125 "
                                                 r"below clamp floor -1e-12$"):
            enumerate_distribution(k)

    def test_sector_normalization(self, pmf8):
        masks, probs = pmf8.sector(3)
        assert len(masks) == math.comb(8, 3)
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)

    def test_pmf_guards(self, window6):
        with pytest.raises(NumericalError):
            Pmf(window6, np.full(64, -1.0))
        with pytest.raises(NumericalError, match="pmf total nan"):
            Pmf(window6, np.full(64, np.nan))
        with pytest.raises(ValueError):
            Pmf(window6, np.full(8, 0.125))


class TestSample:
    def test_zero_kernel_always_empty(self, window6):
        k = KernelMatrix(window6, np.zeros((6, 6)))
        rng = SeededRng(1)
        for _ in range(50):
            assert sample(k, rng).particle_count == 0

    def test_identity_kernel_always_full(self):
        w = Window.from_indices(0, 3)
        k = KernelMatrix(w, np.eye(4))
        rng = SeededRng(1)
        for _ in range(50):
            assert sample(k, rng).particle_count == 4

    def test_seed_determinism(self, k6):
        a = [sample(k6, SeededRng(9, stream)).bitmask for stream in range(3)]
        b = [sample(k6, SeededRng(9, stream)).bitmask for stream in range(3)]
        assert a == b
        rng1, rng2 = SeededRng(5), SeededRng(5)
        run1 = [sample(k6, rng1).bitmask for _ in range(20)]
        run2 = [sample(k6, rng2).bitmask for _ in range(20)]
        assert run1 == run2
        assert len(set(run1)) > 1  # the stream itself is not constant

    def test_total_variation_against_enumeration(self, k6, pmf6, samples6_100k):
        counts = np.bincount([c.bitmask for c in samples6_100k], minlength=64)
        tv = 0.5 * float(np.abs(counts / len(samples6_100k) - pmf6.probs).sum())
        assert tv < 0.01

    def test_mean_particle_count_within_4_sigma(self, k6, samples6_100k):
        lam = np.clip(k6.eigenvalues, 0.0, 1.0)
        sd = math.sqrt(float((lam * (1.0 - lam)).sum()) / len(samples6_100k))
        mean = float(np.mean([c.particle_count for c in samples6_100k]))
        assert abs(mean - k6.trace) < 4.0 * sd

    def test_invalid_kernel_raises(self):
        # symmetric with its diagonal in [0, 1], so KernelMatrix accepts it,
        # but its eigenvalues are 2.5 and -1.5: the empty and the full
        # configuration both get the determinant 0.25 - 4
        k = KernelMatrix(Window.from_indices(0, 1), np.array([[0.5, 2.0], [2.0, 0.5]]))
        # the lowest entry comes first: bitmask 0
        message = r"^configuration 00 has probability -3.75 below clamp floor -1e-12$"
        with pytest.raises(NumericalError, match=message):
            sample(k, SeededRng(0))
        with pytest.raises(NumericalError, match=message):
            sample_many(k, SeededRng(0), 100)

    def test_law_table_total_is_checked(self, monkeypatch, k6):
        # no kernel accepted by KernelMatrix gets here: its determinants sum to
        # det(K + I - K) = 1 up to rounding
        for law in (np.full(64, 1 / 32), np.full(64, np.nan)):
            monkeypatch.setattr(dpp_mod, "enumerate_distribution", lambda k: Pmf(k.window, law))
            with pytest.raises(NumericalError, match="^pmf total (2.0|nan) deviates"):
                sample(KernelMatrix(k6.window, k6.entries), SeededRng(0))

    @pytest.mark.parametrize("seed", range(4))
    def test_invalid_kernel_reports_the_stack_pass_worst(self, seed):
        k = _not_a_kernel(seed)
        assert isinstance(dpp_mod._draws(k), dpp_mod._NodeMemo)
        with np.errstate(all="ignore"):
            _, probs = _schur_pass(k, SeededRng(seed).random((50, 13)))
        for draws in (1, 50):
            distance = np.abs(probs[:draws] - 0.5)
            assert distance.max() > 0.5 + 1e-8
            worst = f"{probs[:draws].flat[np.argmax(distance)]:g}"
            with pytest.raises(NumericalError, match=rf"^conditional probability {re.escape(worst)} "):
                sample_many(k, SeededRng(seed), draws)

    @pytest.mark.parametrize("size", [1, 6, 13])
    def test_degenerate_kernels_draw_without_warnings(self, size):
        window = Window.centered(size)
        for entries, expected in ((np.zeros((size, size)), 0), (np.eye(size), size)):
            k = KernelMatrix(window, entries)
            rng = SeededRng(4)
            draws = [sample(k, rng) for _ in range(20)] + sample_many(k, rng, 200)
            assert {c.particle_count for c in draws} == {expected}

    def test_draw_table_is_built_once_per_kernel(self, monkeypatch, real_pair):
        builds = []
        monkeypatch.setattr(dpp_mod, "enumerate_distribution",
                            lambda k: builds.append(k.size) or enumerate_distribution(k))
        k = kernel_matrix(real_pair, Window.centered(8))
        rng = SeededRng(2)
        draws = [sample(k, rng) for _ in range(500)] + sample_many(k, rng, 500)
        assert builds == [8]
        # one shared Configuration per drawn mask
        assert len({id(c) for c in draws}) == len(set(draws)) > 1

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size, centre", [(1, 0), (2, -20), (8, 0), (8, 17), (12, 0),
                                              (12, -20), (13, 0), (13, -20), (14, 0), (14, 17),
                                              (100, 0)])
    def test_draws_match_one_schur_pass_per_draw(self, request, branch, size, centre):
        # up to 12 sites a draw takes one uniform and the reference is the
        # inverse CDF over the enumerated law; above, one Schur pass per draw
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size, centre))
        table = dpp_mod._draws(k)
        assert isinstance(table, dpp_mod._LawTable) == (size <= 12)  # 12 sites: the largest table
        if size <= 12:  # the law enumerate_distribution returns, normalized
            cumulative = np.cumsum(enumerate_distribution(k).probs)
            assert table.cumulative.tobytes() == (cumulative / cumulative[-1]).tobytes()
        rng, reference_rng = SeededRng(21), SeededRng(21)
        draws = [sample(k, rng) for _ in range(200)] + sample_many(k, rng, 500)
        if size <= 12:
            expected = _inverse_cdf(k, reference_rng.random(700)).tolist()
        else:
            expected, _ = _schur_pass(k, reference_rng.random((700, size)))
        assert [c.bitmask for c in draws] == expected
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size, count", [
        pytest.param(20, 1, id="1"), pytest.param(20, 7, id="7"), pytest.param(20, 4096, id="4096"),
        pytest.param(8, 20_000, id="8_sites-20000"),
        # above the panel, singles pass the 2-D kernel and batches an (n, n, B) stack
        *(pytest.param(size, count, id=f"{size}_sites-{count}")
          for size in (49, 100, 200) for count in (1, 2, 7)),
        pytest.param(200, 30, id="200_sites-30")])
    def test_sample_many_matches_repeated_sample(self, request, branch, size, count):
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size))
        if size > 12 and count > 7:  # the stack pass, which runs in chunks
            assert count > dpp_mod._STACK_ENTRIES // size ** 2  # spans a chunk boundary
        batch_rng, single_rng = SeededRng(11), SeededRng(11)
        batch = sample_many(k, batch_rng, count)
        singles = [sample(k, single_rng) for _ in range(count)]
        assert [c.bitmask for c in batch] == [c.bitmask for c in singles]
        # one uniform per site and draw, so both streams end in the same place
        assert batch_rng.random() == single_rng.random()

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [13, 14, 30, 40])
    def test_memo_draws_keep_their_bytes(self, monkeypatch, request, branch, size):
        # 200 draws on a fresh kernel, 200 on the now warm one, then a batch; then
        # again with a memo cap so small that it is emptied over and over
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size))
        reference_rng = SeededRng(21)
        expected, probs = _schur_pass(k, reference_rng.random((600, size)))
        after = reference_rng.random()
        # node mask & (2^i - 1) | 2^i: site i given the sites of draw `mask` before it
        reference = {mask & (1 << i) - 1 | 1 << i: p
                     for mask, row in zip(expected, probs.tolist())
                     for i, p in enumerate(row)}
        passes, single_passes = _count_passes(monkeypatch), []
        for cap in (dpp_mod._MEMO_ENTRIES, 3 * size):
            monkeypatch.setattr(dpp_mod, "_MEMO_ENTRIES", cap)
            fresh, rng = KernelMatrix(k.window, k.entries), SeededRng(21)
            draws = [sample(fresh, rng) for _ in range(200)]
            draws += [sample(fresh, rng) for _ in range(200)]
            nodes = dpp_mod._draws(fresh).probs
            assert len(nodes) <= cap
            # every kept probability is the one-draw pass's, bit for bit
            assert nodes == {node: reference[node] for node in nodes}
            # a tree from the root: each node's parent, its prefix with the bit of the site
            # before it set, is kept
            assert all(node == 1 or (node ^ 1 << depth) | 1 << depth - 1 in nodes
                       for node in nodes for depth in [node.bit_length() - 1])
            single_passes.append(len(passes))
            draws += sample_many(fresh, rng, 200)
            assert passes[single_passes[-1]:] == [200]  # the batch keeps its own pass
            passes.clear()
            assert [c.bitmask for c in draws] == expected
            assert rng.random() == after
        # emptied, the small memo forgets draws and passes again
        assert 0 < single_passes[0] < single_passes[1] <= 400

    def test_memo_takes_a_pass_per_distinct_draw_at_most(self, monkeypatch, real_pair):
        # a count, not a clock: on 30 sites the 250 draws hold 50 distinct masks
        k = kernel_matrix(real_pair, Window.centered(30))
        passes = _count_passes(monkeypatch)
        rng = SeededRng(5, 1)
        draws = [sample(k, rng) for _ in range(250)]
        assert len(set(draws)) == 50
        assert 0 < len(passes) <= 50
        # one shared Configuration per drawn mask
        assert len({id(c) for c in draws}) == 50

    @pytest.mark.parametrize("seed", range(4))
    def test_refused_draw_records_nothing(self, seed):
        k = _not_a_kernel(seed)
        rng, reference_rng = SeededRng(seed), SeededRng(seed)
        for _ in range(2):  # refused again: the first refusal left the memo empty
            with pytest.raises(NumericalError) as expected, np.errstate(all="ignore"):
                sample_many(k, reference_rng, 1)
            with pytest.raises(NumericalError, match=f"^{re.escape(str(expected.value))}$"), \
                    np.errstate(all="ignore"):
                sample(k, rng)
            assert dpp_mod._draws(k).probs == {}

    def test_sample_many_zero_count(self, k6):
        assert sample_many(k6, SeededRng(0), 0) == []
        with pytest.raises(ValueError):
            sample_many(k6, SeededRng(0), -1)

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    def test_conditioned_draws_match_enumerated_law(self, request, branch, window10):
        k = kernel_matrix(request.getfixturevalue(branch), window10)
        pattern = Configuration(Window.from_indices(-1, 0), (1, 0))
        n_draws = 20_000
        draws = sample_many(k, SeededRng(8), n_draws, pattern=pattern)
        # bit 4 is site -1 (occupied), bit 5 is site 0 (empty)
        masks = np.array([c.bitmask for c in draws])
        assert ((masks >> 4) & 3 == 1).all()
        probs = enumerate_distribution(k).probs
        conditional = np.where((np.arange(1 << 10) >> 4) & 3 == 1, probs, 0.0)
        conditional /= conditional.sum()
        counts = np.bincount(masks, minlength=1 << 10)
        tv = 0.5 * float(np.abs(counts / n_draws - conditional).sum())
        assert tv < _tv_bound(conditional, n_draws)

    def test_pattern_covering_window_is_returned(self, k6, window6):
        pattern = Configuration(window6, (1, 1, 0, 0, 0, 0))
        assert sample_many(k6, SeededRng(0), 3, pattern=pattern) == [pattern] * 3

    def test_pattern_below_floor(self, window6):
        zero = KernelMatrix(window6, np.zeros((6, 6)))
        occupied = Configuration(Window.from_indices(0, 0), (1,))
        with pytest.raises(ZeroProbabilityError):
            sample_many(zero, SeededRng(0), 5, pattern=occupied)
        full = KernelMatrix(window6, np.eye(6))
        second_empty = Configuration(Window.from_indices(-1, 0), (1, 0))
        with pytest.raises(ZeroProbabilityError):
            sample_many(full, SeededRng(0), 5, pattern=second_empty)

    def test_pattern_outside_window(self, k6):
        pattern = Configuration(Window.from_indices(2, 3), (0, 0))
        with pytest.raises(WindowMismatchError):
            sample_many(k6, SeededRng(0), 5, pattern=pattern)


class TestBlockedPass:
    """Passes on more than ``_PANEL`` sites: rank-one steps on a strip of the next
    ``_PANEL`` sites, then one product for the trailing block."""

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size", [dpp_mod._PANEL, 100, 250, 400])
    def test_matches_the_unblocked_pass(self, request, branch, size):
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size))
        u = SeededRng(31).random((3, size))
        _, reference = _schur_pass(k, u)
        probs, _ = dpp_mod._sequential_pass(k.entries[:, :, np.newaxis], u.T)
        singles = [dpp_mod._sequential_pass(k.entries, row)[0] for row in u]
        assert probs.tobytes() == np.array(singles).tobytes()
        # up to the panel width, and on the first panel of a wider window, the
        # steps are the unblocked ones
        panel = dpp_mod._PANEL
        assert probs[:, :panel].tobytes() == reference[:, :panel].tobytes()
        assert np.abs(probs - reference).max() <= 1e-12
        assert ((u < probs) == (u < reference)).all()  # no draw flipped

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("forced", [5, 60])
    def test_forcing_within_1e_12_of_unblocked_forcing(self, request, branch, forced):
        # a drawn pattern on the first sites of a 120-site window: 5 sites take
        # one narrow strip, 60 a full panel and then a strip of 12
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(120))
        bits = np.array(sample(k, SeededRng(13)).occupancy[:forced], dtype=bool)
        probs, stack = dpp_mod._sequential_pass(k.entries[:, :, np.newaxis],
                                                np.where(bits, -np.inf, np.inf)[:, np.newaxis])
        m = k.entries
        for bit in bits:
            column = m[1:, 0] / (m[0, 0] - (not bit))
            m = m[1:, 1:] - column[:, np.newaxis] * m[0, 1:]
        assert stack.shape == (120 - forced, 120 - forced, 1)
        assert np.abs(stack[:, :, 0] - m).max() <= 1e-12
        assert np.where(bits, probs[0], 1.0 - probs[0]).min() > 0.0

    @pytest.mark.parametrize("size, count", [(1000, 1), (200, 8)])
    def test_holds_two_stacks_at_most(self, real_pair, size, count):
        # a trailing block's product is subtracted from in place, as each step's is
        k = kernel_matrix(real_pair, Window.centered(size))
        tracemalloc.start()
        try:
            draws = sample_many(k, SeededRng(3), count) if count > 1 else [sample(k, SeededRng(3))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(draws) == count
        assert peak <= 2.2 * size ** 2 * count * 8


class TestEmpiricalCorrelation:
    def test_all_empty_samples(self, window6):
        samples = [Configuration.empty(window6)] * 10
        assert empirical_correlation(samples, [Site(0)]) == 0.0

    def test_empty_site_set_is_one(self, window6):
        samples = [Configuration.empty(window6)] * 3
        assert empirical_correlation(samples, []) == 1.0

    def test_no_samples(self):
        with pytest.raises(EmptyInputError):
            empirical_correlation([], [Site(0)])

    def test_window_mismatch(self, window6, window8):
        samples = [Configuration.empty(window6), Configuration.empty(window8)]
        with pytest.raises(WindowMismatchError):
            empirical_correlation(samples, [Site(0)])

    def test_matches_determinant_within_4_sigma(self, k6, samples6_100k):
        sites = [Site(-3), Site(-2)]
        exact = correlation(k6, sites)
        got = empirical_correlation(samples6_100k, sites)
        sd = math.sqrt(exact * (1.0 - exact) / len(samples6_100k))
        assert abs(got - exact) < 4.0 * sd


class TestCsvAndCounters:
    def test_pmf_csv(self, pmf6, tmp_path):
        path = tmp_path / "pmf.csv"
        write_pmf_csv(pmf6, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bitmask,probability"
        assert len(lines) == 65
        mask, prob = lines[1].split(",")
        assert mask == "0"
        assert float(prob) == pmf6.probs[0]

    def test_samples_csv(self, window6, tmp_path):
        samples = [Configuration.from_bitmask(window6, 5)]
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,x=-2.5,x=-1.5,x=-0.5,x=0.5,x=1.5,x=2.5"
        assert lines[1] == "0,1,0,1,0,0,0"

    def test_clamp_floor_names_the_row(self):
        # entry 1 is the lowest: its row 11 is named, not bitmask 1 (10)
        k = KernelMatrix(Window.from_indices(0, 1), np.array([[0.5, 2.0], [2.0, 0.25]]))
        with pytest.raises(NumericalError, match=r"^configuration 11 has probability -3\.875 "):
            dpp_mod._probabilities(k, np.array([[False, False], [True, True]]))
        with pytest.raises(NumericalError, match=r"^configuration 11 has probability -3\.875 "):
            config_probability(k, Configuration(k.window, (1, 1)))

    @pytest.mark.parametrize("probability_of", [_pmf_entry, _determinant], ids=["pmf", "det"])
    def test_clamp_rule_is_shared(self, probability_of):
        assert probability_of(-5e-13) == 0.0
        with pytest.raises(NumericalError, match="below clamp floor -1e-12"):
            probability_of(-2e-12)
