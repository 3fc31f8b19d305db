"""Window DPP machinery: probabilities, enumeration, sampling.

The inclusion-exclusion oracle expands exact-configuration probabilities in
correlation minors only, an independent route to the same number as the
column-split determinant under test.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

import kawasaki_dpp.dpp as dpp_mod
from kawasaki_dpp.dpp import (
    Configuration,
    Pmf,
    clamp_counter,
    config_probability,
    correlation,
    empirical_correlation,
    enumerate_distribution,
    sample,
    sample_many,
    write_pmf_csv,
    write_samples_csv,
)
from kawasaki_dpp.errors import (
    DuplicateSiteError,
    EmptyInputError,
    NumericalError,
    SizeError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from kawasaki_dpp.kernel import KernelMatrix, Site, Window, kernel_matrix
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
    """Bitmask 1 of a hand-built one-site Pmf whose entries are 1 and `value`."""
    return float(Pmf(Window.from_indices(0, 0), np.array([1.0, value])).probs[1])


def _schur_pass(k: KernelMatrix, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of the draws for the (B, n) uniforms `u`, one Schur pass per draw,
    and the (B, n) conditional probabilities they visit.

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
    return ((u < probs) << np.arange(k.size)).sum(axis=1), probs


def _inverse_cdf(k: KernelMatrix, u: np.ndarray) -> np.ndarray:
    """Bitmasks of the draws for the uniforms `u`, one each, by inverse CDF over the enumerated law.

    A draw is the first mask whose cumulative probability exceeds its
    uniform: the number of masks whose cumulative probability is at most it.
    """
    cumulative = np.cumsum(enumerate_distribution(k).probs)
    return (u[:, np.newaxis] >= cumulative / cumulative[-1]).sum(axis=1)


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
        occupied = dpp_mod._occupancy(np.arange(1 << n), n)[:, np.newaxis, :]
        want = np.linalg.det(np.where(occupied, k.entries, np.eye(n) - k.entries))
        want[want < 0.0] = 0.0
        assert enumerate_distribution(k).probs.tobytes() == want.tobytes()

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
        message = r"^probability -3.75 below clamp floor -1e-12$"
        with pytest.raises(NumericalError, match=message):
            sample(k, SeededRng(0))
        with pytest.raises(NumericalError, match=message):
            sample_many(k, SeededRng(0), 100)

    def test_law_table_total_is_checked(self, monkeypatch, k6):
        # no kernel accepted by KernelMatrix gets here: its determinants sum to
        # det(K + I - K) = 1 up to rounding
        for law in (np.full(64, 1 / 32), np.full(64, np.nan)):
            monkeypatch.setattr(dpp_mod, "_probabilities", lambda k, occupied: law)
            with pytest.raises(NumericalError, match="^pmf total (2.0|nan) deviates"):
                sample(KernelMatrix(k6.window, k6.entries), SeededRng(0))

    @pytest.mark.parametrize("seed", range(4))
    def test_invalid_kernel_reports_the_stack_pass_worst(self, seed):
        # random symmetric entries, diagonal in [0, 1]: accepted, but not a
        # kernel; 13 sites, so draws take the stack pass
        rnd = np.random.default_rng(seed)
        half = rnd.uniform(-0.7, 0.7, (13, 13))
        entries = half + half.T
        np.fill_diagonal(entries, rnd.uniform(0.0, 1.0, 13))
        k = KernelMatrix(Window.centered(13), entries)
        assert dpp_mod._law_table(k) is None
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
        probabilities = dpp_mod._probabilities
        monkeypatch.setattr(dpp_mod, "_probabilities",
                            lambda k, occupied: builds.append(occupied.shape)
                            or probabilities(k, occupied))
        k = kernel_matrix(real_pair, Window.centered(8))
        rng = SeededRng(2)
        draws = [sample(k, rng) for _ in range(500)] + sample_many(k, rng, 500)
        assert builds == [(1 << 8, 8)]
        # one shared Configuration per drawn mask
        assert len({id(c) for c in draws}) == len(set(draws)) > 1

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size, centre", [(1, 0), (2, -20), (8, 0), (8, 17), (12, 0),
                                              (12, -20), (13, 0), (13, -20), (14, 0), (14, 17)])
    def test_draws_match_one_schur_pass_per_draw(self, request, branch, size, centre):
        # up to 12 sites a draw takes one uniform and the reference is the
        # inverse CDF over the enumerated law; above, one Schur pass per draw
        k = kernel_matrix(request.getfixturevalue(branch), Window.centered(size, centre))
        assert (dpp_mod._law_table(k) is None) == (size > 12)  # 12 sites: the largest table
        rng, reference_rng = SeededRng(21), SeededRng(21)
        draws = [sample(k, rng) for _ in range(200)] + sample_many(k, rng, 500)
        if size <= 12:
            expected = _inverse_cdf(k, reference_rng.random(700))
        else:
            expected, _ = _schur_pass(k, reference_rng.random((700, size)))
        assert [c.bitmask for c in draws] == expected.tolist()
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
    @pytest.mark.parametrize("size, count", [
        pytest.param(20, 1, id="1"), pytest.param(20, 7, id="7"), pytest.param(20, 4096, id="4096"),
        pytest.param(8, 20_000, id="8_sites-20000")])
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

    def test_clamp_counter_interface(self):
        clamp_counter.reset()
        assert clamp_counter.count == 0

    @pytest.mark.parametrize("probability_of", [_pmf_entry, _determinant], ids=["pmf", "det"])
    def test_clamp_rule_is_shared(self, probability_of):
        clamp_counter.reset()
        assert probability_of(-5e-13) == 0.0
        assert clamp_counter.count == 1
        with pytest.raises(NumericalError, match="below clamp floor -1e-12"):
            probability_of(-2e-12)
