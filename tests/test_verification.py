"""The bundled verification suites pass on reference parameters."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from kawasaki_dpp import verification
from kawasaki_dpp.dpp import Configuration, correlation, enumerate_distribution
from kawasaki_dpp.errors import KawasakiDppError
from kawasaki_dpp.kernel import KernelMatrix, Window, kernel_matrix
from kawasaki_dpp.rn import SwapPair, apply_transposition
from kawasaki_dpp.verification import SUITE_NAMES, Report, run_suite

WINDOW = Window.from_indices(-4, 4)


def _assert_clean(report: Report):
    failed = [c.name for c in report.checks if not c.passed]
    assert report.failures == 0, f"failing checks: {failed}"
    for check in report.checks:
        assert math.isfinite(check.value)


@pytest.mark.parametrize("suite", ["kernel", "rn", "exact"])
def test_fast_suites_real_branch(real_pair, suite):
    _assert_clean(run_suite(suite, real_pair, WINDOW, seed=7))


def test_kernel_suite_conjugate_branch(conj_pair):
    _assert_clean(run_suite("kernel", conj_pair, WINDOW, seed=7))


def test_dynamics_suite(real_pair):
    _assert_clean(run_suite("dynamics", real_pair, WINDOW, seed=7))


def test_all_suites_pass(real_pair):
    # the full bundle, sampler check at acceptance scale included
    report = run_suite("all", real_pair, WINDOW, seed=7)
    _assert_clean(report)
    assert report.suite == "all"
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    payload = json.loads(report.to_json())
    assert payload["failures"] == 0
    assert {"name", "passed", "value", "tolerance"} == set(payload["checks"][0])


def test_unknown_suite_rejected(real_pair):
    with pytest.raises(ValueError):
        run_suite("everything", real_pair, WINDOW, seed=0)


def test_suite_names_stable():
    assert SUITE_NAMES == ("kernel", "dpp", "rn", "dynamics", "exact")


@pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
def test_all_lists_a_suite_that_raises_as_one_failed_check(request, branch):
    # On -40..-20 the dynamics suite's start is refused by the condition guard,
    # and on the real pair the exact suite meets a state of probability 0.
    raising = {"real_pair": ["dynamics", "exact"], "conj_pair": ["dynamics"]}[branch]
    pair = request.getfixturevalue(branch)
    window = Window.from_indices(-40, -20)
    report = run_suite("all", pair, window, seed=0)
    want, messages = [], []
    for suite in SUITE_NAMES:
        if suite in raising:
            with pytest.raises(KawasakiDppError) as error:
                run_suite(suite, pair, window, seed=0)
            want.append(f"{suite}_error")
            messages.append(str(error.value))
        else:
            want.extend(c.name for c in run_suite(suite, pair, window, seed=0).checks)
    assert [c.name for c in report.checks] == want
    failed = [c.to_dict() for c in report.checks if not c.passed]
    assert failed == [{"name": f"{s}_error", "passed": False, "value": 0.0, "tolerance": None,
                       "message": message} for s, message in zip(raising, messages)]
    assert report.failures == len(raising)
    # every other check keeps its four keys
    assert all(list(c.to_dict()) == ["name", "passed", "value", "tolerance"]
               for c in report.checks if c.passed)


@pytest.mark.parametrize("branch, want", [("real_pair", 1264), ("conj_pair", 1609)])
def test_clamps_are_those_of_the_two_laws(request, branch, want):
    # The 12-site law and the 8-site law count their clamps once each, whatever
    # else ran in the process; the law table the 8-site draws build is not added.
    pair = request.getfixturevalue(branch)
    window = Window.from_indices(-40, -20)
    report = run_suite("dpp", pair, window, seed=0)
    reported = next(c.value for c in report.checks if c.name == "clamped_negative_probabilities")
    laws = [enumerate_distribution(kernel_matrix(pair, verification._subwindow(window, size)))
            for size in (12, 8)]
    assert reported == sum(law.clamped for law in laws) == want


@pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
def test_rn_values_equal_state_by_state_loop(request, branch):
    # Reference: each state's ratios read off the enumerated law one state at
    # a time, summed in mask order.  How close that law is to the determinants
    # is tests/test_dpp.py's job (test_prefix_tree_equals_determinants).
    pair = request.getfixturevalue(branch)
    probs = enumerate_distribution(kernel_matrix(pair, WINDOW)).probs
    sites = WINDOW.sites
    inversion_worst = change_worst = square_probe = 0.0
    summed = 0
    for swap in (SwapPair(sites[0], sites[-1]), SwapPair(sites[4], sites[5])):
        total = square = 0.0
        for mask in range(1 << WINDOW.size):
            p = probs[mask]
            if p <= 0.0:
                continue
            q = probs[apply_transposition(Configuration.from_bitmask(WINDOW, mask), swap).bitmask]
            phi = q / p
            if q > 0.0:
                inversion_worst = max(inversion_worst, abs(phi * (p / q) - 1.0))
            total += p * phi
            square += p * phi * phi
            summed += 1
        change_worst = max(change_worst, abs(total - 1.0))
        square_probe = max(square_probe, square)
    checks = verification.verify_rn(pair, WINDOW, seed=7)
    assert [(c.name, c.value) for c in checks[:3]] == [
        ("rn_inversion_max_error", inversion_worst),
        ("rn_change_of_variables_error", change_worst),
        ("rn_square_integral_probe", square_probe),
    ]
    # Not vacuous: states were summed, and phi is not 1 almost surely (E[phi^2] > 1).
    assert inversion_worst > 0.0 and summed > 0 and square_probe > 1.0


def test_particle_conservation_fails_on_a_no_op_event(real_pair, monkeypatch):
    # The start fills the left half, so its two leftmost sites are both occupied.
    simulate = verification.simulate

    def with_no_op(model, k, initial, t_max, rng):
        trajectory = simulate(model, k, initial, t_max, rng)
        trajectory.events.insert(0, (0.0, SwapPair(*k.window.sites[:2])))
        return trajectory

    monkeypatch.setattr(verification, "simulate", with_no_op)
    checks = {c.name: c for c in verification.verify_dynamics(real_pair, WINDOW, seed=7)}
    assert checks["trajectory_seed_determinism"].passed
    assert not checks["trajectory_particle_conservation"].passed


@pytest.mark.parametrize("size", [3, 9])
def test_principal_minors_min_is_the_worst_correlation(real_pair, monkeypatch, size):
    # Symmetric entries with negative minors stand in for the window's kernel:
    # the check reads the smallest correlation over subsets of 1 to 4 sites.
    window = Window.centered(size)
    rnd = np.random.default_rng(size)
    half = rnd.uniform(-0.7, 0.7, (size, size))
    entries = half + half.T
    np.fill_diagonal(entries, rnd.uniform(0.0, 1.0, size))
    fake = KernelMatrix(window, entries)
    monkeypatch.setattr(verification, "kernel_matrix",
                        lambda pair, w: fake if w == window else kernel_matrix(pair, w))
    check = next(c for c in verification.verify_kernel(real_pair, window, seed=0)
                 if c.name == "principal_minors_min")
    want = min(correlation(fake, subset) for count in range(1, min(size, 4) + 1)
               for subset in itertools.combinations(window.sites, count))
    assert want < -1e-10 and check.value == want and not check.passed
