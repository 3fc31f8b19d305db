"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete; without ``-s`` pytest shows them for failures.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from kawasaki_dpp.dpp import (
    Configuration,
    config_probability,
    correlation,
    enumerate_distribution,
    sample,
)
from kawasaki_dpp.dynamics import ProximitySpec, RateModel, rate, simulate, symmetry_check
from kawasaki_dpp.exact import build_generator, dirichlet_form, spectrum, transition_matrix
from kawasaki_dpp.kernel import (
    AdmissiblePair,
    Window,
    ab_values,
    kernel_matrix,
    spectral_projection_check,
)
from kawasaki_dpp.rn import SwapPair, apply_transposition, rn_derivative
from kawasaki_dpp.rng import SeededRng

REAL = AdmissiblePair(1.5, 1.7)
CONJ = AdmissiblePair(0.3 + 0.4j, 0.3 - 0.4j)

# Pinned on first computation: interior deviation of the truncated-operator
# projection from K (central 10 sites, margins (size - 10) / 2).
PROJECTION_PINS = {
    "real": {40: 0.10699016357813979, 60: 0.083828051957581917, 80: 0.070176659418090204},
    "conj": {40: 0.032626804015404742, 60: 0.022466233645759393, 80: 0.016782125717889729},
}


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:02d}] {status} {name}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert passed, f"criterion {number}: {name} {detail}"


def test_criterion_01_kernel_correctness():
    started = time.perf_counter()
    worst_asym = 0.0
    diag_ok = True
    eig_ok = True
    for pair in (REAL, CONJ):
        k = kernel_matrix(pair, Window.centered(30))
        worst_asym = max(worst_asym, float(np.abs(k.entries - k.entries.T).max()))
        diag_ok &= bool(0.0 < k.diagonal.min() and k.diagonal.max() < 1.0)
        evals = k.eigenvalues
        eig_ok &= bool(evals[0] >= -1e-9 and evals[-1] <= 1.0 + 1e-9)
    elapsed = time.perf_counter() - started
    passed = worst_asym <= 1e-12 and diag_ok and eig_ok and elapsed < 1.0
    report(1, "kernel correctness on 30-site windows, both branches", passed,
           f"asym={worst_asym:.2e}, {elapsed:.2f}s")


def test_criterion_02_ab_identity():
    worst = 0.0
    for pair in (REAL, CONJ):
        for site in Window.centered(200).sites:
            a, b = ab_values(pair, site)
            worst = max(worst, abs(complex(a * b) - 1.0))
    report(2, "A(x)B(x) = 1 across 200 sites, both branches", worst < 1e-12,
           f"max|AB-1|={worst:.2e}")


def test_criterion_03_dpp_exactness():
    started = time.perf_counter()
    worst_total = 0.0
    worst_marginal = 0.0
    worst_pair = 0.0
    cases = [(REAL, n) for n in (2, 4, 6, 8, 10, 12)] + [(CONJ, 8), (CONJ, 12)]
    for pair, size in cases:
        k = kernel_matrix(pair, Window.centered(size))
        pmf = enumerate_distribution(k)
        worst_total = max(worst_total, abs(pmf.total() - 1.0))
        for s in k.window.sites:
            worst_marginal = max(worst_marginal, abs(pmf.marginal(s) - k.entry(s, s)))
        for a, b in itertools.combinations(k.window.sites, 2):
            worst_pair = max(worst_pair,
                             abs(pmf.occupied_marginal([a, b]) - correlation(k, [a, b])))
    elapsed = time.perf_counter() - started
    passed = (worst_total <= 1e-9 and worst_marginal <= 1e-10 and worst_pair <= 1e-10
              and elapsed < 5.0)
    report(3, "enumeration pmf exactness on windows up to 12 sites", passed,
           f"sum={worst_total:.1e}, marg={worst_marginal:.1e}, "
           f"pair={worst_pair:.1e}, {elapsed:.2f}s")


def test_criterion_04_sampler():
    started = time.perf_counter()
    window = Window.from_indices(-4, 3)
    k = kernel_matrix(REAL, window)
    pmf = enumerate_distribution(k)
    n_samples = 200_000
    rng = SeededRng(314)
    counts = np.zeros(1 << 8)
    particle_total = 0
    for _ in range(n_samples):
        config = sample(k, rng)
        counts[config.bitmask] += 1
        particle_total += config.particle_count
    tv = 0.5 * float(np.abs(counts / n_samples - pmf.probs).sum())
    lam = np.clip(k.eigenvalues, 0.0, 1.0)
    sigma = math.sqrt(float((lam * (1.0 - lam)).sum()) / n_samples)
    count_dev = abs(particle_total / n_samples - k.trace)
    elapsed = time.perf_counter() - started
    passed = tv < 0.01 and count_dev < 4.0 * sigma and elapsed < 30.0
    report(4, "exact sampler: 200k draws on 8 sites", passed,
           f"tv={tv:.4f}, |mean-trace|={count_dev:.2e} ({count_dev / sigma:.2f} sigma), "
           f"{elapsed:.1f}s")


def test_criterion_05_rn_inversion():
    window = Window.from_indices(-5, 4)
    worst_inversion = 0.0
    worst_total = 0.0
    for pair in (REAL, CONJ):
        k = kernel_matrix(pair, window)
        sites = window.sites
        for swap in (SwapPair(sites[0], sites[-1]), SwapPair(sites[4], sites[5])):
            total = 0.0
            for mask in range(1 << 10):
                config = Configuration.from_bitmask(window, mask)
                p = config_probability(k, config)
                if p <= 0.0:
                    continue
                phi = rn_derivative(k, config, swap)
                total += p * phi
                swapped = apply_transposition(config, swap)
                if config_probability(k, swapped) > 0.0:
                    reverse = rn_derivative(k, swapped, swap)
                    worst_inversion = max(worst_inversion, abs(phi * reverse - 1.0))
            worst_total = max(worst_total, abs(total - 1.0))
    passed = worst_inversion <= 1e-9 and worst_total <= 1e-9
    report(5, "swap-ratio inversion and unit integral on 10-site windows", passed,
           f"inv={worst_inversion:.1e}, integral={worst_total:.1e}")


def test_criterion_06_detailed_balance():
    window = Window.from_indices(-5, 4)
    k = kernel_matrix(REAL, window)
    nn = ProximitySpec.nearest_neighbor()
    models = [RateModel.metropolis(nn), RateModel.sqrt_ratio(nn), RateModel.glauber_like(nn)]
    swaps = [SwapPair(a, b) for a, b in zip(window.sites, window.sites[1:])]
    worst = 0.0
    for model in models:
        for mask in range(1 << 10):
            config = Configuration.from_bitmask(window, mask)
            p = config_probability(k, config)
            if p <= 0.0:
                continue
            for swap in swaps:
                if config.occupancy_at(swap.x) == config.occupancy_at(swap.y):
                    continue
                swapped = apply_transposition(config, swap)
                q = config_probability(k, swapped)
                if q <= 0.0:
                    continue
                residual = symmetry_check(model, k, config, swap)
                flux = max(p * rate(model, k, config, swap),
                           q * rate(model, k, swapped, swap))
                if flux > 0.0:
                    worst = max(worst, residual / flux)
    report(6, "detailed balance, three models, every sector of a 10-site window",
           worst < 1e-10, f"max rel residual={worst:.1e}")


def test_criterion_07_dirichlet_identity():
    k = kernel_matrix(REAL, Window.from_indices(-4, 3))
    g = build_generator(RateModel.metropolis(ProximitySpec.nearest_neighbor()), k, sector=3)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        f = rng.normal(size=g.n_states)
        h = rng.normal(size=g.n_states)
        worst = max(worst, abs(dirichlet_form(g, f, h) - float(g.measure @ ((-g.Q @ f) * h))))
    ones = np.ones(g.n_states)
    constant = abs(dirichlet_form(g, ones, ones))
    passed = worst < 1e-10 and constant <= 1e-12
    report(7, "Dirichlet form matches the generator on an 8-site sector", passed,
           f"max|E-<-QF,H>|={worst:.1e}, E(1)={constant:.1e}")


def test_criterion_08_stationarity_and_spectrum():
    k = kernel_matrix(REAL, Window.from_indices(-4, 3))
    g = build_generator(RateModel.metropolis(ProximitySpec.nearest_neighbor()), k, sector=3)
    stationarity = float(np.abs(g.measure @ g.Q).max())
    result = spectrum(g)
    eig_max = float(result.eigenvalues.max())
    zero_present = abs(float(result.eigenvalues[0])) <= 1e-10
    rowsum_err = 0.0
    entry_min = 0.0
    for t in (0.1, 1.0, 10.0):
        p_t = transition_matrix(g, t)
        rowsum_err = max(rowsum_err, float(np.abs(p_t.sum(axis=1) - 1.0).max()))
        entry_min = min(entry_min, float(p_t.min()))
    passed = (stationarity < 1e-10 and eig_max <= 1e-10 and zero_present
              and rowsum_err <= 1e-9 and entry_min >= -1e-9)
    report(8, "stationarity, nonpositive spectrum, Markov semigroup", passed,
           f"|muQ|={stationarity:.1e}, max eig={eig_max:.1e}, "
           f"rowsum={rowsum_err:.1e}, min entry={entry_min:.1e}")


def test_criterion_09_ergodic_convergence():
    started = time.perf_counter()
    window = Window.from_indices(-4, 3)
    k = kernel_matrix(REAL, window)
    model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
    initial = Configuration(window, (1, 1, 1, 0, 0, 0, 0, 0))
    pilot = simulate(model, k, initial, 100.0, SeededRng(999, stream=1))
    event_rate = pilot.n_events / pilot.t_max
    t_max = 1.15 * 100_000 / event_rate
    trajectory = simulate(model, k, initial, t_max, SeededRng(999))
    pmf = enumerate_distribution(k)
    masks, conditional = pmf.sector(3)
    holding = trajectory.state_occupation()
    empirical = np.array([holding.get(int(m), 0.0) for m in masks]) / trajectory.t_max
    tv = 0.5 * float(np.abs(empirical - conditional).sum())
    elapsed = time.perf_counter() - started
    passed = trajectory.n_events >= 100_000 and tv < 0.05 and elapsed < 120.0
    report(9, "long-run occupation matches the conditional law (3-particle sector)",
           passed, f"{trajectory.n_events} events, tv={tv:.4f}, {elapsed:.1f}s")


def test_criterion_10_spectral_projection_convergence():
    results = {}
    for tag, pair in (("real", REAL), ("conj", CONJ)):
        deviations = {}
        for size in (40, 60, 80):
            probe = spectral_projection_check(pair, Window.centered(size), (size - 10) // 2)
            deviations[size] = probe.max_abs_deviation
        results[tag] = deviations
    monotone = all(results[tag][40] > results[tag][60] > results[tag][80]
                   for tag in results)
    pinned = all(results[tag][size] == pytest.approx(PROJECTION_PINS[tag][size], rel=1e-9)
                 for tag in results for size in (40, 60, 80))
    report(10, "interior projection deviation decreases over 40/60/80 windows",
           monotone and pinned,
           "real " + "->".join(f"{results['real'][s]:.4f}" for s in (40, 60, 80))
           + ", conj " + "->".join(f"{results['conj'][s]:.4f}" for s in (40, 60, 80)))


def test_criterion_11_reproducibility(tmp_path, run_python):
    commands = [
        ["kernel", "--z", "1.5", "--zp", "1.7", "--window", "-3..3"],
        ["sample", "--z", "0.3+0.4i", "--zp", "0.3-0.4i", "--window", "-3..2",
         "--seed", "21", "--n-samples", "300"],
        ["exact-probs", "--z", "1.5", "--zp", "1.7", "--window", "-3..2"],
        ["simulate", "--z", "1.5", "--zp", "1.7", "--window", "-3..2",
         "--t-max", "40", "--seed", "5", "--replicas", "2"],
        ["spectrum", "--z", "1.5", "--zp", "1.7", "--window", "-3..2", "--sector", "3"],
        ["rn", "--z", "1.5", "--zp", "1.7", "--pattern", "00", "--pattern-window",
         "3..4", "--swap", "3,4", "--sizes", "8,10", "--seed", "6", "--n-samples", "10"],
    ]
    mismatches = []
    for index, args in enumerate(commands):
        dirs = []
        outputs = []
        echoes = []
        for attempt in ("first", "second"):
            run_dir = tmp_path / f"cmd{index}_{attempt}"
            run_dir.mkdir()
            proc = run_python(["-m", "kawasaki_dpp", *args, "--output-dir", "."], run_dir)
            assert proc.returncode == 0, proc.stderr
            dirs.append(run_dir)
            outputs.append(proc.stdout)
            echo = json.loads(proc.stderr.strip().splitlines()[-1])
            echo.pop("timestamp")  # the single isolated timestamp key
            echoes.append(echo)
        if outputs[0] != outputs[1] or echoes[0] != echoes[1]:
            mismatches.append(f"{args[0]}: stdout/echo differ")
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{args[0]}: file sets differ")
            continue
        for name in files_a:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{args[0]}: {name} differs")
    report(11, "same argv and seed give byte-identical outputs", not mismatches,
           "; ".join(mismatches) if mismatches else f"{len(commands)} commands compared")
