"""Refusals across the layers: each call raises its typed error with its message.

Each case is a call that a check refuses before any other work: a malformed
kernel, a mismatched window, an empty or zero-mass input, a window past the
kernel's cap, a draw count past the sampler's, a pair whose kernel leaves the
doubles.
"""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from kawasaki_dpp.dpp import (Configuration, enumerate_distribution, sample_many,
                              write_samples_csv)
from kawasaki_dpp.dynamics import ProximitySpec, RateModel, total_jump_rate
from kawasaki_dpp.errors import (
    DomainError,
    EmptyInputError,
    NumericalError,
    SizeError,
    WindowMismatchError,
)
from kawasaki_dpp.exact import build_generator, spectrum
from kawasaki_dpp.kernel import (
    AdmissiblePair,
    KernelMatrix,
    Site,
    Window,
    difference_operator_matrix,
    is_admissible,
    kernel_entry,
    kernel_matrix,
    spectral_projection_check,
)
from kawasaki_dpp.rn import SwapPair, rn_stabilization
from kawasaki_dpp.rng import SeededRng

W1 = Window.from_indices(0, 0)
W2 = Window.from_indices(0, 1)
W3 = Window.from_indices(0, 2)
PAST_CAP = Window.centered(4097)
# The conjugate scale, about sin^2(pi Re z) / (pi^2 |Im z|), overflows for a subnormal Im z
SUBNORMAL = AdmissiblePair(0.3 + 1e-310j, 0.3 - 1e-310j)
METROPOLIS = RateModel.metropolis(ProximitySpec.nearest_neighbor())


def _inadmissible_pair(z, zp):
    # the one refusal is the pair's own; is_admissible answers False first
    assert not is_admissible(z, zp)
    return AdmissiblePair(z, zp)


CASES = {
    "kernel-shape": (lambda tmp: KernelMatrix(W3, np.eye(2)),
                     ValueError, "entries shape (2, 2) != window size 3"),
    "kernel-asymmetry": (lambda tmp: KernelMatrix(W2, [[0.5, 0.1], [0.1 + 1e-11, 0.5]]),
                         NumericalError, "kernel matrix asymmetry 1e-11 exceeds 1e-12"),
    "kernel-diagonal-above-one": (lambda tmp: KernelMatrix(W1, [[1.5]]),
                                  NumericalError, "kernel diagonal outside [0, 1]"),
    "kernel-diagonal-negative": (lambda tmp: KernelMatrix(W1, [[-0.5]]),
                                 NumericalError, "kernel diagonal outside [0, 1]"),
    "validate-eigenvalues": (lambda tmp: KernelMatrix(W2, [[0.5, 0.9], [0.9, 0.5]]).validate(),
                             NumericalError, "eigenvalues [-0.4, 1.4] outside [-1e-9, 1+1e-9]"),
    "kernel-subnormal-imaginary-part": (
        lambda tmp: kernel_matrix(SUBNORMAL, Window.from_indices(-3, 3)),
        NumericalError, "kernel entries leave the normal doubles between sites -2.5 and 3.5"),
    "kernel-entry-subnormal-imaginary-part": (
        lambda tmp: kernel_entry(SUBNORMAL, Site(-3), Site(3)),
        NumericalError, "kernel entries leave the normal doubles between sites -2.5 and 3.5"),
    # Re(z + x + 1/2) = 0 at x = -1/2: |a|^2 = 1e-400 underflows, and the diagonal step with it
    "kernel-conjugate-diagonal-underflow": (
        lambda tmp: kernel_matrix(AdmissiblePair(1 + 1e-200j, 1 - 1e-200j),
                                  Window.from_indices(-3, 3)),
        NumericalError, "kernel entries leave the normal doubles between sites -2.5 and 3.5"),
    "difference-operator-past-cap": (
        lambda tmp: difference_operator_matrix(AdmissiblePair(1.5, 1.7), PAST_CAP),
        SizeError, "window of 4097 sites exceeds cap 4096"),
    "projection-check-past-cap": (
        lambda tmp: spectral_projection_check(AdmissiblePair(1.5, 1.7), PAST_CAP, 1),
        SizeError, "window of 4097 sites exceeds cap 4096"),
    "draws-past-cap": (
        lambda tmp: sample_many(KernelMatrix(W3, 0.5 * np.eye(3)), SeededRng(0), 1 << 25),
        SizeError, "33554432 draws of 3 sites exceed the cap of 16777216 drawn sites"),
    # where the two caps met before they were lowered: 7-8 min of Schur passes
    "draws-past-cap-128-sites": (
        lambda tmp: sample_many(KernelMatrix(Window.centered(128), np.diag(np.full(128, 0.5))),
                                SeededRng(0), 1 << 19),
        SizeError, "524288 draws of 128 sites exceed the cap of 16777216 drawn sites"),
    # 2^16 draws of 192 sites: under the memory cap, but 2-3 min of Schur passes
    "draws-past-work-bound": (
        lambda tmp: sample_many(KernelMatrix(Window.centered(192), np.diag(np.full(192, 0.5))),
                                SeededRng(0), 1 << 16),
        SizeError, "65536 draws of 192 sites exceed the bound of 274877906944 "
                   "on draws times sites cubed"),
    "window-of-no-sites": (lambda tmp: Window.centered(0),
                           ValueError, "window size must be >= 1"),
    "integer-parameter": (lambda tmp: _inadmissible_pair(1.0, 1.5),
                          DomainError, "(z, z') = ((1+0j), (1.5+0j)) is not an admissible pair"),
    "bitmask-above-range": (lambda tmp: Configuration.from_bitmask(W3, 8),
                            ValueError, "bitmask 8 out of range for window [0.5..2.5]"),
    "bitmask-negative": (lambda tmp: Configuration.from_bitmask(W3, -1),
                         ValueError, "bitmask -1 out of range for window [0.5..2.5]"),
    "pmf-other-window": (
        lambda tmp: enumerate_distribution(KernelMatrix(W2, 0.5 * np.eye(2))).prob(
            Configuration.empty(W3)),
        WindowMismatchError, "configuration window differs from pmf window"),
    "pmf-zero-mass-sector": (
        lambda tmp: enumerate_distribution(KernelMatrix(W2, np.zeros((2, 2)))).sector(1),
        NumericalError, "sector 1 has zero total probability"),
    "no-samples": (lambda tmp: write_samples_csv([], tmp / "samples.csv"),
                   EmptyInputError, "no samples"),
    "jump-rate-other-window": (
        lambda tmp: total_jump_rate(METROPOLIS, KernelMatrix(W2, 0.5 * np.eye(2)),
                                    Configuration(W3, (1, 0, 0))),
        WindowMismatchError, "configuration window differs from kernel window"),
    "stabilization-below-pattern": (
        lambda tmp: rn_stabilization(AdmissiblePair(1.5, 1.7), Configuration(W3, (1, 0, 0)),
                                     SwapPair(Site(0), Site(1)), [2], SeededRng(0)),
        SizeError, "window size 2 smaller than pattern support 3"),
    # K = I occupies every site: the sector one below full carries no mass
    "generator-zero-mass": (lambda tmp: build_generator(METROPOLIS, KernelMatrix(W3, np.eye(3)),
                                                        sector=2),
                            NumericalError, "state list carries zero probability"),
    # one site with K = 1: the empty state has measure 0 and no swap touches it
    "spectrum-zero-measure": (
        lambda tmp: spectrum(build_generator(METROPOLIS, KernelMatrix(W1, [[1.0]]))),
        NumericalError, "measure must be strictly positive to symmetrize"),
}


@pytest.mark.parametrize("name", CASES)
def test_refusal_names_its_cause(name, tmp_path):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["difference-operator-past-cap", "projection-check-past-cap",
                                  "draws-past-cap", "draws-past-cap-128-sites",
                                  "draws-past-work-bound"])
def test_window_past_the_cap_is_refused_before_its_work(name, tmp_path):
    # a 4097^2 operator alone would take 128 MiB, and 2^25 uniforms 256 MiB
    call, error, _ = CASES[name]
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
