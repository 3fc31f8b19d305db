"""The demos run to completion.

Demo 01 calls every public kernel function; demo 02 builds a window kernel
and checks enumeration against single determinants; demo 03 draws with the
sampler, in one batch and one draw at a time; demo 04 runs swap ratios and
the stabilization study on exactly conditioned draws; demo 05 reads jump
rates off total_jump_rate and runs the jump chain with simulate; demo 06
builds generators and their spectra.
"""

from __future__ import annotations

from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_kernel_tour.py", "02_exact_probabilities.py",
                                  "03_sampling.py", "04_swap_ratios.py",
                                  "05_kawasaki_simulation.py", "06_generator_spectrum.py"])
def test_demo_runs(name, tmp_path, run_python):
    result = run_python([str(DEMOS / name)], tmp_path)
    assert result.returncode == 0, result.stderr
