"""The demos run to completion.

Demo 01 calls every public kernel function; demo 02 builds a window kernel
and checks enumeration against single determinants; demo 03 draws with the
sampler, in one batch and one draw at a time; demo 04 runs swap ratios and
the stabilization study on exactly conditioned draws; demo 05 reads jump
rates off total_jump_rate and runs the jump chain with simulate; demo 06
builds generators and their spectra.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kawasaki_dpp

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_kernel_tour.py", "02_exact_probabilities.py",
                                  "03_sampling.py", "04_swap_ratios.py",
                                  "05_kawasaki_simulation.py", "06_generator_spectrum.py"])
def test_demo_runs(name, tmp_path):
    # Put the source root of the package this process imported first on the
    # child's path, absolute, so the demo runs the same code from any cwd.
    source_root = str(Path(kawasaki_dpp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
