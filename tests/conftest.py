"""Shared fixtures: parameter pairs, windows and kernels reused across tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kawasaki_dpp
from kawasaki_dpp import (
    AdmissiblePair,
    SeededRng,
    enumerate_distribution,
    kernel_matrix,
    sample_many,
)
from kawasaki_dpp.kernel import Window


@pytest.fixture(scope="session")
def run_python():
    """``run(args, cwd, **variables)``: ``python *args`` in a subprocess, on this suite's
    package source, with the given environment variables set.

    The source root of the package this process imported goes first on the
    child's PYTHONPATH, absolute, so the child runs the same code from any
    cwd, whether or not the package is installed.
    """
    source_root = str(Path(kawasaki_dpp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))

    def run(args: list[str], cwd, **variables: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=cwd, env={**env, **variables},
                              capture_output=True, text=True, timeout=300)

    return run


@pytest.fixture(scope="session")
def real_pair():
    return AdmissiblePair(1.5, 1.7)


@pytest.fixture(scope="session")
def conj_pair():
    return AdmissiblePair(0.3 + 0.4j, 0.3 - 0.4j)


@pytest.fixture(scope="session")
def window6():
    return Window.from_indices(-3, 2)


@pytest.fixture(scope="session")
def window8():
    return Window.from_indices(-4, 3)


@pytest.fixture(scope="session")
def window10():
    return Window.from_indices(-5, 4)


@pytest.fixture(scope="session")
def k6(real_pair, window6):
    return kernel_matrix(real_pair, window6)


@pytest.fixture(scope="session")
def k8(real_pair, window8):
    return kernel_matrix(real_pair, window8)


@pytest.fixture(scope="session")
def k10(real_pair, window10):
    return kernel_matrix(real_pair, window10)


@pytest.fixture(scope="session")
def pmf6(k6):
    return enumerate_distribution(k6)


@pytest.fixture(scope="session")
def pmf8(k8):
    return enumerate_distribution(k8)


@pytest.fixture(scope="session")
def samples6_100k(k6):
    """100k exact draws on the 6-site window, shared by the Monte Carlo tests.

    The same draws as 100k successive ``sample`` calls on one stream.
    """
    return sample_many(k6, SeededRng(2024), 100_000)
