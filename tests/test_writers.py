"""Artifact writers against reference copies of the per-entry f-string writers.

The public writers format through ``util.write_csv`` and ``util.write_json``;
each reference below builds the same file one f-string per entry, and the
bytes must be equal.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kawasaki_dpp import SeededRng, enumerate_distribution, kernel_matrix, sample_many
from kawasaki_dpp.dpp import Configuration, Pmf, write_pmf_csv, write_samples_csv
from kawasaki_dpp.dynamics import (ProximitySpec, RateModel, Trajectory, simulate,
                                   trajectory_sidecar, write_trajectory_csv,
                                   write_trajectory_sidecar)
from kawasaki_dpp.kernel import AdmissiblePair, KernelMatrix, Site, Window, write_kernel_csv
from kawasaki_dpp.rn import StabilizationRow, StabilizationTable, SwapPair, write_stabilization_csv
from kawasaki_dpp.util import _CHUNK_CHARS
from kawasaki_dpp.verification import Check, Report


def _write_lines(lines, path) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def reference_kernel_csv(k, path) -> None:
    sites = k.window.sites
    lines = ["x\\y," + ",".join(str(s) for s in sites)]
    for i, s in enumerate(sites):
        row = ",".join(f"{v:.17g}" for v in k.entries[i])
        lines.append(f"{s},{row}")
    _write_lines(lines, path)


def reference_pmf_csv(pmf, path) -> None:
    lines = ["bitmask,probability"]
    for mask in range(1 << pmf.size):
        lines.append(f"{mask},{pmf.probs[mask]:.17g}")
    _write_lines(lines, path)


def reference_samples_csv(samples, path) -> None:
    window = samples[0].window
    lines = ["sample_index," + ",".join(f"x={s}" for s in window.sites)]
    for i, c in enumerate(samples):
        lines.append(f"{i}," + ",".join(str(b) for b in c.occupancy))
    _write_lines(lines, path)


def reference_trajectory_csv(trajectory, path) -> None:
    lines = ["time,x,y"]
    for when, swap in trajectory.events:
        lines.append(f"{when:.17g},{swap.x},{swap.y}")
    _write_lines(lines, path)


def reference_stabilization_csv(table, path) -> None:
    lines = ["window_size,phi_mean,phi_std,n_samples"]
    for r in table.rows:
        lines.append(f"{r.window_size},{r.phi_mean:.17g},{r.phi_std:.17g},{r.n_samples}")
    _write_lines(lines, path)


def reference_json(payload, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def assert_same_bytes(tmp_path, write, reference, value):
    write(value, tmp_path / "written")
    reference(value, tmp_path / "reference")
    assert (tmp_path / "written").read_bytes() == (tmp_path / "reference").read_bytes()


@pytest.mark.parametrize("lo, hi", [(-15, 14), (3, 3), (-60, 59)])
@pytest.mark.parametrize("branch", ["real_pair", "conj_pair"])
def test_kernel_csv(tmp_path, request, branch, lo, hi):
    k = kernel_matrix(request.getfixturevalue(branch), Window.from_indices(lo, hi))
    assert_same_bytes(tmp_path, write_kernel_csv, reference_kernel_csv, k)


def test_kernel_csv_mirrors_that_differ_in_the_last_bit(tmp_path, real_pair):
    # KernelMatrix keeps the upper triangle, so each mirror prints as its upper entry
    window = Window.from_indices(-20, 19)
    entries = kernel_matrix(real_pair, window).entries.copy()
    # below the diagonal, within and across blocks of rows; one above it
    for i, j in ((1, 0), (39, 0), (25, 3), (33, 32), (39, 38)):
        entries[i, j] = np.nextafter(entries[i, j], np.inf)
    entries[5, 30] = np.nextafter(entries[5, 30], -np.inf)
    k = KernelMatrix(window, entries)
    assert_same_bytes(tmp_path, write_kernel_csv, reference_kernel_csv, k)
    rows = [line.split(",") for line in (tmp_path / "written").read_text().splitlines()]
    assert rows[40][1] == f"{entries[0, 39]:.17g}" != f"{entries[39, 0]:.17g}"
    assert rows[31][6] == rows[6][31] == f"{entries[5, 30]:.17g}"


def test_kernel_csv_mirrored_signed_zeros(tmp_path):
    # KernelMatrix stores -0.0 as 0.0, so no zero prints as -0
    zero = np.array([[0.5, 0.0, -0.0], [-0.0, 0.5, 0.0], [0.0, -0.0, 0.5]])
    k = KernelMatrix(Window.from_indices(0, 2), zero)
    assert_same_bytes(tmp_path, write_kernel_csv, reference_kernel_csv, k)
    assert (tmp_path / "written").read_text() == (
        "x\\y,0.5,1.5,2.5\n0.5,0.5,0,0\n1.5,0,0.5,0\n2.5,0,0,0.5\n")


def test_kernel_csv_has_no_negative_zero(tmp_path):
    # (0.2, 0.8) on -60..59 has 33 exact zeros whose mirror was -0.0
    k = kernel_matrix(AdmissiblePair(0.2, 0.8), Window.from_indices(-60, 59))
    assert_same_bytes(tmp_path, write_kernel_csv, reference_kernel_csv, k)
    lines = (tmp_path / "written").read_text().splitlines()[1:]
    fields = [field for line in lines for field in line.split(",")[1:]]
    assert "0" in fields and "-0" not in fields


def test_kernel_csv_peak_memory(tmp_path, real_pair):
    # The whole-file writer peaked at 7.1 MiB here, twice the 3.5 MiB file.
    k = kernel_matrix(real_pair, Window.from_indices(-200, 199))
    tracemalloc.start()
    try:
        write_kernel_csv(k, tmp_path / "kernel.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_pmf_csv_edge_values(tmp_path):
    pmf = Pmf(Window.from_indices(0, 1), [5e-324, -0.0, 0.1, 0.9])
    assert_same_bytes(tmp_path, write_pmf_csv, reference_pmf_csv, pmf)
    assert (tmp_path / "written").read_text().splitlines()[1:3] == [
        "0,4.9406564584124654e-324", "1,-0"]


def test_pmf_csv_spans_chunks(tmp_path, real_pair):
    pmf = enumerate_distribution(kernel_matrix(real_pair, Window.from_indices(-7, 5)))
    assert_same_bytes(tmp_path, write_pmf_csv, reference_pmf_csv, pmf)
    assert len((tmp_path / "written").read_text().splitlines()) == 8193
    assert (tmp_path / "written").stat().st_size > 2 * _CHUNK_CHARS


def test_pmf_csv_peak_memory(tmp_path, real_pair):
    # The whole-file writer peaked at 7.3 MiB here, for a 1.8 MB file.
    pmf = enumerate_distribution(kernel_matrix(real_pair, Window.from_indices(-8, 7)))
    tracemalloc.start()
    try:
        write_pmf_csv(pmf, tmp_path / "pmf.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 * 2**20


def test_samples_csv(tmp_path, conj_pair):
    draws = sample_many(kernel_matrix(conj_pair, Window.from_indices(-4, 4)), SeededRng(7), 200)
    assert_same_bytes(tmp_path, write_samples_csv, reference_samples_csv, draws)


def test_samples_csv_shared_and_distinct_objects(tmp_path):
    window = Window.from_indices(-2, 2)
    shared = Configuration(window, (1, 0, 1, 0, 0))
    samples = [shared, Configuration(window, (1, 0, 1, 0, 0)), shared, Configuration.empty(window),
               Configuration.full(window), shared, Configuration(window, (0, 1, 0, 1, 1))]
    assert_same_bytes(tmp_path, write_samples_csv, reference_samples_csv, samples)
    assert (tmp_path / "written").read_text().splitlines()[1:4] == [
        "0,1,0,1,0,0", "1,1,0,1,0,0", "2,1,0,1,0,0"]


def test_trajectory_csv_without_events(tmp_path):
    window = Window.from_indices(-2, 1)
    empty = Trajectory(0, 0, Configuration(window, (1, 0, 1, 0)), [], 1.0)
    assert_same_bytes(tmp_path, write_trajectory_csv, reference_trajectory_csv, empty)
    assert (tmp_path / "written").read_text() == "time,x,y\n"


def test_trajectory_files_with_events(tmp_path, real_pair):
    window = Window.from_indices(-3, 2)
    model = RateModel.metropolis(ProximitySpec.nearest_neighbor())
    trajectory = simulate(model, kernel_matrix(real_pair, window),
                          Configuration(window, (1, 0, 1, 0, 1, 0)), 5.0, SeededRng(4))
    assert trajectory.n_events > 0
    assert_same_bytes(tmp_path, write_trajectory_csv, reference_trajectory_csv, trajectory)
    write_trajectory_sidecar(trajectory, real_pair.z, real_pair.z_prime, model,
                             tmp_path / "sidecar")
    reference_json(trajectory_sidecar(trajectory, real_pair.z, real_pair.z_prime, model),
                   tmp_path / "sidecar_reference")
    assert (tmp_path / "sidecar").read_bytes() == (tmp_path / "sidecar_reference").read_bytes()


def test_stabilization_csv(tmp_path):
    pattern = Configuration(Window.from_indices(-1, 0), (1, 0))
    rows = (StabilizationRow(8, 0.1, 5e-324, 100, 0.0),
            StabilizationRow(12, 1 / 3, -0.0, 7, 1e-15))
    table = StabilizationTable(pattern, SwapPair(Site(-1), Site(0)), rows)
    assert_same_bytes(tmp_path, write_stabilization_csv, reference_stabilization_csv, table)


def test_report_json(tmp_path):
    report = Report("kernel", (Check("a", True, 0.1, 1e-12), Check("b", False, -0.0, 5e-324)))
    report.write(tmp_path / "written")
    reference_json(report.to_dict(), tmp_path / "reference")
    assert (tmp_path / "written").read_bytes() == (tmp_path / "reference").read_bytes()
    assert (tmp_path / "written").read_text() == report.to_json() + "\n"
