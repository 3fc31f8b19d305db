"""Benchmark of kawasaki-dpp: three workloads, each repeat in a fresh interpreter.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload kernel_sweep --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all              # every workload in turn

The workloads and why each exists are listed in ``BENCHMARK.json`` and
``benchmarks/workloads.py``.  A run repeats the workload's fixed job, each
repeat in a new ``python3 benchmarks/worker.py`` process, until the next
repeat would end after ``--seconds``.  Fresh processes matter twice: users
pay interpreter start-up, imports and cold caches on every CLI run, and the
kernel's per-pair ``lru_cache`` keeps A/B values across calls, so a second
repeat in one process would measure a different program.

With ``--trace 0`` a run reports the end-to-end metrics, medians over the
repeats.  ``wall_s`` and ``work_per_s`` are taken at the host's reference
speed: on a shared host the same job's time moves by up to 2x within
seconds to minutes, so each worker calibrates the host between the job's
steps and each step's time is scaled by that calibration (see
``at_reference_speed``).  The times as measured are printed beside them.
With ``--trace 1`` it alternates untraced and traced repeats and
reports the per-layer metrics of the traced ones, plus the tracing overhead
(traced minus untraced ``wall_s``); each traced repeat also leaves its
spans and per-function statistics in ``.bench_out/trace_*.json``.
Human-readable lines come first; the last line of standard output (one line
per workload with ``--workload all``) is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``correct`` is false when a
check failed.  The exit code is 0 when that line was printed and 2 when the
run could not be made (no package sources, a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Counters that must repeat exactly across same-seed repeats.
DETERMINISTIC = ("dpp.draws", "dpp.dets", "dynamics.events", "dynamics.rate_table_misses",
                 "exact.states_built", "cli.bytes_written")

THROUGHPUT_NAMES = {"kernel_sweep": "kernel_entries_per_s", "dpp_draws": "draws_per_s",
                    "swap_chain": "events_per_s"}

WORKER_TIMEOUT_S = 150.0

# Each worker runs numerical libraries on one thread.  Idle OpenBLAS threads
# spin after each call, and on a small shared host they slow the
# interpreter's own thread by up to half.
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seconds that workloads.calibrate() takes on a 2-vCPU Xeon (2.0 GHz)
# microVM while no neighbour contends for its cores: the reference speed
# that wall_s and work_per_s are scaled to.
CALIBRATION_REF_S = 0.0018


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed worker, ...)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ram_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gib": round(ram_gib, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "worker_threads": WORKER_THREADS,
    }


def run_worker(workload: str, seed: int, trace: bool, index: int) -> dict:
    """One repeat in a fresh interpreter; its output files are removed after."""
    if not (SRC / "kawasaki_dpp" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    env = dict(os.environ, **WORKER_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--out-dir", str(out_dir)]
    if trace:
        command += ["--spans", str(OUT / f"trace_{workload}_seed{seed}_{index}.json")]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(command + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repeat exceeded {WORKER_TIMEOUT_S:g} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def repeat_until(workload: str, seed: int, seconds: float, traced: list[bool]) -> list[dict]:
    """Cycle through the trace pattern until the next cycle would overrun.

    One full cycle always runs.  Another starts only while the time so far
    plus the longest repeat seen of each kind in the cycle stays within
    ``seconds``.
    """
    results = []
    start = time.monotonic()
    longest = {}
    while True:
        for trace in traced:
            began = time.monotonic()
            result = run_worker(workload, seed, trace, len(results))
            result["traced"] = trace
            results.append(result)
            longest[trace] = max(longest.get(trace, 0.0), time.monotonic() - began)
        if time.monotonic() - start + sum(longest[t] for t in traced) > seconds:
            return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def at_reference_speed(result: dict) -> tuple[float, float]:
    """A repeat's job seconds and timed-work seconds at the host's reference speed.

    Each step's times are scaled by the reference calibration time over the
    calibration measured around that step (``workloads.calibrate``).  The
    calibration slows with the host but not with the package, so this
    takes most of the host's swings out and leaves the package's own.
    """
    wall = sum(seconds * CALIBRATION_REF_S / cal for seconds, _, cal in result["steps"])
    work = sum(work_s * CALIBRATION_REF_S / cal for _, work_s, cal in result["steps"])
    return wall, work


def summarise(workload: str, seed: int, results: list[dict], trace: bool, spec: dict) -> dict:
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"== {workload}  seed {seed}  repeats {len(plain)} untraced, {len(traced)} traced "
          f"(each a fresh interpreter)")

    # Same seed, same inputs: the work done must repeat exactly.
    repeatable = len({(r["work"], r["bytes_written"]) for r in results}) == 1
    determinism_checks = [{"name": "work_and_bytes_repeat_across_repeats",
                           "passed": repeatable, "value": len(results), "bound": None}]
    if len(traced) >= 2:
        counters = [tuple(r["per_layer"][name] for name in DETERMINISTIC) for r in traced]
        determinism_checks.append({"name": "deterministic_counters_repeat",
                                   "passed": len(set(counters)) == 1,
                                   "value": len(traced), "bound": None})
    attempted += len(determinism_checks)
    failed += sum(1 for c in determinism_checks if not c["passed"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wall = [r["wall_s"] for r in plain]
    reference = [at_reference_speed(r) for r in plain]
    series = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [w for w, _ in reference],
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        "work_per_s": [r["work"] / w if w else 0.0 for r, (_, w) in zip(plain, reference)],
        "wall_s (as measured)": wall,
        "work_per_s (as measured)": [r["work"] / r["work_s"] if r["work_s"] else 0.0
                                     for r in plain],
        "calibration_s": [cal for r in plain for _, _, cal in r["steps"]],
    }
    for name, values in series.items():
        q1, median, q3 = quartiles(values)
        label = name if name != "work_per_s" else f"work_per_s ({THROUGHPUT_NAMES[workload]})"
        print(f"  {label:<40} {median:>14.6g} {units.get(name.split()[0], 's'):<6} "
              f"quartiles {q1:.6g} .. {q3:.6g}  (n={len(values)})")
    values = {name: statistics.median(series[name])
              for name in ("setup_s", "wall_s", "peak_rss_mib", "work_per_s")}
    ops = attempted + sum(len(r["known_defects"]) for r in results)
    errors = failed + sum(1 for r in results for d in r["known_defects"] if d["failed"])
    print(f"  {'error_rate':<40} {errors / ops:>14.6g} fraction "
          f"({errors} of {ops} operations, known defects included)")
    print(f"  {'attempted / failed':<40} {attempted} / {failed} (known defects excluded)")

    # Every check of the first repeat, and any check a later repeat failed.
    first = results[0]
    shown = [(0, c) for c in first["checks"] + determinism_checks]
    shown += [(i, c) for i, r in enumerate(results[1:], 1) for c in r["checks"] if not c["passed"]]
    for repeat, check in shown:
        bound = "" if check["bound"] is None else f"<= {check['bound']:.3g}"
        verdict = "PASS" if check["passed"] else f"FAIL (repeat {repeat})"
        print(f"  check {verdict} {check['name']:<48} {check['value']:.6g} {bound}")
    for defect in first["known_defects"]:
        status = f"fails, exit {defect['code']}" if defect["failed"] else "passes now"
        print(f"  known defect {defect['name']}: {status} {defect['stderr'][:160]}")
    for result in results:
        for error in result["notes"].get("errors", []) + result["notes"].get("cli_errors", []):
            print(f"  error: {error}")

    if trace:
        per_layer = {}
        for name in traced[0]["per_layer"]:
            per_layer[name] = statistics.median(r["per_layer"][name] for r in traced)
        per_layer["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - statistics.median(wall)
        for name in sorted(per_layer):
            print(f"  {name:<44} {per_layer[name]:>14.6g} {units.get(name, '')}")
        absent = traced[0]["absent"]
        print(f"  absent trace targets: {', '.join(absent) if absent else 'none'}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: per_layer[name] for name in wanted}
    else:
        metrics = {name: values[name] for name in (m["name"] for m in spec["end_to_end"])}
    print("  provenance " + json.dumps(provenance(seed)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="kernel_sweep, dpp_draws, swap_chain or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        pattern = [False, True] if args.trace else [False]
        summaries = []
        for workload in chosen:
            results = repeat_until(workload, args.seed, seconds, pattern)
            summaries.append(summarise(workload, args.seed, results, bool(args.trace), spec))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for summary in summaries:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
