"""The benchmark's three workloads.

Each workload has a ``setup(seed, out_dir)`` that builds its inputs from the
seed (pairs, windows, models, start states, CLI argv) and a list of steps
that do its fixed job.  Steps reach the package only through names in each
module's ``__all__`` and through the CLI's ``main(argv)``.

* ``kernel_sweep`` -- kernel assembly and special functions do almost all the
  work; the DPP, swap-ratio, dynamics and exact layers stay idle.
* ``dpp_draws`` -- the DPP sampler does most of the work on small kernels:
  free draws, conditioned draws that waste attempts, exhaustive enumeration.
* ``swap_chain`` -- swap ratios, the jump chain and the exact generator do
  the work on kernels of at most 40 sites, with the rate-table cache both
  mostly hit (``revisit``) and mostly missed (``explore``).

Each job takes one to three seconds, in calls that each take a fraction of
a second, so that one run holds a dozen or more fresh-interpreter repeats
to take medians over.

Every timed public call, CLI command and correctness check is one operation.
A raised ``KawasakiDppError``, a non-zero exit code or a failed check counts
as a failed operation.  Checks hold outputs to tolerances, never to digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import kawasaki_dpp as kd
from kawasaki_dpp import cli


@dataclass
class Ledger:
    """Operations attempted and failed, check results and timed work."""

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    work: int = 0
    work_s: float = 0.0
    bytes_written: int = 0
    known_defects: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        """One public call; an exception fails it and ends the step."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            exc.counted_by_ledger = True
            raise

    def timed(self, units: int, fn, *args, **kwargs):
        """A public call whose duration and work units feed the throughput."""
        start = perf_counter()
        result = self.call(fn, *args, **kwargs)
        self.work_s += perf_counter() - start
        self.work += units(result) if callable(units) else units
        return result

    def check(self, name: str, value: float, bound: float) -> bool:
        """Pass when the finite value is at most the bound."""
        value = float(value)
        passed = math.isfinite(value) and value <= bound
        self._record(name, passed, value, bound)
        return passed

    def require(self, name: str, passed: bool, value: float = 0.0) -> bool:
        self._record(name, bool(passed), float(value), None)
        return bool(passed)

    def _record(self, name, passed, value, bound):
        self.attempted += 1
        self.failed += 0 if passed else 1
        self.checks.append({"name": name, "passed": passed, "value": value, "bound": bound})

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        """One CLI command through main(argv); a non-zero exit fails it."""
        self.attempted += 1
        code, out, err = _run_cli(argv)
        if code != 0:
            self.failed += 1
            self.notes.setdefault("cli_errors", []).append(
                {"argv": argv, "code": code, "stderr": err.strip()[-500:]})
        return code, out, err

    def known_defect(self, name: str, argv: list[str]) -> None:
        """Run a CLI command that fails today, and record how it fails.

        It is kept out of the attempted and failed operations: workloads must
        have no failing operation.  The outcome is reported on its own, so a
        fix shows as a change in the known-defect count.
        """
        code, _, err = _run_cli(argv)
        self.known_defects.append({"name": name, "argv": argv, "code": code,
                                   "failed": code != 0, "stderr": err.strip()[-300:]})

    def wrote(self, *paths: Path) -> None:
        self.bytes_written += sum(p.stat().st_size for p in paths)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Seconds of a fixed piece of work that does not use the package.

    Interpreter arithmetic on complex numbers, short-lived objects and small
    numpy calls: the mix the package's layers spend their time on.  On a
    shared host the time of the same job moves by up to 2x within seconds
    to minutes with what neighbouring machines do, and this work slows with
    it.  Median of five.
    """
    matrix = np.eye(8) + 0.1
    times = []
    for _ in range(5):
        start = perf_counter()
        values = []
        for i in range(1500):
            z = complex(i * 0.001, 1.0)
            w = (z * z.conjugate() - z) / (i + 0.5)
            values.append((w.real, w.imag))
        for _ in range(100):
            np.linalg.slogdet(matrix)
        times.append(perf_counter() - start)
    return float(np.median(times))


def run_steps(steps, inputs, ledger: Ledger) -> None:
    """Run each step; an exception fails the step and the next one starts.

    The host is calibrated before the first step and after each one.  Each
    step is recorded as ``(seconds, timed-work seconds, calibration
    seconds)``, the last being the mean of the calibrations on either side,
    so that a run can take the host's speed out of the step's time.  The
    calibration runs only while the package runs no thread of its own;
    a thread left running fails a check, as it would slow the calibration.
    """
    calibration = _calibrate_alone(ledger)
    for step in steps:
        start, work_before = perf_counter(), ledger.work_s
        try:
            step(inputs, ledger)
        except Exception as exc:
            if not getattr(exc, "counted_by_ledger", False):
                ledger.attempted += 1
                ledger.failed += 1
            ledger.notes.setdefault("errors", []).append(
                f"{step.__name__}: {traceback.format_exc(limit=4)}")
        seconds, work_s = perf_counter() - start, ledger.work_s - work_before
        after = _calibrate_alone(ledger)
        ledger.steps.append((seconds, work_s, (calibration + after) / 2.0))
        calibration = after


def _calibrate_alone(ledger: Ledger) -> float:
    others = threading.active_count() - 1
    if others:
        ledger.require("no_package_thread_left_running", False, others)
    return calibrate()


def _fmt(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.17g}"
    return f"{value.real:.17g}{value.imag:+.17g}i"


def _span(window: kd.Window) -> str:
    return f"{window.lo.index}..{window.hi.index}"


def _pair_args(pair: kd.AdmissiblePair) -> list[str]:
    return ["--z", _fmt(pair.z), "--zp", _fmt(pair.z_prime)]


def _jittered_pairs(rnd: random.Random) -> tuple[kd.AdmissiblePair, kd.AdmissiblePair]:
    """A real-interval pair near (1.5, 1.7) and a conjugate pair near 0.3 +- 0.4i."""
    real = kd.AdmissiblePair(1.5 + rnd.uniform(-0.02, 0.02), 1.7 + rnd.uniform(-0.02, 0.02))
    z = complex(0.3 + rnd.uniform(-0.02, 0.02), 0.4 + rnd.uniform(-0.02, 0.02))
    return real, kd.AdmissiblePair(z, z.conjugate())


def _library_seed(seed: int) -> int:
    return seed % (1 << 63)


def _csv_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def _report_failures(ledger: Ledger, name: str, code: int, stdout: str) -> None:
    if code != 0 and not stdout.strip():
        return
    report = json.loads(stdout)
    ledger.require(name, report["failures"] == 0, report["failures"])


# ---------------------------------------------------------------- kernel_sweep

# Windows of SLIDE_SITES sites, each SLIDE_STEP sites right of the last, so
# each new window reuses the A/B values of all but SLIDE_STEP of its sites.
SLIDE_SITES = 120
SLIDE_STEP = 30
SLIDE_COUNT = 20
PROJECTION_SIZES = (60, 90, 120, 150)
CLI_KERNEL_SITES = 120
CLI_KERNEL_RUNS = 6


def kernel_sweep_setup(seed: int, out_dir: Path) -> dict:
    rnd = random.Random(seed)
    centre = rnd.randint(-40, 40)
    real, conj = _jittered_pairs(rnd)
    first = centre - (SLIDE_SITES + (SLIDE_COUNT - 1) * SLIDE_STEP) // 2
    cli_first = centre - CLI_KERNEL_RUNS * CLI_KERNEL_SITES // 2
    cli_windows = [kd.Window.from_indices(lo, lo + CLI_KERNEL_SITES - 1)
                   for lo in range(cli_first, cli_first + CLI_KERNEL_RUNS * CLI_KERNEL_SITES,
                                   CLI_KERNEL_SITES)]
    return {
        "pairs": (real, conj),
        "windows": [kd.Window.from_indices(lo, lo + SLIDE_SITES - 1)
                    for lo in range(first, first + SLIDE_COUNT * SLIDE_STEP, SLIDE_STEP)],
        "projection_windows": [kd.Window.centered(n, centre) for n in PROJECTION_SIZES],
        "kernel_csvs": [out_dir / f"kernel_{i}.csv" for i in range(CLI_KERNEL_RUNS)],
        "kernel_argvs": [["kernel", *_pair_args(conj), "--window", _span(window),
                          "--out", str(out_dir / f"kernel_{i}.csv")]
                         for i, window in enumerate(cli_windows)],
        "verify_argv": ["verify", "--suite", "kernel", *_pair_args(real),
                        "--seed", str(_library_seed(seed))],
    }


def sweep_kernels(inputs, ledger: Ledger) -> None:
    """Slide a 120-site window across 690 sites around one centre, both branches.

    Each window's kernel is validated (its eigenvalue range is checked), and
    the A(x) B(x) = 1 identity is checked on every site the windows cover.
    """
    for pair in inputs["pairs"]:
        asymmetry = excess = 0.0
        for window in inputs["windows"]:
            k = ledger.timed(window.size ** 2, kd.kernel_matrix, pair, window)
            asymmetry = max(asymmetry, float(np.abs(k.entries - k.entries.T).max()))
            ledger.call(k.validate)
            evals = k.eigenvalues
            excess = max(excess, float(-evals[0]), float(evals[-1] - 1.0))
        label = pair.branch.value
        ledger.check(f"kernel_symmetry_{label}", asymmetry, 1e-12)
        ledger.check(f"eigenvalue_range_excess_{label}", excess, 1e-9)
        worst = 0.0
        lo, hi = inputs["windows"][0].lo.index, inputs["windows"][-1].hi.index
        for site in kd.Window.from_indices(lo, hi).sites:
            a, b = ledger.call(kd.ab_values, pair, site)
            worst = max(worst, abs(complex(a * b) - 1.0))
        ledger.check(f"ab_identity_{label}", worst, 1e-12)


def check_projections(inputs, ledger: Ledger) -> None:
    """Interior commutator [K, D] on windows of 60 to 150 sites, margin n/3.

    The commutator's interior entries vanish exactly; in floating point they
    carry rounding that grows with the operator's entries (about 2x at site
    x).  The suite's 1e-12 is therefore held relative to max |D|.
    """
    for pair in inputs["pairs"]:
        for window in inputs["projection_windows"]:
            report = ledger.call(kd.spectral_projection_check, pair, window, window.size // 3)
            scale = float(np.abs(ledger.call(kd.difference_operator_matrix, pair, window)).max())
            ledger.check(f"projection_commutator_relative_{pair.branch.value}_{window.size}",
                         report.commutator_norm / max(1.0, scale), 1e-12)


def cli_kernel(inputs, ledger: Ledger) -> None:
    """CLI kernel on six adjacent 120-site conjugate-pair windows (CSVs of %.17g entries)."""
    for argv, path in zip(inputs["kernel_argvs"], inputs["kernel_csvs"]):
        code, _, _ = ledger.cli(argv)
        if code == 0:
            ledger.wrote(path)
            ledger.require(f"cli_kernel_csv_rows_{path.stem}",
                           _csv_lines(path) == CLI_KERNEL_SITES + 1, _csv_lines(path))


def cli_verify_kernel(inputs, ledger: Ledger) -> None:
    code, out, _ = ledger.cli(inputs["verify_argv"])
    _report_failures(ledger, "cli_verify_kernel_failures", code, out)


# ------------------------------------------------------------------- dpp_draws

# (branch, sites, draws, compare with exhaustive enumeration)
DRAW_BATCHES = (("real", 8, 4000, True), ("conj", 8, 2000, True),
                ("real", 30, 250, False), ("real", 200, 2, False))
STABILIZATION_SIZES = (8, 12, 16)
STABILIZATION_CALLS = 5
STABILIZATION_SAMPLES = 10
CLI_SAMPLE_RUNS = 5
CLI_SAMPLE_DRAWS = 300
# exact-probs windows: 12 sites each, so 4096-line pmfs.
CLI_PMF_WINDOWS = ("-6..5", "-5..6", "-7..4", "-4..7")

# A correct sampler exceeds the total-variation bound with probability below this.
_TV_FALSE_ALARM = 1e-6


def dpp_draws_setup(seed: int, out_dir: Path) -> dict:
    real, conj = _jittered_pairs(random.Random(seed))
    pairs = {"real": real, "conj": conj}
    pattern_window = kd.Window.from_indices(-1, 0)
    return {
        "seed": _library_seed(seed),
        "batches": [(pairs[branch], kd.Window.centered(n), draws, exact)
                    for branch, n, draws, exact in DRAW_BATCHES],
        # The README's stabilization case: pattern 10 on -1..0, swap (-1, 0).
        "readme_pair": kd.AdmissiblePair(1.5, 1.7),
        "pattern": kd.Configuration(pattern_window, (1, 0)),
        "swap": kd.SwapPair(kd.Site(-1), kd.Site(0)),
        "sample_csvs": [out_dir / f"samples_{i}.csv" for i in range(CLI_SAMPLE_RUNS)],
        "sample_argvs": [["sample", *_pair_args(conj), "--window", "-4..4",
                          "--n-samples", str(CLI_SAMPLE_DRAWS),
                          "--seed", str(_library_seed(seed + i)),
                          "--out", str(out_dir / f"samples_{i}.csv")]
                         for i in range(CLI_SAMPLE_RUNS)],
        "pmf_csvs": [out_dir / f"pmf_{i}.csv" for i in range(len(CLI_PMF_WINDOWS))],
        "pmf_argvs": [["exact-probs", *_pair_args(real), "--window", span,
                       "--out", str(out_dir / f"pmf_{i}.csv")]
                      for i, span in enumerate(CLI_PMF_WINDOWS)],
    }


def draw_samples(inputs, ledger: Ledger) -> None:
    """Unconditioned draws, checked against the exact law.

    The particle count of a draw is a sum of independent Bernoulli(lambda_i)
    over the kernel's eigenvalues, so its mean over N draws lies within
    4 sigma of the trace.  On 8 sites the empirical law's total variation
    from enumeration is held to a bound derived from N: its expectation is
    at most sum_i sqrt(p_i (1 - p_i) / N) / 2, and one draw moves it by at
    most 1/N, so McDiarmid's inequality adds sqrt(ln(1/delta) / (2N)).
    """
    for index, (pair, window, n_draws, exact) in enumerate(inputs["batches"]):
        k = ledger.call(kd.kernel_matrix, pair, window)
        rng = kd.SeededRng(inputs["seed"], index)
        counts = np.zeros(1 << window.size) if exact else None
        particles = 0
        for _ in range(n_draws):
            draw = ledger.timed(1, kd.sample, k, rng)
            particles += draw.particle_count
            if exact:
                counts[draw.bitmask] += 1
        label = f"{pair.branch.value}_{window.size}"
        lam = np.clip(k.eigenvalues, 0.0, 1.0)
        sigma = math.sqrt(float((lam * (1.0 - lam)).sum()) / n_draws)
        ledger.check(f"mean_count_sigmas_{label}", abs(particles / n_draws - k.trace) / sigma, 4.0)
        if exact:
            probs = ledger.call(kd.enumerate_distribution, k).probs
            tv = 0.5 * float(np.abs(counts / n_draws - probs).sum())
            bound = (0.5 * float(np.sqrt(probs * (1.0 - probs) / n_draws).sum())
                     + math.sqrt(math.log(1.0 / _TV_FALSE_ALARM) / (2.0 * n_draws)))
            ledger.check(f"sampler_tv_{label}", tv, bound)


def conditioned_draws(inputs, ledger: Ledger) -> None:
    """rn_stabilization on the README case: sizes 8, 12 and 16, five calls of
    10 samples each per size, each call on its own random stream."""
    pattern, swap = inputs["pattern"], inputs["swap"]
    stream = 100
    for size in STABILIZATION_SIZES:
        samples, residual = 0, 0.0
        for _ in range(STABILIZATION_CALLS):
            table = ledger.call(kd.rn_stabilization, inputs["readme_pair"], pattern, swap,
                                [size], kd.SeededRng(inputs["seed"], stream),
                                n_samples=STABILIZATION_SAMPLES)
            stream += 1
            samples += sum(row.n_samples for row in table.rows)
            residual = max([residual] + [row.max_inversion_residual for row in table.rows])
        expected = STABILIZATION_CALLS * STABILIZATION_SAMPLES
        ledger.require(f"stabilization_samples_{size}", samples == expected, samples)
        ledger.check(f"inversion_residual_{size}", residual, 1e-10)
    if ledger.tracer is not None:
        # Each ratio is taken at a conditioned draw or at its transposition.
        sites = pattern.window.sites
        allowed = {pattern.occupancy, kd.apply_transposition(pattern, swap).occupancy}
        seen = ledger.tracer.conditioned_draws()
        stray = sum(1 for c in seen if tuple(c.occupancy_at(s) for s in sites) not in allowed)
        ledger.require("conditioned_draws_match_pattern", stray == 0, stray)


def cli_sample(inputs, ledger: Ledger) -> None:
    """CLI sample: five runs of 300 conjugate-pair draws on -4..4, each with its own seed."""
    for argv, path in zip(inputs["sample_argvs"], inputs["sample_csvs"]):
        code, _, _ = ledger.cli(argv)
        if code == 0:
            ledger.wrote(path)
            ledger.require(f"cli_sample_rows_{path.stem}",
                           _csv_lines(path) == CLI_SAMPLE_DRAWS + 1, _csv_lines(path))


def cli_exact_probs(inputs, ledger: Ledger) -> None:
    """CLI exact-probs on four 12-site windows: 4096-line pmfs."""
    for argv, path in zip(inputs["pmf_argvs"], inputs["pmf_csvs"]):
        code, _, _ = ledger.cli(argv)
        if code == 0:
            ledger.wrote(path)
            rows = path.read_text().splitlines()[1:]
            probs = np.array([float(line.partition(",")[2]) for line in rows])
            ledger.require(f"cli_pmf_rows_{path.stem}", len(probs) == 1 << 12, len(probs))
            ledger.check(f"cli_pmf_total_error_{path.stem}", abs(probs.sum() - 1.0), 1e-9)
            ledger.require(f"cli_pmf_nonnegative_{path.stem}", probs.min() >= 0.0, probs.min())


# ------------------------------------------------------------------ swap_chain

REVISIT_CHUNKS = 4
REVISIT_CHUNK_T = 2500.0
EXPLORE_STARTS = 16
EXPLORE_T_MAX = 0.75
# (sites, sector) of the generator built for all three models, and of the larger one.
MODELS_GENERATOR = (10, 5)
LARGE_GENERATOR = (11, 5)
CLI_SIMULATE_RUNS = 3
CLI_SIMULATE_T_MAX = 500.0
CLI_REPLICAS = 4
VERIFY_DYNAMICS_WINDOWS = ("-2..2", "3..7", "-7..-3")


def swap_chain_setup(seed: int, out_dir: Path) -> dict:
    real, conj = _jittered_pairs(random.Random(seed))
    nn = kd.ProximitySpec.nearest_neighbor()
    revisit_window = kd.Window.centered(10)
    return {
        "seed": _library_seed(seed),
        "real": real,
        "conj": conj,
        "revisit_model": kd.RateModel.metropolis(nn),
        "revisit_window": revisit_window,
        "revisit_start": kd.Configuration(revisit_window,
                                          tuple(i % 2 for i in range(revisit_window.size))),
        "explore_model": kd.RateModel.sqrt_ratio(kd.ProximitySpec.finite_range(4)),
        "explore_window": kd.Window.centered(40),
        "models": [kd.RateModel.metropolis(nn), kd.RateModel.sqrt_ratio(nn),
                   kd.RateModel.glauber_like(nn)],
        "models_window": kd.Window.centered(MODELS_GENERATOR[0]),
        "large_window": kd.Window.centered(LARGE_GENERATOR[0]),
        "simulate_dirs": [out_dir / f"simulate_{i}" for i in range(CLI_SIMULATE_RUNS)],
        "simulate_argvs": [["simulate", *_pair_args(real), "--window", "-7..6",
                            "--replicas", str(CLI_REPLICAS), "--initial", "dpp",
                            "--t-max", f"{CLI_SIMULATE_T_MAX:g}",
                            "--seed", str(_library_seed(seed + i)),
                            "--output-dir", str(out_dir / f"simulate_{i}")]
                           for i in range(CLI_SIMULATE_RUNS)],
        "spectrum_json": out_dir / "spectrum.json",
        "spectrum_argv": ["spectrum", *_pair_args(real), "--window", "-5..4", "--sector", "5",
                          "--out", str(out_dir / "spectrum.json")],
        "verify_argvs": [["verify", "--suite", "dynamics", *_pair_args(real), "--window", span,
                          "--seed", str(_library_seed(seed))]
                         for span in VERIFY_DYNAMICS_WINDOWS],
        "wide_argv": ["simulate", "--window", "-32..31", "--output-dir", str(out_dir / "wide")],
    }


def _conserves_particles(window: kd.Window, initial_mask: int, swaps) -> tuple[bool, int]:
    """Replay (x index, y index) swaps; each must move a particle to an empty site."""
    mask = initial_mask
    count = bin(mask).count("1")
    ok = True
    for x, y in swaps:
        bit_x = 1 << (x - window.lo.index)
        bit_y = 1 << (y - window.lo.index)
        if bool(mask & bit_x) == bool(mask & bit_y):
            ok = False
        mask ^= bit_x | bit_y
    return ok and bin(mask).count("1") == count, count


def _check_trajectory(ledger: Ledger, name: str, trajectory) -> None:
    window = trajectory.initial.window
    swaps = [(s.x.index, s.y.index) for _, s in trajectory.events]
    ok, _ = _conserves_particles(window, trajectory.initial.bitmask, swaps)
    ledger.require(f"particle_conservation_{name}", ok, trajectory.n_events)


def revisit(inputs, ledger: Ledger) -> None:
    """Metropolis, nearest neighbour, 10 sites: few states, rate tables mostly hit.

    One chain in four simulate calls, each starting where the last ended.
    """
    k = ledger.call(kd.kernel_matrix, inputs["real"], inputs["revisit_window"])
    start = inputs["revisit_start"]
    for chunk in range(REVISIT_CHUNKS):
        trajectory = ledger.timed(lambda t: t.n_events, kd.simulate, inputs["revisit_model"], k,
                                  start, REVISIT_CHUNK_T, kd.SeededRng(inputs["seed"], 1 + chunk))
        _check_trajectory(ledger, f"revisit_{chunk}", trajectory)
        start = trajectory.final_configuration()


def explore(inputs, ledger: Ledger) -> None:
    """Sqrt-ratio, range 4, 40 sites from DPP starts: rate tables mostly built."""
    k = ledger.call(kd.kernel_matrix, inputs["conj"], inputs["explore_window"])
    for i in range(EXPLORE_STARTS):
        start = ledger.call(kd.sample, k, kd.SeededRng(inputs["seed"], 100 + i))
        trajectory = ledger.call(kd.simulate, inputs["explore_model"], k, start, EXPLORE_T_MAX,
                                 kd.SeededRng(inputs["seed"], 200 + i))
        _check_trajectory(ledger, f"explore_{i}", trajectory)


def _generator_checks(ledger: Ledger, label: str, g) -> None:
    """Row sums and stationarity, held as the exact suite holds its metropolis generator."""
    ledger.check(f"rowsum_{label}", float(np.abs(g.Q.sum(axis=1)).max()), 1e-12)
    ledger.check(f"stationarity_muQ_{label}", float(np.abs(g.measure @ g.Q).max()), 1e-10)


def generator_models(inputs, ledger: Ledger) -> None:
    """10 sites, sector 5 (252 states): all three models, then one generator's analysis."""
    k = ledger.call(kd.kernel_matrix, inputs["real"], inputs["models_window"])
    sites, sector = MODELS_GENERATOR
    label = f"{sites}s{sector}"
    generators = []
    for model in inputs["models"]:
        g = ledger.call(kd.build_generator, model, k, sector)
        ledger.check(f"reversibility_{label}_{model.kind.value}",
                     ledger.call(kd.check_reversibility, g), 1e-10)
        generators.append(g)
    g = generators[0]
    _generator_checks(ledger, f"{label}_metropolis", g)
    result = ledger.call(kd.spectrum, g)
    ledger.check(f"spectrum_top_{label}", abs(float(result.eigenvalues[0])), 1e-10)
    vectors = np.random.default_rng(inputs["seed"])
    worst = 0.0
    for _ in range(2):
        f = vectors.normal(size=g.n_states)
        h = vectors.normal(size=g.n_states)
        lhs = ledger.call(kd.dirichlet_form, g, f, h)
        worst = max(worst, abs(lhs - float(g.measure @ ((-g.Q @ f) * h))))
    ledger.check(f"dirichlet_generator_identity_{label}", worst, 1e-10)
    p_t = ledger.call(kd.transition_matrix, g, 1.0)
    ledger.check(f"semigroup_rowsum_{label}", float(np.abs(p_t.sum(axis=1) - 1.0).max()), 1e-9)


def generator_large(inputs, ledger: Ledger) -> None:
    """11 sites, sector 5 (462 states): build and spectrum."""
    k = ledger.call(kd.kernel_matrix, inputs["real"], inputs["large_window"])
    sites, sector = LARGE_GENERATOR
    label = f"{sites}s{sector}"
    g = ledger.call(kd.build_generator, inputs["models"][0], k, sector)
    result = ledger.call(kd.spectrum, g)
    ledger.check(f"reversibility_{label}_metropolis",
                 ledger.call(kd.check_reversibility, g), 1e-10)
    _generator_checks(ledger, f"{label}_metropolis", g)
    ledger.check(f"spectrum_top_{label}", abs(float(result.eigenvalues[0])), 1e-10)


def cli_simulate(inputs, ledger: Ledger) -> None:
    """CLI simulate on -7..6, three runs of 4 replicas from a DPP start."""
    for argv, directory in zip(inputs["simulate_argvs"], inputs["simulate_dirs"]):
        code, _, err = ledger.cli(argv)
        if code != 0:
            continue
        echo = json.loads(err.strip().splitlines()[-1])
        ledger.notes["cli_simulate_workers"] = echo["workers"]
        _check_replicas(ledger, directory)


def _check_replicas(ledger: Ledger, directory: Path) -> None:
    for stream in range(CLI_REPLICAS):
        csv_path = directory / f"trajectory_{stream:03d}.csv"
        json_path = directory / f"trajectory_{stream:03d}.json"
        ledger.wrote(csv_path, json_path)
        sidecar = json.loads(json_path.read_text())
        window = kd.Window.from_indices(*sidecar["window"])
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        times = [float(r[0]) for r in rows]
        swaps = [(math.floor(float(r[1])), math.floor(float(r[2]))) for r in rows]
        ok, _ = _conserves_particles(window, sidecar["initial_bitmask"], swaps)
        ordered = all(a < b for a, b in zip(times, times[1:])) and all(
            t <= CLI_SIMULATE_T_MAX for t in times)
        ledger.require(f"cli_particle_conservation_{directory.name}_{stream}",
                       ok and ordered and len(rows) == sidecar["n_events"], len(rows))


def cli_spectrum(inputs, ledger: Ledger) -> None:
    """CLI spectrum on -5..4, sector 5 (252 states)."""
    code, _, _ = ledger.cli(inputs["spectrum_argv"])
    if code == 0:
        path = inputs["spectrum_json"]
        ledger.wrote(path)
        payload = json.loads(path.read_text())
        ledger.check("cli_spectrum_top", abs(payload["eigenvalues"][0]), 1e-10)
        ledger.require("cli_spectrum_gap_positive", payload["spectral_gap"] > 0.0,
                       payload["spectral_gap"])


def cli_verify_dynamics(inputs, ledger: Ledger) -> None:
    """CLI verify --suite dynamics on three 5-site windows."""
    for argv, span in zip(inputs["verify_argvs"], VERIFY_DYNAMICS_WINDOWS):
        code, out, _ = ledger.cli(argv)
        _report_failures(ledger, f"cli_verify_dynamics_failures_{span}", code, out)


def wide_window(inputs, ledger: Ledger) -> None:
    """CLI simulate on -32..31 from the alternating start.

    Known defect: the start's probability (about e^-641.6) underflows the
    plain determinant, which is clamped to zero, so the swap ratio raises
    ZeroProbabilityError and the command exits 2.
    """
    ledger.known_defect("simulate_window_-32..31", inputs["wide_argv"])


# name -> (setup, steps).  The timed work units are kernel entries (sum of
# n^2 over the sweep's kernel_matrix calls), unconditioned draws, and jump
# events of the revisit chain.  Explore's events are left out: how many there
# are, and how long each takes, depends on the seed's DPP starts.
WORKLOADS = {
    "kernel_sweep": (kernel_sweep_setup,
                     (sweep_kernels, check_projections, cli_kernel, cli_verify_kernel)),
    "dpp_draws": (dpp_draws_setup,
                  (draw_samples, conditioned_draws, cli_sample, cli_exact_probs)),
    "swap_chain": (swap_chain_setup,
                   (revisit, explore, generator_models, generator_large, cli_simulate, cli_spectrum,
                    cli_verify_dynamics, wide_window)),
}
