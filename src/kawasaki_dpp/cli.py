"""Command-line front end.

Subcommands: ``admissible``, ``kernel``, ``sample``, ``exact-probs``, ``rn``,
``simulate``, ``spectrum``, ``verify``.  Every run echoes the fully resolved
run configuration as one JSON line on stderr (the only place a timestamp
appears), so artifacts on disk are byte-reproducible from the same argv and
seed.  Exit codes: 0 success, 1 usage error, 2 numeric or verification
failure.

Options may also come from a config file of ``key = value`` lines
(``--config``); explicit flags win over file values, which win over built-in
defaults.  Window syntax is ``lo..hi`` in integer site indices (site value =
index + 1/2), complex parameters are ``a+bi`` literals, and all floating
output uses %.17g.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .dpp import (Configuration, enumerate_distribution, sample, sample_many, write_pmf_csv,
                  write_samples_csv)
from .dynamics import (
    ProximitySpec,
    RateModel,
    simulate,
    write_trajectory_csv,
    write_trajectory_sidecar,
)
from .errors import KawasakiDppError
from .exact import build_generator, spectrum
from .kernel import (
    AdmissiblePair,
    Site,
    Window,
    is_admissible,
    kernel_matrix,
    write_kernel_csv,
)
from .rn import SwapPair, rn_stabilization, write_stabilization_csv
from .rng import SeededRng
from .util import format_complex, format_float, parse_complex, parse_window_spec
from .verification import SUITE_NAMES, run_suite

__all__ = ["main", "console_main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through UsageError (exit code 1).

    Values like ``-4..4`` or ``-1,0`` start with a dash but are data, not
    options; the widened matcher below lets argparse accept them unquoted
    (no option of this CLI begins with ``-<digit>``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


_DEFAULTS = {
    "z": "1.5",
    "zp": "1.7",
    "window": "-4..4",
    "seed": "0",
    "n_samples": "1000",
    "t_max": "10",
    "model": "metropolis",
    "proximity": "nn",
    "weight": "1",
    "replicas": "1",
    "initial": "alternating",
    "sector": "",
    "sizes": "12,16,20",
    "pattern": "",
    "pattern_window": "",
    "swap": "",
    "suite": "all",
    "out": "",
    "output_dir": ".",
}

_MODEL_FACTORIES = {
    "metropolis": RateModel.metropolis,
    "sqrt-ratio": RateModel.sqrt_ratio,
    "glauber-like": RateModel.glauber_like,
}


@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    command: str
    z: complex
    z_prime: complex
    window: Window
    rate_model: str
    proximity: ProximitySpec
    t_max: float
    seed: int
    n_samples: int
    output_dir: Path

    def echo(self, extra: dict | None = None) -> None:
        payload = {
            "command": self.command,
            "z": format_complex(self.z),
            "z_prime": format_complex(self.z_prime),
            "window": f"{self.window.lo.index}..{self.window.hi.index}",
            "rate_model": self.rate_model,
            "proximity": self.proximity.label(),
            "t_max": self.t_max,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "output_dir": str(self.output_dir),
        }
        if extra:
            payload.update(extra)
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        print(json.dumps(payload), file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kawasaki-dpp", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="file of key = value option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *options: str):
        p = sub.add_parser(name)
        p.add_argument("--config", help=argparse.SUPPRESS)
        for opt in options:
            p.add_argument(f"--{opt.replace('_', '-')}", dest=opt, default=None)
        return p

    add("admissible", "z", "zp")
    add("kernel", "z", "zp", "window", "out", "output_dir")
    add("sample", "z", "zp", "window", "seed", "n_samples", "out", "output_dir")
    add("exact-probs", "z", "zp", "window", "out", "output_dir")
    add("rn", "z", "zp", "pattern", "pattern_window", "swap", "sizes", "seed",
        "n_samples", "out", "output_dir")
    add("simulate", "z", "zp", "window", "model", "proximity", "weight", "t_max",
        "seed", "initial", "replicas", "output_dir")
    add("spectrum", "z", "zp", "window", "model", "proximity", "weight", "sector",
        "out", "output_dir")
    verify = add("verify", "z", "zp", "window", "seed", "out", "output_dir")
    verify.add_argument("--suite", default=None,
                        choices=list(SUITE_NAMES) + ["all"])
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value.strip()
    return values


class _Options:
    """Flag > config-file > default resolution, with typed accessors."""

    def __init__(self, args: argparse.Namespace, file_values: dict[str, str]):
        self._args = vars(args)
        self._file = file_values

    def raw(self, key: str) -> str:
        flag = self._args.get(key)
        if flag is not None:
            return flag
        if key in self._file:
            return self._file[key]
        return _DEFAULTS[key]

    def provided(self, key: str) -> bool:
        """Whether the value came from a flag or the config file."""
        return self._args.get(key) is not None or key in self._file

    def _typed(self, key: str, convert, what: str):
        text = self.raw(key)
        try:
            return convert(text)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"--{key.replace('_', '-')}: {exc}") from None

    def complex_(self, key: str) -> complex:
        return self._typed(key, parse_complex, "complex")

    def window(self, key: str = "window") -> Window:
        return self._typed(key, parse_window_spec, "window")

    def int_(self, key: str) -> int:
        return self._typed(key, int, "integer")

    def float_(self, key: str) -> float:
        return self._typed(key, float, "number")

    def str_(self, key: str) -> str:
        return self.raw(key)


def _proximity(options: _Options) -> ProximitySpec:
    spec = options.str_("proximity").strip().lower()
    weight = options.float_("weight")
    if spec in ("nn", "nearest-neighbor", "nearest_neighbor"):
        return ProximitySpec.nearest_neighbor(weight)
    if spec.startswith("exp:"):
        return ProximitySpec.exp_decay(float(spec[4:]), weight)
    if spec.startswith("range:"):
        return ProximitySpec.finite_range(int(spec[6:]), weight)
    raise UsageError(f"--proximity: expected 'nn', 'exp:ALPHA' or 'range:R', got {spec!r}")


def _rate_model(options: _Options) -> RateModel:
    name = options.str_("model").strip().lower()
    factory = _MODEL_FACTORIES.get(name)
    if factory is None:
        raise UsageError(f"--model: expected one of {sorted(_MODEL_FACTORIES)}, got {name!r}")
    return factory(_proximity(options))


def _admissible_pair(options: _Options) -> AdmissiblePair:
    z = options.complex_("z")
    zp = options.complex_("zp")
    try:
        return AdmissiblePair(z, zp)
    except KawasakiDppError as exc:
        raise UsageError(f"--z/--zp: {exc}") from None


def _run_config(command: str, options: _Options) -> RunConfig:
    pair = _admissible_pair(options)
    t_max = options.float_("t_max")
    if t_max <= 0.0:
        raise UsageError("--t-max must be positive")
    n_samples = options.int_("n_samples")
    if n_samples < 1:
        raise UsageError("--n-samples must be >= 1")
    return RunConfig(
        command=command,
        z=pair.z,
        z_prime=pair.z_prime,
        window=options.window(),
        rate_model=options.str_("model"),
        proximity=_proximity(options),
        t_max=t_max,
        seed=options.int_("seed"),
        n_samples=n_samples,
        output_dir=Path(options.str_("output_dir")),
    )


def _out_path(options: _Options, default_name: str) -> Path:
    out = options.str_("out")
    if out:
        return Path(out)
    directory = Path(options.str_("output_dir"))
    directory.mkdir(parents=True, exist_ok=True)
    return directory / default_name


def _cmd_admissible(options: _Options) -> int:
    z = options.complex_("z")
    zp = options.complex_("zp")
    result = is_admissible(z, zp)
    if not result and complex(z) == complex(zp):
        print("note: equal parameters are unsupported; try --zp slightly offset, "
              "e.g. z + 1e-6", file=sys.stderr)
    # the full RunConfig presumes an admissible pair; echo the reduced form
    echo = {
        "command": "admissible",
        "z": format_complex(z),
        "z_prime": format_complex(zp),
        "admissible": result,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    print(json.dumps(echo), file=sys.stderr)
    print("true" if result else "false")
    return 0


def _cmd_kernel(options: _Options) -> int:
    config = _run_config("kernel", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    k = kernel_matrix(pair, config.window)
    k.validate()
    path = _out_path(options, "kernel.csv")
    write_kernel_csv(k, path)
    config.echo({"out": str(path)})
    print(path)
    return 0


def _cmd_sample(options: _Options) -> int:
    config = _run_config("sample", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    k = kernel_matrix(pair, config.window)
    rng = SeededRng(config.seed)
    draws = sample_many(k, rng, config.n_samples)
    path = _out_path(options, "samples.csv")
    write_samples_csv(draws, path)
    config.echo({"out": str(path)})
    print(path)
    return 0


def _cmd_exact_probs(options: _Options) -> int:
    config = _run_config("exact-probs", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    pmf = enumerate_distribution(kernel_matrix(pair, config.window))
    path = _out_path(options, "pmf.csv")
    write_pmf_csv(pmf, path)
    config.echo({"out": str(path)})
    print(path)
    return 0


def _parse_swap(text: str) -> SwapPair:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"swap must be 'i,j' site indices, got {text!r}")
    return SwapPair(Site(int(parts[0])), Site(int(parts[1])))


def _cmd_rn(options: _Options) -> int:
    config = _run_config("rn", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    pattern_window = options.window("pattern_window") if options.raw("pattern_window") else None
    if pattern_window is None:
        raise UsageError("--pattern-window is required (e.g. --pattern-window -1..0)")
    bits = options.str_("pattern").strip()
    if len(bits) != pattern_window.size or any(c not in "01" for c in bits):
        raise UsageError(
            f"--pattern must be {pattern_window.size} characters of 0/1 for window "
            f"{pattern_window}, got {bits!r}"
        )
    pattern = Configuration(pattern_window, tuple(int(c) for c in bits))
    swap_text = options.str_("swap").strip()
    if not swap_text:
        raise UsageError("--swap is required (e.g. --swap -1,0)")
    try:
        swap = _parse_swap(swap_text)
    except ValueError as exc:
        raise UsageError(f"--swap: {exc}") from None
    sizes = [int(s) for s in options.str_("sizes").split(",") if s.strip()]
    # the stabilization study defaults to 100 conditioned samples per size
    samples_per_size = config.n_samples if options.provided("n_samples") else 100
    table = rn_stabilization(pair, pattern, swap, sizes, SeededRng(config.seed),
                             n_samples=samples_per_size)
    path = _out_path(options, "rn_stabilization.csv")
    write_stabilization_csv(table, path)
    config.echo({"out": str(path), "deltas": [format_float(d) for d in table.deltas()]})
    print(path)
    return 0


def _initial_configuration(options: _Options, window: Window, k, rng: SeededRng) -> Configuration:
    text = options.str_("initial").strip().lower()
    if text == "alternating":
        return Configuration(window, tuple(i % 2 for i in range(window.size)))
    if text == "dpp":
        return sample(k, rng)
    if set(text) <= {"0", "1"} and len(text) == window.size:
        return Configuration(window, tuple(int(c) for c in text))
    raise UsageError(
        f"--initial must be a {window.size}-bit occupancy string, 'alternating' or 'dpp'"
    )


def _cmd_simulate(options: _Options) -> int:
    config = _run_config("simulate", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    model = _rate_model(options)
    k = kernel_matrix(pair, config.window)
    replicas = options.int_("replicas")
    if replicas < 1:
        raise UsageError("--replicas must be >= 1")
    # The initial draw (when --initial dpp) uses the first stream index not
    # taken by a replica, so replica streams stay untouched.
    initial = _initial_configuration(options, config.window, k,
                                     SeededRng(config.seed, replicas))
    trajectories = [simulate(model, k, initial, config.t_max, SeededRng(config.seed, stream))
                    for stream in range(replicas)]

    directory = Path(options.str_("output_dir"))
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for stream, trajectory in enumerate(trajectories):
        csv_path = directory / f"trajectory_{stream:03d}.csv"
        json_path = directory / f"trajectory_{stream:03d}.json"
        write_trajectory_csv(trajectory, csv_path)
        write_trajectory_sidecar(trajectory, pair.z, pair.z_prime, model, json_path)
        written.append(str(csv_path))
    config.echo({"replicas": replicas, "workers": 1,
                 "n_events": [t.n_events for t in trajectories]})
    for path in written:
        print(path)
    return 0


def _cmd_spectrum(options: _Options) -> int:
    config = _run_config("spectrum", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    model = _rate_model(options)
    sector_text = options.str_("sector").strip()
    sector = int(sector_text) if sector_text else None
    k = kernel_matrix(pair, config.window)
    g = build_generator(model, k, sector=sector)
    result = spectrum(g)
    payload = {
        "window": f"{config.window.lo.index}..{config.window.hi.index}",
        "sector": sector,
        "model": model.kind.value,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "spectral_gap": result.spectral_gap,
    }
    path = _out_path(options, "spectrum.json")
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    config.echo({"out": str(path), "spectral_gap": result.spectral_gap})
    print(path)
    return 0


def _cmd_verify(options: _Options) -> int:
    config = _run_config("verify", options)
    pair = AdmissiblePair(config.z, config.z_prime)
    suite = options.str_("suite")
    report = run_suite(suite, pair, config.window, config.seed)
    config.echo({"suite": suite, "failures": report.failures})
    print(report.to_json())
    out = options.str_("out")
    if out:
        report.write(Path(out))
    return 2 if report.failures else 0


_HANDLERS = {
    "admissible": _cmd_admissible,
    "kernel": _cmd_kernel,
    "sample": _cmd_sample,
    "exact-probs": _cmd_exact_probs,
    "rn": _cmd_rn,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_values = _read_config_file(args.config) if args.config else {}
        options = _Options(args, file_values)
        return _HANDLERS[args.command](options)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KawasakiDppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
