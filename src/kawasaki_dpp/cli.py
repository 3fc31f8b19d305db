"""Command-line front end.

Subcommands: ``admissible``, ``kernel``, ``sample``, ``exact-probs``, ``rn``,
``simulate``, ``spectrum``, ``verify``.  Every run echoes the fully resolved
run configuration as one JSON line on stderr (the only place a timestamp
appears), so artifacts on disk are byte-reproducible from the same argv and
seed.  Exit codes: 0 success, 1 usage error, 2 numeric or verification
failure.

Each subcommand is one ``add`` in ``_build_parser``: its name, handler,
options and own defaults (``rn``'s 100 draws).  Options may also come from a
config file of ``key = value`` lines (``--config``, before or after the
subcommand; after wins); explicit flags win over file values, which win over
the command's defaults and then the built-in ones.  Every value goes through
one typed reader, ``_Options.get``, so a value its parser rejects (a malformed
number, a negative seed, an unknown model, a sector the window cannot hold) is
a usage error that names the option.  Window syntax is ``lo..hi`` in integer
site indices (site value = index + 1/2), complex parameters are ``a+bi``
literals, and all floating output uses %.17g.  A run resolves its shared
options, the rate model and the admissible pair among them, once
(``_run_config``); a command that writes one file does so through
``_write_artifact``, which also echoes and prints the path.  Every written
file's directory is created first, and an unreadable ``--config`` file is a
usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
from collections import ChainMap
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .dpp import (Configuration, enumerate_distribution, sample, sample_many, write_pmf_csv,
                  write_samples_csv)
from .dynamics import (
    ProximitySpec,
    RateKind,
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
from .util import format_complex, format_float, parse_complex, parse_window_spec, write_json
from .verification import SUITE_NAMES, check_suite_window, run_suite

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

@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    command: str
    pair: AdmissiblePair
    window: Window
    model: RateModel
    t_max: float
    seed: int
    n_samples: int
    output_dir: Path

    def echo(self, **extra) -> None:
        _echo({
            "command": self.command,
            "z": format_complex(self.pair.z),
            "z_prime": format_complex(self.pair.z_prime),
            "window": f"{self.window.lo.index}..{self.window.hi.index}",
            "rate_model": self.model.kind.value,
            "proximity": self.model.proximity.label(),
            "t_max": self.t_max,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "output_dir": str(self.output_dir),
            **extra,
        })


def _echo(payload: dict) -> None:
    """The run's one stderr JSON line, the only place a timestamp appears."""
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(json.dumps(payload), file=sys.stderr)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    """Flag > config file > the command's default > built-in default, with one typed reader."""

    def __init__(self, args: argparse.Namespace, file_values: dict[str, str]):
        self.command = args.command
        flags = {key: value for key, value in vars(args).items() if value is not None}
        self._values = ChainMap(flags, file_values, args.defaults, _DEFAULTS)

    def raw(self, key: str) -> str:
        return self._values[key]

    def get(self, key: str, convert):
        """``convert(raw value)``; a value it rejects is a usage error naming the option."""
        try:
            return convert(self.raw(key))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"--{key.replace('_', '-')}: {exc}") from None


def _checked(convert, accept, requirement: str):
    """A converter that also rejects values failing ``accept``."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "finite and positive")


def _parse_proximity(text: str, weight: float) -> ProximitySpec:
    spec = text.strip().lower()
    if spec in ("nn", "nearest-neighbor", "nearest_neighbor"):
        return ProximitySpec.nearest_neighbor(weight)
    if spec.startswith("exp:"):
        return ProximitySpec.exp_decay(float(spec[4:]), weight)
    if spec.startswith("range:"):
        return ProximitySpec.finite_range(int(spec[6:]), weight)
    raise ValueError(f"expected 'nn', 'exp:ALPHA' or 'range:R', got {spec!r}")


def _run_config(options: _Options) -> RunConfig:
    z = options.get("z", parse_complex)
    # an inadmissible pair is a DomainError, which is a ValueError
    pair = options.get("zp", lambda text: AdmissiblePair(z, parse_complex(text)))
    weight = options.get("weight", _POSITIVE)
    window = options.get("window", parse_window_spec)
    proximity = options.get("proximity", lambda text: _parse_proximity(text, weight))
    return RunConfig(
        command=options.command,
        pair=pair,
        window=window,
        # --model names a RateKind value, with - for _ (sqrt-ratio)
        model=options.get("model", lambda text: RateModel(
            RateKind(text.strip().lower().replace("-", "_")), proximity)),
        t_max=options.get("t_max", _POSITIVE),
        # SeededRng's range, checked without a generator: kernel runs never import numpy.random
        seed=options.get("seed", _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")),
        n_samples=options.get("n_samples", _POSITIVE_INT),
        output_dir=Path(options.raw("output_dir")),
    )


def _write_artifact(options: _Options, config: RunConfig, name: str, write, value,
                    **extra) -> int:
    """``write(value, path)`` to --out or to ``name`` in --output-dir; echo; print the path."""
    path = Path(options.raw("out") or config.output_dir / name)
    path.parent.mkdir(parents=True, exist_ok=True)
    write(value, path)
    config.echo(out=str(path), **extra)
    print(path)
    return 0


def _cmd_admissible(options: _Options) -> int:
    z = options.get("z", parse_complex)
    zp = options.get("zp", parse_complex)
    result = is_admissible(z, zp)
    if not result and complex(z) == complex(zp):
        print("note: equal parameters are unsupported; try --zp slightly offset, "
              "e.g. z + 1e-6", file=sys.stderr)
    # the full RunConfig presumes an admissible pair; echo the reduced form
    _echo({
        "command": options.command,
        "z": format_complex(z),
        "z_prime": format_complex(zp),
        "admissible": result,
    })
    print("true" if result else "false")
    return 0


def _cmd_kernel(options: _Options) -> int:
    config = _run_config(options)
    k = kernel_matrix(config.pair, config.window)
    k.validate()
    return _write_artifact(options, config, "kernel.csv", write_kernel_csv, k)


def _cmd_sample(options: _Options) -> int:
    config = _run_config(options)
    k = kernel_matrix(config.pair, config.window)
    draws = sample_many(k, SeededRng(config.seed), config.n_samples)
    return _write_artifact(options, config, "samples.csv", write_samples_csv, draws)


def _cmd_exact_probs(options: _Options) -> int:
    config = _run_config(options)
    pmf = enumerate_distribution(kernel_matrix(config.pair, config.window))
    return _write_artifact(options, config, "pmf.csv", write_pmf_csv, pmf)


def _parse_swap(text: str) -> SwapPair:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'i,j' site indices (e.g. -1,0), got {text!r}")
    return SwapPair(Site(int(parts[0])), Site(int(parts[1])))


def _cmd_rn(options: _Options) -> int:
    config = _run_config(options)
    pattern_window = options.get("pattern_window", parse_window_spec)

    def parse_pattern(text: str) -> Configuration:
        bits = text.strip()
        if len(bits) != pattern_window.size or any(c not in "01" for c in bits):
            raise ValueError(f"must be {pattern_window.size} characters of 0/1 for window "
                             f"{pattern_window}, got {bits!r}")
        return Configuration(pattern_window, tuple(int(c) for c in bits))

    pattern = options.get("pattern", parse_pattern)
    swap = options.get("swap", _parse_swap)
    sizes = options.get("sizes", _checked(
        lambda text: [int(s) for s in text.split(",") if s.strip()],
        lambda sizes: sizes and min(sizes) >= pattern_window.size,
        f"a nonempty list of window sizes of at least {pattern_window.size}"))
    table = rn_stabilization(config.pair, pattern, swap, sizes, SeededRng(config.seed),
                             n_samples=config.n_samples)
    return _write_artifact(options, config, "rn_stabilization.csv", write_stabilization_csv,
                           table, deltas=[format_float(d) for d in table.deltas()])


def _parse_initial(text: str, window: Window) -> Configuration | None:
    """The --initial start; None stands for a DPP draw."""
    text = text.strip().lower()
    if text == "alternating":
        return Configuration(window, tuple(i % 2 for i in range(window.size)))
    if text == "dpp":
        return None
    if set(text) <= {"0", "1"} and len(text) == window.size:
        return Configuration(window, tuple(int(c) for c in text))
    raise ValueError(f"must be a {window.size}-bit occupancy string, 'alternating' or 'dpp'")


def _cmd_simulate(options: _Options) -> int:
    config = _run_config(options)
    k = kernel_matrix(config.pair, config.window)
    replicas = options.get("replicas", _POSITIVE_INT)
    initial = options.get("initial", lambda text: _parse_initial(text, config.window))
    if initial is None:
        # The initial draw uses the first stream index not taken by a
        # replica, so replica streams stay untouched.
        initial = sample(k, SeededRng(config.seed, replicas))
    trajectories = [simulate(config.model, k, initial, config.t_max,
                             SeededRng(config.seed, stream)) for stream in range(replicas)]

    config.output_dir.mkdir(parents=True, exist_ok=True)
    paths = [config.output_dir / f"trajectory_{stream:03d}.csv" for stream in range(replicas)]
    for trajectory, path in zip(trajectories, paths):
        write_trajectory_csv(trajectory, path)
        write_trajectory_sidecar(trajectory, config.pair.z, config.pair.z_prime, config.model,
                                 path.with_suffix(".json"))
    config.echo(replicas=replicas, workers=1, n_events=[t.n_events for t in trajectories],
                rate_table_misses=sum(t.rate_table_misses for t in trajectories),
                worst_condition=max(t.worst_condition for t in trajectories))
    print(*paths, sep="\n")
    return 0


def _parse_sector(text: str, window: Window) -> int | None:
    if not text.strip():
        return None
    sector = int(text)
    if not 0 <= sector <= window.size:
        raise ValueError(f"must be a particle count from 0 to {window.size}, got {sector}")
    return sector


def _cmd_spectrum(options: _Options) -> int:
    config = _run_config(options)
    sector = options.get("sector", lambda text: _parse_sector(text, config.window))
    k = kernel_matrix(config.pair, config.window)
    g = build_generator(config.model, k, sector=sector)
    result = spectrum(g)
    payload = {
        "window": f"{config.window.lo.index}..{config.window.hi.index}",
        "sector": sector,
        "model": config.model.kind.value,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "spectral_gap": result.spectral_gap,
    }
    return _write_artifact(options, config, "spectrum.json", write_json, payload,
                           spectral_gap=result.spectral_gap)


def _cmd_verify(options: _Options) -> int:
    suite = options.get("suite", _checked(str, lambda v: v in (*SUITE_NAMES, "all"),
                                          f"one of {', '.join(SUITE_NAMES)} or all"))
    config = _run_config(options)
    options.get("window", lambda text: check_suite_window(suite, parse_window_spec(text)))
    report = run_suite(suite, config.pair, config.window, config.seed)
    config.echo(suite=suite, failures=report.failures)
    print(report.to_json())
    out = options.raw("out")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        report.write(out)
    return 2 if report.failures else 0


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="kawasaki-dpp", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="file of key = value option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *options: str, **defaults: str) -> None:
        """The subcommand ``name``: its handler, its options and its own defaults."""
        p = sub.add_parser(name)
        # suppressed when absent, so a --config before the subcommand stands
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        for opt in options:
            p.add_argument(f"--{opt.replace('_', '-')}", dest=opt, default=None)
        p.set_defaults(handler=handler, defaults=defaults)

    add("admissible", _cmd_admissible, "z", "zp")
    add("kernel", _cmd_kernel, "z", "zp", "window", "out", "output_dir")
    add("sample", _cmd_sample, "z", "zp", "window", "seed", "n_samples", "out", "output_dir")
    add("exact-probs", _cmd_exact_probs, "z", "zp", "window", "out", "output_dir")
    # the stabilization study's own default: 100 draws per size
    add("rn", _cmd_rn, "z", "zp", "pattern", "pattern_window", "swap", "sizes", "seed",
        "n_samples", "out", "output_dir", n_samples="100")
    add("simulate", _cmd_simulate, "z", "zp", "window", "model", "proximity", "weight",
        "t_max", "seed", "initial", "replicas", "output_dir")
    add("spectrum", _cmd_spectrum, "z", "zp", "window", "model", "proximity", "weight",
        "sector", "out", "output_dir")
    add("verify", _cmd_verify, "z", "zp", "window", "seed", "suite", "out", "output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        file_values = _read_config_file(args.config) if args.config else {}
        return args.handler(_Options(args, file_values))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KawasakiDppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
