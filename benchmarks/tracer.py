"""Out-of-library tracing for the traced benchmark run.

The tracer replaces each public function of the package, wherever a module of
the package binds it (``kawasaki_dpp.kernel.kernel_entry``,
``kawasaki_dpp.dynamics.rate``, ``kawasaki_dpp.cli.simulate``, ...), with a
wrapper that times the call.  Wrapped calls nest on a per-thread stack, so a
call's self time is its duration minus the time of the wrapped calls it made.

Leaf functions called up to millions of times are aggregated (count, total,
self, log-bucket histogram).  Calls of the other functions are also kept as
spans (name, binding module, thread, start, end, parent) and written out by
the worker at the end of a traced repeat.

A target that a later version of the package no longer defines (or no longer
lists in its module's ``__all__``) is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
from time import perf_counter

PACKAGE = "kawasaki_dpp"

# Targets that are wrapped for aggregate statistics only (no span per call).
_LEAVES = {
    "specfun.log_gamma_signed",
    "specfun.log_gamma_complex",
    "specfun.digamma",
    "specfun.sinpi",
    "specfun.sinpi_complex",
    "kernel.kernel_entry",
    "kernel.ab_values",
    "dpp.config_probability",
    "dpp.correlation",
    "dpp.sample",
    "rn.rn_derivative",
    "dynamics.rate",
    "dynamics.total_jump_rate",
}

# Targets whose call durations feed a histogram (for p50 and tail latency).
_HISTOGRAMS = {"dpp.sample", "dynamics.total_jump_rate"}

# Histogram resolution: sub-buckets per factor of two in duration.
_SUB_BUCKETS = 16


def _det_flops(n: int) -> float:
    """Operation count of one LU determinant of an n x n matrix."""
    return 2.0 * n ** 3 / 3.0


def _observe_kernel_matrix(counters, site, args, result):
    counters["kernel.entries"] += result.size * result.size


def _observe_sample(counters, site, args, result):
    counters["dpp.draws"] += 1
    if site == f"{PACKAGE}.rn":
        counters["rn.conditioned_attempts"] += 1


def _observe_config_probability(counters, site, args, result):
    counters["dpp.dets"] += 1
    counters["dpp.det_flops_computed"] += _det_flops(args[0].size)


def _observe_enumerate(counters, site, args, result):
    n = result.size
    counters["dpp.dets"] += 1 << n
    counters["dpp.det_flops_computed"] += (1 << n) * _det_flops(n)


def _observe_rn_stabilization(counters, site, args, result):
    counters["rn.conditioned_accepted"] += sum(row.n_samples for row in result.rows)


def _observe_total_jump_rate(counters, site, args, result):
    if site == f"{PACKAGE}.dynamics":
        counters["dynamics.rate_table_misses"] += 1


def _observe_simulate(counters, site, args, result):
    counters["dynamics.events"] += result.n_events
    # The jump loop looks its rate table up once per event plus once more
    # for the step that ends the run.
    counters["dynamics.rate_table_lookups"] += result.n_events + 1


def _observe_build_generator(counters, site, args, result):
    counters["exact.states_built"] += result.n_states
    counters["exact.q_nonzeros"] += int((result.Q != 0.0).sum())
    counters["exact.q_bytes_computed"] += result.Q.nbytes


def _observe_run_suite(counters, site, args, result):
    counters["verification.checks"] += len(result.checks)
    counters["verification.failures"] += result.failures


# (module, attribute, observer, key function).  A key function names the
# statistics record from the call's arguments (one record per CLI command
# or verification suite).
TARGETS = [
    ("specfun", "log_gamma_signed", None, None),
    ("specfun", "log_gamma_complex", None, None),
    ("specfun", "digamma", None, None),
    ("specfun", "sinpi", None, None),
    ("specfun", "sinpi_complex", None, None),
    ("kernel", "kernel_entry", None, None),
    ("kernel", "ab_values", None, None),
    ("kernel", "kernel_matrix", _observe_kernel_matrix, None),
    ("kernel", "difference_operator_matrix", None, None),
    ("kernel", "spectral_projection_check", None, None),
    ("kernel", "KernelMatrix.validate", None, None),
    ("kernel", "write_kernel_csv", None, None),
    ("dpp", "config_probability", _observe_config_probability, None),
    ("dpp", "correlation", None, None),
    ("dpp", "enumerate_distribution", _observe_enumerate, None),
    ("dpp", "sample", _observe_sample, None),
    ("dpp", "write_pmf_csv", None, None),
    ("dpp", "write_samples_csv", None, None),
    ("rn", "rn_derivative", None, None),
    ("rn", "rn_stabilization", _observe_rn_stabilization, None),
    ("dynamics", "rate", None, None),
    ("dynamics", "total_jump_rate", _observe_total_jump_rate, None),
    ("dynamics", "symmetry_check", None, None),
    ("dynamics", "simulate", _observe_simulate, None),
    ("dynamics", "write_trajectory_csv", None, None),
    ("exact", "build_generator", _observe_build_generator, None),
    ("exact", "check_reversibility", None, None),
    ("exact", "dirichlet_form", None, None),
    ("exact", "spectrum", None, None),
    ("exact", "transition_matrix", None, None),
    ("verification", "run_suite", _observe_run_suite,
     lambda args, kwargs: f"verification.{args[0] if args else kwargs.get('suite')}"),
    ("cli", "main", None,
     lambda args, kwargs: f"cli.{(args[0] if args else kwargs.get('argv'))[0]}"),
]

# Functions that write CLI artifacts; their busy time is reported as cli.write.
WRITERS = (
    "kernel.write_kernel_csv",
    "dpp.write_pmf_csv",
    "dpp.write_samples_csv",
    "dynamics.write_trajectory_csv",
)


class _Counters(dict):
    def __missing__(self, key):
        return 0


class _ThreadState:
    __slots__ = ("stack", "stats", "counters", "spans", "configs")

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = _Counters()
        self.spans: list[tuple] = []
        self.configs: list = []


class Tracer:
    """Wraps the package's public functions and aggregates what they do."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def install(self) -> "Tracer":
        """Wrap every target under each name the package's modules bind it to."""
        targets = {}
        for module_name in {t[0] for t in TARGETS}:
            try:
                targets[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                targets[module_name] = None
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr, observe, key_fn in TARGETS:
            key = f"{module_name}.{attr.split('.')[-1]}"
            module = targets[module_name]
            owner_name, _, method = attr.partition(".")
            exported = getattr(module, "__all__", ())
            if module is None or owner_name not in exported or not hasattr(module, owner_name):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if method:
                owner = getattr(module, owner_name)
                original = getattr(owner, method, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, method, self._wrap(key, original, module.__name__, observe, key_fn))
                continue
            original = getattr(module, attr)
            for binder in modules:
                for name, value in list(vars(binder).items()):
                    if value is original:
                        setattr(binder, name,
                                self._wrap(key, original, binder.__name__, observe, key_fn))
        return self

    def _wrap(self, key, fn, site, observe, key_fn):
        leaf = key in _LEAVES
        histogram = key in _HISTOGRAMS
        keep_configs = key == "rn.rn_derivative" and site == f"{PACKAGE}.rn"
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            name = key if key_fn is None else key_fn(args, kwargs)
            stack = state.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0.0, 0.0, {}]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if histogram:
                    mantissa, exponent = math.frexp(duration)
                    bucket = exponent * _SUB_BUCKETS + int((mantissa - 0.5) * 2 * _SUB_BUCKETS)
                    buckets = record[3]
                    buckets[bucket] = buckets.get(bucket, 0) + 1
                if not leaf:
                    state.spans.append((name, site, threading.get_ident(), start, end, parent))
            if keep_configs:
                state.configs.append(args[1])
            if observe is not None:
                observe(state.counters, site, args, result)
            return result

        return traced

    def conditioned_draws(self) -> list:
        """Configurations passed to rn_derivative from inside the rn module."""
        return [c for state in self._threads for c in state.configs]

    def snapshot(self) -> dict:
        """Merged statistics, counters and spans of every thread."""
        stats: dict[str, dict] = {}
        counters = _Counters()
        spans = []
        for state in self._threads:
            for name, (calls, busy, self_s, buckets) in state.stats.items():
                entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                                "buckets": {}})
                entry["calls"] += calls
                entry["busy_s"] += busy
                entry["self_s"] += self_s
                for bucket, count in buckets.items():
                    entry["buckets"][bucket] = entry["buckets"].get(bucket, 0) + count
            for name, value in state.counters.items():
                counters[name] += value
            spans.extend(state.spans)
        for entry in stats.values():
            entry.update(_quantiles(entry.pop("buckets")))
        return {"stats": stats, "counters": counters, "spans": spans}


def _bucket_ms(bucket: int) -> float:
    exponent, sub = divmod(bucket, _SUB_BUCKETS)
    mantissa = 0.5 + (sub + 0.5) / (2 * _SUB_BUCKETS)
    return math.ldexp(mantissa, exponent) * 1e3


def _quantiles(buckets: dict[int, int]) -> dict:
    """Median and tail latency from a histogram.

    The tail is the highest of the 90th, 99th, 99.9th, ... percentiles that
    leaves at least ten samples beyond it; ``tail_pct`` names it (0 when
    there are fewer than twenty samples).
    """
    total = sum(buckets.values())
    if total == 0:
        return {"samples": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0}
    ordered = sorted(buckets.items())

    def quantile(q: float) -> float:
        rank = q * total
        seen = 0
        for bucket, count in ordered:
            seen += count
            if seen >= rank:
                return _bucket_ms(bucket)
        return _bucket_ms(ordered[-1][0])

    tail_pct = 0.0
    if total >= 20:
        tail_pct = 50.0
        digits = 1
        while total * 10.0 ** -digits >= 10.0:
            tail_pct = 100.0 * (1.0 - 10.0 ** -digits)
            digits += 1
    return {"samples": total, "p50_ms": quantile(0.5),
            "tail_ms": quantile(tail_pct / 100.0) if tail_pct else 0.0,
            "tail_pct": tail_pct}


def _stat(stats: dict, name: str, field: str) -> float:
    return stats.get(name, {}).get(field, 0)


def _layer_sum(stats: dict, layer: str, field: str) -> float:
    return sum(entry[field] for name, entry in stats.items() if name.startswith(layer + "."))


def per_layer(snapshot: dict, ledger, result: dict) -> dict:
    """The per-layer metrics of one traced repeat, by name."""
    stats, counters, spans = snapshot["stats"], snapshot["counters"], snapshot["spans"]
    metrics = {
        "specfun.calls": _layer_sum(stats, "specfun", "calls"),
        "specfun.busy_s": _layer_sum(stats, "specfun", "busy_s"),
        "kernel.entries": counters["kernel.entries"],
        "kernel.self_s": _layer_sum(stats, "kernel", "self_s"),
        "dpp.draws": counters["dpp.draws"],
        "dpp.dets": counters["dpp.dets"],
        "dpp.det_flops_computed": counters["dpp.det_flops_computed"],
        "dpp.clamped": result["clamped"] or 0,
        "dpp.self_s": _layer_sum(stats, "dpp", "self_s"),
        "rn.conditioned_attempts": counters["rn.conditioned_attempts"],
        "rn.self_s": _layer_sum(stats, "rn", "self_s"),
        "dynamics.events": counters["dynamics.events"],
        "dynamics.rate_table_misses": counters["dynamics.rate_table_misses"],
        "dynamics.self_s": _layer_sum(stats, "dynamics", "self_s"),
        "exact.states_built": counters["exact.states_built"],
        "exact.q_nonzeros": counters["exact.q_nonzeros"],
        "exact.q_bytes_computed": counters["exact.q_bytes_computed"],
        "exact.self_s": _layer_sum(stats, "exact", "self_s"),
        "verification.checks": counters["verification.checks"],
        "verification.failures": counters["verification.failures"],
        "cli.write.busy_s": sum(_stat(stats, name, "busy_s") for name in WRITERS),
        "cli.bytes_written": result["bytes_written"],
        "cli.simulate.workers": ledger.notes.get("cli_simulate_workers", 0),
    }
    for name in ("kernel.kernel_matrix", "kernel.kernel_entry", "dpp.config_probability",
                 "rn.rn_derivative", "dynamics.rate"):
        metrics[f"{name}.calls"] = _stat(stats, name, "calls")
    for name in ("kernel.kernel_matrix", "kernel.validate", "kernel.spectral_projection_check",
                 "dpp.sample", "dpp.config_probability", "dpp.enumerate_distribution",
                 "rn.rn_derivative", "rn.rn_stabilization", "dynamics.simulate",
                 "exact.build_generator", "exact.spectrum", "exact.dirichlet_form",
                 "exact.transition_matrix", "verification.kernel", "verification.dynamics",
                 "cli.kernel", "cli.sample", "cli.exact-probs", "cli.simulate",
                 "cli.spectrum", "cli.verify"):
        metrics[f"{name}.busy_s"] = _stat(stats, name, "busy_s")
    # The jump loop's own time: simulate minus the rate-table builds it calls.
    metrics["dynamics.simulate.self_s"] = _stat(stats, "dynamics.simulate", "self_s")
    for name, label in (("dpp.sample", "dpp.sample"),
                        ("dynamics.total_jump_rate", "dynamics.rate_table_build")):
        for field in ("p50_ms", "tail_ms", "tail_pct"):
            metrics[f"{label}.{field}"] = _stat(stats, name, field)

    accepted = counters["rn.conditioned_accepted"]
    attempts = counters["rn.conditioned_attempts"]
    metrics["rn.conditioned_accept_ratio"] = accepted / attempts if attempts else 0.0
    lookups = counters["dynamics.rate_table_lookups"]
    hits = lookups - counters["dynamics.rate_table_misses"]
    metrics["dynamics.rate_table_hits"] = hits
    metrics["dynamics.rate_table_hit_ratio"] = hits / lookups if lookups else 0.0

    # Replica threads of the CLI simulate command with the most replicas:
    # their summed busy time over the pool's span times its worker count.
    # A replica's busy time includes waiting for the interpreter lock.
    replicas = [(start, end) for name, site, _, start, end, _ in spans
                if name == "dynamics.simulate" and site == f"{PACKAGE}.cli"]
    commands = [[(s, e) for s, e in replicas if start <= s and e <= end]
                for name, _, _, start, end, _ in spans if name == "cli.simulate"]
    pool = max(commands, key=len, default=[])
    workers = metrics["cli.simulate.workers"]
    efficiency = 0.0
    if pool and workers:
        span = max(e for _, e in pool) - min(s for s, _ in pool)
        efficiency = sum(e - s for s, e in pool) / (workers * span)
    metrics["cli.simulate.parallel_efficiency"] = efficiency

    known = result["known_defects"]
    defects = sum(1 for d in known if d["failed"])
    metrics["known_defects.failed"] = defects
    metrics["error_rate"] = (result["failed"] + defects) / (result["attempted"] + len(known))
    return metrics
