"""One repeat of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
as the last line of standard output.  ``setup_s`` runs from the moment the
parent started this process (``--spawned``, a ``time.monotonic`` reading)
until the workload's inputs are built, so it includes interpreter start-up
and ``import kawasaki_dpp``.  ``wall_s`` is the time of the fixed job after
that: its steps, without the host calibrations between them.  With
``--trace 1`` the package's public functions are wrapped before the inputs
are built and the per-layer figures are added.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    import kawasaki_dpp

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(kawasaki_dpp.__file__).resolve().parents:
        print(f"kawasaki_dpp imported from {kawasaki_dpp.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    import workloads

    setup, steps = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, Path(args.out_dir))
    ready = time.monotonic()
    setup_s = ready - args.spawned

    clamp = getattr(kawasaki_dpp.dpp, "clamp_counter", None)
    clamped_before = clamp.count if clamp is not None else 0
    ledger = workloads.Ledger(tracer=tracer)
    workloads.run_steps(steps, inputs, ledger)
    wall_s = sum(seconds for seconds, _, _ in ledger.steps)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "work": ledger.work,
        "work_s": ledger.work_s,
        "steps": ledger.steps,
        "bytes_written": ledger.bytes_written,
        "checks": ledger.checks,
        "known_defects": ledger.known_defects,
        "notes": ledger.notes,
        "clamped": clamp.count - clamped_before if clamp is not None else None,
    }
    if tracer is not None:
        snapshot = tracer.snapshot()
        result["per_layer"] = tracing.per_layer(snapshot, ledger, result)
        result["absent"] = tracer.absent + (["dpp.clamp_counter"] if clamp is None else [])
        if args.spans:
            Path(args.spans).write_text(json.dumps(snapshot) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
