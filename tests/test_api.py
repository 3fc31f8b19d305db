"""The public names: every ``__all__`` entry resolves to an attribute; no scipy at run time."""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

import kawasaki_dpp

# __main__ runs the CLI on import.
MODULES = ["kawasaki_dpp"] + [f"kawasaki_dpp.{m.name}"
                              for m in pkgutil.iter_modules(kawasaki_dpp.__path__)
                              if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_module_but_errors_declares_all():
    # The benchmark's tracer finds its targets through __all__.
    assert [m for m in MODULES if not hasattr(importlib.import_module(m), "__all__")] == [
        "kawasaki_dpp.errors"]


# One fresh interpreter imports the package, then runs these commands in
# process, each on a small window.
_SCIPY_FREE_RUN = """
import json, sys
import kawasaki_dpp
from kawasaki_dpp import cli
argvs = [
    ["kernel", "--window", "-2..1"],
    ["sample", "--window", "-2..1", "--n-samples", "5"],
    ["exact-probs", "--window", "-2..1"],
    ["simulate", "--window", "-2..1", "--t-max", "5"],
    ["spectrum", "--window", "-2..1", "--sector", "2"],
    ["verify", "--suite", "all", "--window", "-2..1"],
]
codes = [cli.main(argv + ["--output-dir", "."]) for argv in argvs]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_no_scipy_at_import_or_run_time(tmp_path, run_python):
    proc = run_python(["-c", _SCIPY_FREE_RUN], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": []}
