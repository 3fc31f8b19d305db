"""The public names: every ``__all__`` entry resolves to an attribute; no module-level
instance of a package class; no scipy at run time; every parameter in the package is read."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_no_module_binds_an_instance_of_a_package_class(name):
    # Diagnostics come back with each call's result, not through module state.
    module = importlib.import_module(name)
    assert [attr for attr, value in vars(module).items()
            if type(value).__module__.startswith("kawasaki_dpp")] == []


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


def test_kernel_command_imports_no_random_generator(tmp_path, run_python):
    # numpy.random adds about 6 MiB to a process; a command that draws nothing leaves it out
    code = ("import sys; from kawasaki_dpp import cli; "
            "code = cli.main(['kernel', '--window', '-2..1', '--output-dir', '.']); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = run_python(["-c", code], tmp_path)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


# The suites share one dispatch signature, (pair, window, seed); the kernel suite draws nothing.
_UNREAD_ALLOWED = {("verification.py", "verify_kernel", "seed")}


def _unread_parameters(tree: ast.Module, filename: str) -> list[tuple[str, str, str]]:
    """(file, function, parameter) of each parameter its function or lambda never reads.

    A method's receiver (its first parameter) is bound by the call, not chosen,
    so it is not counted.
    """
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body
               if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in getattr(f, "decorator_list", ()))}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None]
        if id(node) in methods:
            params = params[1:]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [(filename, getattr(node, "name", "<lambda>"), p) for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    source = Path(kawasaki_dpp.__file__).parent
    unread = [found for path in sorted(source.glob("*.py"))
              for found in _unread_parameters(ast.parse(path.read_text()), path.name)]
    assert set(unread) == _UNREAD_ALLOWED
