"""Every exported name resolves, so a removed name cannot linger in an export list,
no exported function takes a field next to an input that carries one, the set
algebra layer imports no other layer, each suite command sets every parameter of
its suite and no other, importing the CLI loads no process pool, and the README
library tour runs against the current API."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import shiftdecomp
from shiftdecomp import DensePoly, ElementSet, MultSubgroup, TheoremViolation, cli, suites

MODULES = ["shiftdecomp"] + [f"shiftdecomp.{info.name}"
                             for info in pkgutil.iter_modules(shiftdecomp.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_function_takes_a_second_field():
    # such a function or constructor would have two sources of p that a
    # caller could set apart
    carriers = {"ElementSet": ElementSet, "MultSubgroup": MultSubgroup, "DensePoly": DensePoly}
    offenders = []
    for name in shiftdecomp.__all__:
        obj = getattr(shiftdecomp, name)
        fn = obj.__init__ if inspect.isclass(obj) else obj
        if not inspect.isfunction(fn):
            continue
        hints = typing.get_type_hints(fn, localns=carriers)
        if "ctx" in hints and any(hints.get(param) in carriers.values()
                                  for param in inspect.signature(fn).parameters):
            offenders.append(name)
    assert offenders == []


def test_sets_imports_only_errors():
    # sets is the bottom layer: bitmask set algebra that knows no field or subgroup
    source = Path(shiftdecomp.__file__).with_name("sets.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = ["shiftdecomp." + (node.module or "")] if node.level else [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        imported.update(name for name in names if name.partition(".")[0] == "shiftdecomp")
    assert imported == {"shiftdecomp.errors"}


@pytest.mark.parametrize("runner,argv", [
    ("run_stepanov_suite", ("stepanov", "audit")),
    ("run_identity_suite", ("identities", "fuzz")),
    ("run_unity_suite", ("unity", "audit")),
])
def test_suite_command_sets_every_suite_parameter(monkeypatch, capsys, runner, argv):
    # a parameter that only tests set, or one the command forgets, fails here
    passed = {}

    def record(**kwargs):
        passed.update(kwargs)
        raise TheoremViolation("arguments recorded")

    monkeypatch.setattr(cli, runner, record)
    assert cli.main(list(argv)) == cli.EXIT_VIOLATION
    assert set(passed) == set(inspect.signature(getattr(suites, runner)).parameters)


def test_cli_import_loads_no_process_pool():
    # a serial run never needs multiprocessing, so its start-up must not pay for it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = ("import sys, shiftdecomp.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
