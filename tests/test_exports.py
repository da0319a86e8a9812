"""Every exported name resolves, so a removed name cannot linger in an export list,
and the README library tour runs against the current API."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import shiftdecomp

MODULES = ["shiftdecomp"] + [f"shiftdecomp.{info.name}"
                             for info in pkgutil.iter_modules(shiftdecomp.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
