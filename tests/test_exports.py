"""Every exported name resolves, so a removed name cannot linger in an export list."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import shiftdecomp

MODULES = ["shiftdecomp"] + [f"shiftdecomp.{info.name}"
                             for info in pkgutil.iter_modules(shiftdecomp.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
