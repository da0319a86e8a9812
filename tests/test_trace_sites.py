"""Every call site that the perfbench layer trace patches still exists.

``perfbench/tracer.py`` wraps functions where their callers look them up.  A
renamed or moved function would only show up as a "missing call site" warning
in a traced benchmark run; here it fails the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [site for _, sites, _, _ in _load_tracer().LAYERS for site in sites]


def test_layers_name_sites():
    assert SITES


@pytest.mark.parametrize("site", SITES)
def test_site_resolves(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{site}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
