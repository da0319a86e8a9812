import sys
import types

import pytest

from tracer import LAYERS, Tracer, self_times


@pytest.fixture
def fake_module():
    module = types.ModuleType("fake_layer")

    def outer(x):
        return module.inner(x) + [x]

    def inner(x):
        return [x, x]

    class Thing:
        def method(self, y):
            return ("method", y)

    module.outer, module.inner, module.Thing = outer, inner, Thing
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_wrappers_return_the_value_and_restore_the_attributes(fake_module):
    originals = (fake_module.outer, fake_module.inner, fake_module.Thing.method)
    tracer = Tracer()
    tracer.install((
        ("fake.outer", ("fake_layer:outer",), None, True),
        ("fake.inner", ("fake_layer:inner",), None, True),
        ("fake.method", ("fake_layer:Thing.method",), None, True),
        ("fake.gone", ("fake_layer:absent", "no_such_module:f"), None, True),
    ))
    sentinel = object()
    assert fake_module.outer(sentinel) == [sentinel, sentinel, sentinel]
    assert fake_module.Thing().method(sentinel) == ("method", sentinel)
    assert fake_module.outer is not originals[0]
    tracer.uninstall()

    assert (fake_module.outer, fake_module.inner, fake_module.Thing.method) == originals
    assert "method" in vars(fake_module.Thing)
    assert tracer.missing == ["fake_layer:absent", "no_such_module:f"]
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0), ("fake.method", -1)]


def test_a_span_is_closed_when_the_call_raises(fake_module):
    def boom(x):
        raise ValueError(x)

    fake_module.inner = boom
    tracer = Tracer()
    tracer.install((("fake.outer", ("fake_layer:outer",), None, True),
                    ("fake.inner", ("fake_layer:inner",), None, True)))
    with pytest.raises(ValueError):
        fake_module.outer(1)
    tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["fake.outer", "fake.inner"]
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_self_time_subtracts_only_the_time_children_cover():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("a.x", 12, 18, 1),
        ("a.y", 20, 25, 1),
        ("b", 50, 90, 0),
        ("b.x", 50, 90, 4),
        ("other", 200, 210, -1),
    ]
    assert self_times(spans) == [100 - 20 - 40, 20 - 6 - 5, 6, 5, 0, 40, 10]


def test_overlapping_children_are_not_subtracted_twice():
    spans = [("root", 0, 10, -1), ("a", 2, 6, 0), ("b", 4, 8, 0)]
    assert self_times(spans)[0] == 10 - 6


def test_real_call_sites_count_every_searched_node(capsys):
    import shiftdecomp.audits as audits
    import shiftdecomp.cli as cli
    from check import parse_records

    original = audits.find_difference_representations
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        assert cli.main(["verify", "levsonn", "--pmax", "13"]) == 0
    finally:
        tracer.uninstall()
    assert audits.find_difference_representations is original
    assert tracer.missing == []
    records = parse_records(capsys.readouterr().out)
    counters = tracer.result()["counters"]
    assert counters["search.nodes"] == sum(r["nodes"] for r in records) > 0
    assert counters["audits.tasks"] == len(records)
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "audits.audit_theorems", "sets.build_target",
            "search.find_difference_representations"} <= names
