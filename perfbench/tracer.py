"""Outside-in layer trace: wrappers around the public functions of each module.

Every wrapper is installed where its caller looks the name up.  ``audits``,
``suites`` and ``cli`` bind their callees with ``from ... import``, so patching
only the defining module would record nothing.  Spans stay in memory as
``(name, start_ns, end_ns, parent_index)`` and are written out once, after the
invocation ends; counters are taken from arguments and return values outside
the timed interval.
"""

from __future__ import annotations

import importlib
import time

_MISSING = object()


def _count_report(counters: dict, args, result) -> None:
    counters["search.nodes"] += result.nodes
    counters["search.witnesses"] += len(result.witnesses)


def _count_subgroup(counters: dict, args, result) -> None:
    counters["field.subgroup_of_order.pairs"].add((args[0].p, args[1]))


def _count_tasks(counters: dict, args, result) -> None:
    counters["audits.tasks"] += len(result)


# (layer name, call sites "module:attribute[.attribute]", counter hook, records a span)
LAYERS = (
    ("field.make_field", ("shiftdecomp.audits:make_field", "shiftdecomp.suites:make_field"),
     None, True),
    ("field.subgroup_of_order",
     ("shiftdecomp.audits:subgroup_of_order", "shiftdecomp.suites:subgroup_of_order"),
     _count_subgroup, True),
    ("sets.build_target", ("shiftdecomp.audits:build_target",), None, True),
    ("sets.compose_sets", ("shiftdecomp.search:compose_sets",), None, True),
    ("search.find_exact_factorizations", ("shiftdecomp.audits:find_exact_factorizations",),
     _count_report, True),
    ("search.factorization_oracle", ("shiftdecomp.audits:factorization_oracle",), None, True),
    ("search.canonical_product_witness",
     ("shiftdecomp.search:canonical_product_witness",
      "shiftdecomp.audits:canonical_product_witness"), None, True),
    ("search.DecompWitness.verify", ("shiftdecomp.search:DecompWitness.verify",), None, True),
    ("search.find_ratio_representations", ("shiftdecomp.audits:find_ratio_representations",),
     _count_report, True),
    ("search.find_difference_representations",
     ("shiftdecomp.audits:find_difference_representations",), _count_report, True),
    ("search.max_difference_clique", ("shiftdecomp.audits:max_difference_clique",), None, True),
    ("audits.audit_theorems", ("shiftdecomp.cli:audit_theorems",), None, True),
    ("audits._build_tasks", ("shiftdecomp.audits:_build_tasks",), _count_tasks, False),
    ("cli.main", ("shiftdecomp.cli:main",), None, True),
    ("suites.run_stepanov_suite", ("shiftdecomp.cli:run_stepanov_suite",), None, True),
    ("suites.run_identity_suite", ("shiftdecomp.cli:run_identity_suite",), None, True),
    ("suites.run_unity_suite", ("shiftdecomp.cli:run_unity_suite",), None, True),
    ("stepanov.audit_instance", ("shiftdecomp.suites:audit_instance",), None, True),
    ("stepanov.check_gf_identity", ("shiftdecomp.suites:check_gf_identity",), None, True),
    ("stepanov.check_hp_additive_bound", ("shiftdecomp.suites:check_hp_additive_bound",),
     None, True),
    ("symfunc.roots_over_field", ("shiftdecomp.suites:roots_over_field",), None, True),
    ("unity.check_xk_product_claim", ("shiftdecomp.suites:check_xk_product_claim",), None, True),
    ("unity.classify_circle_preserving_maps",
     ("shiftdecomp.suites:classify_circle_preserving_maps",), None, True),
    ("unity.search_2x2_decomposition", ("shiftdecomp.suites:search_2x2_decomposition",),
     None, True),
)

SPAN_NAMES = tuple(name for name, _, _, spans in LAYERS if spans)
SEARCH_ENTRY_POINTS = (
    "search.find_exact_factorizations",
    "search.find_ratio_representations",
    "search.find_difference_representations",
    "search.max_difference_clique",
)
# the entry points whose SearchReport carries a node count
ENGINE_SPANS = SEARCH_ENTRY_POINTS[:3]


class Tracer:
    """Installs the layer wrappers and keeps their spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {
            "search.nodes": 0,
            "search.witnesses": 0,
            "audits.tasks": 0,
            "field.subgroup_of_order.pairs": set(),
        }
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, hook=None, span: bool = True):
        """Return ``fn`` wrapped so each call records a span under ``name``."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                hook(counters, args, result)
                return result
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Patch every call site; a site that no longer exists is noted in ``missing``."""
        for name, sites, hook, span in layers:
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(site)
                    continue
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(site)
                    continue
                self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(name, original, hook, span))

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def result(self) -> dict:
        counters = dict(self.counters)
        pairs = counters.pop("field.subgroup_of_order.pairs")
        counters["field.subgroup_of_order.distinct"] = len(pairs)
        return {"spans": self.spans, "counters": counters, "missing": self.missing}


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0
        reach = start
        for kid_start, kid_end in sorted(kids):
            kid_start = max(kid_start, reach)
            kid_end = min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        out.append(end - start - covered)
    return out
