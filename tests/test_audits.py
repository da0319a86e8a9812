"""Theorem audit drivers: task enumeration, expectations, and known witnesses."""

from __future__ import annotations

import dataclasses
import math

import pytest

from shiftdecomp import (
    AuditKind,
    SetOp,
    TheoremViolation,
    audit_theorems,
    audits,
    build_target,
    find_exact_factorizations,
    make_field,
    primes_in_range,
    reproduce_counterexamples,
    subgroup_of_order,
)
from shiftdecomp.field import proper_orders

RECORD_KEYS = {
    "task",
    "p",
    "subgroup_order",
    "params",
    "witnesses",
    "exhaustive",
    "nodes",
    "elapsed_ms",
}


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]


class TestPrimesInRange:
    def test_simple_range(self):
        assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]

    def test_two_is_excluded(self):
        assert primes_in_range(2, 3) == [3]
        assert primes_in_range(0, 2) == []

    def test_empty_range(self):
        assert primes_in_range(10, 4) == []

    def test_bounds_inclusive(self):
        assert primes_in_range(5, 5) == [5]


class TestRecordContract:
    def test_field_names_and_order(self):
        recs = audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT)
        assert recs
        for r in recs:
            assert set(r) == RECORD_KEYS
            assert r["task"] == "sarkozy-product"
            assert isinstance(r["witnesses"], list)
            assert r["exhaustive"] is True
            assert r["nodes"] >= 0

    def test_elapsed_ms_is_float_milliseconds(self):
        recs = audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT)
        for r in recs:
            assert isinstance(r["elapsed_ms"], float)
            assert r["elapsed_ms"] >= 0 and round(r["elapsed_ms"], 3) == r["elapsed_ms"]

    def test_exhaustive_is_copied_from_the_search(self, monkeypatch):
        real = audits.find_exact_factorizations

        def stopped_early(target, kind):
            return dataclasses.replace(real(target, kind), exhaustive=False)

        monkeypatch.setattr(audits, "find_exact_factorizations", stopped_early)
        recs = audit_theorems(7, 7, AuditKind.SARKOZY_PRODUCT)
        # |G| = 1 has the empty target (G - 1) \ {0}, which is never searched
        assert {(r["subgroup_order"], r["exhaustive"]) for r in recs} == {
            (1, True), (2, False), (3, False)}

    def test_one_product_search_per_subgroup(self, monkeypatch):
        searched = []
        real = audits.find_exact_factorizations

        def counted(target, kind):
            searched.append((target.p, target))
            return real(target, kind)

        monkeypatch.setattr(audits, "find_exact_factorizations", counted)
        recs = audit_theorems(3, 31, AuditKind.SARKOZY_PRODUCT)
        # |G| = 1 has the empty target (G - 1) \ {0}, which is never searched
        assert searched == [
            (p, build_target(subgroup_of_order(make_field(p), d), 1, -1, with_zero=False))
            for p in primes_in_range(3, 31) for d in proper_orders(p) if d > 1]
        assert all((r["nodes"] > 0) == (r["params"]["lambda"] == 1 and r["subgroup_order"] > 1)
                   for r in recs)
        assert len(recs) > 3 * len(searched)

    def test_canonical_task_ordering(self):
        recs = audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT)
        keys = [(r["p"], r["subgroup_order"], sorted(r["params"].items())) for r in recs]
        assert keys == sorted(keys)

    def test_orders_filter(self):
        recs = audit_theorems(3, 31, AuditKind.SARKOZY_PRODUCT, orders=(2,))
        assert recs
        assert {r["subgroup_order"] for r in recs} == {2}

    def test_empty_prime_range(self):
        assert audit_theorems(4, 4, AuditKind.SARKOZY_PRODUCT) == []

    def test_worker_count_does_not_change_results(self):
        serial = audit_theorems(3, 23, AuditKind.SARKOZY_PRODUCT)
        parallel = audit_theorems(3, 23, AuditKind.SARKOZY_PRODUCT, workers=2)
        assert strip_timing(serial) == strip_timing(parallel)

    def test_worker_count_is_capped_at_cpu_count(self, monkeypatch):
        created = []

        class SerialPool:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(audits.os, "cpu_count", lambda: 3)
        capped = audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT, workers=10_000)
        assert created == [3]
        serial = audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT)
        assert strip_timing(capped) == strip_timing(serial)
        # an unknown CPU count means one worker, so no pool at all
        monkeypatch.setattr(audits.os, "cpu_count", lambda: None)
        audit_theorems(3, 13, AuditKind.SARKOZY_PRODUCT, workers=10_000)
        assert created == [3]


class TestTasks:
    def test_one_task_per_subgroup(self):
        tasks = audits._build_tasks(AuditKind.SHIFTED_RATIO, 3, 31, None, False)
        assert tasks == [("shifted-ratio", p, d, False)
                         for p in primes_in_range(3, 31) for d in proper_orders(p)]
        tasks = audits._build_tasks(AuditKind.PALEY_CLIQUE, 3, 31, None, True)
        assert tasks == [("paley-clique", p, (p - 1) // 2, True) for p in (5, 13, 17, 29)]

    def test_each_task_builds_its_field_and_subgroup_once(self, monkeypatch):
        fields, subgroups = [], []
        make_field, subgroup_of_order = audits.make_field, audits.subgroup_of_order

        def counted_field(p):
            fields.append(p)
            return make_field(p)

        def counted_subgroup(ctx, order):
            subgroups.append((ctx.p, order))
            return subgroup_of_order(ctx, order)

        monkeypatch.setattr(audits, "make_field", counted_field)
        monkeypatch.setattr(audits, "subgroup_of_order", counted_subgroup)
        tasks = audits._build_tasks(AuditKind.SHIFTED_RATIO, 3, 31, None, False)
        assert fields == subgroups == []
        recs = audit_theorems(3, 31, AuditKind.SHIFTED_RATIO)
        assert subgroups == [(p, d) for _, p, d, _ in tasks]
        assert fields == [p for _, p, _, _ in tasks]
        assert len(recs) > 10 * len(tasks)


class TestProductAudit:
    def test_no_witnesses_with_oracle(self):
        recs = audit_theorems(3, 23, AuditKind.SARKOZY_PRODUCT, oracle=True)
        assert all(r["witnesses"] == [] for r in recs)

    def test_lambda_ranges_over_subgroup(self):
        recs = audit_theorems(11, 11, AuditKind.SARKOZY_PRODUCT)
        by_order = {}
        for r in recs:
            by_order.setdefault(r["subgroup_order"], set()).add(r["params"]["lambda"])
        assert by_order[5] == {1, 3, 4, 5, 9}
        assert by_order[2] == {1, 10}

    def test_derived_records_match_direct_searches(self):
        # beyond the oracle range, search every lambda in G directly
        recs = audit_theorems(29, 41, AuditKind.SARKOZY_PRODUCT)
        base_nodes = {(r["p"], r["subgroup_order"]): r["nodes"]
                      for r in recs if r["params"]["lambda"] == 1}
        for r in recs:
            p, order, lam = r["p"], r["subgroup_order"], r["params"]["lambda"]
            target = build_target(subgroup_of_order(make_field(p), order), 1, -lam,
                                  with_zero=False)
            if not target:
                assert (order, r["witnesses"], r["nodes"]) == (1, [], 0)
                continue
            report = find_exact_factorizations(target, SetOp.PRODUCT)
            assert r["witnesses"] == [{"A": list(w.a), "B": list(w.b)}
                                      for w in report.witnesses]
            assert r["exhaustive"] == report.exhaustive
            assert report.nodes == base_nodes[p, order]
        assert len(recs) == sum(sum(proper_orders(p)) for p in primes_in_range(29, 41))


class TestCensus:
    def test_exactly_the_known_witnesses(self):
        recs = audit_theorems(3, 19, AuditKind.LAMBDA_CENSUS)
        found = [
            (r["p"], r["subgroup_order"], w["A"], w["B"])
            for r in recs
            for w in r["witnesses"]
        ]
        assert found == [
            (11, 5, [1, 2, 3], [1, 7]),
            (19, 6, [5, 9], [1, 2, 7]),
        ]

    def test_one_representative_per_nontrivial_coset(self):
        recs = audit_theorems(11, 11, AuditKind.LAMBDA_CENSUS)
        by_order = {}
        for r in recs:
            by_order.setdefault(r["subgroup_order"], []).append(r["params"]["lambda"])
        # order-5 subgroup has index 2: a single coset outside G, smallest element 2
        assert by_order[5] == [2]
        # order-2 subgroup {1,10} has four outside cosets
        assert by_order[2] == [2, 3, 4, 5]


class TestRatioAudit:
    def test_exceptions_only_at_tiny_orders(self):
        recs = audit_theorems(3, 13, AuditKind.SHIFTED_RATIO)
        assert all(
            r["witnesses"] == [] for r in recs if r["subgroup_order"] >= 3
        )
        hit_orders = {r["subgroup_order"] for r in recs if r["witnesses"]}
        assert hit_orders == {1, 2}

    def test_known_order_two_exceptions_mod_7(self):
        recs = audit_theorems(7, 7, AuditKind.SHIFTED_RATIO)
        hits = {
            (
                r["params"]["variant"],
                r["params"]["xi"],
                r["params"]["mu"],
                tuple(tuple(w["A"]) for w in r["witnesses"]),
            )
            for r in recs
            if r["subgroup_order"] == 2 and r["witnesses"]
        }
        assert ("xi-shift", 3, 4, ((1,),)) in hits
        assert ("xi-shift-with-zero", 2, 3, ((1, 3), (1, 5))) in hits

    def test_both_variants_always_audited(self):
        recs = audit_theorems(7, 7, AuditKind.SHIFTED_RATIO)
        variants = {r["params"]["variant"] for r in recs}
        assert variants == {"xi-shift", "xi-shift-with-zero"}


class TestDifferenceAudit:
    def test_witnesses_only_at_orders_two_and_six(self):
        recs = audit_theorems(3, 31, AuditKind.LEV_SONN_DIFFERENCE)
        hit_orders = {r["subgroup_order"] for r in recs if r["witnesses"]}
        assert hit_orders == {2, 6}

    def test_order_two_always_finds_zero_one(self):
        recs = audit_theorems(3, 31, AuditKind.LEV_SONN_DIFFERENCE)
        for r in recs:
            if r["subgroup_order"] == 2:
                assert {"A": [0, 1]} in r["witnesses"]


class TestSumAudit:
    def test_witness_shapes_are_square_roots(self):
        recs = audit_theorems(3, 31, AuditKind.KALMYNIN_SUM)
        hit = 0
        for r in recs:
            root = math.isqrt(r["subgroup_order"])
            for w in r["witnesses"]:
                hit += 1
                assert root * root == r["subgroup_order"]
                assert len(w["A"]) == len(w["B"]) == root
        assert hit > 0

    def test_full_residue_subgroup_never_decomposes(self):
        recs = audit_theorems(3, 31, AuditKind.KALMYNIN_SUM)
        for r in recs:
            if r["subgroup_order"] == (r["p"] - 1) // 2:
                assert r["witnesses"] == []

    def test_order_four_mod_13_count(self):
        recs = audit_theorems(13, 13, AuditKind.KALMYNIN_SUM)
        by_order = {r["subgroup_order"]: r["witnesses"] for r in recs}
        assert len(by_order[4]) == 13


class TestCliqueAudit:
    def test_clean_below_41(self):
        recs = audit_theorems(17, 37, AuditKind.PALEY_CLIQUE)
        cliques = {r["p"]: r["params"]["clique"] for r in recs}
        assert cliques == {17: 3, 29: 4, 37: 4}

    def test_skips_primes_not_one_mod_four(self):
        recs = audit_theorems(17, 37, AuditKind.PALEY_CLIQUE)
        assert {r["p"] for r in recs} == {17, 29, 37}

    def test_bound_violation_at_41(self):
        with pytest.raises(TheoremViolation) as exc_info:
            audit_theorems(41, 41, AuditKind.PALEY_CLIQUE)
        record = exc_info.value.record
        assert record["p"] == 41
        assert record["params"]["clique"] == 5
        # 2k(k-1) = 40 exceeds p - 3 = 38: the claimed bound genuinely fails here
        k = record["params"]["clique"]
        assert 2 * k * (k - 1) > 41 - 3


class TestSearchWork:
    """The summed ``nodes`` of the factorization audits over 3..23.

    Node counts are deterministic, so they pin the work the cover engine
    does.  A change to its pruning or branching order that moves them must
    update these figures on purpose and log the old and new totals.  The
    product audit searches lambda = 1 once per subgroup; the other lambda in G
    are derived and count 0 nodes.  The case ids name the audit, not the
    figure, so re-pinning a count keeps the test's name.
    """

    @pytest.mark.parametrize(
        "kind,nodes",
        [
            pytest.param(AuditKind.SARKOZY_PRODUCT, 120, id="sarkozy-product"),
            pytest.param(AuditKind.KALMYNIN_SUM, 200, id="kalmynin-sum"),
        ],
    )
    def test_summed_nodes(self, kind, nodes):
        recs = audit_theorems(3, 23, kind)
        assert sum(r["nodes"] for r in recs) == nodes


class TestViolationReport:
    @staticmethod
    def clique_record(p, clique):
        return {"task": "paley-clique", "p": p, "subgroup_order": (p - 1) // 2,
                "params": {"clique": clique}, "witnesses": [], "exhaustive": True,
                "nodes": 0, "elapsed_ms": 0}

    def test_every_violation_is_reported(self):
        # 2k(k-1) <= p - 3 fails for (13, 3) and (41, 5) and holds for (37, 4)
        records = [self.clique_record(13, 3), self.clique_record(37, 4),
                   self.clique_record(41, 5)]
        with pytest.raises(TheoremViolation) as exc_info:
            audits._assert_expectations(AuditKind.PALEY_CLIQUE, records)
        exc = exc_info.value
        assert exc.record is records[0]
        assert exc.violations == [records[0], records[2]]
        assert exc.records == records
        assert "p=13" in str(exc) and "1 more" in str(exc)

    def test_clean_records_raise_nothing(self):
        audits._assert_expectations(AuditKind.PALEY_CLIQUE, [self.clique_record(37, 4)])


class TestReproduce:
    def test_exact_counterexamples(self):
        recs = reproduce_counterexamples()
        assert [
            (r["p"], r["subgroup_order"], r["params"]["lambda"], r["witnesses"])
            for r in recs
        ] == [
            (11, 5, 2, [{"A": [1, 2, 3], "B": [1, 7]}]),
            (19, 6, 2, [{"A": [5, 9], "B": [1, 2, 7]}]),
        ]

    def test_record_contract(self):
        recs = reproduce_counterexamples()
        for r in recs:
            assert set(r) == RECORD_KEYS
            assert r["exhaustive"] is True
            assert r["nodes"] > 0
