"""End-to-end acceptance criteria.

Each test prints one `ACCEPTANCE <n> PASS|FAIL` line (echoed again in the
terminal summary) and pins the exact expectations and time budgets for the
full verification battery.  Budgets assume a single desk-machine core.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import conftest
import pytest

from shiftdecomp import (
    AuditKind,
    TheoremViolation,
    audit_theorems,
    canonical_product_witness,
    cli,
    make_field,
    max_difference_clique,
    reproduce_counterexamples,
    subgroup_of_order,
)


def _finish(idx: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {idx} {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def test_criterion_1_counterexample_reproduction():
    budget = 1.0
    start = time.perf_counter()
    records = reproduce_counterexamples()
    elapsed = time.perf_counter() - start

    expected = []
    for p, order, lam, a, b in ((11, 5, 2, (1, 7), (1, 2, 3)), (19, 6, 2, (1, 9), (6, 9, 18))):
        ca, cb = canonical_product_witness(make_field(p), a, b)
        expected.append((p, order, lam, [{"A": list(ca), "B": list(cb)}]))
    emitted = [
        (r["p"], r["subgroup_order"], r["params"]["lambda"], r["witnesses"])
        for r in records
    ]
    ok = emitted == expected and elapsed < budget
    _finish(1, ok, f"2 witnesses in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_2_product_audit():
    budget = 300.0
    start = time.perf_counter()
    records = audit_theorems(3, 61, AuditKind.SARKOZY_PRODUCT, oracle=True)
    elapsed = time.perf_counter() - start

    clean = all(r["witnesses"] == [] and r["exhaustive"] for r in records)
    ok = bool(records) and clean and elapsed < budget
    _finish(
        2,
        ok,
        f"{len(records)} (p, G, lambda) tasks, 0 witnesses, oracle-checked "
        f"p<=31, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_criterion_3_ratio_audit():
    budget = 300.0
    start = time.perf_counter()
    records = audit_theorems(3, 31, AuditKind.SHIFTED_RATIO)
    elapsed = time.perf_counter() - start

    big_clean = all(
        r["witnesses"] == [] for r in records if r["subgroup_order"] >= 3
    )
    hit_orders = {r["subgroup_order"] for r in records if r["witnesses"]}
    variants = {r["params"]["variant"] for r in records}
    ok = (
        bool(records)
        and big_clean
        and hit_orders == {1, 2}
        and variants == {"xi-shift", "xi-shift-with-zero"}
        and elapsed < budget
    )
    _finish(
        3,
        ok,
        f"{len(records)} tasks, no witnesses at |G|>=3, exceptions at "
        f"|G| in {sorted(hit_orders)}, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_criterion_4_difference_audit():
    budget = 120.0
    start = time.perf_counter()
    records = audit_theorems(3, 61, AuditKind.LEV_SONN_DIFFERENCE)
    elapsed = time.perf_counter() - start

    outside_clean = all(
        r["witnesses"] == []
        for r in records
        if r["subgroup_order"] not in (2, 6)
    )
    order_two = [r for r in records if r["subgroup_order"] == 2]
    zero_one_found = bool(order_two) and all(
        {"A": [0, 1]} in r["witnesses"] for r in order_two
    )
    ok = bool(records) and outside_clean and zero_one_found and elapsed < budget
    _finish(
        4,
        ok,
        f"{len(records)} tasks, witnesses confined to |G| in {{2, 6}}, "
        f"A={{0,1}} found at |G|=2, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_criterion_5_sum_audit():
    budget = 180.0
    start = time.perf_counter()
    records = audit_theorems(3, 61, AuditKind.KALMYNIN_SUM, oracle=True)
    elapsed = time.perf_counter() - start

    shapes_ok = True
    witness_count = 0
    for r in records:
        root = math.isqrt(r["subgroup_order"])
        for w in r["witnesses"]:
            witness_count += 1
            if root * root != r["subgroup_order"]:
                shapes_ok = False
            if len(w["A"]) != root or len(w["B"]) != root:
                shapes_ok = False
    full_residue_clean = all(
        r["witnesses"] == []
        for r in records
        if r["subgroup_order"] == (r["p"] - 1) // 2
    )
    ok = (
        bool(records)
        and witness_count > 0
        and shapes_ok
        and full_residue_clean
        and elapsed < budget
    )
    _finish(
        5,
        ok,
        f"{witness_count} witnesses, all sqrt-shaped, none for the full "
        f"residue subgroup, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_criterion_6_clique_bound():
    # The audited claim 2k(k-1) <= p - 3 is false at p = 41, so the audit must
    # refute it there, and only there, in 17..101.  The clique number k = 5 at
    # p = 41 is proved by hand below rather than taken from the engine.
    budget = 120.0
    start = time.perf_counter()
    paley17 = max_difference_clique(subgroup_of_order(make_field(17), 8))
    with pytest.raises(TheoremViolation) as refutation:
        audit_theorems(17, 101, AuditKind.PALEY_CLIQUE)
    violation = refutation.value.record
    below = audit_theorems(17, 40, AuditKind.PALEY_CLIQUE)
    above = audit_theorems(42, 101, AuditKind.PALEY_CLIQUE)
    elapsed = time.perf_counter() - start
    records = below + [violation] + above

    # Lower bound: every pairwise difference of {0, 1, 2, 10, 33} is a square
    # mod 41 by Euler's criterion.  Upper bound: Hanson-Petridis,
    # 2k(k-1) <= p - 1, gives k <= (1 + sqrt(2p - 1)) / 2 = (1 + 9) / 2 = 5.
    p = 41
    clique41 = (0, 1, 2, 10, 33)
    is_clique = all(pow((a - b) % p, (p - 1) // 2, p) == 1
                    for a in clique41 for b in clique41 if a != b)
    hp_max = (1 + math.isqrt(2 * p - 1)) // 2

    expected_primes = [
        q for q in range(17, 102)
        if q % 4 == 1 and all(q % d for d in range(2, math.isqrt(q) + 1))
    ]

    def hp_lhs(record: dict) -> int:
        k = record["params"]["clique"]
        return 2 * k * (k - 1)

    ok = (
        paley17 == 3
        and is_clique
        and len(clique41) == hp_max == 5
        and violation["p"] == 41
        and violation["params"]["clique"] == 5
        and [r["p"] for r in records] == expected_primes
        and all(hp_lhs(r) <= r["p"] - 3 for r in below + above)
        and all(hp_lhs(r) <= r["p"] - 1 for r in records)
        and elapsed < budget
    )
    _finish(
        6,
        ok,
        f"refuted only at p = {violation['p']}: clique {violation['params']['clique']}, "
        f"2k(k-1) = {hp_lhs(violation)} > {violation['p'] - 3} = p - 3; "
        f"{len(records)} primes, paley-17 clique = {paley17}, in {elapsed:.1f}s",
    )


def _suite_record(*argv: str) -> tuple[int, dict]:
    """Exit code and the one record of a suite command at its default settings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    (record,) = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, record


def test_criterion_7_stepanov_suite():
    start = time.perf_counter()
    code, record = _suite_record("stepanov", "audit")
    elapsed = time.perf_counter() - start

    # passed also requires the flagship instance to be tight
    ok = (
        code == 0
        and record["instances"] == 1000
        and record["additive_checked"] == 200
        and record["anomalies"] == 0
        and record["additive_failures"] == 0
        and record["general_equalities"] > 0
        and record["shifted_equalities"] > 0
        and record["flagship_degree"] == 6
        and record["passed"]
    )
    _finish(
        7,
        ok,
        f"1000 instances ({record['lam_in_g_instances']} with the shift inside G, "
        f"{record['general_equalities']}+{record['shifted_equalities']} equality "
        f"factorizations), flagship degree {record['flagship_degree']}, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_8_identity_suite():
    start = time.perf_counter()
    code, record = _suite_record("identities", "fuzz")
    elapsed = time.perf_counter() - start

    ok = (
        code == 0
        and (record["gf_checked"], record["newton_checked"]) == (500, 500)
        and (record["derivative_checked"], record["harmonic_checked"]) == (200, 200)
        and record["failures"] == 0
        and record["passed"]
    )
    _finish(
        8,
        ok,
        f"500+500+200+200 exact identity checks, {record['failures']} failures, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_9_unity_suite():
    budget = 120.0
    start = time.perf_counter()
    code, record = _suite_record("unity", "audit")
    elapsed = time.perf_counter() - start

    ok = (
        code == 0
        and record["claim_orders_checked"] == 98
        and record["claim_failures"] == []
        and record["decomposition_orders_checked"] == 48
        and record["decomposition_witnesses"] == 0
        and record["classified_orders"] == [3, 4, 5, 6, 7, 8]
        and record["passed"]
        and elapsed < budget
    )
    _finish(
        9,
        ok,
        f"orders 3..100 product-distinctness, 3..50 grid search empty, "
        f"3..8 map census 2m-complete, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )
