"""Exhaustive theorem audits over ranges of primes and subgroups.

Each audit expands into a canonically ordered list of independent tasks
(p, subgroup order, parameters), runs the relevant exact search per task, and
checks the expected outcome over the merged records.  Workers are stateless,
so records are deterministic for a fixed configuration regardless of worker
count; unexpected witnesses raise one TheoremViolation carrying every record.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from enum import Enum
from math import isqrt

from .errors import InternalMismatchError, TheoremViolation
from .field import (
    FieldContext,
    MultSubgroup,
    is_prime,
    make_field,
    proper_orders,
    subgroup_of_order,
)
from .search import (
    DecompKind,
    canonical_product_witness,
    factorization_oracle,
    find_difference_representations,
    find_exact_factorizations,
    find_ratio_representations,
    max_difference_clique,
)
from .sets import ElementSet, TargetVariant, build_target

__all__ = [
    "AuditKind",
    "primes_in_range",
    "audit_theorems",
    "reproduce_counterexamples",
]

ORACLE_MAX = 23


class AuditKind(Enum):
    """The audited claims, named by the structure they constrain."""

    SARKOZY_PRODUCT = "sarkozy-product"
    SHIFTED_RATIO = "shifted-ratio"
    LEV_SONN_DIFFERENCE = "lev-sonn-difference"
    KALMYNIN_SUM = "kalmynin-sum"
    PALEY_CLIQUE = "paley-clique"
    LAMBDA_CENSUS = "lambda-census"


def primes_in_range(p_min: int, p_max: int) -> list[int]:
    """Odd primes p with p_min <= p <= p_max, ascending."""
    start = max(3, p_min)
    return [p for p in range(start | 1, p_max + 1, 2) if is_prime(p)]


def _coset_representatives(ctx: FieldContext, subgroup: MultSubgroup) -> list[int]:
    """Smallest element of each coset of the subgroup, ascending."""
    p = ctx.p
    seen = 0
    reps = []
    for x in range(1, p):
        if not (seen >> x) & 1:
            reps.append(x)
            for g in subgroup.elements:
                seen |= 1 << (x * g % p)
    return reps


def _build_tasks(
    kind: AuditKind,
    p_min: int,
    p_max: int,
    orders: tuple[int, ...] | None,
    oracle: bool,
) -> list[tuple]:
    """Tasks in canonical order: p, then subgroup order, then parameters.

    A task is (kind value, p, subgroup order, record params, oracle); the
    Paley clique audit has the one order (p - 1) / 2 per prime p = 1 mod 4.
    """
    tasks: list[tuple] = []
    for p in primes_in_range(p_min, p_max):
        if kind is AuditKind.PALEY_CLIQUE:
            d = (p - 1) // 2
            if p % 4 == 1 and (orders is None or d in orders):
                tasks.append((kind.value, p, d, {}, oracle))
            continue
        ctx = make_field(p)
        for d in proper_orders(p):
            if orders is not None and d not in orders:
                continue
            subgroup = subgroup_of_order(ctx, d)
            if kind is AuditKind.SARKOZY_PRODUCT:
                params = [{"lambda": lam} for lam in subgroup.elements]
            elif kind is AuditKind.LAMBDA_CENSUS:
                params = [{"lambda": lam} for lam in _coset_representatives(ctx, subgroup)
                          if lam not in subgroup.elements]
            elif kind is AuditKind.SHIFTED_RATIO:
                reps = _coset_representatives(ctx, subgroup)
                params = [{"variant": variant.value, "xi": xi, "mu": mu}
                          for variant in (TargetVariant.XI_SHIFT, TargetVariant.XI_SHIFT_WITH_ZERO)
                          for xi in reps for mu in range(1, p)]
            else:
                params = [{}]
            tasks.extend((kind.value, p, d, param, oracle) for param in params)
    return tasks


# kind -> (target variant, search kind, largest p cross-checked by the oracle).
# Ratio tasks name their variant in their params; a None variant means the
# target is G itself, and a None search means the task is the clique number.
_TASK_TABLE = {
    AuditKind.SARKOZY_PRODUCT: (TargetVariant.SHIFT_MINUS_LAMBDA, DecompKind.PRODUCT, ORACLE_MAX),
    AuditKind.LAMBDA_CENSUS: (TargetVariant.SHIFT_MINUS_LAMBDA, DecompKind.PRODUCT, ORACLE_MAX),
    AuditKind.SHIFTED_RATIO: (None, DecompKind.RATIO_REP, 0),
    AuditKind.LEV_SONN_DIFFERENCE: (TargetVariant.G_UNION_ZERO, DecompKind.DIFF_REP, 0),
    AuditKind.KALMYNIN_SUM: (None, DecompKind.SUM, ORACLE_MAX),
    AuditKind.PALEY_CLIQUE: (None, None, 0),
}


def _witnesses(report, target: ElementSet) -> list[dict]:
    """Re-validate every witness and serialize it as {"A": ...} or {"A": ..., "B": ...}."""
    out = []
    for w in report.witnesses:
        if not w.verify(target):
            raise InternalMismatchError(f"witness fails re-validation: {w}")
        out.append({"A": list(w.a)} if w.b is None else {"A": list(w.a), "B": list(w.b)})
    return out


def _cross_check_oracle(ctx, target, kind: DecompKind, report) -> None:
    expected = factorization_oracle(ctx, target, kind)
    got = sorted((w.a, w.b) for w in report.witnesses)
    if got != expected:
        raise InternalMismatchError(
            f"search/oracle mismatch at p={ctx.p}, target {tuple(target)}: "
            f"{got} vs {expected}"
        )


def _search(ctx: FieldContext, target: ElementSet, kind: DecompKind):
    if kind is DecompKind.RATIO_REP:
        return find_ratio_representations(ctx, target)
    if kind is DecompKind.DIFF_REP:
        return find_difference_representations(ctx, target)
    return find_exact_factorizations(ctx, target, kind)


def _execute_task(task: tuple) -> dict:
    """Run one audit task; must stay top-level so worker processes can load it."""
    kind_value, p, order, params, oracle = task
    variant, search_kind, oracle_max = _TASK_TABLE[AuditKind(kind_value)]
    ctx = make_field(p)
    start = time.perf_counter()
    subgroup = subgroup_of_order(ctx, order)
    witnesses, nodes = [], 0
    if search_kind is None:
        params = {"clique": max_difference_clique(ctx, subgroup)}
    else:
        variant = params.get("variant", variant)
        if variant is None:
            target = subgroup.elements
        else:
            target = build_target(subgroup, TargetVariant(variant), lam=params.get("lambda"),
                                  xi=params.get("xi"), mu=params.get("mu"))
        if target:
            report = _search(ctx, target, search_kind)
            if oracle and p <= oracle_max:
                _cross_check_oracle(ctx, target, search_kind, report)
            witnesses, nodes = _witnesses(report, target), report.nodes
    return {
        "task": kind_value,
        "p": p,
        "subgroup_order": order,
        "params": params,
        "witnesses": witnesses,
        "exhaustive": True,
        "nodes": nodes,
        "elapsed_ms": int((time.perf_counter() - start) * 1000),
    }


def _violation(kind: AuditKind, record: dict) -> str | None:
    """Why a record breaks the audited claim, or None when it does not."""
    p = record["p"]
    order = record["subgroup_order"]
    witnesses = record["witnesses"]
    if kind is AuditKind.SARKOZY_PRODUCT and witnesses:
        return (f"unexpected product factorization at p={p}, |G|={order}, "
                f"lambda={record['params']['lambda']}")
    if kind is AuditKind.SHIFTED_RATIO and order >= 3 and witnesses:
        return (f"unexpected ratio representation at p={p}, |G|={order}, "
                f"params={record['params']}")
    if kind is AuditKind.LEV_SONN_DIFFERENCE and order not in (2, 6) and witnesses:
        return f"unexpected difference representation at p={p}, |G|={order}"
    if kind is AuditKind.KALMYNIN_SUM:
        root = isqrt(order)
        for witness in witnesses:
            if root * root != order or len(witness["A"]) != root or len(witness["B"]) != root:
                return f"sum factorization with non-square shape at p={p}, |G|={order}: {witness}"
        if order == (p - 1) // 2 and witnesses:
            return f"unexpected sum factorization of the squares at p={p}"
    if kind is AuditKind.PALEY_CLIQUE:
        clique = record["params"]["clique"]
        if 2 * clique * (clique - 1) > p - 3:
            return f"clique bound fails at p={p}: size {clique}"
    # LAMBDA_CENSUS reports findings without asserting expectations.
    return None


def _assert_expectations(kind: AuditKind, records: list[dict]) -> None:
    """Check every theorem-level prediction over the merged records.

    All violations are collected into one TheoremViolation: ``record`` is the
    first violating record, ``violations`` all of them and ``records`` every
    record checked.
    """
    found = [(msg, r) for r in records if (msg := _violation(kind, r)) is not None]
    if found:
        message, first = found[0]
        if len(found) > 1:
            message += f" (and {len(found) - 1} more violations)"
        raise TheoremViolation(message, record=first,
                               violations=[r for _, r in found], records=records)


def audit_theorems(
    p_min: int,
    p_max: int,
    kind: AuditKind,
    *,
    orders: tuple[int, ...] | None = None,
    oracle: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Run one audit over [p_min, p_max]; returns records in canonical order.

    Raises TheoremViolation (with the first offending record, every offending
    record and all records attached) if any expected-nonexistence or shape
    claim fails, and InternalMismatchError if the brute-force oracle disagrees
    with the search.  The pool never has more workers than there are CPUs.
    """
    tasks = _build_tasks(kind, p_min, p_max, orders, oracle)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_execute_task, tasks, chunksize=16))
    else:
        records = [_execute_task(task) for task in tasks]
    _assert_expectations(kind, records)
    return records


KNOWN_COUNTEREXAMPLES = (
    (11, 5, 2, (1, 7), (1, 2, 3)),
    (19, 6, 2, (1, 9), (6, 9, 18)),
)


def reproduce_counterexamples() -> list[dict]:
    """Re-discover the two known shifted-subgroup product factorizations.

    For each of the two known instances, runs the full exhaustive product
    search on (G - lambda) \\ {0} and checks the result is exactly the known
    pair up to canonical scaling.  Any difference raises TheoremViolation.
    """
    records = []
    for p, order, lam, a_known, b_known in KNOWN_COUNTEREXAMPLES:
        task = (AuditKind.LAMBDA_CENSUS.value, p, order, {"lambda": lam}, False)
        record = _execute_task(task)
        expected = canonical_product_witness(make_field(p), a_known, b_known)
        found = [(tuple(w["A"]), tuple(w["B"])) for w in record["witnesses"]]
        if found != [expected]:
            raise TheoremViolation(
                f"counterexample reproduction failed at p={p}: expected "
                f"{expected}, found {found}", record=record)
        records.append(record)
    return records
