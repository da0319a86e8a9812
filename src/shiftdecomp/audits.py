"""Exhaustive theorem audits over ranges of primes and subgroups.

Every audited claim is quantified first over a proper subgroup G of F_p^*, so
an audit expands into a canonically ordered list of independent tasks, one per
(p, |G|).  A task builds its field and subgroup once and returns that
subgroup's records in canonical order: one per shift lambda, per shifted coset
(variant, xi, mu), or the single record of G itself.  Every target is one
affine image of G, built by ``build_target``.  Workers are stateless,
so records are deterministic for a fixed configuration regardless of worker
count.  An audit streams its records task by task; once the last is out,
unexpected witnesses raise one TheoremViolation carrying every offending record.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from contextlib import ExitStack
from enum import Enum
from math import isqrt

from .errors import InternalMismatchError, TheoremViolation, ZeroScaleError
from .field import (
    MultSubgroup,
    is_prime,
    make_field,
    proper_orders,
    subgroup_of_order,
)
from .search import (
    canonical_product_witness,
    factorization_oracle,
    find_difference_representations,
    find_exact_factorizations,
    find_ratio_representations,
    max_difference_clique,
    scale_product_report,
)
from .sets import ElementSet, SetOp

__all__ = [
    "AuditKind",
    "build_target",
    "primes_in_range",
    "audit_theorems",
    "reproduce_counterexamples",
]

ORACLE_MAX = 31


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


def _coset_representatives(subgroup: MultSubgroup) -> list[int]:
    """Smallest element of each coset of the subgroup, ascending.

    G is every index-th power of the primitive root, so the coset g^i G is
    the slice power_table[i::index] of the discrete-log table.
    """
    powers = subgroup.ctx.power_table
    index = len(powers) // subgroup.order
    return sorted(min(powers[i::index]) for i in range(index))


def _build_tasks(kind: AuditKind, p_min: int, p_max: int,
                 orders: tuple[int, ...] | None, oracle: bool) -> list[tuple]:
    """One task per subgroup, in canonical order: p, then subgroup order.

    A task is (kind value, p, subgroup order, oracle) and yields every record
    of that subgroup; the Paley clique audit has the one order (p - 1) / 2 per
    prime p = 1 mod 4.
    """
    tasks: list[tuple] = []
    for p in primes_in_range(p_min, p_max):
        if kind is AuditKind.PALEY_CLIQUE:
            candidates = [(p - 1) // 2] if p % 4 == 1 else []
        else:
            candidates = proper_orders(p)
        tasks.extend((kind.value, p, d, oracle) for d in candidates
                     if orders is None or d in orders)
    return tasks


def build_target(subgroup: MultSubgroup, scale: int, shift: int,
                 with_zero: bool) -> ElementSet:
    """{scale * g + shift : g in G} \\ {0}, plus shift, the image of 0, when with_zero.

    Every audited target is one such image; a scale of 0 mod p raises ZeroScaleError.
    """
    p = subgroup.ctx.p
    scale %= p
    shift %= p
    if scale == 0:
        raise ZeroScaleError("a target needs a nonzero scale")
    mask = 0
    for g in subgroup.elements:
        mask |= 1 << ((scale * g + shift) % p)
    mask &= ~1
    if with_zero:
        mask |= 1 << shift
    return ElementSet(p, mask)


def _targets(kind: AuditKind, subgroup: MultSubgroup):
    """Yield (record params, target) for each record of one subgroup, in canonical order.

    A record with no target is answered without a search: the Paley clique
    record, whose params carry the clique number, and every ratio target that
    misses 1, which no A/A can be since 1 is in A/A.  A ratio target holds 1
    exactly when mu = 1 - xi*g for some g in G, or mu = 1 with zero.
    """
    if kind in (AuditKind.SARKOZY_PRODUCT, AuditKind.LAMBDA_CENSUS):
        shifts = subgroup.elements if kind is AuditKind.SARKOZY_PRODUCT else [
            lam for lam in _coset_representatives(subgroup)
            if lam not in subgroup.elements]
        for lam in shifts:
            yield {"lambda": lam}, build_target(subgroup, 1, -lam, with_zero=False)
    elif kind is AuditKind.SHIFTED_RATIO:
        p = subgroup.ctx.p
        elements = subgroup.elements.elements()
        reps = _coset_representatives(subgroup)
        for variant, with_zero in (("xi-shift", False), ("xi-shift-with-zero", True)):
            for xi in reps:
                holds_one = {(1 - xi * g) % p for g in elements}
                if with_zero:
                    holds_one.add(1)
                for mu in range(1, p):
                    yield ({"variant": variant, "xi": xi, "mu": mu},
                           build_target(subgroup, xi, mu, with_zero=with_zero)
                           if mu in holds_one else None)
    elif kind is AuditKind.LEV_SONN_DIFFERENCE:
        yield {}, build_target(subgroup, 1, 0, with_zero=True)
    elif kind is AuditKind.KALMYNIN_SUM:
        yield {}, build_target(subgroup, 1, 0, with_zero=False)
    else:
        yield {"clique": max_difference_clique(subgroup)}, None


# kind -> searched set operation; the Paley clique audit runs no search
_SEARCH_KIND = {
    AuditKind.SARKOZY_PRODUCT: SetOp.PRODUCT,
    AuditKind.LAMBDA_CENSUS: SetOp.PRODUCT,
    AuditKind.SHIFTED_RATIO: SetOp.RATIO,
    AuditKind.LEV_SONN_DIFFERENCE: SetOp.DIFFERENCE,
    AuditKind.KALMYNIN_SUM: SetOp.SUM,
    AuditKind.PALEY_CLIQUE: None,
}


def _witnesses(report, target: ElementSet) -> list[dict]:
    """Re-validate every witness and serialize it as {"A": ...} or {"A": ..., "B": ...}."""
    out = []
    for w in report.witnesses:
        if not w.verify(target):
            raise InternalMismatchError(f"witness fails re-validation: {w}")
        out.append({"A": list(w.a)} if w.b is None else {"A": list(w.a), "B": list(w.b)})
    return out


def _cross_check_oracle(target: ElementSet, kind: SetOp, report) -> None:
    expected = factorization_oracle(target, kind)
    got = sorted((w.a, w.b) for w in report.witnesses)
    if got != expected:
        raise InternalMismatchError(
            f"search/oracle mismatch at p={target.p}, target {tuple(target)}: "
            f"{got} vs {expected}"
        )


def _search(target: ElementSet, kind: SetOp):
    if kind is SetOp.RATIO:
        return find_ratio_representations(target)
    if kind is SetOp.DIFFERENCE:
        return find_difference_representations(target)
    return find_exact_factorizations(target, kind)


def _execute_task(task: tuple) -> list[dict]:
    """Run the audit of one subgroup; must stay top-level so worker processes can load it.

    Each record times its own target build, search and checks; a record that
    ``_targets`` answers with no target (witnesses [], exhaustive, nodes 0)
    times only the record itself.  The oracle cross-checks products and sums
    for p <= ORACLE_MAX.  The Sarkozy audit
    searches only lambda = 1, the first target of G, and derives every other
    lambda in G from it with nodes 0; each record still re-validates its
    witnesses against its own target, and the oracle enumerates each one.
    """
    kind_value, p, order, oracle = task
    kind = AuditKind(kind_value)
    search_kind = _SEARCH_KIND[kind]
    cross_check = (oracle and p <= ORACLE_MAX
                   and search_kind in (SetOp.PRODUCT, SetOp.SUM))
    ctx = make_field(p)
    subgroup = subgroup_of_order(ctx, order)
    records = []
    start = time.perf_counter()
    for params, target in _targets(kind, subgroup):
        witnesses, exhaustive, nodes = [], True, 0
        if target:
            if kind is AuditKind.SARKOZY_PRODUCT and params["lambda"] != 1:
                # G - lambda = lambda * (G - 1): scale the lambda = 1 report
                report = scale_product_report(ctx, base, params["lambda"])
            else:
                report = base = _search(target, search_kind)
            if cross_check:
                _cross_check_oracle(target, search_kind, report)
            witnesses, exhaustive, nodes = (_witnesses(report, target), report.exhaustive,
                                            report.nodes)
        end = time.perf_counter()
        records.append({"task": kind_value, "p": p, "subgroup_order": order, "params": params,
                        "witnesses": witnesses, "exhaustive": exhaustive, "nodes": nodes,
                        "elapsed_ms": round((end - start) * 1000, 3)})
        start = end
    return records


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
            return f"unexpected sum factorization of the squares at p={p}, |G|={order}"
    if kind is AuditKind.PALEY_CLIQUE:
        clique = record["params"]["clique"]
        if 2 * clique * (clique - 1) > p - 3:
            return f"clique bound fails at p={p}: size {clique}"
    # LAMBDA_CENSUS reports findings without asserting expectations.
    return None


def audit_theorems(
    p_min: int,
    p_max: int,
    kind: AuditKind,
    *,
    orders: tuple[int, ...] | None = None,
    oracle: bool = False,
    workers: int = 1,
) -> Iterator[dict]:
    """Run one audit over [p_min, p_max]; yields records in canonical order.

    Records are yielded as each subgroup's task finishes and none is kept
    after it is yielded, so a serial run holds one task's records at a time
    (with a pool, also those of tasks finished ahead of it).  After the last
    record, raises one TheoremViolation if any expected-nonexistence or shape
    claim failed: ``record`` is the first offending record and ``violations``
    all of them.
    InternalMismatchError (the brute-force oracle disagrees with the search,
    or a witness fails re-validation) propagates from the task that found it.
    The pool never has more workers than there are CPUs.
    """
    tasks = _build_tasks(kind, p_min, p_max, orders, oracle)
    workers = min(workers, os.cpu_count() or 1)
    found = []
    with ExitStack() as stack:
        if workers > 1 and len(tasks) > 1:
            # imported here so that a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # a consumer that stops early waits only for the running tasks
            stack.callback(pool.shutdown, cancel_futures=True)
            per_task = pool.map(_execute_task, tasks)
        else:
            per_task = map(_execute_task, tasks)
        for task_records in per_task:
            for record in task_records:
                message = _violation(kind, record)
                if message is not None:
                    found.append((message, record))
                yield record
    if found:
        message, first = found[0]
        if len(found) > 1:
            message += f" (and {len(found) - 1} more violations)"
        raise TheoremViolation(message, record=first, violations=[r for _, r in found])


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
        census = audit_theorems(p, p, AuditKind.LAMBDA_CENSUS, orders=(order,))
        (record,) = [r for r in census if r["params"]["lambda"] == lam]
        expected = canonical_product_witness(make_field(p), a_known, b_known)
        found = [(tuple(w["A"]), tuple(w["B"])) for w in record["witnesses"]]
        if found != [expected]:
            raise TheoremViolation(
                f"counterexample reproduction failed at p={p}: expected "
                f"{expected}, found {found}", record=record)
        records.append(record)
    return records
