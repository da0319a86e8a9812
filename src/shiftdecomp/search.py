"""Exhaustive decomposition searches over subsets of F_p.

Product and sum factorization share one cover-by-translates engine over Z_n:
A + B = T on Z_p for sums, and the same search on discrete logs (n = p - 1)
for products, where scaling becomes a cyclic shift of the membership mask.
The engine is seeded with 0 in B, since (A + t, B - t) solves whenever
(A, B) does; sums list every translate again, products keep the
scaling-canonical witness.  It branches like an exact-cover search: while
A + B misses part of T, it picks the missing element with the fewest usable
shifts and tries each of them, dropping the earlier ones from later branches,
so every B is listed exactly once.  A branch stops when A + B together with
every still-usable translate of A cannot cover T.
Representation searches share one difference-set engine over Z_n: A - A = T
is a Bron-Kerbosch enumeration of the maximal cliques of the difference graph
of T, A/A = T is the same search on discrete logs (n = p - 1), and the
difference-clique maximum is the largest maximal clique of the graph of
G union {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import MissingZeroError, ZeroElementError, ZeroInTargetError
from .field import FieldContext, MultSubgroup, make_field
from .sets import ElementSet, SetOp, compose_sets, mask_elements


@dataclass(frozen=True)
class DecompWitness:
    """A verified (A, B) factorization or a single representing set A."""

    p: int
    kind: SetOp
    a: tuple[int, ...]
    b: tuple[int, ...] | None = None

    def verify(self, target: ElementSet) -> bool:
        """Recompute A op B, or A op A for a single set, and compare with the target."""
        first = ElementSet.from_elements(self.p, self.a)
        second = first if self.b is None else ElementSet.from_elements(self.p, self.b)
        return compose_sets(first, second, self.kind) == target


@dataclass(frozen=True)
class SearchReport:
    """Every canonical witness of one search, whether it ran to completion, its node count."""

    witnesses: tuple[DecompWitness, ...]
    exhaustive: bool
    nodes: int


def _rotate(mask: int, shift: int, modulus: int, full: int) -> int:
    # cyclic left shift: bit i moves to bit (i + shift) mod modulus
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (modulus - shift))) & full


def canonical_product_witness(
    ctx: FieldContext, a_elems: Iterable[int], b_elems: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normal form of an unordered factorization {A, B}.

    Every solution (A, B) is equivalent to (cA, c^-1 B) for nonzero c, and
    products commute, so (A, B) and (B, A) are the same factorization.  For
    each ordering, each c^-1 in the second factor puts 1 into it; the witness
    form is the lexicographically least of these rescaled pairs.  A factor
    holding 0 has no such form and raises ZeroElementError.
    """
    p = ctx.p
    a = tuple(x % p for x in a_elems)
    b = tuple(x % p for x in b_elems)
    if not a or not b:
        raise ValueError("cannot normalize an empty factor")
    if 0 in a or 0 in b:
        raise ZeroElementError("product factors must avoid 0")
    inv = ctx.inv_table
    return min(
        (tuple(sorted(x * c % p for x in first)), tuple(sorted(x * inv[c] % p for x in second)))
        for first, second in ((a, b), (b, a))
        for c in second
    )


def _log_mask(ctx: FieldContext, target: ElementSet) -> int:
    """A target avoiding 0 as the bitmask of its discrete logs over Z_(p-1)."""
    dlog = ctx.dlog_table
    mask = 0
    for x in target:
        mask |= 1 << dlog[x]
    return mask


def _fewest_options(translates: Sequence[int], missing: int) -> list[int]:
    """Indices of the translates that hold the most constrained missing element.

    Each element of ``missing`` lies in at least one translate.  The chosen
    element lies in the fewest, and among those it has the lexicographically
    least list of indices.  The rule reads only counts and indices, never the
    position of the element in Z_n, so it commutes with rotating T.
    """
    planes: list[int] = []  # planes[k] holds bit k of each element's count
    for x in translates:
        carry = x & missing
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            plane = planes[k]
            planes[k] = plane ^ carry
            carry &= plane
            k += 1
    fewest = missing
    for plane in reversed(planes):
        if fewest & ~plane:
            fewest &= ~plane
    chosen = []
    for i, x in enumerate(translates):
        if x & fewest:
            chosen.append(i)
            fewest &= x
    return chosen


def _translate_cover(
    n: int, tmask: int, min_size: int
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Every (A, B) over Z_n with A + B = T, 0 in B and |A|, |B| >= min_size.

    T is the bitmask ``tmask`` and A is the maximal set for its B, the
    intersection of the T - b.  A + B = T is invariant under
    (A, B) -> (A + t, B - t), so seeding 0 into B loses nothing up to
    translation.  The shifts s whose T & (T - s) keeps min_size elements form
    the pool, fewest first (ties by s); B is listed in the order it grew.

    A node's usable shifts are the pool shifts that keep min_size elements of
    A & (T - s).  Below the node A only shrinks and B only gains usable
    shifts, so every sumset there lies inside A + B together with every usable
    (A & (T - s)) + s; when that union misses part of T, the subtree is cut.
    Otherwise the node branches over a list of options.  When A + B = T the
    node lists (A, B), and its options are all its usable shifts.  When A + B
    misses part of T, every completion must add a usable shift whose
    translate holds the missing t, so the options are those shifts for the
    missing t that has the fewest (``_fewest_options``).  Branch i adds option
    i and drops options 0..i from its pool.  A completion is reached in the
    branch of the first option it holds and in no other, so each B is listed
    exactly once.
    """
    full = (1 << n) - 1
    allowed = [_rotate(tmask, -s % n, n, full) for s in range(n)]  # T - s
    overlap = [(allowed[s] & tmask).bit_count() for s in range(n)]
    universe = sorted((s for s in range(1, n) if overlap[s] >= min_size),
                      key=lambda s: (overlap[s], s))
    results: list[tuple[int, tuple[int, ...]]] = []
    node_count = 0

    def recurse(a_mask: int, b_shifts: list[int], pool: Sequence[int]) -> None:
        nonlocal node_count
        node_count += 1
        covered = 0
        for s in b_shifts:
            covered |= _rotate(a_mask, s, n, full)
        if covered == tmask and len(b_shifts) >= min_size:
            results.append((a_mask, tuple(b_shifts)))
        usable, translates = [], []
        reach = covered
        for s in pool:
            trimmed = a_mask & allowed[s]
            if trimmed.bit_count() >= min_size:
                x = _rotate(trimmed, s, n, full)
                usable.append(s)
                translates.append(x)
                reach |= x
        if reach != tmask:
            return
        if covered == tmask:
            options: Sequence[int] = range(len(usable))
        else:
            options = _fewest_options(translates, tmask & ~covered)
        rest = usable
        for i in options:
            s = usable[i]
            rest = [u for u in rest if u != s]
            b_shifts.append(s)
            recurse(a_mask & allowed[s], b_shifts, rest)
            b_shifts.pop()

    recurse(tmask, [0], universe)
    return results, node_count


def _product_search(
    ctx: FieldContext, target: ElementSet, min_size: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Products as translates of discrete logs (n = p - 1), in canonical form."""
    raw, nodes = _translate_cover(ctx.p - 1, _log_mask(ctx, target), min_size)
    pow_table = ctx.power_table
    canon = set()
    for a_mask, b_shifts in raw:
        a_res = [pow_table[i] for i in mask_elements(a_mask)]
        b_res = [pow_table[s] for s in b_shifts]
        canon.add(canonical_product_witness(ctx, a_res, b_res))
    return sorted(canon), nodes


def _sum_search(
    target: ElementSet, min_size: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Sums over Z_p; each seeded witness stands for its p translates (A + t, B - t)."""
    p = target.p
    raw, nodes = _translate_cover(p, target.mask, min_size)
    canon = set()
    for a_mask, b_shifts in raw:
        a_elems = mask_elements(a_mask)
        for t in range(p):
            a = tuple(sorted((x + t) % p for x in a_elems))
            b = tuple(sorted((s - t) % p for s in b_shifts))
            # sumsets have no scaling symmetry; break the A/B swap symmetry only
            canon.add(tuple(sorted((a, b))))
    return sorted(canon), nodes


def find_exact_factorizations(
    target: ElementSet, kind: SetOp, min_size: int = 2
) -> SearchReport:
    """Complete canonical list of (A, B) with A op B = target and |A|,|B| >= min_size.

    The search runs in the target's own field F_p.
    """
    ctx = make_field(target.p)
    if not target:
        raise ValueError("factorization search needs a nonempty target")
    if kind is SetOp.PRODUCT:
        if 0 in target:
            raise ZeroInTargetError("product factorization target must avoid 0")
        pairs, nodes = _product_search(ctx, target, min_size)
    elif kind is SetOp.SUM:
        pairs, nodes = _sum_search(target, min_size)
    else:
        raise ValueError(f"unsupported factorization kind: {kind!r}")
    return _report(ctx.p, kind, pairs, nodes)


def _report(p: int, kind: SetOp, witnesses: list[tuple], nodes: int) -> SearchReport:
    """SearchReport for sorted (A,) or (A, B) witness tuples of a completed search."""
    return SearchReport(tuple(DecompWitness(p, kind, *w) for w in witnesses), True, nodes)


def scale_product_report(ctx: FieldContext, report: SearchReport, c: int) -> SearchReport:
    """The product report of c*T derived from that of T, with no search (nodes 0).

    A * B = T exactly when (cA) * B = cT, so the canonical witnesses of cT are
    the canonical forms of the (cA, B).
    """
    p = ctx.p
    witnesses = sorted({canonical_product_witness(ctx, [c * x % p for x in w.a], w.b)
                        for w in report.witnesses})
    return SearchReport(tuple(DecompWitness(p, SetOp.PRODUCT, *w) for w in witnesses),
                        report.exhaustive, 0)


def _intersection_walk(
    pool: Sequence[int], masks: Sequence[int], a_mask: int, min_size: int, k_lo: int, k_hi: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each combination B of ``pool``, k_lo <= |B| <= k_hi, with |A| >= min_size at every prefix.

    A is ``a_mask`` intersected with ``masks[b]`` for the b of the prefix;
    yields (B, A), depth-first in pool order.  A prefix whose A has fallen
    below min_size is never extended: a flat enumeration would reject every
    combination that starts with it at that prefix.  The walk keeps its
    frontier on one explicit stack of (next pool index, B, A), children
    pushed last first so they pop in pool order, so each pair costs one
    resumption of this generator rather than one per level of a recursion.
    """
    pool_masks = [masks[b] for b in pool]
    stack = [(0, (), a_mask)]
    last = len(pool) - 1
    while stack:
        start, combo, amask = stack.pop()
        depth = len(combo)
        if depth >= k_lo:
            yield combo, amask
        if depth < k_hi:
            for i in range(last, start - 1, -1):
                trimmed = amask & pool_masks[i]
                if trimmed.bit_count() >= min_size:
                    stack.append((i + 1, combo + (pool[i],), trimmed))


def factorization_oracle(
    target: ElementSet, kind: SetOp, min_size: int = 2
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Naive reference enumeration of the same canonical witnesses.

    B is walked depth-first over subsets of its candidates, on an explicit
    stack, A is the intersection of the T/b (products, 1 in B) or the T - b
    (sums), and each (A, B) is checked by direct arithmetic.  The walk stops
    only by the definition: a prefix of B whose A has fewer than min_size
    elements is not extended.  A only shrinks as B grows, so every
    combination below such a prefix fails too, and the walk checks exactly
    the combinations a flat enumeration would.  A pair with |A|*|B| < |T| is
    rejected by that count alone, before any arithmetic.  That is not a cut
    of the search: it prunes no subtree and reads nothing of the engine.  A
    lies inside T/b (or T - b) for every b in B, so A op B lies inside T, and
    A op B has at most |A|*|B| elements, so such a pair cannot equal T.  The
    oracle uses nothing of the engine (no discrete logs, no seeding, no cover
    cut) and is meant for p <= 31 cross-checks.  SUM stays unseeded, B
    ranging over all of Z_p, so it checks the engine's translation reduction
    independently.  Like the search, it runs in the target's own field.
    """
    ctx = make_field(target.p)
    p = ctx.p
    size = len(target)
    if size == 0:
        raise ValueError("factorization oracle needs a nonempty target")
    tset = set(target)
    found = set()
    if kind is SetOp.PRODUCT:
        if 0 in target:
            raise ZeroInTargetError("product factorization target must avoid 0")
        smask = target.mask
        inv_masks = [0] * p
        for b in range(2, p):
            binv = ctx.inv_table[b]
            for s in target:
                inv_masks[b] |= 1 << (s * binv % p)
        universe = [b for b in range(2, p) if (inv_masks[b] & smask).bit_count() >= min_size]
        top = min(size - 1, len(universe))
        for combo, amask in _intersection_walk(universe, inv_masks, smask, min_size,
                                               min_size - 1, top):
            if amask.bit_count() * (len(combo) + 1) < size:
                continue
            a_elems = mask_elements(amask)
            b_elems = (1,) + combo
            covered = {a * b % p for b in b_elems for a in a_elems}
            if covered == tset:
                found.add(canonical_product_witness(ctx, a_elems, b_elems))
    elif kind is SetOp.SUM:
        full = (1 << p) - 1
        shifted = [_rotate(target.mask, (p - b) % p, p, full) for b in range(p)]
        for combo, amask in _intersection_walk(range(p), shifted, full, min_size,
                                               min_size, min(size, p)):
            if amask.bit_count() * len(combo) < size:
                continue
            a_elems = mask_elements(amask)
            covered = {(a + b) % p for b in combo for a in a_elems}
            if covered == tset:
                found.add(tuple(sorted((a_elems, combo))))
    else:
        raise ValueError(f"unsupported factorization kind: {kind!r}")
    return sorted(found)


def _maximal_cliques(vertices: Sequence[int], adj: dict[int, int]) -> tuple[list[int], int]:
    """All maximal cliques (as masks) via Bron-Kerbosch with pivoting."""
    results: list[int] = []
    node_count = 0
    full = 0
    for v in vertices:
        full |= 1 << v

    def bk(r_mask: int, p_mask: int, x_mask: int) -> None:
        nonlocal node_count
        node_count += 1
        if p_mask == 0 and x_mask == 0:
            results.append(r_mask)
            return
        cand = p_mask | x_mask
        best_u = -1
        best_cnt = -1
        m = cand
        while m:
            low = m & -m
            u = low.bit_length() - 1
            cnt = (p_mask & adj[u]).bit_count()
            if cnt > best_cnt:
                best_cnt, best_u = cnt, u
            m ^= low
        ext = p_mask & ~adj[best_u]
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            bk(r_mask | low, p_mask & adj[v], x_mask & adj[v])
            p_mask ^= low
            x_mask |= low
            ext ^= low

    if full:
        bk(0, full, 0)
    return results, node_count


def _difference_graph(n: int, tmask: int) -> tuple[list[int], dict[int, int]]:
    """Vertices S = T & -T of Z_n and adjacency x -> (x + S) without x.

    A set containing 0 has all its differences in T exactly when it is a
    clique here; 0 is adjacent to every vertex, so every maximal clique
    contains it.  Adjacency bits outside S are never reached, because every
    clique search intersects them with a subset of S.
    """
    full = (1 << n) - 1
    verts = [x for x in mask_elements(tmask) if (tmask >> (-x % n)) & 1]
    s_mask = 0
    for x in verts:
        s_mask |= 1 << x
    return verts, {x: _rotate(s_mask, x, n, full) & ~(1 << x) for x in verts}


def _difference_representations(n: int, tmask: int) -> tuple[list[tuple[int, ...]], int]:
    """All maximal A (0 in A) with A - A = T over Z_n; T is the bitmask ``tmask``.

    A - A holds 0 and equals its own negative, so a T that misses 0 or
    differs from -T has no witness and is answered with no clique search
    (0 nodes).
    """
    full = (1 << n) - 1
    verts, adj = _difference_graph(n, tmask)
    if len(verts) != tmask.bit_count() or not tmask & 1:
        return [], 0
    cliques, nodes = _maximal_cliques(verts, adj)
    witnesses = []
    for cm in cliques:
        elems = mask_elements(cm)
        got = 0
        for y in elems:
            got |= _rotate(cm, (n - y) % n, n, full)
        if got == tmask:
            witnesses.append(elems)
    return witnesses, nodes


def find_ratio_representations(target: ElementSet) -> SearchReport:
    """All maximal A (1 in A) with A/A = target; the difference search on discrete logs."""
    ctx = make_field(target.p)
    if 0 in target:
        raise ZeroInTargetError("ratio representation target must avoid 0")
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    if 1 in target:
        logs, nodes = _difference_representations(ctx.p - 1, _log_mask(ctx, target))
        witnesses = sorted(tuple(sorted(ctx.power_table[e] for e in w)) for w in logs)
    return _report(ctx.p, SetOp.RATIO, [(w,) for w in witnesses], nodes)


def find_difference_representations(target: ElementSet) -> SearchReport:
    """All maximal A (0 in A) with A-A = target; complete via clique enumeration."""
    p = make_field(target.p).p
    if 0 not in target:
        raise MissingZeroError("difference representation target must contain 0")
    witnesses, nodes = _difference_representations(p, target.mask)
    return _report(p, SetOp.DIFFERENCE, [(w,) for w in sorted(witnesses)], nodes)


def max_difference_clique(subgroup: MultSubgroup) -> int:
    """Largest |A| with A - A inside G union {0} (ordered differences)."""
    # translate A to contain 0; if -1 is outside G, x and -x are never both
    # differences, so the graph is the single vertex 0
    target = subgroup.elements.with_element(0)
    cliques, _ = _maximal_cliques(*_difference_graph(subgroup.ctx.p, target.mask))
    return max(c.bit_count() for c in cliques)
