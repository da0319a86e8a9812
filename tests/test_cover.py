"""The cover engine against a frozen copy of its earlier pool-order branching.

``_pool_order_cover`` is ``search._translate_cover`` as it was before it
branched on the most constrained uncovered element: it grows B along its pool
of shifts in order, so it reaches every subset of the pool at most once by
construction.  Both return the raw (A, B) list of the same problem, so the two
lists must agree as multisets once each B is sorted; a B listed twice by the
new engine would show up as a surplus copy.
"""

from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    build_target,
    enumerate_proper_subgroups,
    make_field,
    primes_in_range,
)
from shiftdecomp.audits import _coset_representatives
from shiftdecomp.search import _log_mask, _rotate, _translate_cover


def _pool_order_cover(
    n: int, tmask: int, min_size: int
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Every (A, B) over Z_n with A + B = T, 0 in B and |A|, |B| >= min_size.

    T is the bitmask ``tmask`` and A is the maximal set for its B, the
    intersection of the T - b.  A + B = T is invariant under
    (A, B) -> (A + t, B - t), so seeding 0 into B loses nothing up to
    translation.  B grows from {0} along the shifts s whose T & (T - s) keeps
    min_size elements, fewest first (ties by s).

    One pruning rule: a node's usable shifts are the later ones that keep
    min_size elements of A & (T - s), and the subtree is cut when A + B
    together with every usable (A & (T - s)) + s still misses part of T.
    Below the node A only shrinks and B only gains usable shifts, so every
    sumset there lies inside that union; the union lies inside T, so
    equality means it may still cover.
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
        usable = []
        for s in pool:
            trimmed = a_mask & allowed[s]
            if trimmed.bit_count() >= min_size:
                usable.append(s)
                covered |= _rotate(trimmed, s, n, full)
        if covered != tmask:
            return
        for i, s in enumerate(usable):
            b_shifts.append(s)
            recurse(a_mask & allowed[s], b_shifts, usable[i + 1:])
            b_shifts.pop()

    recurse(tmask, [0], universe)
    return results, node_count


def _as_multiset(raw) -> list[tuple[int, tuple[int, ...]]]:
    return sorted((a, tuple(sorted(b))) for a, b in raw)


def _audit_covers(p: int):
    """(n, T) at every proper subgroup G mod p: the discrete logs of G - 1 and of
    G - lambda for the first coset representative lambda outside G, and G for sums."""
    ctx = make_field(p)
    for g in enumerate_proper_subgroups(ctx):
        outside = next(x for x in _coset_representatives(g) if x not in g.elements)
        for lam in (1, outside):
            target = build_target(g, 1, -lam, with_zero=False)
            if target:  # G - 1 is empty for |G| = 1
                yield f"product |G|={g.order} lambda={lam}", p - 1, _log_mask(ctx, target)
        yield f"sum |G|={g.order}", p, g.elements.mask


@pytest.mark.parametrize("p", primes_in_range(3, 61))
def test_audit_covers_match_the_reference(p):
    for label, n, tmask in _audit_covers(p):
        raw, _ = _translate_cover(n, tmask, 2)
        expected, _ = _pool_order_cover(n, tmask, 2)
        assert _as_multiset(raw) == _as_multiset(expected), (p, label)


@st.composite
def _masks(draw) -> tuple[int, int]:
    """(n, T) for a random nonempty T of at most ten elements of Z_n, n <= 30."""
    n = draw(st.integers(1, 30))
    elems = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=10))
    return n, sum(1 << x for x in elems)


@given(_masks(), st.integers(1, 3))
def test_random_covers_match_the_reference(case, min_size):
    n, tmask = case
    raw, _ = _translate_cover(n, tmask, min_size)
    expected, _ = _pool_order_cover(n, tmask, min_size)
    assert _as_multiset(raw) == _as_multiset(expected)


@given(_masks(), st.integers(1, 3), st.data())
def test_rotating_t_rotates_every_raw_a(case, min_size, data):
    # the branching rule must not see where T sits in Z_n: the product audit
    # derives every lambda in G from lambda = 1, which is T rotated by log lambda
    n, tmask = case
    r = data.draw(st.integers(0, n - 1))
    full = (1 << n) - 1
    raw, nodes = _translate_cover(n, tmask, min_size)
    moved, moved_nodes = _translate_cover(n, _rotate(tmask, r, n, full), min_size)
    assert moved_nodes == nodes
    assert moved == [(_rotate(a, r, n, full), b) for a, b in raw]
