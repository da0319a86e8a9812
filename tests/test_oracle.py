"""The depth-first factorization oracle against the flat enumeration it replaced.

``_flat_oracle`` is a frozen copy of the earlier ``factorization_oracle``: every
combination of the candidate list, each rejected at the first prefix whose A
drops below min_size.  The depth-first walk must check the same (B, A) pairs
and so return the same witnesses.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdecomp import (
    SetOp,
    TargetVariant,
    build_target,
    canonical_product_witness,
    factorization_oracle,
    make_field,
    primes_in_range,
    subgroup_of_order,
)
from shiftdecomp.field import proper_orders
from shiftdecomp.search import _intersection_walk


def _mask_elems(p: int, mask: int) -> tuple[int, ...]:
    return tuple(x for x in range(p) if mask >> x & 1)


def _flat_oracle(ctx, target, kind: SetOp, min_size: int = 2):
    """Flat subset enumeration with direct arithmetic, as the oracle was written before."""
    p = ctx.p
    size = len(target)
    tset = set(target)
    found = set()
    if kind is SetOp.PRODUCT:
        smask = target.mask
        inv_masks = {}
        for b in range(2, p):
            binv = ctx.inv_table[b]
            m = 0
            for s in target:
                m |= 1 << (s * binv % p)
            inv_masks[b] = m
        universe = [b for b in range(2, p) if (inv_masks[b] & smask).bit_count() >= min_size]
        top = min(size - 1, len(universe))
        for k in range(min_size - 1, top + 1):
            for combo in combinations(universe, k):
                amask = smask
                for b in combo:
                    amask &= inv_masks[b]
                    if amask.bit_count() < min_size:
                        break
                else:
                    a_elems = _mask_elems(p, amask)
                    b_elems = (1,) + combo
                    covered = {a * b % p for b in b_elems for a in a_elems}
                    if covered == tset:
                        found.add(canonical_product_witness(ctx, a_elems, b_elems))
    else:
        full = (1 << p) - 1
        shifted = [sum(1 << ((t - b) % p) for t in target) for b in range(p)]
        for k in range(min_size, min(size, p) + 1):
            for combo in combinations(range(p), k):
                amask = full
                for b in combo:
                    amask &= shifted[b]
                    if amask.bit_count() < min_size:
                        break
                else:
                    a_elems = _mask_elems(p, amask)
                    covered = {(a + b) % p for b in combo for a in a_elems}
                    if covered == tset:
                        found.add(tuple(sorted((a_elems, combo))))
    return sorted(found)


def _audit_targets(p_max: int):
    """(field, target, kind) for every G - lambda (lambda != 0) and every G, p <= p_max."""
    for p in primes_in_range(3, p_max):
        ctx = make_field(p)
        for order in proper_orders(p):
            subgroup = subgroup_of_order(ctx, order)
            for lam in range(1, p):
                target = build_target(subgroup, TargetVariant.SHIFT_MINUS_LAMBDA, lam=lam)
                if target:
                    yield ctx, target, SetOp.PRODUCT
            yield ctx, subgroup.elements, SetOp.SUM


def test_oracle_matches_flat_enumeration_on_audit_targets():
    cases = list(_audit_targets(19))
    assert len(cases) == 288
    for ctx, target, kind in cases:
        assert factorization_oracle(ctx, target, kind) == _flat_oracle(ctx, target, kind), (
            ctx.p, tuple(target), kind)


def _flat_pairs(pool, masks, a_mask, min_size, k_lo, k_hi):
    out = []
    for k in range(k_lo, k_hi + 1):
        for combo in combinations(pool, k):
            amask = a_mask
            for b in combo:
                amask &= masks[b]
                if amask.bit_count() < min_size:
                    break
            else:
                out.append((combo, amask))
    return out


@st.composite
def _walks(draw):
    """A pool, masks and start of either kind, with that kind's range of |B|."""
    width = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=width, max_size=width))
    min_size = draw(st.sampled_from((1, 2, 3)))
    tmask = draw(st.integers(1, (1 << width) - 1))
    size = tmask.bit_count()
    if draw(st.booleans()):  # products: A starts at T, 1 is already in B
        pool = draw(st.lists(st.integers(0, width - 1), unique=True))
        return pool, masks, tmask, min_size, min_size - 1, min(size - 1, len(pool))
    # sums: A starts at all of Z_p and B ranges over it
    return list(range(width)), masks, (1 << width) - 1, min_size, min_size, min(size, width)


@settings(max_examples=300)
@given(_walks())
def test_walk_checks_the_pairs_of_the_flat_loop(walk):
    assert sorted(_intersection_walk(*walk)) == sorted(_flat_pairs(*walk))
