"""Prime-field contexts and multiplicative subgroups with exact arithmetic tables."""

from __future__ import annotations

from functools import lru_cache

from .errors import NotADivisorError, NotASubgroupError, NotPrimeError, OutOfRangeError
from .sets import ElementSet

MAX_PRIME = 1 << 20

# deterministic witness set, exact for all n < 3.3 * 10^24
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _smallest_primitive_root(p: int) -> int:
    if p == 3:
        return 2
    exponents = [(p - 1) // q for q in _prime_factors(p - 1)]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in exponents):
            return g
    raise AssertionError(f"no primitive root found for {p}")  # unreachable for prime p


def proper_orders(p: int) -> list[int]:
    """Orders of the proper subgroups of F_p^*: the divisors of p - 1 below it."""
    return [d for d in range(1, p - 1) if (p - 1) % d == 0]


class FieldContext:
    """Immutable F_p arithmetic context with inverse and log tables.

    ``power_table[e]`` is g^e for the primitive root g and ``dlog_table`` is
    its inverse on F_p^* (``dlog_table[0]`` is unused), so products of
    nonzero residues become sums of exponents mod p - 1.  A function given an
    ElementSet, MultSubgroup or DensePoly takes its context from that input
    (``make_field(x.p)`` or ``subgroup.ctx``), never as a second argument.
    """

    __slots__ = ("p", "primitive_root", "inv_table", "power_table", "dlog_table")

    def __init__(self, p: int):
        # callers go through make_field, which validates p
        self.p = p
        inv = [0] * p
        inv[1] = 1
        for x in range(2, p):
            inv[x] = (p - (p // x) * inv[p % x]) % p
        self.inv_table = tuple(inv)
        self.primitive_root = g = _smallest_primitive_root(p)
        powers = [1] * (p - 1)
        dlog = [0] * p
        for e in range(1, p - 1):
            powers[e] = powers[e - 1] * g % p
            dlog[powers[e]] = e
        self.power_table = tuple(powers)
        self.dlog_table = tuple(dlog)

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p})"


@lru_cache(maxsize=64)
def make_field(p: int) -> FieldContext:
    """Validated context for the prime field F_p, 3 <= p <= MAX_PRIME.

    Contexts are immutable, so repeated calls share one instance per prime.
    """
    if p < 3 or p > MAX_PRIME:
        raise OutOfRangeError(f"p must lie in [3, {MAX_PRIME}], got {p}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is composite")
    return FieldContext(p)


@lru_cache(maxsize=256)
def _subgroup_mask(p: int, d: int) -> int:
    """Residue bitmask of the subgroup of order d of F_p^*; d divides p - 1."""
    gen = pow(make_field(p).primitive_root, (p - 1) // d, p)
    mask = 0
    x = 1
    for _ in range(d):
        mask |= 1 << x
        x = x * gen % p
    return mask


class MultSubgroup:
    """A multiplicative subgroup of F_p^*, given by its elements.

    Its field is the one its elements lie in and its order is their count; a
    set that is not the subgroup of that order raises NotASubgroupError.
    subgroup_of_order builds it from the order.
    """

    __slots__ = ("ctx", "order", "elements")

    def __init__(self, elements: ElementSet):
        ctx = make_field(elements.p)
        order = len(elements)
        if not order or (ctx.p - 1) % order or elements.mask != _subgroup_mask(ctx.p, order):
            raise NotASubgroupError(f"{order} residues mod {ctx.p} do not form a subgroup")
        self.ctx = ctx
        self.order = order
        self.elements = elements

    def __eq__(self, other) -> bool:
        return isinstance(other, MultSubgroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"MultSubgroup(p={self.ctx.p}, order={self.order})"


@lru_cache(maxsize=256)
def subgroup_of_order(ctx: FieldContext, d: int) -> MultSubgroup:
    """Subgroup of order d; d must divide p - 1.

    Subgroups are immutable, so repeated calls share one instance per (ctx, d).
    """
    if d < 1 or (ctx.p - 1) % d != 0:
        raise NotADivisorError(f"{d} does not divide {ctx.p - 1}")
    return MultSubgroup(ElementSet(ctx.p, _subgroup_mask(ctx.p, d)))


def enumerate_proper_subgroups(ctx: FieldContext) -> list[MultSubgroup]:
    """All subgroups of order < p - 1, ascending by order."""
    return [subgroup_of_order(ctx, d) for d in proper_orders(ctx.p)]
