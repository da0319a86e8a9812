"""Prime-field contexts and multiplicative subgroups with exact arithmetic tables."""

from __future__ import annotations

from functools import lru_cache

from .errors import NotADivisorError, NotPrimeError, OutOfRangeError
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
    """Immutable F_p arithmetic context with inverse, factorial and log tables.

    ``power_table[e]`` is g^e for the primitive root g and ``dlog_table`` is
    its inverse on F_p^* (``dlog_table[0]`` is unused), so products of
    nonzero residues become sums of exponents mod p - 1.
    """

    __slots__ = ("p", "primitive_root", "inv_table", "power_table", "dlog_table",
                 "_factorials")

    def __init__(self, p: int):
        # callers go through make_field, which validates p
        self.p = p
        inv = [0] * p
        inv[1] = 1
        for x in range(2, p):
            inv[x] = (p - (p // x) * inv[p % x]) % p
        self.inv_table = tuple(inv)
        self._factorials: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self.primitive_root = g = _smallest_primitive_root(p)
        powers = [1] * (p - 1)
        dlog = [0] * p
        for e in range(1, p - 1):
            powers[e] = powers[e - 1] * g % p
            dlog[powers[e]] = e
        self.power_table = tuple(powers)
        self.dlog_table = tuple(dlog)

    def _factorial_tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """k! and 1/k! mod p for k < p, built on first use.

        Only ``binomial`` and the Stepanov derivative check read them, so a
        field that only searches never pays for them.
        """
        if self._factorials is None:
            p = self.p
            fact = [1] * p
            for k in range(1, p):
                fact[k] = fact[k - 1] * k % p
            inv_fact = [1] * p
            inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
            for k in range(p - 1, 0, -1):
                inv_fact[k - 1] = inv_fact[k] * k % p
            self._factorials = (tuple(fact), tuple(inv_fact))
        return self._factorials

    @property
    def factorial(self) -> tuple[int, ...]:
        """k! mod p for 0 <= k < p."""
        return self._factorial_tables()[0]

    @property
    def inv_factorial(self) -> tuple[int, ...]:
        """1/k! mod p for 0 <= k < p."""
        return self._factorial_tables()[1]

    def binomial(self, n: int, k: int) -> int:
        """C(n, k) mod p via factorial tables, with Lucas digits once n reaches p."""
        if k < 0 or k > n:
            return 0
        p = self.p
        fact, inv_fact = self._factorials or self._factorial_tables()
        if n < p:
            return fact[n] * inv_fact[k] % p * inv_fact[n - k] % p
        result = 1
        while n or k:
            ni, ki = n % p, k % p
            if ki > ni:
                return 0
            result = result * fact[ni] % p * inv_fact[ki] % p * inv_fact[ni - ki] % p
            n //= p
            k //= p
        return result

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


class MultSubgroup:
    """The unique multiplicative subgroup of F_p^* of a given order."""

    __slots__ = ("ctx", "order", "elements")

    def __init__(self, ctx: FieldContext, order: int, elements: ElementSet):
        self.ctx = ctx
        self.order = order
        self.elements = elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultSubgroup)
            and self.ctx.p == other.ctx.p
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.order))

    def __repr__(self) -> str:
        return f"MultSubgroup(p={self.ctx.p}, order={self.order})"


@lru_cache(maxsize=256)
def subgroup_of_order(ctx: FieldContext, d: int) -> MultSubgroup:
    """Subgroup of order d; d must divide p - 1.

    Subgroups are immutable, so repeated calls share one instance per (ctx, d).
    """
    if d < 1 or (ctx.p - 1) % d != 0:
        raise NotADivisorError(f"{d} does not divide {ctx.p - 1}")
    gen = pow(ctx.primitive_root, (ctx.p - 1) // d, ctx.p)
    mask = 0
    x = 1
    for _ in range(d):
        mask |= 1 << x
        x = x * gen % ctx.p
    return MultSubgroup(ctx, d, ElementSet(ctx.p, mask))


def enumerate_proper_subgroups(ctx: FieldContext) -> list[MultSubgroup]:
    """All subgroups of order < p - 1, ascending by order."""
    return [subgroup_of_order(ctx, d) for d in proper_orders(ctx.p)]
