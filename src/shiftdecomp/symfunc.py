"""Power sums, elementary symmetric functions, Newton recursion, exact root scans."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NonInvertibleIndexError, ZeroPolynomialError
from .field import FieldContext, make_field
from .poly import DensePoly, root_multiplicity


def power_sums(ctx: FieldContext, elements: Iterable[int], count: int) -> tuple[int, ...]:
    """First `count` power sums p_k = sum(x^k) of a residue multiset."""
    p = ctx.p
    base = [x % p for x in elements]
    current = list(base)
    out = []
    for _ in range(count):
        out.append(sum(current) % p)
        current = [c * b % p for c, b in zip(current, base)]
    return tuple(out)


def elementary_from_roots(ctx: FieldContext, elements: Iterable[int]) -> tuple[int, ...]:
    """Elementary symmetric functions e_0..e_n read off the product of (1 + x*t)."""
    p = ctx.p
    e = [1]
    for x in elements:
        x %= p
        e.append(0)
        for k in range(len(e) - 1, 0, -1):
            e[k] = (e[k] + x * e[k - 1]) % p
    return tuple(e)


def elementary_from_power_sums(ctx: FieldContext, psums: Sequence[int]) -> tuple[int, ...]:
    """Recover e_1..e_K from p_1..p_K by the Newton recursion k*e_k = sum(...)."""
    p = ctx.p
    K = len(psums)
    if K >= p:
        raise NonInvertibleIndexError(f"recursion index up to {K} is not invertible mod {p}")
    e = [1]
    for k in range(1, K + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * (psums[i - 1] % p) % p
            acc = acc + term if i % 2 == 1 else acc - term
        e.append(acc % p * ctx.inv_table[k] % p)
    return tuple(e[1:])


def reconstruct_polynomial_from_power_sums(ctx: FieldContext, psums: Sequence[int]) -> DensePoly:
    """Monic polynomial of degree K whose root multiset realizes the power sums."""
    es = elementary_from_power_sums(ctx, psums)
    K = len(psums)
    coeffs = [0] * (K + 1)
    coeffs[K] = 1
    sign = -1
    for i, e in enumerate(es, start=1):
        coeffs[K - i] = sign * e
        sign = -sign
    return DensePoly(ctx.p, coeffs)


def roots_over_field(f: DensePoly) -> tuple[int, ...]:
    """Roots in F_p with multiplicity, by evaluation scan plus synthetic-division confirmation."""
    p = make_field(f.p).p
    if f.is_zero():
        raise ZeroPolynomialError("root scan undefined for the zero polynomial")
    roots = []
    for x in range(p):
        if f.evaluate(x) == 0:
            roots.extend([x] * root_multiplicity(f, x))
    return tuple(roots)

