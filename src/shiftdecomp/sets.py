"""Subset algebra over Z/pZ: bitmask sets and their sums, differences, products and ratios."""

from __future__ import annotations

import enum
from typing import Iterable

from .errors import ModulusMismatchError, ZeroDivisorError


def mask_elements(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class ElementSet:
    """Immutable subset of Z/pZ stored as a residue bitmask."""

    __slots__ = ("p", "mask")

    def __init__(self, p: int, mask: int = 0):
        if p < 1:
            raise ValueError(f"modulus must be positive, got {p}")
        if mask < 0 or mask >> p:
            raise ValueError("bitmask has bits outside 0..p-1")
        self.p = p
        self.mask = mask

    @classmethod
    def from_elements(cls, p: int, elements: Iterable[int]) -> "ElementSet":
        """Build a set from integers, reducing each one mod p."""
        mask = 0
        for x in elements:
            mask |= 1 << (x % p)
        return cls(p, mask)

    def elements(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    def __iter__(self):
        return iter(mask_elements(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> (x % self.p)) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.p == other.p
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.p, self.mask))

    def __repr__(self) -> str:
        inner = ", ".join(map(str, self))
        return f"ElementSet(p={self.p}, {{{inner}}})"

    def _require_same_modulus(self, other: "ElementSet") -> None:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")

    def with_element(self, x: int) -> "ElementSet":
        return ElementSet(self.p, self.mask | (1 << (x % self.p)))


class SetOp(enum.Enum):
    SUM = "sum"
    DIFFERENCE = "difference"
    PRODUCT = "product"
    RATIO = "ratio"


def _composed_value(a: int, b: int, op: SetOp, p: int) -> int:
    if op is SetOp.SUM:
        return (a + b) % p
    if op is SetOp.DIFFERENCE:
        return (a - b) % p
    if op is SetOp.PRODUCT:
        return a * b % p
    return a * pow(b, -1, p) % p


def compose_sets(x: ElementSet, y: ElementSet, op: SetOp) -> ElementSet:
    """Exact elementwise composition {a op b : a in x, b in y}."""
    x._require_same_modulus(y)
    p = x.p
    if op is SetOp.RATIO and 0 in y:
        raise ZeroDivisorError("ratio composition requires 0 outside the divisor set")
    mask = 0
    xs = x.elements()
    for b in y:
        for a in xs:
            mask |= 1 << _composed_value(a, b, op, p)
    return ElementSet(p, mask)
