"""Subset algebra over Z/pZ: bitmask sets, sumsets, product sets, shifted targets."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable

from .errors import (
    ModulusMismatchError,
    ZeroDivisorError,
    ZeroParameterError,
    ZeroScaleError,
)

if TYPE_CHECKING:
    from .field import MultSubgroup


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
        return tuple(self)

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

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


def affine_image(x: ElementSet, scale: int, shift: int, drop_zero: bool = False) -> ElementSet:
    """The set {scale * a + shift : a in x}, optionally with 0 removed."""
    p = x.p
    scale %= p
    shift %= p
    if scale == 0:
        raise ZeroScaleError("affine image needs a nonzero scale")
    mask = 0
    for a in x:
        mask |= 1 << ((scale * a + shift) % p)
    if drop_zero:
        mask &= ~1
    return ElementSet(p, mask)


class TargetVariant(enum.Enum):
    SHIFT_MINUS_LAMBDA = "shift-minus-lambda"
    XI_SHIFT = "xi-shift"
    XI_SHIFT_WITH_ZERO = "xi-shift-with-zero"
    G_UNION_ZERO = "g-union-zero"


def build_target(
    subgroup: "MultSubgroup",
    variant: TargetVariant,
    *,
    lam: int | None = None,
    xi: int | None = None,
    mu: int | None = None,
) -> ElementSet:
    """Shifted-subgroup target sets consumed by the decomposition searches."""
    g = subgroup.elements
    p = g.p
    if variant is TargetVariant.SHIFT_MINUS_LAMBDA:
        if lam is None or lam % p == 0:
            raise ZeroParameterError("shift parameter must be nonzero")
        return affine_image(g, 1, -lam, drop_zero=True)
    if variant in (TargetVariant.XI_SHIFT, TargetVariant.XI_SHIFT_WITH_ZERO):
        if xi is None or xi % p == 0 or mu is None or mu % p == 0:
            raise ZeroParameterError("scale and shift parameters must be nonzero")
        image = affine_image(g, xi, mu, drop_zero=True)
        if variant is TargetVariant.XI_SHIFT_WITH_ZERO:
            # adjoining 0 to xi*G before shifting contributes the extra element mu
            image = image.with_element(mu)
        return image
    if variant is TargetVariant.G_UNION_ZERO:
        return g.with_element(0)
    raise ValueError(f"unknown target variant: {variant!r}")
