"""Dense polynomials over F_p with exact coefficient arithmetic."""

from __future__ import annotations

from typing import Iterable

from .errors import ModulusMismatchError, ZeroPolynomialError


class DensePoly:
    """Coefficients stored ascending by power; an empty tuple is the zero polynomial."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        reduced = [c % p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        self.p = p
        self.coeffs = tuple(reduced)

    @classmethod
    def zero(cls, p: int) -> "DensePoly":
        return cls(p)

    @classmethod
    def constant(cls, p: int, c: int) -> "DensePoly":
        return cls(p, (c,))

    @classmethod
    def monomial(cls, p: int, degree: int, c: int = 1) -> "DensePoly":
        return cls(p, (0,) * degree + (c,))

    @classmethod
    def from_roots(cls, p: int, roots: Iterable[int]) -> "DensePoly":
        """Monic product of (x - r) over the given roots, with multiplicity."""
        coeffs = [1]
        for r in roots:
            coeffs.append(0)
            for k in range(len(coeffs) - 1, 0, -1):
                coeffs[k] = coeffs[k - 1]
            coeffs[0] = 0
            for k in range(len(coeffs) - 1):
                coeffs[k] = (coeffs[k] - r * coeffs[k + 1]) % p
        return cls(p, coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def _require_same_modulus(self, other: "DensePoly") -> None:
        if self.p != other.p:
            raise ModulusMismatchError(f"moduli differ: {self.p} vs {other.p}")

    def __add__(self, other: "DensePoly") -> "DensePoly":
        self._require_same_modulus(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly(
            self.p, (self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        self._require_same_modulus(other)
        if self.is_zero() or other.is_zero():
            return DensePoly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return DensePoly(self.p, out)

    def scale(self, c: int) -> "DensePoly":
        return DensePoly(self.p, (c * v for v in self.coeffs))

    def __pow__(self, n: int) -> "DensePoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = DensePoly.constant(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "DensePoly":
        return DensePoly(self.p, (k * c for k, c in enumerate(self.coeffs) if k))

    def divide_linear(self, b: int) -> tuple["DensePoly", int]:
        """Synthetic division by (x - b): returns (quotient, remainder)."""
        if self.is_zero():
            return DensePoly.zero(self.p), 0
        d = len(self.coeffs) - 1
        q = [0] * d
        acc = 0
        for k in range(d, 0, -1):
            acc = (acc * b + self.coeffs[k]) % self.p
            q[k - 1] = acc
        rem = (acc * b + self.coeffs[0]) % self.p
        return DensePoly(self.p, q), rem

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DensePoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"DensePoly(p={self.p}, coeffs={self.coeffs})"


def root_multiplicity(f: DensePoly, b: int) -> int:
    """Largest k with (x - b)^k dividing f, by repeated synthetic division."""
    if f.is_zero():
        raise ZeroPolynomialError("multiplicity undefined for the zero polynomial")
    count = 0
    while True:
        q, rem = f.divide_linear(b)
        if rem != 0:
            return count
        count += 1
        f = q
        if f.is_zero():
            # exact division of a nonzero polynomial never reaches zero
            return count
