"""Roots-of-unity checks over the complex plane.

Three verifications for the m-th roots of unity G and the chord values
x_k = zeta^k - 1: products x_k * x_l determine the index pair {k, l}; every
Mobius map preserving both the unit circle and G is a rotation z -> zeta*z or
a reflection z -> zeta/z with zeta in G, checked on the one map fitted from
(g_0, g_1, g_2) to each ordered triple of G; and (G - 1) \\ {0} admits no
exact 2x2 product decomposition.

Every check compares floats within DEFAULT_TOL.  The product claim is a
theorem (see ``check_xk_product_claim``), so its check confirms only that
floats keep the products apart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations, product

from .errors import TheoremViolation

__all__ = [
    "UnityGroup",
    "ProductClaimVerdict",
    "DecompositionWitness",
    "check_xk_product_claim",
    "classify_circle_preserving_maps",
    "search_2x2_decomposition",
]

DEFAULT_TOL = 1e-9


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
        if abs(abs(z) - 1.0) > DEFAULT_TOL:
            return None
        k = round(self.m * cmath.phase(z) / (2.0 * math.pi)) % self.m
        return k if abs(z - self.elements[k]) <= DEFAULT_TOL else None


def _fit(z_points, w_points):
    """The Mobius map z -> (a z + b) / (c z + d) sending z_points[i] to w_points[i].

    Each triple (z1, z2, z3) of distinct finite points goes to (0, 1, infinity)
    under z -> (z2 - z3)(z - z1) / ((z2 - z1)(z - z3)); the fit is the map of
    z_points followed by the inverse (adjugate) of the map of w_points, as a
    product of 2x2 coefficient matrices.
    """
    def standard(z1, z2, z3):
        return z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1)

    a1, b1, c1, d1 = standard(*z_points)
    a2, b2, c2, d2 = standard(*w_points)
    a, b = d2 * a1 - b2 * c1, d2 * b1 - b2 * d1
    c, d = a2 * c1 - c2 * a1, a2 * d1 - c2 * b1
    return lambda z: (a * z + b) / (c * z + d)


@dataclass(frozen=True)
class ProductClaimVerdict:
    """Outcome of the chord-product distinctness check for one order m."""

    numeric_violations: tuple
    max_quadruple_class: int

    @property
    def passed(self) -> bool:
        return not self.numeric_violations


def check_xk_product_claim(m: int) -> ProductClaimVerdict:
    """Verify that the float products x_k * x_l (1 <= k <= l < m) stay apart.

    That x_k x_l determines {k, l} is a theorem: x_k x_l =
    -4 sin(pi k/m) sin(pi l/m) e^{i pi (k+l)/m} with both sines positive, so
    the argument fixes k + l in [2, 2m - 2], and then the modulus
    2(cos(pi (k-l)/m) - cos(pi (k+l)/m)) fixes |k - l|.  The sweep sorts the
    products by real part and reports every two index pairs whose products
    lie within DEFAULT_TOL of each other.  A pair weighs its ordered pairs
    (2, or 1 when k = l), and its mass adds the weights of the pairs reported
    close to it; ``max_quadruple_class`` is the largest mass squared, 4 when
    the sweep is clean.
    """
    if m < 3:
        raise ValueError(f"claim check needs m >= 3, got {m}")
    group = UnityGroup.of_order(m)
    xs = group.x_values
    pairs = [(k, l) for k in range(1, m) for l in range(k, m)]
    prods = [xs[k - 1] * xs[l - 1] for k, l in pairs]

    def weight(i):
        return 1 if pairs[i][0] == pairs[i][1] else 2

    order = sorted(range(len(pairs)), key=lambda i: prods[i].real)
    numeric_violations = []
    mass: dict[int, int] = {}
    for pos, i in enumerate(order):
        for nxt in range(pos + 1, len(order)):
            j = order[nxt]
            if prods[j].real - prods[i].real > DEFAULT_TOL:
                break
            gap = abs(prods[i] - prods[j])
            if gap <= DEFAULT_TOL:
                numeric_violations.append((pairs[i], pairs[j], gap))
                mass[i] = mass.get(i, weight(i)) + weight(j)
                mass[j] = mass.get(j, weight(j)) + weight(i)

    # a pair with k < l (there is one, as m >= 3) weighs 2, and every mass
    # recorded above is at least 2
    max_mass = max(mass.values(), default=2)
    return ProductClaimVerdict(
        numeric_violations=tuple(numeric_violations),
        max_quadruple_class=max_mass * max_mass,
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
        psi = _fit(g[:3], triple)
        image = []
        for z in g:
            idx = group.nearest_index(psi(z))
            if idx is None:
                break
            image.append(idx)
        # a short image hit a point off G; a repeated index is not a bijection
        if len(set(image)) != m:
            continue
        if any(abs(abs(psi(s)) - 1.0) > DEFAULT_TOL for s in samples):
            continue

        j, succ = image[0], image[1]
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
        if all(abs(psi(z) - model(z)) <= DEFAULT_TOL for z in g):
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
