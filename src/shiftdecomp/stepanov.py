"""Auxiliary-polynomial audits: coefficient system, vanishing structure, bounds.

Given A = {a_1..a_n} the coefficients c_i solve sum(c_i) = 1 with the first
n-1 moments zero; the auxiliary polynomial built from them vanishes to high
order on any B with AB + lam inside G union {0}, which forces the size bounds
checked here.  Everything is exact mod p; multiplicities come from synthetic
division only.  Each function works in the field of the sets, polynomial or
subgroup it is given, and several inputs must share one modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import (
    BoundViolationError,
    FactorialOverflowError,
    HypothesisViolatedError,
    InternalMismatchError,
    ModulusMismatchError,
    UnexpectedRootError,
    ZeroElementError,
    ZeroParameterError,
)
from .field import FieldContext, MultSubgroup, make_field
from .poly import DensePoly, root_multiplicity
from .sets import ElementSet

__all__ = [
    "AuxAudit",
    "solve_coefficients",
    "build_auxiliary_polynomial",
    "audit_instance",
    "check_hp_additive_bound",
    "check_gf_identity",
    "check_derivative_ratio",
    "harmonic_sum_identity",
]


def _moments(p: int, a, c, count: int) -> list[int]:
    """The moments M_k = sum c_i a_i^k mod p for 0 <= k < count."""
    moments = []
    powers = [ci % p for ci in c]
    for _ in range(count):
        moments.append(sum(powers) % p)
        powers = [v * ai % p for v, ai in zip(powers, a)]
    return moments


def _subgroup_field(subgroup: MultSubgroup, *sets: ElementSet) -> FieldContext:
    """The subgroup's field, once every set is checked to lie in it."""
    ctx = subgroup.ctx
    for s in sets:
        if s.p != ctx.p:
            raise ModulusMismatchError(f"set modulus {s.p} differs from the subgroup's {ctx.p}")
    return ctx


def _solve_linear_system(p: int, matrix: list[list[int]], rhs: list[int]) -> list[int]:
    n = len(matrix)
    rows = [list(row) + [r % p] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p != 0), None)
        if pivot is None:
            raise InternalMismatchError("coefficient system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        lead = rows[col]
        for r in range(n):
            if r != col and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], lead)]
    return [rows[i][n] for i in range(n)]


def solve_coefficients(a_set: ElementSet) -> tuple[int, ...]:
    """Coefficients c_i, in the order of a_set.elements(), computed two
    independent ways and cross-checked.

    Route one solves the transposed Vandermonde system by Gaussian
    elimination; route two is the closed form
    c_i = (-1)^(n-1) (prod a_t) / (a_i prod_{j != i} (a_i - a_j)).  The
    moment invariants sum(c_i) = 1 and sum(c_i a_i^j) = 0 for 1 <= j <= n-1
    are asserted.
    """
    p = make_field(a_set.p).p
    a = a_set.elements()
    if not a:
        raise ValueError("coefficient system needs at least one node")
    if 0 in a_set:
        raise ZeroElementError("coefficient nodes must be nonzero")
    n = len(a)

    matrix = [[pow(ai, j, p) for ai in a] for j in range(n)]
    rhs = [1] + [0] * (n - 1)
    from_solver = _solve_linear_system(p, matrix, rhs)

    sign = 1 if n % 2 == 1 else p - 1
    prod_all = 1
    for ai in a:
        prod_all = prod_all * ai % p
    closed = []
    for i, ai in enumerate(a):
        denom = ai
        for j, aj in enumerate(a):
            if j != i:
                denom = denom * (ai - aj) % p
        closed.append(sign * prod_all * pow(denom, -1, p) % p)

    if from_solver != closed:
        raise InternalMismatchError(
            f"coefficient routes disagree for nodes {a}: {from_solver} vs {closed}"
        )

    if _moments(p, a, closed, n) != rhs:
        raise InternalMismatchError(f"moment invariants fail for nodes {a}")
    return tuple(closed)


def build_auxiliary_polynomial(a_set: ElementSet, lam: int, g_order: int) -> DensePoly:
    """f(x) = -lam^(n-1) + sum c_i (a_i x + lam)^(n-1+g_order), expanded exactly.

    With N = n-1+g_order, the x^k coefficient collapses to
    binom(N, k) lam^(N-k) M_k with M_k the k-th moment of the c_i, so the
    x^1..x^(n-1) window vanishes by construction and is asserted.  The
    binomials are math.comb reduced mod p, exact also for N >= p.
    """
    p = make_field(a_set.p).p
    lam %= p
    if lam == 0:
        raise ZeroParameterError("shift parameter must be nonzero")
    if g_order < 1:
        raise ValueError("subgroup order must be positive")
    a = a_set.elements()
    c = solve_coefficients(a_set)
    n = len(a)
    cap = n - 1 + g_order
    moments = _moments(p, a, c, cap + 1)

    lam_pows = [1] * (cap + 1)
    for k in range(1, cap + 1):
        lam_pows[k] = lam_pows[k - 1] * lam % p

    coeffs = [
        comb(cap, k) % p * lam_pows[cap - k] % p * moments[k] % p for k in range(cap + 1)
    ]
    coeffs[0] = (coeffs[0] - lam_pows[n - 1]) % p
    for k in range(1, n):
        if coeffs[k] != 0:
            raise InternalMismatchError(f"coefficient window x^{k} failed to vanish")
    return DensePoly(p, coeffs)


@dataclass(frozen=True)
class AuxAudit:
    """Measured structure of one auxiliary-polynomial instance.

    A vanishing f has no multiplicities and no equality case; any other f has
    passed every check of audit_instance.
    """

    lam_in_g: bool
    r_elements: tuple[int, ...]
    f: DensePoly
    degree_cap: int
    multiplicities: tuple[tuple[int, int], ...]
    zero_multiplicity: int | None
    general_equality: bool
    shifted_equality: bool

    @property
    def r(self) -> int:
        return len(self.r_elements)

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def nonzero(self) -> bool:
        return not self.f.is_zero()


def audit_instance(
    a_set: ElementSet,
    b_set: ElementSet,
    lam: int,
    subgroup: MultSubgroup,
) -> AuxAudit:
    """Full audit of one (A, B, lam, G) instance satisfying AB + lam in G u {0}.

    Checks, in order: the hypothesis itself, per-root multiplicities, the
    degree window, the zero-root obligations when lam lies in G, both size
    bounds, and the exact factorization whenever the degree bound is tight.
    Violations of theorem-level claims raise BoundViolationError; a vanishing
    f is recorded as an anomaly instead of being assumed impossible.  A, B
    and G must share one field; otherwise ModulusMismatchError is raised.
    """
    ctx = _subgroup_field(subgroup, a_set, b_set)
    p = ctx.p
    a = a_set.elements()
    b = b_set.elements()
    if not a or not b:
        raise ValueError("audit needs nonempty A and B")
    if 0 in a_set or 0 in b_set:
        raise ZeroElementError("audit sets must avoid 0")
    lam %= p
    if lam == 0:
        raise ZeroParameterError("shift parameter must be nonzero")

    g = subgroup.elements
    target = g.with_element(0)
    for ai in a:
        for bj in b:
            if (ai * bj + lam) % p not in target:
                raise HypothesisViolatedError(
                    f"product {ai}*{bj}+{lam} escapes G union 0 at p={p}"
                )

    n = len(a)
    m = len(b)
    g_order = subgroup.order
    lam_in_g = lam in g
    neg_lam = (p - lam) % p
    r_elements = tuple(sorted({neg_lam * ctx.inv_table[ai] % p for ai in a} & set(b)))
    r = len(r_elements)
    r_set = set(r_elements)

    f = build_auxiliary_polynomial(a_set, lam, g_order)
    cap = n - 1 + g_order
    multiplicities = []
    zero_multiplicity = None
    general_equality = shifted_equality = False
    if not f.is_zero():
        for bj in b:
            mult = root_multiplicity(f, bj)
            need = n - 1 if bj in r_set else n
            if mult < need:
                raise BoundViolationError(
                    f"root {bj} has multiplicity {mult} < {need} at p={p}"
                )
            multiplicities.append((bj, mult))

        degree = f.degree
        low = m * n - r
        if not low <= degree <= cap:
            raise BoundViolationError(
                f"degree {degree} escapes window [{low}, {cap}] at p={p}"
            )

        if lam_in_g:
            if f.evaluate(0) != 0:
                raise BoundViolationError(f"f(0) nonzero with lam={lam} in G at p={p}")
            zero_multiplicity = root_multiplicity(f, 0)
            if zero_multiplicity < n:
                raise BoundViolationError(
                    f"zero root multiplicity {zero_multiplicity} < {n} at p={p}"
                )
            if (m + 1) * n - r > degree:
                raise BoundViolationError(
                    f"shifted degree bound fails: ({m}+1)*{n}-{r} > {degree} at p={p}"
                )

        if m * n > g_order + r + n - 1:
            raise BoundViolationError(
                f"size bound fails: {m}*{n} > {g_order}+{r}+{n}-1 at p={p}"
            )
        if lam_in_g and m * n > g_order + r - 1:
            raise BoundViolationError(
                f"strict size bound fails: {m}*{n} > {g_order}+{r}-1 at p={p}"
            )

        # the x^cap coefficient is binom(cap, cap) lam^0 M_cap = M_cap = sum c_i a_i^cap
        c_leading = f.coefficient(cap)
        general_equality = m * n - r == cap
        shifted_equality = lam_in_g and r == 0 and (m + 1) * n == cap
        if general_equality:
            roots = []
            for bj in b:
                roots.extend([bj] * (n - 1 if bj in r_set else n))
            expected = DensePoly.from_roots(p, roots).scale(c_leading)
            if c_leading == 0 or expected != f:
                raise BoundViolationError(f"tight factorization mismatch at p={p}")
        elif shifted_equality:
            expected = (DensePoly.from_roots(p, (0,) + b) ** n).scale(c_leading)
            if c_leading == 0 or expected != f:
                raise BoundViolationError(f"tight shifted factorization mismatch at p={p}")

    return AuxAudit(
        lam_in_g=lam_in_g, r_elements=r_elements, f=f, degree_cap=cap,
        multiplicities=tuple(multiplicities), zero_multiplicity=zero_multiplicity,
        general_equality=general_equality, shifted_equality=shifted_equality,
    )


def check_hp_additive_bound(
    a_set: ElementSet, b_set: ElementSet, subgroup: MultSubgroup
) -> bool:
    """|A||B| <= |G| + |(-A) & B| for any A, B with A + B inside G union {0}.

    A, B and G must share one field; otherwise ModulusMismatchError is raised.
    """
    p = _subgroup_field(subgroup, a_set, b_set).p
    target = subgroup.elements.with_element(0)
    for ai in a_set:
        for bj in b_set:
            if (ai + bj) % p not in target:
                raise HypothesisViolatedError(
                    f"sum {ai}+{bj} escapes G union 0 at p={p}"
                )
    overlap = sum(1 for bj in b_set if (p - bj) % p in a_set)
    return len(a_set) * len(b_set) <= subgroup.order + overlap


def check_gf_identity(a_set: ElementSet) -> bool:
    """Cross-multiplied rational identity of the coefficient solution.

    sum_i c_i a_i^n prod_{j != i} (1 - a_j x) must equal the constant
    (-1)^(n-1) prod a_i as an exact polynomial.
    """
    p = make_field(a_set.p).p
    a = a_set.elements()
    c = solve_coefficients(a_set)
    n = len(a)
    lhs = DensePoly.zero(p)
    for i, ai in enumerate(a):
        term = DensePoly.constant(p, c[i] * pow(ai, n, p) % p)
        for j, aj in enumerate(a):
            if j != i:
                term = term * DensePoly(p, (1, p - aj))
        lhs = lhs + term
    sign = 1 if n % 2 == 1 else p - 1
    prod_all = 1
    for ai in a:
        prod_all = prod_all * ai % p
    return lhs == DensePoly.constant(p, sign * prod_all % p)


def check_derivative_ratio(h: DensePoly, b: int, n: int) -> bool:
    """Derivative identities for f = (x-b)^n h with h(b) != 0.

    Verifies f^(n)(b) = n! h(b), f^(n+1)(b) = (n+1)! h'(b), and the resulting
    ratio h'(b)/h(b) = f^(n+1)(b) / ((n+1) f^(n)(b)).
    """
    ctx = make_field(h.p)
    p = ctx.p
    if n < 1:
        raise ValueError("multiplicity must be at least 1")
    if n + 1 >= p:
        raise FactorialOverflowError(f"factorial {n + 1}! vanishes mod {p}")
    b %= p
    hb = h.evaluate(b)
    if hb == 0:
        raise UnexpectedRootError(f"cofactor vanishes at {b}")
    f = DensePoly.from_roots(p, [b] * n) * h
    d = f
    for _ in range(n):
        d = d.derivative()
    fn_b = d.evaluate(b)
    fn1_b = d.derivative().evaluate(b)
    if fn_b != factorial(n) % p * hb % p:
        return False
    hp_b = h.derivative().evaluate(b)
    if fn1_b != factorial(n + 1) % p * hp_b % p:
        return False
    lhs = hp_b * ctx.inv_table[hb] % p
    rhs = fn1_b * pow((n + 1) * fn_b % p, -1, p) % p
    return lhs == rhs


def harmonic_sum_identity(b_set: ElementSet) -> bool:
    """sum_b b * H(b) = m(m+1)/2 for H(b) = 1/b + sum_{b' != b} 1/(b - b')."""
    ctx = make_field(b_set.p)
    p = ctx.p
    b = b_set.elements()
    if not b:
        raise ValueError("identity needs a nonempty set")
    if 0 in b_set:
        raise ZeroElementError("harmonic nodes must be nonzero")
    m = len(b)
    total = 0
    for bi in b:
        h = ctx.inv_table[bi]
        for bj in b:
            if bj != bi:
                h += ctx.inv_table[(bi - bj) % p]
        total = (total + bi * h) % p
    return total == (m * (m + 1) // 2) % p
