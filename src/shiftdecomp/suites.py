"""Randomized and exhaustive verification suites.

Three batteries: sampled auxiliary-polynomial audits (with constructive
samplers that guarantee the hypothesis AB + lam in G union {0} and include
families where the size bounds are tight), exact identity fuzzing, and the
roots-of-unity checks.  All randomness is seeded, so suite runs are
reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .audits import build_target
from .field import make_field, proper_orders, subgroup_of_order
from .poly import DensePoly, root_multiplicity
from .sets import ElementSet
from .stepanov import (
    audit_instance,
    check_derivative_ratio,
    check_gf_identity,
    check_hp_additive_bound,
    harmonic_sum_identity,
)
from .symfunc import (
    elementary_from_power_sums,
    elementary_from_roots,
    power_sums,
    reconstruct_polynomial_from_power_sums,
    roots_over_field,
)
from .unity import (
    check_xk_product_claim,
    classify_circle_preserving_maps,
    search_2x2_decomposition,
)

__all__ = [
    "StepanovSuiteResult",
    "IdentitySuiteResult",
    "UnitySuiteResult",
    "run_stepanov_suite",
    "run_identity_suite",
    "run_unity_suite",
    "SUITE_PRIMES",
    "ADDITIVE_SAMPLES",
    "GF_CASES",
    "NEWTON_CASES",
    "DERIVATIVE_CASES",
    "HARMONIC_CASES",
]

SUITE_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                73, 79, 83, 89, 97, 101)
# the proper subgroup orders of each suite prime, which every sampler draw reads
_SUITE_ORDERS = {p: proper_orders(p) for p in SUITE_PRIMES}

# sample counts that no command sets; the CLI record reports them as the *_checked fields
ADDITIVE_SAMPLES = 200
GF_CASES = 500
NEWTON_CASES = 500
DERIVATIVE_CASES = 200
HARMONIC_CASES = 200


@dataclass(frozen=True)
class StepanovSuiteResult:
    lam_in_g_instances: int
    general_equalities: int
    shifted_equalities: int
    anomalies: tuple
    additive_failures: tuple
    flagship_degree: int
    flagship_tight: bool

    @property
    def passed(self) -> bool:
        return (
            not self.anomalies
            and not self.additive_failures
            and self.general_equalities > 0
            and self.shifted_equalities > 0
            and self.flagship_degree == 6
            and self.flagship_tight
        )


def _sample_instance(rng: random.Random, mode: str):
    """Draw one (A, B, lam, G) satisfying the product-shift hypothesis.

    Modes: "generic" draws free subsets of the admissible pool; "tight-general"
    and "tight-shifted" pin |A| = 1 and take the full (resp. zero-free-full)
    admissible set for B, which forces equality in the corresponding bound.
    """
    while True:
        p = rng.choice(SUITE_PRIMES)
        ctx = make_field(p)
        d = rng.choice(_SUITE_ORDERS[p])
        subgroup = subgroup_of_order(ctx, d)
        in_g = subgroup.elements
        if mode == "tight-shifted" or (mode == "generic" and rng.random() < 0.5):
            lam = rng.choice(in_g.elements())
        else:
            g_mask = in_g.mask
            non_g = [x for x in range(1, p) if not (g_mask >> x) & 1]
            if not non_g:
                continue
            lam = rng.choice(non_g)
        # the products t != 0 with t + lam in G union {0}: (G - lam) \ {0}
        # plus -lam, the image of 0, which is nonzero since lam is
        pool = build_target(subgroup, 1, -lam, with_zero=True).elements()
        if not pool:
            continue

        if mode in ("tight-general", "tight-shifted"):
            a1 = rng.randrange(1, p)
            inv_a1 = ctx.inv_table[a1]
            b_all = [t * inv_a1 % p for t in pool]
            if mode == "tight-shifted":
                kill = (p - lam) * inv_a1 % p
                b_all = [b for b in b_all if b != kill]
            if not b_all:
                continue
            return ElementSet.from_elements(p, [a1]), \
                ElementSet.from_elements(p, b_all), lam, subgroup

        a1 = rng.randrange(1, p)
        inv_a1 = ctx.inv_table[a1]
        b_universe = [t * inv_a1 % p for t in pool]
        m = rng.randint(1, min(4, len(b_universe)))
        b = rng.sample(b_universe, m)
        a_pool = set(range(1, p))
        for bj in b:
            inv_b = ctx.inv_table[bj]
            a_pool &= {t * inv_b % p for t in pool}
        a_pool.add(a1)
        n = rng.randint(1, min(3, len(a_pool)))
        a = set(rng.sample(sorted(a_pool), n))
        a.add(a1)
        return ElementSet.from_elements(p, a), \
            ElementSet.from_elements(p, b), lam, subgroup


def _sample_additive(rng: random.Random):
    """Draw (A, B, G) with A + B inside G union {0}; 0 allowed in A, B."""
    while True:
        p = rng.choice([q for q in SUITE_PRIMES if q <= 61])
        ctx = make_field(p)
        d = rng.choice(_SUITE_ORDERS[p])
        subgroup = subgroup_of_order(ctx, d)
        target = set(subgroup.elements.elements()) | {0}
        b = rng.sample(range(p), rng.randint(1, 3))
        a_pool = set(range(p))
        for bj in b:
            a_pool &= {(t - bj) % p for t in target}
        if not a_pool:
            continue
        n = rng.randint(1, min(4, len(a_pool)))
        a = rng.sample(sorted(a_pool), n)
        return ElementSet.from_elements(p, a), ElementSet.from_elements(p, b), subgroup


def _flagship_audit():
    """The F_11 instance: A={1,7}, B={1,2,3}, lam=2, |G|=5, degree 6 and tight."""
    subgroup = subgroup_of_order(make_field(11), 5)
    audit = audit_instance(
        ElementSet.from_elements(11, [1, 7]),
        ElementSet.from_elements(11, [1, 2, 3]),
        2,
        subgroup,
    )
    tight = (
        audit.general_equality
        and audit.degree == audit.degree_cap
        and root_multiplicity(audit.f, 3) == 2
    )
    return audit.degree, tight


def run_stepanov_suite(*, instances: int, seed: int) -> StepanovSuiteResult:
    """Audit `instances` sampled hypothesis-satisfying tuples, ADDITIVE_SAMPLES
    additive ones, and the flagships.

    Bound or structure failures raise immediately (audit_instance does the
    raising); a vanishing auxiliary polynomial is recorded as an anomaly.
    """
    rng = random.Random(seed)
    modes = ["generic"] * 8 + ["tight-general", "tight-shifted"]
    lam_in_g = 0
    general_eq = 0
    shifted_eq = 0
    anomalies = []
    for i in range(instances):
        mode = modes[i % len(modes)]
        a_set, b_set, lam, subgroup = _sample_instance(rng, mode)
        audit = audit_instance(a_set, b_set, lam, subgroup)
        if not audit.nonzero:
            anomalies.append((a_set.p, a_set.elements(), b_set.elements(), lam,
                              subgroup.order))
            continue
        lam_in_g += audit.lam_in_g
        general_eq += audit.general_equality
        shifted_eq += audit.shifted_equality

    additive_failures = []
    for _ in range(ADDITIVE_SAMPLES):
        a_set, b_set, subgroup = _sample_additive(rng)
        if not check_hp_additive_bound(a_set, b_set, subgroup):
            additive_failures.append(
                (a_set.p, a_set.elements(), b_set.elements(), subgroup.order))

    flagship_degree, flagship_tight = _flagship_audit()

    # Second pinned instance: p=13, squares, lam=1 in G, A={1}, B={2,3}.  Its
    # strict bound is checked (and raises on failure) unless f vanishes.
    audit13 = audit_instance(
        ElementSet.from_elements(13, [1]),
        ElementSet.from_elements(13, [2, 3]),
        1,
        subgroup_of_order(make_field(13), 6),
    )
    if not audit13.nonzero:
        anomalies.append((13, (1,), (2, 3), 1, 6))

    return StepanovSuiteResult(
        lam_in_g_instances=lam_in_g,
        general_equalities=general_eq,
        shifted_equalities=shifted_eq,
        anomalies=tuple(anomalies),
        additive_failures=tuple(additive_failures),
        flagship_degree=flagship_degree,
        flagship_tight=flagship_tight,
    )


@dataclass(frozen=True)
class IdentitySuiteResult:
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def run_identity_suite(*, seed: int) -> IdentitySuiteResult:
    """Exact identity fuzzing; every failure is collected with its inputs."""
    rng = random.Random(seed)
    failures = []

    for _ in range(GF_CASES):
        p = rng.choice(SUITE_PRIMES)
        n = rng.randint(1, 8)
        a = ElementSet.from_elements(p, rng.sample(range(1, p), n))
        if not check_gf_identity(a):
            failures.append(("gf", p, a.elements()))

    for _ in range(NEWTON_CASES):
        p = rng.choice(SUITE_PRIMES)
        ctx = make_field(p)
        size = rng.randint(1, 8)
        multiset = sorted(rng.randrange(p) for _ in range(size))
        psums = power_sums(ctx, multiset, size)
        from_sums = elementary_from_power_sums(ctx, psums)
        from_roots = elementary_from_roots(ctx, multiset)[1:]
        rebuilt = reconstruct_polynomial_from_power_sums(ctx, psums)
        direct = DensePoly.from_roots(p, multiset)
        roots = roots_over_field(rebuilt)
        if from_sums != from_roots or rebuilt != direct or list(roots) != multiset:
            failures.append(("newton", p, tuple(multiset)))

    for _ in range(DERIVATIVE_CASES):
        p = rng.choice(SUITE_PRIMES)
        b = rng.randrange(p)
        n = rng.randint(1, 4)
        while True:
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 7))]
            h = DensePoly(p, coeffs)
            if not h.is_zero() and h.evaluate(b) != 0:
                break
        if not check_derivative_ratio(h, b, n):
            failures.append(("derivative", p, tuple(coeffs), b, n))

    for _ in range(HARMONIC_CASES):
        p = rng.choice(SUITE_PRIMES)
        m = rng.randint(1, 10)
        b_set = ElementSet.from_elements(p, rng.sample(range(1, p), m))
        if not harmonic_sum_identity(b_set):
            failures.append(("harmonic", p, b_set.elements()))

    return IdentitySuiteResult(failures=tuple(failures))


@dataclass(frozen=True)
class UnitySuiteResult:
    claim_failures: tuple[int, ...]
    decomposition_witnesses: tuple
    max_quadruple_class: int

    @property
    def passed(self) -> bool:
        return not self.claim_failures and not self.decomposition_witnesses


def run_unity_suite(*, claim_max: int, decomposition_max: int,
                    classify_max: int) -> UnitySuiteResult:
    """Product-distinctness for m <= claim_max, empty 2x2 search for
    m <= decomposition_max, and the full dihedral classification for
    3 <= m <= classify_max (which raises TheoremViolation on any miss)."""
    claim_failures = []
    max_class = 0
    for m in range(3, claim_max + 1):
        verdict = check_xk_product_claim(m)
        max_class = max(max_class, verdict.max_quadruple_class)
        if not verdict.passed:
            claim_failures.append(m)

    decomposition_witnesses = []
    for m in range(3, decomposition_max + 1):
        decomposition_witnesses.extend(search_2x2_decomposition(m))

    for m in range(3, classify_max + 1):
        classify_circle_preserving_maps(m)

    return UnitySuiteResult(
        claim_failures=tuple(claim_failures),
        decomposition_witnesses=tuple(decomposition_witnesses),
        max_quadruple_class=max_class,
    )
