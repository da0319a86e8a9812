"""Auxiliary-polynomial construction, multiplicity audits, and exact identities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    BoundViolationError,
    DensePoly,
    ElementSet,
    FactorialOverflowError,
    HypothesisViolatedError,
    ModulusMismatchError,
    NotPrimeError,
    UnexpectedRootError,
    ZeroElementError,
    ZeroParameterError,
    audit_instance,
    build_auxiliary_polynomial,
    check_derivative_ratio,
    check_gf_identity,
    check_hp_additive_bound,
    harmonic_sum_identity,
    make_field,
    run_stepanov_suite,
    solve_coefficients,
    stepanov,
    subgroup_of_order,
)

PRIMES = (7, 11, 13, 17)


def nonzero_subsets(p: int, min_size: int, max_size: int):
    return st.sets(
        st.integers(min_value=1, max_value=p - 1), min_size=min_size, max_size=max_size
    ).map(lambda s: ElementSet.from_elements(p, s))


def moment(p: int, a_set: ElementSet, coeffs: tuple[int, ...], k: int) -> int:
    return sum(c * pow(a, k, p) for c, a in zip(coeffs, a_set.elements())) % p


class TestSolveCoefficients:
    def test_pair_example(self):
        assert solve_coefficients(ElementSet.from_elements(7, [1, 2])) == (2, 6)

    def test_singleton(self):
        assert solve_coefficients(ElementSet.from_elements(7, [3])) == (1,)

    def test_moment_normalization(self):
        a_set = ElementSet.from_elements(7, [1, 2])
        coeffs = solve_coefficients(a_set)
        assert moment(7, a_set, coeffs, 0) == 1
        assert moment(7, a_set, coeffs, 1) == 0
        assert moment(7, a_set, coeffs, 2) == 5

    def test_rejects_zero_element(self):
        with pytest.raises(ZeroElementError):
            solve_coefficients(ElementSet.from_elements(7, [0, 1]))

    def test_rejects_composite_modulus(self):
        with pytest.raises(NotPrimeError):
            solve_coefficients(ElementSet.from_elements(15, [1, 2]))

    @given(st.sampled_from(PRIMES), st.data())
    def test_moment_window_vanishes(self, p, data):
        a_set = data.draw(nonzero_subsets(p, 1, min(5, p - 1)))
        coeffs = solve_coefficients(a_set)
        n = len(a_set)
        assert moment(p, a_set, coeffs, 0) == 1
        for k in range(1, n):
            assert moment(p, a_set, coeffs, k) == 0

    @given(st.sampled_from(PRIMES), st.data())
    def test_coefficients_never_zero(self, p, data):
        # each c_i is a ratio of products of nonzero field elements
        a_set = data.draw(nonzero_subsets(p, 1, min(5, p - 1)))
        assert all(c != 0 for c in solve_coefficients(a_set))


class TestBuildAuxiliaryPolynomial:
    def test_singleton_unit_instance(self):
        # single node at 1 with unit shift: (x + 1)^3 - 1 = x^3 + 3x^2 + 3x
        f = build_auxiliary_polynomial(ElementSet.from_elements(7, [1]), 1, 3)
        assert f.coeffs == (0, 3, 3, 1)

    def test_singleton_shift_three(self):
        # (x + 3)^3 - 1 over F_7 factors as (x-1)(x-5)(x-6)
        f = build_auxiliary_polynomial(ElementSet.from_elements(7, [1]), 3, 3)
        assert f.coeffs == (5, 6, 2, 1)
        assert f == DensePoly.from_roots(7, [1, 5, 6])

    def test_rejects_zero_shift(self):
        with pytest.raises(ZeroParameterError):
            build_auxiliary_polynomial(ElementSet.from_elements(7, [1]), 0, 3)

    def test_binomial_coefficients_below_p(self):
        # A = {1}, lam = 1 gives (x + 1)^N - 1, whose x^k coefficient is binom(N, k)
        for n in range(1, 13):
            f = build_auxiliary_polynomial(ElementSet.from_elements(13, [1]), 1, n)
            coeffs = [0] + [math.comb(n, k) % 13 for k in range(1, n + 1)]
            assert f == DensePoly(13, coeffs), n

    def test_binomial_coefficients_past_p(self):
        # N >= p: binom(N, k) mod 7 follows the base-7 digits of N and k (Lucas)
        for n in range(7, 60):
            f = build_auxiliary_polynomial(ElementSet.from_elements(7, [1]), 1, n)
            coeffs = [0] + [math.comb(n, k) % 7 for k in range(1, n + 1)]
            assert f == DensePoly(7, coeffs), n

    def test_frobenius_collapse_with_fallback(self):
        # degree cap 7 = p: (u + v)^7 = u^7 + v^7 over F_7 collapses the whole
        # construction to the zero polynomial, which the audit layer must flag
        f = build_auxiliary_polynomial(ElementSet.from_elements(7, [1, 2]), 3, 6)
        assert f.is_zero()

    @given(st.sampled_from(PRIMES), st.data())
    def test_matches_direct_expansion(self, p, data):
        # -lam^(n-1) + sum c_i (a_i x + lam)^N by polynomial arithmetic, N up to 3p + 3
        a_set = data.draw(nonzero_subsets(p, 1, 4))
        lam = data.draw(st.integers(min_value=1, max_value=p - 1))
        g_order = data.draw(st.integers(min_value=1, max_value=3 * p))
        n = len(a_set)
        expected = DensePoly.constant(p, -pow(lam, n - 1, p))
        for c, a in zip(solve_coefficients(a_set), a_set.elements()):
            expected = expected + (DensePoly(p, (lam, a)) ** (n - 1 + g_order)).scale(c)
        assert build_auxiliary_polynomial(a_set, lam, g_order) == expected

    @given(st.sampled_from(PRIMES), st.data())
    def test_low_order_window_vanishes(self, p, data):
        max_n = 4
        a_set = data.draw(nonzero_subsets(p, 1, max_n))
        n = len(a_set)
        g_order = data.draw(st.sampled_from([d for d in range(1, p - n + 1) if (p - 1) % d == 0]))
        if n - 1 + g_order >= p:
            return
        lam = data.draw(st.integers(min_value=1, max_value=p - 1))
        f = build_auxiliary_polynomial(a_set, lam, g_order)
        for k in range(1, n):
            assert f.coefficient(k) == 0
        assert f.degree <= n - 1 + g_order


class TestAuditInstance:
    def test_general_equality_instance(self, f7):
        g = subgroup_of_order(f7, 3)  # {1, 2, 4}
        audit = audit_instance(
            ElementSet.from_elements(7, [1]),
            ElementSet.from_elements(7, [1, 4, 5, 6]),
            3,
            g,
        )
        assert audit.degree == 3
        assert audit.r == 1
        assert audit.r_elements == (4,)
        assert audit.lam_in_g is False
        # general_equality is only returned once the tight factorization holds
        assert audit.general_equality
        assert audit.nonzero

    def test_shifted_equality_instance(self, f7):
        g = subgroup_of_order(f7, 3)
        audit = audit_instance(
            ElementSet.from_elements(7, [1]),
            ElementSet.from_elements(7, [2, 6]),
            2,
            g,
        )
        assert audit.lam_in_g is True
        assert audit.r == 0
        # shifted_equality is only returned once the tight factorization holds
        assert audit.shifted_equality
        assert audit.zero_multiplicity == 1
        # with lam in G, a nonzero f has passed the strict size bound
        assert audit.nonzero

    def test_flagship_instance(self, f11):
        g = subgroup_of_order(f11, 5)  # {1, 3, 4, 5, 9}
        audit = audit_instance(
            ElementSet.from_elements(11, [1, 7]),
            ElementSet.from_elements(11, [1, 2, 3]),
            2,
            g,
        )
        assert audit.degree == 6
        assert audit.degree_cap == 6
        assert audit.r == 0
        assert audit.multiplicities == ((1, 2), (2, 2), (3, 2))
        assert audit.general_equality
        # the size bound 2 * 3 <= 5 + 0 + 2 - 1 holds with equality
        assert audit.nonzero

    def test_rejects_escaping_product(self, f11):
        g = subgroup_of_order(f11, 5)
        with pytest.raises(HypothesisViolatedError):
            audit_instance(
                ElementSet.from_elements(11, [1]),
                ElementSet.from_elements(11, [1]),
                1,
                g,
            )  # 1 * 1 + 1 = 2 is not in G u {0}

    def test_exhaustive_small_instances(self):
        # every singleton-A instance over F_7 and F_11 satisfies the audited claims
        from shiftdecomp import enumerate_proper_subgroups

        checked = 0
        for p in (7, 11):
            ctx = make_field(p)
            for g in enumerate_proper_subgroups(ctx):
                pool_target = g.elements.with_element(0)
                for lam in range(1, p):
                    pool = [
                        t
                        for t in range(1, p)
                        if (t + lam) % p in pool_target
                    ]
                    if not pool:
                        continue
                    b_full = ElementSet.from_elements(p, pool)
                    audit = audit_instance(
                        ElementSet.from_elements(p, [1]), b_full, lam, g
                    )
                    assert audit.nonzero
                    checked += 1
        assert checked == 48  # 18 instances over F_7 plus 30 over F_11


class TestSharedField:
    """A, B and G of one audit must lie in one field.

    In F_11, A = {1}, B = {2}, lam = 1 and G = {1, 3, 4, 5, 9} meet both
    hypotheses (1 * 2 + 1 = 1 + 2 = 3 is in G); each probe swaps one of the
    three inputs for one over F_7.
    """

    @staticmethod
    def _probes():
        a, b = ElementSet.from_elements(11, [1]), ElementSet.from_elements(11, [2])
        g = subgroup_of_order(make_field(11), 5)
        a7, b7 = ElementSet.from_elements(7, [1]), ElementSet.from_elements(7, [2])
        g7 = subgroup_of_order(make_field(7), 3)
        return (a, b, g), [(a7, b, g), (a, b7, g), (a7, b7, g), (a, b, g7)]

    def test_audit_rejects_inputs_from_two_fields(self):
        same, mixed = self._probes()
        assert audit_instance(same[0], same[1], 1, same[2]).nonzero
        for a, b, g in mixed:
            with pytest.raises(ModulusMismatchError):
                audit_instance(a, b, 1, g)

    def test_additive_bound_rejects_inputs_from_two_fields(self):
        same, mixed = self._probes()
        assert check_hp_additive_bound(*same)
        for a, b, g in mixed:
            with pytest.raises(ModulusMismatchError):
                check_hp_additive_bound(a, b, g)


class TestVanishingPolynomial:
    @pytest.fixture(autouse=True)
    def zero_auxiliary_polynomial(self, monkeypatch):
        monkeypatch.setattr(stepanov, "build_auxiliary_polynomial",
                            lambda a_set, lam, g_order: DensePoly.zero(a_set.p))

    def test_audit_returns_instead_of_raising(self, f7):
        audit = audit_instance(
            ElementSet.from_elements(7, [1]),
            ElementSet.from_elements(7, [1, 4, 5, 6]),
            3,
            subgroup_of_order(f7, 3),
        )
        assert not audit.nonzero
        assert audit.degree == -1
        assert audit.r_elements == (4,)
        assert audit.multiplicities == ()
        assert audit.zero_multiplicity is None
        assert not audit.general_equality
        assert not audit.shifted_equality

    def test_suite_counts_every_instance_as_an_anomaly(self):
        r = run_stepanov_suite(instances=10, seed=1)
        assert len(r.anomalies) == 11  # the 10 sampled instances and the pinned p = 13 one
        assert r.flagship_degree == -1
        assert not r.flagship_tight
        assert not r.passed


class TestAdditiveBound:
    def test_squares_mod_13(self, f13):
        g = subgroup_of_order(f13, 6)
        assert check_hp_additive_bound(
            ElementSet.from_elements(13, [0, 1]),
            ElementSet.from_elements(13, [0, 3]),
            g,
        )

    def test_rejects_escaping_sum(self, f13):
        g = subgroup_of_order(f13, 6)
        with pytest.raises(HypothesisViolatedError):
            check_hp_additive_bound(
                ElementSet.from_elements(13, [2]),
                ElementSet.from_elements(13, [0]),
                g,
            )  # 2 is not a quadratic residue mod 13

    def test_exhaustive_pairs_mod_13(self, f13):
        # the bound holds for every pair of 2-element sets with A + B inside QR u {0}
        g = subgroup_of_order(f13, 6)
        target = set(g.elements.elements()) | {0}
        count = 0
        for a1 in range(13):
            for a2 in range(a1 + 1, 13):
                for b1 in range(13):
                    for b2 in range(b1 + 1, 13):
                        sums = {(a1 + b1) % 13, (a1 + b2) % 13, (a2 + b1) % 13, (a2 + b2) % 13}
                        if sums <= target:
                            assert check_hp_additive_bound(
                                ElementSet.from_elements(13, [a1, a2]),
                                ElementSet.from_elements(13, [b1, b2]),
                                g,
                            )
                            count += 1
        assert count > 0


class TestExactIdentities:
    def test_gf_identity_example(self):
        assert check_gf_identity(ElementSet.from_elements(7, [1, 2]))

    @given(st.sampled_from(PRIMES), st.data())
    def test_gf_identity_random(self, p, data):
        a_set = data.draw(nonzero_subsets(p, 1, min(6, p - 1)))
        assert check_gf_identity(a_set)

    def test_derivative_ratio_example(self):
        assert check_derivative_ratio(DensePoly(13, [1, 1]), 2, 3)

    def test_derivative_ratio_rejects_root(self):
        with pytest.raises(UnexpectedRootError):
            check_derivative_ratio(DensePoly(7, [5, 1]), 2, 3)

    def test_derivative_ratio_rejects_factorial_overflow(self):
        with pytest.raises(FactorialOverflowError):
            check_derivative_ratio(DensePoly(7, [1, 1]), 2, 6)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    def test_derivative_ratio_every_multiplicity(self, p):
        # f^(n)(b) = n! h(b) and f^(n+1)(b) = (n+1)! h'(b) reach every k! with 2 <= k < p
        for n in range(1, p - 1):
            assert check_derivative_ratio(DensePoly(p, (1, 1)), 1, n)

    @given(st.sampled_from(PRIMES), st.data())
    def test_derivative_ratio_random(self, p, data):
        n = data.draw(st.integers(min_value=1, max_value=min(4, p - 2)))
        b = data.draw(st.integers(min_value=0, max_value=p - 1))
        coeffs = data.draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=3)
        )
        h = DensePoly(p, coeffs)
        if h.evaluate(b) == 0:
            return
        assert check_derivative_ratio(h, b, n)

    def test_harmonic_example(self):
        assert harmonic_sum_identity(ElementSet.from_elements(7, [1, 2]))

    def test_harmonic_rejects_zero(self):
        with pytest.raises(ZeroElementError):
            harmonic_sum_identity(ElementSet.from_elements(7, [0, 1]))

    def test_harmonic_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_sum_identity(ElementSet.from_elements(7, []))

    @given(st.sampled_from(PRIMES), st.data())
    def test_harmonic_random(self, p, data):
        b_set = data.draw(nonzero_subsets(p, 1, p - 1))
        assert harmonic_sum_identity(b_set)
