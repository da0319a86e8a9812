"""Field contexts, subgroups, and exact arithmetic tables."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    MAX_PRIME,
    ElementSet,
    NotADivisorError,
    NotPrimeError,
    OutOfRangeError,
    ZeroDivisorError,
    coset_test,
    enumerate_proper_subgroups,
    is_prime,
    make_field,
    subgroup_of_order,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestPrimality:
    def test_small_values(self):
        expected = {n for n in range(2, 200) if all(n % d for d in range(2, n))}
        assert {n for n in range(200) if is_prime(n)} == expected

    def test_edge_values(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)
        assert is_prime(2)
        assert is_prime(1_048_573)  # largest prime below 2^20
        assert not is_prime(1 << 20)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)


class TestMakeField:
    def test_rejects_composites(self):
        for n in (9, 15, 21, 561, 1 << 20):
            with pytest.raises(NotPrimeError):
                make_field(n)

    def test_rejects_out_of_range(self):
        for n in (-5, 0, 1, 2, MAX_PRIME + 1, MAX_PRIME + 2):
            with pytest.raises(OutOfRangeError):
                make_field(n)

    def test_accepts_odd_primes(self):
        for p in SMALL_PRIMES:
            assert make_field(p).p == p

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_inverse_table(self, p):
        ctx = make_field(p)
        for x in range(1, p):
            assert x * ctx.inv_table[x] % p == 1

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_factorial_tables(self, p):
        ctx = make_field(p)
        for k in range(p):
            assert ctx.factorial[k] == math.factorial(k) % p
            assert ctx.factorial[k] * ctx.inv_factorial[k] % p == 1

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_primitive_root_generates(self, p):
        ctx = make_field(p)
        g = ctx.primitive_root
        assert {pow(g, k, p) for k in range(p - 1)} == set(range(1, p))

    def test_element_order(self, f13):
        assert f13.element_order(1) == 1
        assert f13.element_order(12) == 2
        assert f13.element_order(3) == 3
        assert f13.element_order(5) == 4
        assert f13.element_order(2) == 12
        with pytest.raises(ZeroDivisorError):
            f13.element_order(0)

    def test_binomial_small(self, f13):
        for n in range(13):
            for k in range(n + 1):
                assert f13.binomial(n, k) == math.comb(n, k) % 13

    def test_binomial_lucas_digits(self, f7):
        for n in range(7, 60):
            for k in range(n + 1):
                assert f7.binomial(n, k) == math.comb(n, k) % 7

    def test_binomial_out_of_range(self, f7):
        assert f7.binomial(5, -1) == 0
        assert f7.binomial(5, 6) == 0


class TestSubgroups:
    def test_order_three_mod_13(self, f13):
        g = subgroup_of_order(f13, 3)
        assert g.elements.elements() == (1, 3, 9)
        assert g.order == 3
        assert g.index == 4

    def test_order_four_mod_13(self, f13):
        g = subgroup_of_order(f13, 4)
        assert g.elements.elements() == (1, 5, 8, 12)

    def test_quadratic_residues_mod_11(self, f11):
        g = subgroup_of_order(f11, 5)
        assert g.elements.elements() == (1, 3, 4, 5, 9)

    def test_trivial_subgroup(self, f7):
        g = subgroup_of_order(f7, 1)
        assert g.elements.elements() == (1,)

    def test_full_group(self, f7):
        g = subgroup_of_order(f7, 6)
        assert g.elements.elements() == (1, 2, 3, 4, 5, 6)

    def test_rejects_non_divisor(self, f13):
        for d in (0, -1, 5, 7, 13):
            with pytest.raises(NotADivisorError):
                subgroup_of_order(f13, d)

    def test_generator_has_exact_order(self, f13):
        for d in (1, 2, 3, 4, 6, 12):
            g = subgroup_of_order(f13, d)
            assert f13.element_order(g.generator) == d

    def test_membership_protocol(self, f13):
        g = subgroup_of_order(f13, 3)
        assert 3 in g
        assert 2 not in g

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_closure_under_multiplication(self, p):
        ctx = make_field(p)
        for g in enumerate_proper_subgroups(ctx):
            elems = g.elements.elements()
            assert len(elems) == g.order
            for a in elems:
                for b in elems:
                    assert a * b % p in g

    def test_enumerate_proper_orders(self, f13):
        orders = [g.order for g in enumerate_proper_subgroups(f13)]
        assert orders == [1, 2, 3, 4, 6]  # every divisor of 12 except 12 itself


class TestCosetTest:
    def test_subgroup_itself(self, f13):
        g = subgroup_of_order(f13, 3)
        assert coset_test(f13, g.elements) == (3, 1)

    def test_proper_coset(self, f13):
        # 2 * {1,3,9} = {2,6,5}
        shifted = ElementSet.from_elements(13, [2, 5, 6])
        assert coset_test(f13, shifted) == (3, 2)

    def test_non_coset(self, f13):
        assert coset_test(f13, ElementSet.from_elements(13, [1, 2])) is None

    def test_singleton_is_trivial_coset(self, f13):
        assert coset_test(f13, ElementSet.from_elements(13, [4])) == (1, 4)

    def test_set_containing_zero_rejected(self, f13):
        from shiftdecomp import ZeroElementError

        with pytest.raises(ZeroElementError):
            coset_test(f13, ElementSet.from_elements(13, [0, 1, 3, 9]))

    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_every_coset_is_recognized(self, p, data):
        ctx = make_field(p)
        groups = enumerate_proper_subgroups(ctx)
        g = data.draw(st.sampled_from(groups))
        c = data.draw(st.integers(min_value=1, max_value=p - 1))
        coset = ElementSet.from_elements(p, [c * x % p for x in g.elements])
        assert coset_test(ctx, coset) == (g.order, min(coset.elements()))
