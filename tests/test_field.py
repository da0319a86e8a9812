"""Field contexts, subgroups, and exact arithmetic tables."""

from __future__ import annotations

import pytest

from shiftdecomp import (
    MAX_PRIME,
    ElementSet,
    MultSubgroup,
    NotADivisorError,
    NotASubgroupError,
    NotPrimeError,
    OutOfRangeError,
    audit_instance,
    enumerate_proper_subgroups,
    is_prime,
    make_field,
    subgroup_of_order,
)
from shiftdecomp.field import _subgroup_mask, proper_orders

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
    def test_primitive_root_generates(self, p):
        # and it is the smallest generator: at p = 3, the only one, 2
        ctx = make_field(p)
        g = ctx.primitive_root
        assert {pow(g, k, p) for k in range(p - 1)} == set(range(1, p))
        assert all(len({pow(h, k, p) for k in range(p - 1)}) < p - 1 for h in range(2, g))


class TestSubgroups:
    def test_order_three_mod_13(self, f13):
        g = subgroup_of_order(f13, 3)
        assert g.elements.elements() == (1, 3, 9)
        assert g.order == 3

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

    def test_field_is_that_of_the_elements(self, f11):
        g = subgroup_of_order(f11, 5)
        assert MultSubgroup(g.elements).ctx is f11

    def test_order_is_the_count_of_the_elements(self, f11):
        # a stated order of 1 for these elements once failed the flagship audit
        g = MultSubgroup(subgroup_of_order(f11, 5).elements)
        assert g.order == 5
        audit = audit_instance(ElementSet.from_elements(11, [1, 7]),
                               ElementSet.from_elements(11, [1, 2, 3]), 2, g)
        assert audit.degree == 6

    @pytest.mark.parametrize("elements", [(1, 2, 3, 4, 6), (1, 10, 3), (0, 1), (0,), ()])
    def test_rejects_a_set_that_is_not_a_subgroup(self, elements):
        # (1, 2, 3, 4, 6) has the size of the order-5 subgroup {1, 3, 4, 5, 9}
        with pytest.raises(NotASubgroupError):
            MultSubgroup(ElementSet.from_elements(11, elements))

    def test_equal_exactly_when_the_elements_are(self, f11):
        g5, g2 = subgroup_of_order(f11, 5), subgroup_of_order(f11, 2)
        assert MultSubgroup(g5.elements) == g5
        assert hash(MultSubgroup(g5.elements)) == hash(g5)
        assert g5 != g2
        assert g5 != subgroup_of_order(make_field(31), 5)

    def test_rejects_non_divisor(self, f13):
        for d in (0, -1, 5, 7, 13):
            with pytest.raises(NotADivisorError):
                subgroup_of_order(f13, d)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_closure_under_multiplication(self, p):
        ctx = make_field(p)
        for g in enumerate_proper_subgroups(ctx):
            elems = g.elements.elements()
            assert len(elems) == g.order
            for a in elems:
                for b in elems:
                    assert a * b % p in g.elements

    def test_masks_match_residues(self):
        # the subgroup of order d is the set of roots of x^d = 1
        for p in filter(is_prime, range(3, 212)):
            for d in proper_orders(p):
                expected = sum(1 << x for x in range(1, p) if pow(x, d, p) == 1)
                assert _subgroup_mask(p, d) == expected, (p, d)

    def test_mask_of_the_squares_at_65537(self):
        p = 65_537
        # bit x is 1 exactly when x is a square (Euler's criterion), most significant first
        bits = "".join("1" if pow(x, (p - 1) // 2, p) == 1 else "0"
                       for x in range(p - 1, 0, -1))
        assert _subgroup_mask(p, (p - 1) // 2) == int(bits + "0", 2)

    def test_enumerate_proper_orders(self, f13):
        orders = [g.order for g in enumerate_proper_subgroups(f13)]
        assert orders == [1, 2, 3, 4, 6]  # every divisor of 12 except 12 itself

