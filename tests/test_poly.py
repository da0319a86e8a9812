"""Dense polynomial arithmetic over prime fields."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import DensePoly, root_multiplicity

PRIMES = (5, 7, 11, 13)


def polys(p: int, max_degree: int = 6) -> st.SearchStrategy[DensePoly]:
    return st.lists(
        st.integers(min_value=0, max_value=p - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: DensePoly(p, cs))


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        f = DensePoly(7, [1, 2, 0, 0])
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_coefficients_reduced(self):
        f = DensePoly(7, [8, -1])
        assert f.coeffs == (1, 6)

    def test_zero_polynomial(self):
        z = DensePoly.zero(7)
        assert z.is_zero()
        assert z.coeffs == ()
        assert DensePoly(7, [0, 0]).is_zero()

    def test_zero_degree_convention(self):
        assert DensePoly.zero(7).degree == -1
        assert DensePoly(7, [3]).degree == 0

    def test_monomial(self):
        f = DensePoly.monomial(7, 3, 2)
        assert f.coeffs == (0, 0, 0, 2)
        assert f.degree == 3

    def test_accessors(self):
        f = DensePoly(7, [5, 0, 3])
        assert f.coefficient(0) == 5
        assert f.coefficient(1) == 0
        assert f.coefficient(2) == 3
        assert f.coefficient(9) == 0

    def test_constant_constructor(self):
        f = DensePoly.constant(7, 9)
        assert f.coeffs == (2,)
        assert DensePoly.constant(7, 0).is_zero()


class TestArithmetic:
    def test_add_sub(self):
        f = DensePoly(7, [1, 2, 3])
        g = DensePoly(7, [6, 5, 4])
        assert (f + g).is_zero()  # coefficients cancel pairwise mod 7
        assert (f + f.scale(-1)).is_zero()
        assert (f + DensePoly(7, [1])).coeffs == (2, 2, 3)

    def test_mul(self):
        f = DensePoly(7, [1, 1])  # x + 1
        g = DensePoly(7, [6, 1])  # x - 1
        assert (f * g).coeffs == (6, 0, 1)  # x^2 - 1

    def test_scale(self):
        f = DensePoly(7, [1, 2])
        assert f.scale(3).coeffs == (3, 6)
        assert f.scale(0).is_zero()

    def test_evaluate(self):
        f = DensePoly(7, [5, 0, 1])  # x^2 + 5
        assert f.evaluate(0) == 5
        assert f.evaluate(3) == 0  # 9 + 5 = 14
        assert f.evaluate(4) == 0

    def test_derivative(self):
        f = DensePoly(7, [5, 2, 0, 1])  # x^3 + 2x + 5
        assert f.derivative().coeffs == (2, 0, 3)
        assert DensePoly(7, [4]).derivative().is_zero()

    def test_frobenius_kills_derivative(self):
        f = DensePoly.monomial(7, 7)  # x^7 has derivative 7x^6 = 0
        assert f.derivative().is_zero()

    @given(st.sampled_from(PRIMES), st.data())
    def test_evaluation_is_ring_morphism(self, p, data):
        f = data.draw(polys(p))
        g = data.draw(polys(p))
        x = data.draw(st.integers(min_value=0, max_value=p - 1))
        assert (f + g).evaluate(x) == (f.evaluate(x) + g.evaluate(x)) % p
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x) % p

    @given(st.sampled_from(PRIMES), st.data())
    def test_product_derivative_rule(self, p, data):
        f = data.draw(polys(p))
        g = data.draw(polys(p))
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


class TestRootsAndDivision:
    def test_from_roots_monic(self):
        f = DensePoly.from_roots(7, [1, 1, 3])
        assert f.degree == 3
        assert f.coeffs[-1] == 1
        for r in (1, 3):
            assert f.evaluate(r) == 0
        assert f.evaluate(2) != 0

    def test_from_roots_empty(self):
        f = DensePoly.from_roots(7, [])
        assert f.coeffs == (1,)

    def test_divide_linear_exact(self):
        f = DensePoly.from_roots(7, [2, 5])
        q, rem = f.divide_linear(2)
        assert rem == 0
        assert q == DensePoly.from_roots(7, [5])

    def test_divide_linear_remainder_is_value(self):
        f = DensePoly(7, [3, 1, 1])
        q, rem = f.divide_linear(4)
        assert rem == f.evaluate(4)
        assert q * DensePoly(7, [-4, 1]) + DensePoly(7, [rem]) == f

    def test_root_multiplicity(self):
        f = DensePoly.from_roots(7, [1, 1, 3])
        assert root_multiplicity(f, 1) == 2
        assert root_multiplicity(f, 3) == 1
        assert root_multiplicity(f, 0) == 0
        assert root_multiplicity(f, 2) == 0

    def test_root_multiplicity_of_monomial(self):
        f = DensePoly.monomial(11, 4, 3)
        assert root_multiplicity(f, 0) == 4

    @given(st.sampled_from(PRIMES), st.data())
    def test_from_roots_multiplicities(self, p, data):
        roots = data.draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=5)
        )
        f = DensePoly.from_roots(p, roots)
        assert f.degree == len(roots)
        for r in set(roots):
            assert root_multiplicity(f, r) == roots.count(r)

    @given(st.sampled_from(PRIMES), st.data())
    def test_synthetic_division_round_trip(self, p, data):
        f = data.draw(polys(p))
        b = data.draw(st.integers(min_value=0, max_value=p - 1))
        q, rem = f.divide_linear(b)
        assert q * DensePoly(p, [-b, 1]) + DensePoly(p, [rem]) == f
