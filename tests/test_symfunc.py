"""Power sums, elementary symmetric functions, and Newton-recursion round trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    DensePoly,
    NonInvertibleIndexError,
    elementary_from_power_sums,
    elementary_from_roots,
    make_field,
    power_sums,
    reconstruct_polynomial_from_power_sums,
    roots_over_field,
)

PRIMES = (5, 7, 11, 13)


class TestPowerSums:
    def test_small_example(self, f7):
        # (3, 5): p1 = 8, p2 = 34, p3 = 152, p4 = 706 reduced mod 7
        assert power_sums(f7, (3, 5), 4) == (1, 6, 5, 6)

    def test_multiset_counts_repeats(self, f7):
        assert power_sums(f7, (2, 2), 2) == (4, 1)

    def test_empty_multiset(self, f7):
        assert power_sums(f7, (), 3) == (0, 0, 0)

    def test_count_zero(self, f7):
        assert power_sums(f7, (3, 5), 0) == ()


class TestElementary:
    def test_from_roots_includes_e0(self, f7):
        # (3, 5): e0 = 1, e1 = 8 = 1, e2 = 15 = 1
        assert elementary_from_roots(f7, (3, 5)) == (1, 1, 1)

    def test_from_power_sums_excludes_e0(self, f7):
        assert elementary_from_power_sums(f7, (1, 6)) == (1, 1)

    def test_newton_recursion_matches_roots(self, f13):
        roots = (2, 2, 7, 11)
        psums = power_sums(f13, roots, len(roots))
        assert elementary_from_power_sums(f13, psums) == elementary_from_roots(
            f13, roots
        )[1:]

    def test_non_invertible_index_rejected(self, f7):
        with pytest.raises(NonInvertibleIndexError):
            elementary_from_power_sums(f7, (1,) * 7)

    @given(st.sampled_from(PRIMES), st.data())
    def test_round_trip_random_multisets(self, p, data):
        ctx = make_field(p)
        roots = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=p - 1
            )
        )
        psums = power_sums(ctx, roots, len(roots))
        assert (
            elementary_from_power_sums(ctx, psums)
            == elementary_from_roots(ctx, roots)[1:]
        )


class TestReconstruction:
    def test_matches_from_roots(self, f7):
        psums = power_sums(f7, (3, 5), 2)
        f = reconstruct_polynomial_from_power_sums(f7, psums)
        assert f == DensePoly.from_roots(7, [3, 5])

    def test_monic(self, f13):
        roots = (1, 4, 4, 9)
        f = reconstruct_polynomial_from_power_sums(
            f13, power_sums(f13, roots, len(roots))
        )
        assert f.degree == 4
        assert f.coeffs[-1] == 1

    @given(st.sampled_from(PRIMES), st.data())
    def test_reconstruction_recovers_multiset(self, p, data):
        ctx = make_field(p)
        roots = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=p - 1
            )
        )
        f = reconstruct_polynomial_from_power_sums(
            ctx, power_sums(ctx, roots, len(roots))
        )
        assert f == DensePoly.from_roots(p, roots)


class TestRootsOverField:
    def test_rootless_quadratic(self, f7):
        # discriminant 16 - 24 = -8 = 6, a quadratic nonresidue mod 7
        assert roots_over_field(f7, DensePoly(7, [6, -4, 1])) == ()

    def test_multiplicity_reported(self, f7):
        f = DensePoly.from_roots(7, [1, 1, 3])
        assert roots_over_field(f7, f) == (1, 1, 3)

    def test_split_polynomial(self, f7):
        # x^6 - 1 splits completely over F_7
        f = DensePoly(7, [-1] + [0] * 5 + [1])
        assert roots_over_field(f7, f) == (1, 2, 3, 4, 5, 6)

    @given(st.sampled_from(PRIMES), st.data())
    def test_recovers_sorted_multiset(self, p, data):
        ctx = make_field(p)
        roots = data.draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=0, max_size=5)
        )
        f = DensePoly.from_roots(p, roots)
        assert roots_over_field(ctx, f) == tuple(sorted(roots))


class TestKnownValues:
    def test_power_sums_and_elementary_mod_13(self, f13):
        elements = (2, 5, 6)
        assert power_sums(f13, elements, 3) == (0, 0, 11)
        assert elementary_from_roots(f13, elements) == (1, 0, 0, 8)
