"""Bitmask element sets, composition operators, and target builders."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    ElementSet,
    ModulusMismatchError,
    SetOp,
    TargetVariant,
    ZeroDivisorError,
    ZeroParameterError,
    ZeroScaleError,
    affine_image,
    build_target,
    compose_sets,
    enumerate_proper_subgroups,
    make_field,
    primes_in_range,
    representation_counts,
    subgroup_of_order,
)

PRIMES = (3, 5, 7, 11, 13)


def subsets(p: int, *, min_size: int = 0) -> st.SearchStrategy[ElementSet]:
    return st.sets(
        st.integers(min_value=0, max_value=p - 1), min_size=min_size, max_size=p
    ).map(lambda s: ElementSet.from_elements(p, s))


class TestElementSet:
    def test_reduction_and_dedup(self):
        s = ElementSet.from_elements(7, [8, 1, -6, 15])
        assert s.elements() == (1,)
        assert len(s) == 1

    def test_sorted_elements(self):
        s = ElementSet.from_elements(11, [9, 2, 5])
        assert s.elements() == (2, 5, 9)
        assert list(s) == [2, 5, 9]

    def test_membership_and_equality(self):
        s = ElementSet.from_elements(7, [1, 4])
        assert 4 in s and 2 not in s
        assert s == ElementSet.from_elements(7, [4, 1])
        assert s != ElementSet.from_elements(7, [1])

    def test_with_and_without_element(self):
        s = ElementSet.from_elements(7, [1, 4])
        assert s.with_element(0).elements() == (0, 1, 4)
        assert s.without_element(4).elements() == (1,)
        assert s.with_element(4) == s

    def test_subset_relation(self):
        small = ElementSet.from_elements(7, [1, 4])
        big = ElementSet.from_elements(7, [0, 1, 4])
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_empty_set(self):
        e = ElementSet.from_elements(7, [])
        assert len(e) == 0
        assert e.elements() == ()


class TestComposeSets:
    def test_sum(self):
        x = ElementSet.from_elements(7, [1, 2])
        y = ElementSet.from_elements(7, [0, 3])
        assert compose_sets(x, y, SetOp.SUM).elements() == (1, 2, 4, 5)

    def test_difference(self):
        x = ElementSet.from_elements(7, [1, 2])
        y = ElementSet.from_elements(7, [0, 3])
        assert compose_sets(x, y, SetOp.DIFFERENCE).elements() == (1, 2, 5, 6)

    def test_product(self):
        x = ElementSet.from_elements(7, [1, 2])
        y = ElementSet.from_elements(7, [0, 3])
        assert compose_sets(x, y, SetOp.PRODUCT).elements() == (0, 3, 6)

    def test_ratio(self):
        x = ElementSet.from_elements(7, [1, 2, 4])
        assert compose_sets(x, x, SetOp.RATIO).elements() == (1, 2, 4)

    def test_ratio_rejects_zero_denominator(self):
        x = ElementSet.from_elements(7, [1, 2])
        y = ElementSet.from_elements(7, [0, 3])
        with pytest.raises(ZeroDivisorError):
            compose_sets(x, y, SetOp.RATIO)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            compose_sets(
                ElementSet.from_elements(7, [1]),
                ElementSet.from_elements(11, [1]),
                SetOp.SUM,
            )

    def test_empty_operand(self):
        x = ElementSet.from_elements(7, [1, 2])
        e = ElementSet.from_elements(7, [])
        assert compose_sets(e, x, SetOp.SUM).elements() == ()

    @given(st.sampled_from(PRIMES), st.sampled_from(list(SetOp)), st.data())
    def test_matches_naive_composition(self, p, op, data):
        x = data.draw(subsets(p))
        y = data.draw(subsets(p))
        if op is SetOp.RATIO and 0 in y:
            y = y.without_element(0)
        combine = {
            SetOp.SUM: lambda a, b: (a + b) % p,
            SetOp.DIFFERENCE: lambda a, b: (a - b) % p,
            SetOp.PRODUCT: lambda a, b: a * b % p,
            SetOp.RATIO: lambda a, b: a * pow(b, p - 2, p) % p,
        }[op]
        expected = {combine(a, b) for a in x for b in y}
        assert set(compose_sets(x, y, op)) == expected

    @given(st.sampled_from(PRIMES), st.sampled_from(list(SetOp)), st.data())
    def test_size_bounds(self, p, op, data):
        x = data.draw(subsets(p, min_size=1))
        y = data.draw(subsets(p, min_size=1))
        if op is SetOp.RATIO:
            y = y.without_element(0)
            if len(y) == 0:
                return
        z = compose_sets(x, y, op)
        assert 1 <= len(z) <= min(len(x) * len(y), p)


class TestRepresentationCounts:
    def test_small_sum(self):
        x = ElementSet.from_elements(7, [1, 2])
        counts = representation_counts(x, x, SetOp.SUM)
        assert counts == {2: 1, 3: 2, 4: 1}

    @given(st.sampled_from(PRIMES), st.sampled_from(list(SetOp)), st.data())
    def test_total_is_cardinality_product(self, p, op, data):
        x = data.draw(subsets(p, min_size=1))
        y = data.draw(subsets(p, min_size=1))
        if op is SetOp.RATIO:
            y = y.without_element(0)
            if len(y) == 0:
                return
        counts = representation_counts(x, y, op)
        assert sum(counts.values()) == len(x) * len(y)
        assert set(counts) == set(compose_sets(x, y, op))


class TestAffineImage:
    def test_basic_map(self):
        x = ElementSet.from_elements(7, [1, 2, 4])
        assert affine_image(x, 3, 1).elements() == (0, 4, 6)

    def test_drop_zero(self):
        x = ElementSet.from_elements(7, [1, 2, 4])
        assert affine_image(x, 3, 1, drop_zero=True).elements() == (4, 6)

    def test_zero_scale_rejected(self):
        x = ElementSet.from_elements(7, [1])
        for scale in (0, 7, 14):
            with pytest.raises(ZeroScaleError):
                affine_image(x, scale, 1)

    @given(st.sampled_from(PRIMES), st.data())
    def test_bijective_when_zero_kept(self, p, data):
        x = data.draw(subsets(p))
        scale = data.draw(st.integers(min_value=1, max_value=p - 1))
        shift = data.draw(st.integers(min_value=0, max_value=p - 1))
        assert len(affine_image(x, scale, shift)) == len(x)

    @given(st.sampled_from(PRIMES), st.data())
    def test_round_trip(self, p, data):
        x = data.draw(subsets(p))
        scale = data.draw(st.integers(min_value=1, max_value=p - 1))
        shift = data.draw(st.integers(min_value=0, max_value=p - 1))
        inv = pow(scale, p - 2, p)
        image = affine_image(x, scale, shift)
        assert affine_image(image, inv, -inv * shift % p) == x


class TestBuildTarget:
    def test_shift_minus_lambda(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 3)  # {1, 2, 4}
        t = build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=3)
        assert t.elements() == (1, 5, 6)

    def test_shift_drops_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 3)
        t = build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=1)
        assert t.elements() == (1, 3)  # 1 - 1 = 0 is removed

    def test_xi_shift(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)  # {1, 6}
        t = build_target(g, TargetVariant.XI_SHIFT, xi=3, mu=4)
        assert t.elements() == (1,)  # {3+4, 18+4} = {0, 1} minus 0

    def test_xi_shift_with_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)
        t = build_target(g, TargetVariant.XI_SHIFT_WITH_ZERO, xi=2, mu=3)
        assert t.elements() == (1, 3, 5)  # (2G u {0}) + 3 = {5, 1, 3}

    def test_g_union_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)
        t = build_target(g, TargetVariant.G_UNION_ZERO)
        assert t.elements() == (0, 1, 6)

    def test_zero_parameters_rejected(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)
        with pytest.raises(ZeroParameterError):
            build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=0)
        with pytest.raises(ZeroParameterError):
            build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA)
        with pytest.raises(ZeroParameterError):
            build_target(g, TargetVariant.XI_SHIFT, xi=0, mu=1)
        with pytest.raises(ZeroParameterError):
            build_target(g, TargetVariant.XI_SHIFT, xi=1, mu=7)

    def test_shift_by_lambda_in_g_scales_the_shift_by_one(self):
        # G - lambda = lambda * (G - 1) for lambda in G, the identity that lets
        # the Sarkozy audit search lambda = 1 alone
        for p in primes_in_range(3, 61):
            for g in enumerate_proper_subgroups(make_field(p)):
                base = build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=1)
                for lam in g.elements:
                    scaled = ElementSet.from_elements(p, (lam * x % p for x in base))
                    assert build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=lam) == scaled

    @given(st.sampled_from(PRIMES), st.data())
    def test_shift_variant_never_contains_zero(self, p, data):
        ctx = make_field(p)
        g = data.draw(st.sampled_from(enumerate_proper_subgroups(ctx)))
        lam = data.draw(st.integers(min_value=1, max_value=p - 1))
        t = build_target(g, TargetVariant.SHIFT_MINUS_LAMBDA, lam=lam)
        assert 0 not in t
        expected_size = g.order - (1 if lam in g else 0)
        assert len(t) == expected_size
