"""Bitmask element sets, composition operators, and the audit target builder."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    ElementSet,
    ModulusMismatchError,
    SetOp,
    ZeroDivisorError,
    ZeroScaleError,
    build_target,
    compose_sets,
    enumerate_proper_subgroups,
    make_field,
    primes_in_range,
    subgroup_of_order,
)
from shiftdecomp.audits import AuditKind, _targets

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
        assert s.with_element(4) == s

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
            y = ElementSet(p, y.mask & ~1)
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
            y = ElementSet(p, y.mask & ~1)
            if len(y) == 0:
                return
        z = compose_sets(x, y, op)
        assert 1 <= len(z) <= min(len(x) * len(y), p)


class TestAffineImage:
    """build_target(G, scale, shift, with_zero) is the affine image of G without 0."""

    def test_basic_map(self):
        g = subgroup_of_order(make_field(7), 3)  # {1, 2, 4}
        assert build_target(g, 2, 1, with_zero=False).elements() == (2, 3, 5)

    def test_drop_zero(self):
        g = subgroup_of_order(make_field(7), 3)
        assert build_target(g, 3, 1, with_zero=False).elements() == (4, 6)  # 3*2 + 1 = 0

    def test_zero_scale_rejected(self):
        g = subgroup_of_order(make_field(7), 3)
        for scale in (0, 7, 14):
            for with_zero in (False, True):
                with pytest.raises(ZeroScaleError):
                    build_target(g, scale, 1, with_zero=with_zero)

    @given(st.sampled_from(PRIMES), st.data())
    def test_bijective_when_zero_kept(self, p, data):
        # the map is injective: only the point sent to 0 is lost, and the
        # with_zero point, the image of 0, is new
        g = data.draw(st.sampled_from(enumerate_proper_subgroups(make_field(p))))
        scale = data.draw(st.integers(min_value=1, max_value=p - 1))
        shift = data.draw(st.integers(min_value=0, max_value=p - 1))
        hits_zero = -shift * pow(scale, -1, p) % p in g.elements
        assert len(build_target(g, scale, shift, with_zero=False)) == g.order - hits_zero
        assert len(build_target(g, scale, shift, with_zero=True)) == g.order - hits_zero + 1

    @given(st.sampled_from(PRIMES), st.data())
    def test_round_trip(self, p, data):
        g = data.draw(st.sampled_from(enumerate_proper_subgroups(make_field(p))))
        scale = data.draw(st.integers(min_value=1, max_value=p - 1))
        shift = data.draw(st.integers(min_value=0, max_value=p - 1))
        inv = pow(scale, -1, p)
        back = {inv * (t - shift) % p for t in build_target(g, scale, shift, with_zero=False)}
        assert back == set(g.elements) - {-shift * inv % p}


class TestBuildTarget:
    def test_shift_minus_lambda(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 3)  # {1, 2, 4}
        t = build_target(g, 1, -3, with_zero=False)
        assert t.elements() == (1, 5, 6)

    def test_shift_drops_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 3)
        t = build_target(g, 1, -1, with_zero=False)
        assert t.elements() == (1, 3)  # 1 - 1 = 0 is removed

    def test_xi_shift(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)  # {1, 6}
        t = build_target(g, 3, 4, with_zero=False)
        assert t.elements() == (1,)  # {3+4, 18+4} = {0, 1} minus 0

    def test_xi_shift_with_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)
        t = build_target(g, 2, 3, with_zero=True)
        assert t.elements() == (1, 3, 5)  # (2G u {0}) + 3 = {5, 1, 3}
        # the with-zero ratio target drops 0 too: ((G u {0}) + 1) \ {0} = {1, 2}
        assert build_target(g, 1, 1, with_zero=True).elements() == (1, 2)

    def test_g_union_zero(self):
        ctx = make_field(7)
        g = subgroup_of_order(ctx, 2)
        t = build_target(g, 1, 0, with_zero=True)
        assert t.elements() == (0, 1, 6)

    def test_zero_shift_is_legal(self):
        # Lev-Sonn's G u {0} and Kalmynin's G are the images at shift 0;
        # the scale alone must be nonzero (test_zero_scale_rejected)
        g = subgroup_of_order(make_field(7), 2)
        for shift in (0, 7, -14):
            assert build_target(g, 1, shift, with_zero=False) == g.elements
            assert build_target(g, 1, shift, with_zero=True) == g.elements.with_element(0)

    def test_takes_no_defaults(self):
        parameters = inspect.signature(build_target).parameters
        assert list(parameters) == ["subgroup", "scale", "shift", "with_zero"]
        assert all(param.default is inspect.Parameter.empty for param in parameters.values())
        g = subgroup_of_order(make_field(7), 2)
        with pytest.raises(TypeError):
            build_target(g, 1, -1)

    def test_shift_by_lambda_in_g_scales_the_shift_by_one(self):
        # G - lambda = lambda * (G - 1) for lambda in G, the identity that lets
        # the Sarkozy audit search lambda = 1 alone
        for p in primes_in_range(3, 61):
            for g in enumerate_proper_subgroups(make_field(p)):
                base = build_target(g, 1, -1, with_zero=False)
                for lam in g.elements:
                    scaled = ElementSet.from_elements(p, (lam * x % p for x in base))
                    assert build_target(g, 1, -lam, with_zero=False) == scaled

    @given(st.sampled_from(PRIMES), st.data())
    def test_shift_variant_never_contains_zero(self, p, data):
        ctx = make_field(p)
        g = data.draw(st.sampled_from(enumerate_proper_subgroups(ctx)))
        lam = data.draw(st.integers(min_value=1, max_value=p - 1))
        t = build_target(g, 1, -lam, with_zero=False)
        assert 0 not in t
        expected_size = g.order - (1 if lam in g.elements else 0)
        assert len(t) == expected_size


def _catalogue_target(kind: AuditKind, p: int, g: set[int], params: dict) -> set[int]:
    """The README audit catalogue's target, built from residues alone."""
    if kind in (AuditKind.SARKOZY_PRODUCT, AuditKind.LAMBDA_CENSUS):
        return {(x - params["lambda"]) % p for x in g} - {0}
    if kind is AuditKind.SHIFTED_RATIO:
        base = g | {0} if params["variant"] == "xi-shift-with-zero" else g
        return {(params["xi"] * x + params["mu"]) % p for x in base} - {0}
    if kind is AuditKind.LEV_SONN_DIFFERENCE:
        return g | {0}
    return set(g)


@pytest.mark.parametrize("kind", [
    AuditKind.SARKOZY_PRODUCT, AuditKind.LAMBDA_CENSUS, AuditKind.SHIFTED_RATIO,
    AuditKind.LEV_SONN_DIFFERENCE, AuditKind.KALMYNIN_SUM,
])
def test_audit_targets_match_their_catalogue_definitions(kind):
    for p in primes_in_range(3, 23):
        for g in enumerate_proper_subgroups(make_field(p)):
            # the subgroup of order d is the set of roots of x^d = 1
            residues = {x for x in range(1, p) if pow(x, g.order, p) == 1}
            records = list(_targets(kind, g))
            for params, target in records:
                expected = _catalogue_target(kind, p, residues, params)
                if target is None and kind is AuditKind.SHIFTED_RATIO:
                    # answered without a build: no A/A misses 1
                    assert 1 not in expected
                else:
                    assert set(target) == expected
            if kind is AuditKind.SARKOZY_PRODUCT:
                assert [params["lambda"] for params, _ in records] == sorted(residues)
            if kind is AuditKind.SHIFTED_RATIO:
                assert len(records) == 2 * (p - 1) ** 2 // g.order
