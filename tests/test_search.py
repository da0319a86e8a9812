"""Exhaustive decomposition searches, canonical witnesses, and oracle agreement."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdecomp import (
    ElementSet,
    NotPrimeError,
    SetOp,
    ZeroElementError,
    ZeroInTargetError,
    build_target,
    canonical_product_witness,
    compose_sets,
    enumerate_proper_subgroups,
    factorization_oracle,
    find_difference_representations,
    find_exact_factorizations,
    find_ratio_representations,
    make_field,
    max_difference_clique,
    subgroup_of_order,
)
from shiftdecomp.search import scale_product_report

PRIMES = (5, 7, 11, 13)


class TestCanonicalForms:
    def test_known_pair(self, f11):
        assert canonical_product_witness(f11, (1, 7), (1, 2, 3)) == (
            (1, 2, 3),
            (1, 7),
        )

    def test_witness_is_swap_invariant(self, f11):
        assert canonical_product_witness(f11, (1, 7), (1, 2, 3)) == (
            canonical_product_witness(f11, (1, 2, 3), (1, 7))
        )

    def test_factor_holding_zero_is_rejected(self, f11):
        for a, b in (((0, 1), (1, 2)), ((1, 2), (0, 1)), ((11, 1), (1, 2))):
            with pytest.raises(ZeroElementError):
                canonical_product_witness(f11, a, b)

    @given(st.sampled_from(PRIMES), st.data())
    def test_witness_is_scaling_and_swap_invariant(self, p, data):
        ctx = make_field(p)
        a = data.draw(
            st.sets(st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=4)
        )
        b = data.draw(
            st.sets(st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=4)
        )
        c = data.draw(st.integers(min_value=1, max_value=p - 1))
        c_inv = pow(c, p - 2, p)
        base = canonical_product_witness(ctx, a, b)
        assert canonical_product_witness(ctx, b, a) == base
        assert (
            canonical_product_witness(
                ctx, [c_inv * x % p for x in b], [c * x % p for x in a]
            )
            == base
        )


class TestProductSearch:
    def test_f11_shifted_subgroup(self, f11):
        g = subgroup_of_order(f11, 5)
        target = build_target(g, 1, -2, with_zero=False)
        assert target.elements() == (1, 2, 3, 7, 10)
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        assert report.exhaustive
        assert [(w.a, w.b) for w in report.witnesses] == [((1, 2, 3), (1, 7))]
        assert report.witnesses[0].verify(target)
        assert not report.witnesses[0].verify(g.elements)

    def test_f19_shifted_subgroup(self, f19):
        g = subgroup_of_order(f19, 6)
        target = build_target(g, 1, -2, with_zero=False)
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        assert [(w.a, w.b) for w in report.witnesses] == [((5, 9), (1, 2, 7))]

    def test_no_witnesses_for_lambda_in_g(self, f13):
        g = subgroup_of_order(f13, 3)  # {1, 3, 9}
        target = build_target(g, 1, -3, with_zero=False)
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        assert report.witnesses == ()
        assert report.exhaustive

    def test_min_size_filters(self, f11):
        g = subgroup_of_order(f11, 5)
        target = build_target(g, 1, -2, with_zero=False)
        report = find_exact_factorizations(target, SetOp.PRODUCT, min_size=3)
        assert report.witnesses == ()

    def test_rejects_zero_in_target(self):
        with pytest.raises(ZeroInTargetError):
            find_exact_factorizations(
                ElementSet.from_elements(11, [0, 1, 2]), SetOp.PRODUCT
            )

    def test_report_metadata(self, f11):
        g = subgroup_of_order(f11, 5)
        target = build_target(g, 1, -2, with_zero=False)
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        assert [w.kind for w in report.witnesses] == [SetOp.PRODUCT]
        assert report.exhaustive
        assert report.nodes > 0


class TestSumSearch:
    def test_order_four_mod_13(self, f13):
        g = subgroup_of_order(f13, 4)  # {1, 5, 8, 12}
        report = find_exact_factorizations(g.elements, SetOp.SUM)
        assert len(report.witnesses) == 13
        for w in report.witnesses:
            assert len(w.a) == len(w.b) == 2
            assert w.verify(g.elements)

    def test_no_sum_witnesses_mod_11(self, f11):
        g = subgroup_of_order(f11, 5)
        report = find_exact_factorizations(g.elements, SetOp.SUM)
        assert report.witnesses == ()
        assert report.exhaustive

    def test_rejects_composite_modulus(self):
        with pytest.raises(NotPrimeError):
            find_exact_factorizations(ElementSet.from_elements(15, [1, 4, 11, 14]), SetOp.SUM)

    def test_witnesses_deduplicated_up_to_swap(self, f13):
        g = subgroup_of_order(f13, 4)
        report = find_exact_factorizations(g.elements, SetOp.SUM)
        seen = {tuple(sorted((w.a, w.b))) for w in report.witnesses}
        assert len(seen) == len(report.witnesses)


class TestOracleAgreement:
    @given(st.sampled_from(PRIMES), st.data())
    def test_product_engine_matches_oracle(self, p, data):
        ctx = make_field(p)
        target = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=p - 1
            ).map(lambda s: ElementSet.from_elements(p, s))
        )
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        engine = sorted(
            canonical_product_witness(ctx, w.a, w.b) for w in report.witnesses
        )
        assert engine == sorted(factorization_oracle(target, SetOp.PRODUCT))

    @given(st.sampled_from(PRIMES), st.data())
    def test_sum_engine_matches_oracle(self, p, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=p
            ).map(lambda s: ElementSet.from_elements(p, s))
        )
        report = find_exact_factorizations(target, SetOp.SUM)
        engine = sorted(tuple(sorted((w.a, w.b))) for w in report.witnesses)
        assert engine == sorted(factorization_oracle(target, SetOp.SUM))

    @given(st.sampled_from(PRIMES), st.sampled_from((1, 3)), st.data())
    def test_product_engine_matches_oracle_at_min_size(self, p, min_size, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=p - 1
            ).map(lambda s: ElementSet.from_elements(p, s))
        )
        report = find_exact_factorizations(target, SetOp.PRODUCT, min_size)
        engine = sorted((w.a, w.b) for w in report.witnesses)
        assert engine == factorization_oracle(target, SetOp.PRODUCT, min_size)

    @given(st.sampled_from(PRIMES), st.sampled_from((1, 3)), st.data())
    def test_sum_engine_matches_oracle_at_min_size(self, p, min_size, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=p
            ).map(lambda s: ElementSet.from_elements(p, s))
        )
        report = find_exact_factorizations(target, SetOp.SUM, min_size)
        engine = sorted((w.a, w.b) for w in report.witnesses)
        assert engine == factorization_oracle(target, SetOp.SUM, min_size)

    @given(st.sampled_from(PRIMES), st.data())
    def test_every_witness_recomposes(self, p, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=p - 1
            ).map(lambda s: ElementSet.from_elements(p, s))
        )
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        for w in report.witnesses:
            composed = compose_sets(
                ElementSet.from_elements(p, w.a),
                ElementSet.from_elements(p, w.b),
                SetOp.PRODUCT,
            )
            assert composed == target


class TestRatioRepresentations:
    def test_singleton_target(self):
        report = find_ratio_representations(ElementSet.from_elements(11, [1]))
        assert [w.a for w in report.witnesses] == [(1,)]

    def test_three_element_target_mod_7(self):
        report = find_ratio_representations(ElementSet.from_elements(7, [1, 3, 5]))
        assert [w.a for w in report.witnesses] == [(1, 3), (1, 5)]

    def test_target_without_one_has_no_witnesses(self):
        report = find_ratio_representations(ElementSet.from_elements(11, [2, 3]))
        assert report.witnesses == ()
        assert report.exhaustive

    def test_subgroup_recovers_itself(self, f13):
        g = subgroup_of_order(f13, 4)
        report = find_ratio_representations(g.elements)
        assert [w.a for w in report.witnesses] == [g.elements.elements()]

    @given(st.sampled_from(PRIMES), st.data())
    def test_witnesses_are_exact_and_maximal(self, p, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=p - 1
            ).map(lambda s: ElementSet.from_elements(p, s).with_element(1))
        )
        report = find_ratio_representations(target)
        for w in report.witnesses:
            a_set = ElementSet.from_elements(p, w.a)
            assert compose_sets(a_set, a_set, SetOp.RATIO) == target
            for x in range(1, p):
                if x in a_set:
                    continue
                grown = a_set.with_element(x)
                assert compose_sets(grown, grown, SetOp.RATIO) != target


class TestDifferenceRepresentations:
    def test_three_element_target_mod_11(self):
        report = find_difference_representations(
            ElementSet.from_elements(11, [0, 1, 10])
        )
        assert [w.a for w in report.witnesses] == [(0, 1), (0, 10)]

    def test_zero_only_target(self):
        report = find_difference_representations(ElementSet.from_elements(11, [0]))
        assert [w.a for w in report.witnesses] == [(0,)]

    def test_target_without_zero_takes_no_search(self):
        # A - A always holds 0, so such a target has no witness and no clique
        # search; on discrete logs, a ratio target without 1 is one without 0
        for search, elements in [(find_difference_representations, [1, 10]),
                                 (find_ratio_representations, [2, 6])]:
            report = search(ElementSet.from_elements(11, elements))
            assert report.witnesses == ()
            assert report.nodes == 0
            assert report.exhaustive

    def test_no_witnesses_for_order_three_target(self, f13):
        g = subgroup_of_order(f13, 3)
        report = find_difference_representations(g.elements.with_element(0))
        assert report.witnesses == ()
        assert report.exhaustive

    @given(st.sampled_from(PRIMES), st.data())
    def test_witnesses_are_exact_and_maximal(self, p, data):
        target = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=p
            ).map(lambda s: ElementSet.from_elements(p, s).with_element(0))
        )
        report = find_difference_representations(target)
        for w in report.witnesses:
            a_set = ElementSet.from_elements(p, w.a)
            assert compose_sets(a_set, a_set, SetOp.DIFFERENCE) == target
            for x in range(p):
                if x in a_set:
                    continue
                grown = a_set.with_element(x)
                assert compose_sets(grown, grown, SetOp.DIFFERENCE) != target


class TestDifferenceClique:
    def test_paley_17(self):
        ctx = make_field(17)
        assert max_difference_clique(subgroup_of_order(ctx, 8)) == 3

    def test_order_two_mod_5(self):
        ctx = make_field(5)
        assert max_difference_clique(subgroup_of_order(ctx, 2)) == 2

    def test_full_group_gives_whole_field(self, f7):
        # differences land anywhere, so the whole field is a clique
        assert max_difference_clique(subgroup_of_order(f7, 6)) == 7

    @pytest.mark.parametrize(
        "p,expected", [(17, 3), (29, 4), (37, 4), (41, 5), (53, 5)]
    )
    def test_known_paley_clique_numbers(self, p, expected):
        ctx = make_field(p)
        assert max_difference_clique(subgroup_of_order(ctx, (p - 1) // 2)) == expected

    @given(st.sampled_from(PRIMES), st.data())
    def test_clique_matches_brute_force(self, p, data):
        from itertools import combinations

        from shiftdecomp import enumerate_proper_subgroups

        ctx = make_field(p)
        g = data.draw(st.sampled_from(enumerate_proper_subgroups(ctx)))
        allowed = set(g.elements.elements()) | {0}
        best = 0
        for size in range(p, 0, -1):
            if any(
                all((a - b) % p in allowed for a in combo for b in combo)
                for combo in combinations(range(p), size)
            ):
                best = size
                break
        assert max_difference_clique(g) == best

    @pytest.mark.parametrize("p", [p for p in range(17, 102, 4)
                                   if all(p % d for d in range(2, p))])
    def test_paley_clique_matches_plain_extension_of_an_edge(self, p):
        # x -> a*x + b with a square acts transitively on the edges of the
        # Paley graph, so some maximum clique holds the edge {0, 1}; extend it
        # over their common neighbourhood without pruning
        squares = {x * x % p for x in range(1, p)}

        def largest(candidates: list[int]) -> int:
            return max((1 + largest([y for y in candidates[i + 1:] if (y - x) % p in squares])
                        for i, x in enumerate(candidates)), default=0)

        k = 2 + largest([x for x in range(2, p) if x in squares and x - 1 in squares])
        ctx = make_field(p)
        assert max_difference_clique(subgroup_of_order(ctx, (p - 1) // 2)) == k
        assert 2 * k * (k - 1) <= p - 1  # Hanson-Petridis



ORACLE_PRIMES = (3, 5, 7, 11)


def _mask(elems) -> int:
    out = 0
    for x in elems:
        out |= 1 << x
    return out


@lru_cache(maxsize=None)
def _self_compositions(p: int, op: SetOp) -> tuple[tuple[int, int], ...]:
    """(A, A op A) as bitmasks for every A that holds 1 (RATIO) or 0 (DIFFERENCE)."""
    anchor = 1 if op is SetOp.RATIO else 0
    others = [x for x in range(p) if x != anchor and (x != 0 or op is SetOp.DIFFERENCE)]
    out = []
    for k in range(len(others) + 1):
        for rest in combinations(others, k):
            a = (anchor,) + rest
            if op is SetOp.RATIO:
                composed = {x * pow(y, -1, p) % p for x in a for y in a}
            else:
                composed = {(x - y) % p for x in a for y in a}
            out.append((_mask(a), _mask(composed)))
    return tuple(out)


def _oracle_representations(p: int, target: ElementSet, op: SetOp) -> list[tuple[int, ...]]:
    """Inclusion-maximal A with A op A inside the target, kept when equal to it.

    Plain subset enumeration.  A subset of a fitting A that keeps the anchor
    fits too, so A is inclusion-maximal exactly when no one-element extension
    of it fits.
    """
    tmask = target.mask
    table = _self_compositions(p, op)
    fits = {a for a, composed in table if composed & ~tmask == 0}
    exact = {a for a, composed in table if composed == tmask}
    maximal = [a for a in exact if all(a | (1 << x) not in fits
                                       for x in range(p) if not (a >> x) & 1)]
    return sorted(tuple(x for x in range(p) if (a >> x) & 1) for a in maximal)


def _audit_targets(p: int) -> tuple[list[ElementSet], list[ElementSet]]:
    """Every ratio target (xi*G + mu, with or without 0 adjoined to xi*G) and
    every Lev-Sonn target G union {0}, over all proper subgroups G mod p."""
    ctx = make_field(p)
    ratio, difference = {}, {}
    for g in enumerate_proper_subgroups(ctx):
        t = build_target(g, 1, 0, with_zero=True)
        difference[t.mask] = t
        for with_zero in (False, True):
            for xi in range(1, p):
                for mu in range(1, p):
                    t = build_target(g, xi, mu, with_zero=with_zero)
                    if t:
                        ratio[t.mask] = t
    return list(ratio.values()), list(difference.values())


class TestRepresentationOracle:
    """The difference-set engine against plain subset enumeration, p <= 11."""

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_every_audit_target(self, p):
        ratio, difference = _audit_targets(p)
        for target in ratio:
            report = find_ratio_representations(target)
            assert [w.a for w in report.witnesses] == \
                _oracle_representations(p, target, SetOp.RATIO), target
        for target in difference:
            report = find_difference_representations(target)
            assert [w.a for w in report.witnesses] == \
                _oracle_representations(p, target, SetOp.DIFFERENCE), target

    @given(st.sampled_from(ORACLE_PRIMES), st.data())
    def test_random_ratio_targets(self, p, data):
        elems = data.draw(st.sets(st.integers(1, p - 1), min_size=1))
        target = ElementSet.from_elements(p, elems)
        report = find_ratio_representations(target)
        assert [w.a for w in report.witnesses] == \
            _oracle_representations(p, target, SetOp.RATIO)

    @given(st.sampled_from(ORACLE_PRIMES), st.data())
    def test_random_difference_targets(self, p, data):
        target = ElementSet.from_elements(p, data.draw(st.sets(st.integers(0, p - 1))))
        report = find_difference_representations(target)
        assert [w.a for w in report.witnesses] == \
            _oracle_representations(p, target, SetOp.DIFFERENCE)

    @given(st.sampled_from(ORACLE_PRIMES[1:]), st.sampled_from((SetOp.RATIO, SetOp.DIFFERENCE)),
           st.data())
    def test_asymmetric_targets_take_no_search(self, p, op, data):
        # A op A holds the identity and is closed under inverses, so a target
        # with x but not x^-1 has no witness and the engine searches nothing
        ratio = op is SetOp.RATIO
        identity = 1 if ratio else 0
        inverse = (lambda x: pow(x, -1, p)) if ratio else (lambda x: -x % p)
        x = data.draw(st.sampled_from([y for y in range(1, p) if inverse(y) != y]))
        elems = data.draw(st.sets(st.integers(1 if ratio else 0, p - 1)))
        target = ElementSet(p, ElementSet.from_elements(p, elems | {identity, x}).mask
                            & ~(1 << inverse(x)))
        find = find_ratio_representations if ratio else find_difference_representations
        report = find(target)
        assert report.witnesses == () and report.nodes == 0
        assert _oracle_representations(p, target, op) == []


# G = {1, 5, 8, 12}, the order-4 subgroup of F_13; every search runs in the
# field of its target, so no call can pair G with the tables of another field
_G13 = ElementSet.from_elements(13, [1, 5, 8, 12])


_KINDS = ["sum", "product", "sum-oracle", "product-oracle", "ratio", "difference"]


@pytest.mark.parametrize("kind", _KINDS)
def test_target_is_searched_in_its_own_field(kind):
    op = SetOp.SUM if kind.startswith("sum") else SetOp.PRODUCT
    if kind in ("sum", "product"):
        engine = [(w.a, w.b) for w in find_exact_factorizations(_G13, op).witnesses]
        assert engine == factorization_oracle(_G13, op)
    elif kind in ("sum-oracle", "product-oracle"):
        engine = factorization_oracle(_G13, op)
        for a, b in engine:
            a_set, b_set = (ElementSet.from_elements(13, part) for part in (a, b))
            assert compose_sets(a_set, b_set, op) == _G13, (a, b)
    elif kind == "ratio":
        engine = [w.a for w in find_ratio_representations(_G13).witnesses]
        assert engine == _oracle_representations(13, _G13, SetOp.RATIO)
    else:
        target = _G13.with_element(0)
        engine = [w.a for w in find_difference_representations(target).witnesses]
        assert engine == _oracle_representations(13, target, SetOp.DIFFERENCE)
    if kind.startswith("sum"):
        assert len(engine) == 13


SYMMETRY_PRIMES = (17, 19, 23)


def _sum_pair(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A sum witness in its listed form: both parts sorted, the smaller first."""
    return tuple(sorted((tuple(sorted(a)), tuple(sorted(b)))))


@st.composite
def _composed_targets(draw, op: SetOp) -> tuple[int, ElementSet]:
    """(p, A op B) for random A, B of size 2..3, so the target has a witness."""
    p = draw(st.sampled_from(SYMMETRY_PRIMES))
    low = 1 if op is SetOp.PRODUCT else 0
    factor = st.sets(st.integers(low, p - 1), min_size=2, max_size=3).map(
        lambda s: ElementSet.from_elements(p, s))
    return p, compose_sets(draw(factor), draw(factor), op)


class TestSearchSymmetries:
    """The symmetries behind seeding 0 in B, at primes the per-test oracle skips."""

    @given(_composed_targets(SetOp.SUM), st.data())
    def test_sum_witnesses_follow_translation(self, case, data):
        p, target = case
        t = data.draw(st.integers(1, p - 1))
        shifted = ElementSet.from_elements(p, [(x + t) % p for x in target])
        base = find_exact_factorizations(target, SetOp.SUM).witnesses
        moved = find_exact_factorizations(shifted, SetOp.SUM).witnesses
        assert base
        # a listed witness is an unordered pair, so translate either part
        ordered = [pair for w in base for pair in ((w.a, w.b), (w.b, w.a))]
        assert [(w.a, w.b) for w in moved] == sorted(
            {_sum_pair([(x + t) % p for x in a], b) for a, b in ordered})

    @given(_composed_targets(SetOp.SUM))
    def test_sum_witnesses_are_closed_under_opposite_translation(self, case):
        p, target = case
        report = find_exact_factorizations(target, SetOp.SUM)
        found = {(w.a, w.b) for w in report.witnesses}
        assert found
        for a, b in found:
            for u in range(1, p):
                assert _sum_pair([(x + u) % p for x in a], [(y - u) % p for y in b]) in found

    @pytest.mark.parametrize("p", [p for p in range(17, 42) if all(p % d for d in range(2, p))])
    def test_sum_witnesses_of_g_are_closed_under_affine_maps(self, p):
        # G is invariant under multiplication by G, so A + B = G is too:
        # (A, B) solves exactly when (gA + t, gB - t) does
        ctx = make_field(p)
        for g in enumerate_proper_subgroups(ctx):
            report = find_exact_factorizations(g.elements, SetOp.SUM)
            found = {(w.a, w.b) for w in report.witnesses}
            for a, b in found:
                for u in g.elements:
                    for t in range(p):
                        assert _sum_pair([(u * x + t) % p for x in a],
                                         [(u * y - t) % p for y in b]) in found

    @given(_composed_targets(SetOp.PRODUCT), st.data())
    def test_product_witnesses_follow_scaling(self, case, data):
        p, target = case
        c = data.draw(st.integers(2, p - 1))
        ctx = make_field(p)
        scaled = ElementSet.from_elements(p, [c * x % p for x in target])
        report = find_exact_factorizations(target, SetOp.PRODUCT)
        base = report.witnesses
        moved = find_exact_factorizations(scaled, SetOp.PRODUCT).witnesses
        assert base
        assert [(w.a, w.b) for w in moved] == sorted(
            {canonical_product_witness(ctx, [c * x % p for x in w.a], w.b) for w in base})
        assert scale_product_report(ctx, report, c).witnesses == moved
