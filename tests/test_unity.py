"""Roots of unity, the three-point Möbius fit, and circle-map classification."""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import shiftdecomp
from shiftdecomp import (
    TheoremViolation,
    UnityGroup,
    check_xk_product_claim,
    classify_circle_preserving_maps,
    search_2x2_decomposition,
    unity,
)


class TestUnityGroup:
    def test_first_element_exact(self):
        g = UnityGroup.of_order(7)
        assert g.elements[0] == complex(1.0, 0.0)
        assert len(g.elements) == 7

    def test_elements_on_unit_circle(self):
        g = UnityGroup.of_order(12)
        for z in g.elements:
            assert abs(abs(z) - 1.0) < 1e-12

    def test_x_values_exclude_zero_node(self):
        g = UnityGroup.of_order(5)
        assert len(g.x_values) == 4
        for k in range(1, 5):
            assert abs(g.x_values[k - 1] - (g.elements[k] - 1.0)) < 1e-12

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            UnityGroup.of_order(0)

    def test_nearest_index_round_trip(self):
        g = UnityGroup.of_order(9)
        for k, z in enumerate(g.elements):
            assert g.nearest_index(z) == k

    def test_nearest_index_rejects_off_circle(self):
        g = UnityGroup.of_order(9)
        assert g.nearest_index(1.1) is None
        assert g.nearest_index(g.elements[2] * (1 + 1e-5)) is None

    def test_nearest_index_tolerates_jitter(self):
        g = UnityGroup.of_order(9)
        assert g.nearest_index(g.elements[4] * (1 + 1e-11)) == 4


class TestMobiusFit:
    def test_rotation_fit(self):
        f = unity._fit([1, 1j, -1], [1j, -1, -1j])
        assert abs(f(-1j) - 1) < 1e-9

    @given(st.data())
    def test_fit_interpolates_random_triples(self, data):
        pts = st.complex_numbers(
            min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
        )
        z = data.draw(st.lists(pts, min_size=3, max_size=3, unique_by=lambda c: c))
        w = data.draw(st.lists(pts, min_size=3, max_size=3, unique_by=lambda c: c))
        if min(abs(a - b) for a, b in [(z[0], z[1]), (z[0], z[2]), (z[1], z[2])]) < 1e-3:
            return
        if min(abs(a - b) for a, b in [(w[0], w[1]), (w[0], w[2]), (w[1], w[2])]) < 1e-3:
            return
        f = unity._fit(z, w)
        for zi, wi in zip(z, w):
            assert abs(f(zi) - wi) < 1e-6


class TestProductClaim:
    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            check_xk_product_claim(2)

    def test_order_four_products_distinct(self):
        # x_1 x_3 = 2 while x_2 x_2 = 4
        g = UnityGroup.of_order(4)
        assert abs(g.x_values[0] * g.x_values[2] - 2) < 1e-12
        assert abs(g.x_values[1] * g.x_values[1] - 4) < 1e-12
        assert check_xk_product_claim(4).passed

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 13, 21, 30])
    def test_claim_holds(self, m):
        verdict = check_xk_product_claim(m)
        assert verdict.passed
        # every product is more than DEFAULT_TOL away from every other
        assert verdict.numeric_violations == ()
        assert verdict.max_quadruple_class <= 4

    @pytest.mark.parametrize("m, x_values", [
        # products 1, 1+d, 1+2d, (1+d)^2, (1+d)(1+2d), (1+2d)^2 with d = 0.3 tol
        (4, (1.0, 1.0 + 0.3e-9, 1.0 + 0.6e-9)),
        # all products equal: each of the (m-1)m/2 pairs clashes with every other
        (4, (1.0,) * 3),
        (6, (1.0,) * 5),
    ])
    def test_numeric_pass_reports_every_close_pair(self, monkeypatch, m, x_values):
        monkeypatch.setattr(UnityGroup, "of_order",
                            classmethod(lambda cls, order: cls(order, (), x_values)))
        pairs = [(k, l) for k in range(1, m) for l in range(k, m)]
        prods = [x_values[k - 1] * x_values[l - 1] for k, l in pairs]
        expected = {
            frozenset((pairs[i], pairs[j]))
            for i in range(len(pairs))
            for j in range(i + 1, len(pairs))
            if abs(prods[i] - prods[j]) <= unity.DEFAULT_TOL
        }
        verdict = check_xk_product_claim(m)
        reported = [frozenset((pi, pj)) for pi, pj, _ in verdict.numeric_violations]
        assert len(reported) == len(set(reported))
        assert set(reported) == expected
        assert len(expected) > len(pairs)
        assert not verdict.passed
        # a pair weighs 2 ordered pairs (1 when k = l); its mass adds the
        # weights of the pairs close to it
        weight = {(k, l): 1 if k == l else 2 for k, l in pairs}
        mass = dict(weight)
        for a, b in map(tuple, expected):
            mass[a] += weight[b]
            mass[b] += weight[a]
        assert verdict.max_quadruple_class == max(mass.values()) ** 2
        assert verdict.max_quadruple_class == {4: 81, 6: 625}[m]

    def test_products_match_the_lemma(self):
        # x_k x_l = -4 sin(pi k/m) sin(pi l/m) e^{i pi (k+l)/m}: the argument
        # fixes k + l and then the modulus fixes |k - l|
        for m in range(3, 101):
            xs = UnityGroup.of_order(m).x_values
            for k in range(1, m):
                for l in range(k, m):
                    lemma = (-4 * math.sin(math.pi * k / m) * math.sin(math.pi * l / m)
                             * cmath.exp(1j * math.pi * (k + l) / m))
                    assert abs(xs[k - 1] * xs[l - 1] - lemma) < 1e-12


class TestCirclePreservingMaps:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_exactly_dihedral_survivors(self, monkeypatch, m):
        fits = []
        fit = unity._fit

        def counting_fit(z_points, w_points):
            fits.append(w_points)
            return fit(z_points, w_points)

        monkeypatch.setattr(unity, "_fit", counting_fit)
        # returning at all means all 2m rotations and reflections survived
        assert classify_circle_preserving_maps(m) is None
        # one fit from (g_0, g_1, g_2) to each ordered triple of G
        assert len(fits) == m * (m - 1) * (m - 2)

    @pytest.mark.parametrize("remap, message", [
        (lambda k, m: None, "expected all 2m dihedral maps at m=5, found 0 rotations"),
        (lambda k, m: (k + 1) % m, "deviates from rotation"),
        (lambda k, m: 2 * k % m, "matches no dihedral map"),
    ])
    def test_missed_survivor_raises(self, monkeypatch, remap, message):
        nearest = UnityGroup.nearest_index

        def misread(self, z):
            k = nearest(self, z)
            return None if k is None else remap(k, self.m)

        monkeypatch.setattr(UnityGroup, "nearest_index", misread)
        with pytest.raises(TheoremViolation, match=message):
            classify_circle_preserving_maps(5)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError):
            classify_circle_preserving_maps(2)
        with pytest.raises(ValueError):
            classify_circle_preserving_maps(13)


class TestTwoByTwoDecomposition:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 10, 12, 30, 50])
    def test_no_decompositions(self, m):
        assert search_2x2_decomposition(m) == []

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            search_2x2_decomposition(1)


def test_package_import_does_not_load_numpy():
    src = Path(shiftdecomp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, shiftdecomp; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
