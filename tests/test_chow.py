from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import quadrilateral
from polychow import (
    AffineMap,
    IntMat2,
    NotLatticePolygon,
    Polygon,
    Vec2,
    VecPoly,
    check_scaling_law,
    check_translation_law,
    check_unimodular_law,
    chow_eval,
    chow_poly,
    coefficient_span_dim,
    scale,
)

ID = AffineMap.identity()
ZERO = Vec2.of(0, 0)


class TestChowEval:
    @pytest.mark.parametrize("w,h", [(1, 1), (2, 3), (4, 1)])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_rectangles_vanish(self, w, h, i):
        rect = Polygon.from_coords([(0, 0), (w, 0), (w, h), (0, h)])
        assert chow_eval(rect, ID, i) == ZERO

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_cp2_triangle_vanishes(self, cp2_triangle, i):
        assert chow_eval(cp2_triangle, ID, i) == ZERO

    def test_smallest_quadrilateral(self):
        assert chow_eval(quadrilateral(1, 1, 1), ID, 1) == Vec2.of(
            Fraction(1, 6), Fraction(-1, 3)
        )

    @pytest.mark.parametrize("a,b,n", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 2, 1)])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_quadrilateral_closed_form(self, a, b, n, i):
        factor = Fraction(a * a * n, 24) * (a * i + 1) * (a * n - a + 2 * b)
        expected = Vec2.of(factor * n, -2 * factor)
        assert chow_eval(quadrilateral(a, b, n), ID, i) == expected

    def test_affine_function_support(self, unit_square):
        f = AffineMap.linear(1, 2, 0, 1, Vec2.of(Fraction(1, 2), 0))
        # square is balanced for any affine f
        assert chow_eval(unit_square, f, 2) == ZERO


class TestChowPoly:
    def test_quadrilateral_1_2(self):
        poly = chow_poly(quadrilateral(1, 2, 1))
        sixth = Vec2.of(Fraction(1, 6), Fraction(-1, 3))
        assert poly == VecPoly(ZERO, sixth, sixth)

    def test_doubled_hexagon_vanishes(self, hexagon):
        assert chow_poly(scale(hexagon, 2)).is_zero()

    def test_large_dilation_under_default_cap(self, hexagon, monkeypatch):
        # its dilations at i = 1, 2, 3 hold about 3.8e8 points, over the
        # default cap of 1e8, but none has more than 18001 rows
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        assert chow_poly(scale(hexagon, 3000)).is_zero()

    def test_scaled_nonagon(self, nonagon):
        poly = chow_poly(scale(nonagon, 4))
        assert poly.c1 == Vec2.of(0, Fraction(-835, 12))
        assert poly.c0 == Vec2.of(0, Fraction(-65, 12))

    def test_rational_polygon_rejected(self, heptagon):
        with pytest.raises(NotLatticePolygon):
            chow_poly(heptagon)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_poly_matches_eval(self, hexagon, i):
        quad = quadrilateral(2, 1, 1)
        for polygon in (hexagon, quad):
            assert chow_poly(polygon)(i) == chow_eval(polygon, ID, i)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("a,b,n", [(1, 1, 1), (1, 2, 2)])
    @pytest.mark.parametrize("i", [1, 2])
    def test_scaled_quadrilateral_closed_form(self, k, a, b, n, i):
        factor = (
            Fraction(k**3, 24) * a * a * n * (a * k * i + 1) * (a * n - a + 2 * b)
        )
        scaled = scale(quadrilateral(a, b, n), k)
        assert chow_eval(scaled, ID, i) == Vec2.of(factor * n, -2 * factor)


class TestSpanDim:
    def test_zero_polynomial(self):
        assert coefficient_span_dim(VecPoly(ZERO, ZERO, ZERO)) == 0

    def test_proportional_coefficients(self, hexagon):
        poly = VecPoly(ZERO, Vec2.of(Fraction(83, 12), Fraction(-83, 12)),
                       Vec2.of(Fraction(13, 12), Fraction(-13, 12)))
        assert coefficient_span_dim(poly) == 1

    def test_independent_coefficients(self):
        assert coefficient_span_dim(VecPoly(ZERO, Vec2.of(1, 0), Vec2.of(0, 1))) == 2

    def test_single_nonzero_coefficient(self):
        assert coefficient_span_dim(VecPoly(ZERO, ZERO, Vec2.of(2, 1))) == 1

    def test_scaled_nonagon_span(self, nonagon):
        assert coefficient_span_dim(chow_poly(scale(nonagon, 4))) == 1


class TestTransformationLaws:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_translation(self, hexagon, i):
        check = check_translation_law(hexagon, Vec2.of(3, -2), i)
        assert check.holds and check.lhs == check.rhs

    def test_translation_requires_integral_offset(self, hexagon):
        with pytest.raises(ValueError):
            check_translation_law(hexagon, Vec2.of(Fraction(1, 2), 0), 1)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_unimodular(self, i):
        quad = quadrilateral(1, 2, 1)
        u = IntMat2.from_rows((1, 1), (1, 2))
        check = check_unimodular_law(quad, u, i)
        assert check.holds

    def test_unimodular_requires_det_one(self, hexagon):
        with pytest.raises(ValueError):
            check_unimodular_law(hexagon, IntMat2.from_rows((1, 0), (0, -1)), 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("i", [1, 2])
    def test_scaling(self, k, i):
        quad = quadrilateral(1, 1, 2)
        check = check_scaling_law(quad, k, i)
        assert check.holds

    def test_law_check_reports_evidence(self, hexagon):
        check = check_translation_law(hexagon, Vec2.of(1, 1), 2)
        assert check.law == "translation"
        assert check.lhs == chow_eval(hexagon, ID, 2)
