"""Chow weight of a polarized toric surface, from its moment polygon.

The weight with respect to an affine function f at dilation i is

    Vol(P) * sum_{a in P cap (Z/i)^2} f(a)  -  #(P cap (Z/i)^2) * integral_P f dv.

For the coordinate function it collapses to a vector polynomial of degree
at most one in i; its vanishing is necessary for Chow semistability. The
transformation laws (integral translation, unimodular change of lattice
basis, dilation) are exposed as checker routines so the CLI can run them
as diagnostics on user polygons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import (
    AffineMap,
    IntMat2,
    Polygon,
    Vec2,
    ZERO_VEC,
    apply_affine,
    scale,
    translate,
)
from .counting import VecPoly, _counting_and_sum_polys, lattice_moments


def _weight(
    vol6: int, moment: tuple[int, int], moments: tuple[int, int, int], i: int
) -> tuple[int, int]:
    """6 L^3 i times the Chow weight of the coordinate function at dilation
    i, as an int pair, from a polygon's integer measures at scale L and the
    enumerated (count, sum of x, sum of y) of its i-th dilation.

    The weight is Vol * (sum of the sample points) - count * integral.
    `vol6` is 3 L twice_area = 6 L^3 Vol and `moment` is 6 L^3 times the
    integral of the coordinate vector, the integer form's `moment`; the
    sample points sum to (sum of x, sum of y) / i. Only enumerated values
    and integer measures enter: no closed-form polynomial data.
    """
    (count, sx, sy), (mx, my) = moments, moment
    return vol6 * sx - i * count * mx, vol6 * sy - i * count * my


def _polygon_weight(polygon: Polygon, moments: tuple, i: int) -> tuple[int, int, int]:
    """(wx, wy, vol6): `_weight` of a polygon's own integer measures, with
    vol6 = 3 L twice_area, and its enumerated moments at dilation i. Every
    caller with a polygon reduces its Chow weight here."""
    form = polygon.integer
    vol6 = 3 * form.scale * form.twice_area
    return (*_weight(vol6, form.moment, moments, i), vol6)


def chow_eval(polygon: Polygon, f: AffineMap, i: int) -> Vec2:
    """Chow weight at dilation i, by direct enumeration.

    The constant part of f cancels between the two terms, so the weight is
    f_linear of the coordinate weight, `_polygon_weight` over 6 L^3 i: f
    reads the integer numerators and builds one Fraction per coordinate.
    """
    wx, wy, _ = _polygon_weight(polygon, lattice_moments(polygon, i), i)
    return f._apply_over(wx, wy, 6 * polygon.integer.scale**3 * i)


def chow_poly(polygon: Polygon) -> VecPoly:
    """Chow weight of the coordinate function as a polynomial in i.

    With Vol = a2/2, moment M/6, E = (a2/2)*i^2 + (b/2)*i + 1 and
    s = (M/6)*i^2 + (BM/4)*i + C/12 in the ints of the lattice polygon's
    integer form, Vol * s(i) - E(i) * moment has no i^2 term
    (Vol * moment - moment * Vol) and is

        ((3*BM*a2 - 2*M*b) * i + (C*a2 - 4*M)) / 24

    per coordinate. `_counting_and_sum_polys` gives C after checking E and
    s against enumeration; one Fraction is built per coefficient.
    """
    cx, cy = _counting_and_sum_polys(polygon)
    form = polygon.integer
    a2, b = form.twice_area, form.boundary_length
    (mx, my), (bx, by) = form.moment, form.boundary_moment
    return VecPoly(
        ZERO_VEC,
        Vec2(Fraction(3 * bx * a2 - 2 * mx * b, 24), Fraction(3 * by * a2 - 2 * my * b, 24)),
        Vec2(Fraction(cx * a2 - 4 * mx, 24), Fraction(cy * a2 - 4 * my, 24)),
    )


def coefficient_span_dim(poly: VecPoly) -> int:
    """Dimension of the span of the linear and constant coefficient vectors."""
    rows = (poly.c1, poly.c0)
    if all(r == ZERO_VEC for r in rows):
        return 0
    if rows[0].cross(rows[1]) != 0:
        return 2
    return 1


class LawCheck(NamedTuple):
    """Structured pass/fail evidence for one transformation law."""

    law: str
    holds: bool
    lhs: Vec2
    rhs: Vec2


def check_translation_law(polygon: Polygon, offset: Vec2, i: int) -> LawCheck:
    """Chow weight is unchanged by integral translation."""
    if offset.x.denominator != 1 or offset.y.denominator != 1:
        raise ValueError("translation law holds for integral offsets")
    f = AffineMap.identity()
    lhs = chow_eval(translate(polygon, offset), f, i)
    rhs = chow_eval(polygon, f, i)
    return LawCheck("translation", lhs == rhs, lhs, rhs)


def check_unimodular_law(polygon: Polygon, u: IntMat2, i: int) -> LawCheck:
    """Chow weight is equivariant under determinant-one lattice maps."""
    if u.det() != 1:
        raise ValueError("unimodular law needs determinant one")
    f = AffineMap.identity()
    lhs = chow_eval(apply_affine(polygon, AffineMap.from_int_mat(u)), f, i)
    rhs = u.apply(chow_eval(polygon, f, i))
    return LawCheck("unimodular", lhs == rhs, lhs, rhs)


def check_scaling_law(polygon: Polygon, k: int, i: int) -> LawCheck:
    """Chow weight of the k-fold dilation is k^3 times the weight at k*i."""
    f = AffineMap.identity()
    lhs = chow_eval(scale(polygon, k), f, i)
    rhs = chow_eval(polygon, f, k * i) * Fraction(k**3)
    return LawCheck("scaling", lhs == rhs, lhs, rhs)
