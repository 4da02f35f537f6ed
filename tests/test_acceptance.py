"""Acceptance gate: every comparison is exact (rational arithmetic,
tolerance zero). One pass/fail line per criterion is printed in the
terminal summary.

Criterion 3 asserts the stated target values of the six-chop worked
example; six of them are refuted by direct enumeration (two independent
routes agree on the refutation), and those sub-checks are left failing to
document the discrepancy. The enumeration-backed values for the same
fixture are pinned green in the module tests and the replicate suite, and
`test_criterion_03_stated_values_rebuilt` derives each stated value from
library values."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

import brute
from conftest import criterion, quadrilateral
from corpus import decomposition_corpus, delzant_corpus, random_affine, random_unimodular
from polychow import (
    AffineMap,
    CornerCut,
    IntMat2,
    PointConfiguration,
    Polygon,
    ScalarPoly,
    SymmetryGroup,
    Vec2,
    VecPoly,
    VerificationMismatch,
    apply_affine,
    area,
    boundary_moment,
    chop_corners,
    chow_after_blowup,
    chow_eval,
    chow_poly,
    coefficient_span_dim,
    df_invariants,
    ehrhart_poly,
    fo_invariant,
    is_centrally_symmetric,
    is_weakly_symmetric,
    lattice_moments,
    moment_integral,
    mukai_classify,
    scale,
    simplex_closed_forms,
    sum_points,
    sum_poly,
    sum_rule_constant_condition,
    sum_rule_residuals,
    translate,
    verify_blowup_theorem,
    verify_general_identity,
)

ID = AffineMap.identity()
ZERO = Vec2.of(0, 0)
HALF = Fraction(1, 2)


def vec(x, y) -> Vec2:
    return Vec2.of(x, y)


def test_criterion_01_three_corner_chops(cp2_triangle, hexagon):
    with criterion(1, "triple corner chop of the degree-3 triangle is balanced"):
        d = chop_corners(cp2_triangle, [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]])
        df1, df2 = df_invariants(d)
        assert df1 == ZERO and df2 == ZERO
        assert chow_after_blowup(d).is_zero()
        assert d.chopped == hexagon
        assert chow_poly(hexagon).is_zero()


def test_criterion_02_hexagon_corner_chop(hexagon):
    with criterion(2, "hexagon chop at (0,2), depth 1/2: invariants and identity"):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), HALF)])
        assert d.k == 2
        assert d.a_const == 11
        assert d.b_const == 23
        df1, df2 = df_invariants(d)
        assert df1 == vec(Fraction(83, 12), Fraction(-83, 12))
        assert df2 == vec(Fraction(13, 12), Fraction(-13, 12))
        after = chow_after_blowup(d)
        assert after.c2 == ZERO
        assert after.c1 == df1 and after.c0 == df2
        assert verify_blowup_theorem(d, 5).all_equal
        assert coefficient_span_dim(after) == 1


def test_criterion_03_chop_chains(hexagon):
    with criterion(3, "five- and six-chop chains (four sub-checks are a documented erratum)"):
        five = chop_corners(
            hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)]
        )
        df1, df2 = df_invariants(five)
        assert df1 == ZERO and df2 == ZERO
        assert chow_after_blowup(five).is_zero()
        assert verify_blowup_theorem(five, 3).all_equal

        six = chop_corners(five.chopped, [CornerCut.of((1, 2), Fraction(1, 4))])
        scaled_base = six.scaled_base()
        failures: list[str] = []

        def expect(label: str, got, stated) -> None:
            if got != stated:
                failures.append(f"{label}: computed {got}, stated {stated}")

        expect("k", six.k, 4)
        expect("A", six.a_const, 19)
        expect("B", six.b_const, 87)
        expect(
            "counting polynomial",
            ehrhart_poly(scaled_base),
            ScalarPoly(Fraction(44), Fraction(10), Fraction(1)),
        )
        expect("point sum at dilation 1", sum_points(scaled_base, 1), vec(220, 220))
        expect("point sum at dilation 2", sum_points(scaled_base, 2), vec(1576, 1576))
        # independent enumeration of the sum-polynomial constant term
        s_const = sum_poly(scaled_base).c0
        brute_s1 = brute.point_sum([v.as_tuple() for v in scaled_base.vertices], 1)
        brute_s2 = brute.point_sum([v.as_tuple() for v in scaled_base.vertices], 2)
        m = moment_integral(scaled_base)
        brute_const = (
            2 * m.x - brute_s2[0] + 2 * brute_s1[0],
            2 * m.y - brute_s2[1] + 2 * brute_s1[1],
        )
        expect("sum-polynomial constant (library)", s_const, vec(-784, -784))
        expect("sum-polynomial constant (enumeration)", vec(*brute_const), vec(-784, -784))
        after = chow_after_blowup(six)
        expect("chow linear coefficient", after.c1, vec(-394, Fraction(-4747, 12)))
        expect("chow constant coefficient", after.c0, vec(-390, Fraction(-4745, 12)))
        expect("coefficient span", coefficient_span_dim(after), 2)
        assert verify_blowup_theorem(six, 3).all_equal
        if failures:
            pytest.fail("; ".join(failures))


def test_criterion_03_stated_values_rebuilt(hexagon):
    """Each stated value that criterion 3 refutes is rebuilt exactly from
    library values of the six-chop fixture, each by one slip: the point sum
    at dilation 2 left undivided by i, the sum-polynomial constant fed that
    sum, and the Chow coefficients built with the constant's sign flipped
    (c0) and with -s(2)/2 in place of DF1's vertex and moment terms (c1).
    The stated c1 and c0 are not parallel, hence the stated span of 2."""
    five = chop_corners(hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)])
    six = chop_corners(five.chopped, [CornerCut.of((1, 2), Fraction(1, 4))])
    scaled_base = six.scaled_base()
    assert chow_poly(scaled_base).is_zero()  # so the Chow weight is DF1 * i + DF2
    (m,) = six.m
    frame = vec(*six.frames[0].column_sum())
    vertex = six.cuts[0].vertex * six.k
    a_c, b_c, ones = six.a_const, six.b_const, vec(1, 1)
    assert (m, frame, vertex, a_c, b_c) == (1, vec(0, -1), vec(4, 8), 19, 87)
    s1, s2 = sum_points(scaled_base, 1), sum_points(scaled_base, 2)
    moment = moment_integral(scaled_base)
    assert (s1, s2, moment) == (vec(220, 220), vec(788, 788), vec(176, 176))
    df1, df2 = df_invariants(six)

    # stated s(2) = 2 * 788: the lattice-point sum of the 2-fold dilation,
    # not divided by i = 2
    stated_s2 = s2 * 2
    assert stated_s2 == vec(*lattice_moments(scaled_base, 2)[1:]) == vec(1576, 1576)

    # stated constant -784 = 2*220 - 1576 + 2*176: c0 = 2 s(1) - s(2) + 2 m,
    # exact for a quadratic, fed the undivided s(2); the true s(2) gives 4
    stated_const = s1 * 2 - stated_s2 + moment * 2
    assert stated_const == vec(-784, -784)
    assert s1 * 2 - s2 + moment * 2 == sum_poly(scaled_base).c0 == vec(4, 4)

    # stated c0 = (F m B + 2 F m^3 + 6 kv m^2)/12 - 392 (1,1): DF2 subtracts
    # the constant times sum(m^2)/2, and the stated value adds it instead
    cut_terms = (frame * (m * b_c) + frame * (2 * m**3) + vertex * (6 * m * m)) * Fraction(1, 12)
    half_m2 = Fraction(six.m_square_sum, 2)
    assert df2 == cut_terms - sum_poly(scaled_base).c0 * half_m2
    stated_c0 = cut_terms + stated_const * half_m2
    assert stated_c0 == cut_terms - ones * 392 == vec(-390, Fraction(-4745, 12))

    # stated c1 = A F m^3/12 - 394 (1,1), with 394 = 788/2 = 1576/4 where DF1
    # has 3 (A kv m^2 - B kv m)/12 + m * sum(m)/2 - bm * sum(m^2)/4
    frame_term = frame * Fraction(a_c * m**3, 12)
    vertex_and_moment_terms = (
        vertex * Fraction(3 * (a_c * m * m - b_c * m), 12)
        + moment * Fraction(six.m_sum, 2)
        - boundary_moment(scaled_base) * Fraction(six.m_square_sum, 4)
    )
    assert vertex_and_moment_terms == vec(-68, -136) + vec(68, 68)
    assert df1 == frame_term + vertex_and_moment_terms
    stated_c1 = frame_term - s2 * HALF
    assert stated_c1 == frame_term - stated_s2 * Fraction(1, 4)
    assert stated_c1 == frame_term - ones * 394 == vec(-394, Fraction(-4747, 12))

    # stated span 2: the stated coefficients are not parallel; DF1 and DF2 are
    assert coefficient_span_dim(VecPoly(ZERO, stated_c1, stated_c0)) == 2
    assert coefficient_span_dim(VecPoly(ZERO, df1, df2)) == 1


def test_criterion_04_quadrilateral_family():
    with criterion(4, "quadrilateral family closed forms over the full grid"):
        started = time.monotonic()
        for a in range(1, 5):
            for b in range(1, 5):
                for n in range(1, 5):
                    p = quadrilateral(a, b, n)
                    vol = Fraction(a * b) + Fraction(a * a * n, 2)
                    assert area(p) == vol
                    assert ehrhart_poly(p) == ScalarPoly(
                        vol, Fraction(a + b) + Fraction(a * n, 2), Fraction(1)
                    )
                    assert moment_integral(p) == vec(
                        Fraction(a, 6) * (a * a * n * n + 3 * a * b * n + 3 * b * b),
                        Fraction(a, 6) * a * (a * n + 3 * b),
                    )
                    # the sum polynomial's linear coefficient uses the
                    # oracle-resolved a^2*n term
                    assert sum_poly(p) == type(sum_poly(p))(
                        moment_integral(p),
                        vec(
                            Fraction(
                                a * a * n * n + a * a * n + 2 * a * b * n + 2 * a * b + 2 * b * b,
                                4,
                            ),
                            Fraction(a * (a + b), 2),
                        ),
                        vec(
                            Fraction(a * n * n + 3 * a * n + 6 * b, 12),
                            Fraction(a * (3 - n), 6),
                        ),
                    )
                    for i in range(1, 6):
                        factor = Fraction(a * a * n, 24) * (a * i + 1) * (a * n - a + 2 * b)
                        assert chow_eval(p, ID, i) == vec(factor * n, -2 * factor)
        elapsed = time.monotonic() - started
        assert elapsed <= 10.0, f"grid took {elapsed:.1f}s, budget is 10s"


def test_criterion_05_simplex_closed_forms():
    with criterion(5, "corner-simplex closed forms match enumeration"):
        for m in range(1, 7):
            triangle = [(0, 0), (m, 0), (0, m)]
            for i in range(1, 6):
                pts = brute.enumerate_points(triangle, i)
                hyp = [p for p in pts if p[0] + p[1] == i * m]
                forms = simplex_closed_forms(m, i)
                assert forms.volume == brute.shoelace_area(triangle)
                assert forms.count_diff == len(pts) - len(hyp)
                assert forms.sum_diff == vec(
                    Fraction(sum(p[0] for p in pts) - sum(p[0] for p in hyp), i),
                    Fraction(sum(p[1] for p in pts) - sum(p[1] for p in hyp), i),
                )
                assert forms.moment == vec(*brute.green_moment(triangle))


def test_criterion_06_transformation_laws():
    with criterion(6, "transformation laws on 50+ randomized Delzant polygons"):
        corpus = delzant_corpus(size=52)
        assert len(corpus) >= 50
        rng = random.Random(20240613)
        for polygon in corpus:
            offset = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            u = random_unimodular(rng, rng.randint(1, 3))
            image = apply_affine(polygon, AffineMap.from_int_mat(u))
            moved = translate(polygon, offset)
            for i in (1, 2, 3):
                reference = chow_eval(polygon, ID, i)
                assert chow_eval(moved, ID, i) == reference
                assert chow_eval(image, ID, i) == u.apply(reference)
            for k in (1, 2, 3):
                for i in (1, 2, 3):
                    assert chow_eval(scale(polygon, k), ID, i) == chow_eval(
                        polygon, ID, k * i
                    ) * Fraction(k**3)


def test_criterion_07_decomposition_identity():
    with criterion(7, "decomposition identity residual vanishes on the corpus"):
        rng = random.Random(20240614)
        maps = [ID] + [random_affine(rng) for _ in range(10)]
        for d in decomposition_corpus():
            for f in maps:
                for i in (1, 2, 3):
                    assert verify_general_identity(d, f, i) == ZERO


def test_criterion_08_symmetry_fixtures(cp2_triangle, symmetric_hexagon):
    with criterion(8, "symmetry vanishing and the corner-chop sum rule"):
        for i in range(1, 7):
            assert fo_invariant(symmetric_hexagon, i) == ZERO
        assert is_centrally_symmetric(symmetric_hexagon)

        triangle = Polygon.from_coords([(1, 0), (0, 1), (-1, -1)])
        z3 = SymmetryGroup.generated_by([IntMat2.from_rows((0, -1), (1, -1))])
        assert is_weakly_symmetric(triangle, z3)

        single = chop_corners(cp2_triangle, [CornerCut.of((0, 0), 1)])
        triple = chop_corners(
            cp2_triangle, [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]]
        )
        for d in (single, triple):
            assert all(r == 0 for r in sum_rule_residuals(d).values())
            assert sum_rule_constant_condition(d) == 0


def test_criterion_09_incidence_classification():
    with criterion(9, "incidence stability classification of plane configurations"):
        general = PointConfiguration.of(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        )
        assert mukai_classify(general).verdict == "Stable"

        collinear = PointConfiguration.of(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        )
        result = mukai_classify(collinear)
        assert result.verdict == "Unstable"
        assert result.witness.dim == 1
        assert result.witness.coordinates == (0, 0, 1)
        assert result.witness.ratio == Fraction(3, 4)

        five = PointConfiguration.of(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)]
        )
        result = mukai_classify(five)
        assert result.verdict == "Stable"
        assert result.witness.ratio == Fraction(3, 5)


def test_criterion_10_boundary_measure_negative_control(hexagon, monkeypatch):
    with criterion(10, "Euclidean boundary measure breaks the hexagon-chop fixture"):
        import polychow.blowup as blowup_module

        def euclidean_boundary_moment(polygon):
            mx = my = 0.0
            for p, q in polygon.edges():
                length = math.sqrt(float((q.x - p.x) ** 2 + (q.y - p.y) ** 2))
                mx += length * float(p.x + q.x) / 2
                my += length * float(p.y + q.y) / 2
            return Vec2(mx, my)  # floats on purpose: this is the fault injection

        d = chop_corners(hexagon, [CornerCut.of((0, 2), HALF)])
        exact_df1, _ = df_invariants(d)
        assert exact_df1 == vec(Fraction(83, 12), Fraction(-83, 12))

        monkeypatch.setattr(blowup_module, "boundary_moment", euclidean_boundary_moment)
        corrupted_df1, _ = df_invariants(d)
        assert corrupted_df1 != exact_df1
        assert abs(float(corrupted_df1.x) - float(exact_df1.x)) > Fraction(1, 2)
        with pytest.raises(VerificationMismatch):
            verify_blowup_theorem(d, 5)