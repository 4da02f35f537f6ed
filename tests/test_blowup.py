from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import pytest

import brute
from corpus import decomposition_corpus, farey_fan, random_affine
from polychow import (
    AffineMap,
    BlowupVerification,
    CornerCut,
    CutThroughEdge,
    EnumerationLimitExceeded,
    InternalInconsistency,
    InvalidCutDepth,
    InvalidCutVertex,
    OverlappingCuts,
    Polygon,
    PolychowError,
    Vec2,
    VecPoly,
    VerificationMismatch,
    area,
    chop_corners,
    chow_after_blowup,
    chow_poly,
    df_invariants,
    ehrhart_eval,
    fo_invariant,
    is_delzant,
    scale,
    simplex_closed_forms,
    sum_points,
    verify_blowup_theorem,
    verify_general_identity,
)

ID = AffineMap.identity()
ZERO = Vec2.of(0, 0)
HALF = Fraction(1, 2)


def triple_cut(cp2_triangle):
    return chop_corners(cp2_triangle, [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]])


def hexagon_cut(hexagon):
    return chop_corners(hexagon, [CornerCut.of((0, 2), HALF)])


def octagon_cut(octagon):
    return chop_corners(octagon, [CornerCut.of((1, 2), Fraction(1, 4))])


class TestChopCorners:
    def test_triple_cut_aggregates(self, cp2_triangle, hexagon):
        d = triple_cut(cp2_triangle)
        assert (d.k, d.m, d.m_sum, d.m_square_sum) == (1, (1, 1, 1), 3, 3)
        assert (d.a_const, d.b_const) == (6, 6)
        assert d.chopped == hexagon
        assert is_delzant(scale(d.base, d.k)) and d.chopped_scaled_delzant

    def test_hexagon_cut_aggregates(self, hexagon):
        d = hexagon_cut(hexagon)
        assert (d.k, d.m) == (2, (1,))
        assert (d.a_const, d.b_const) == (11, 23)
        assert d.frames[0].columns() == ((0, -1), (1, 0))
        assert d.seams[0] == (Vec2.of(0, Fraction(3, 2)), Vec2.of(HALF, 2))

    def test_octagon_cut_aggregates(self, octagon):
        d = octagon_cut(octagon)
        assert (d.k, d.m) == (4, (1,))
        assert (d.a_const, d.b_const) == (19, 87)
        assert d.frames[0].columns() == ((-1, 0), (1, -1))

    def test_two_cut_aggregates(self, hexagon):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)])
        assert (d.k, d.a_const, d.b_const) == (2, 10, 22)

    def test_empty_cut_list(self, hexagon):
        d = chop_corners(hexagon, [])
        assert d.k == 1 and d.chopped == hexagon and d.m == ()
        assert df_invariants(d) == (ZERO, ZERO)
        assert verify_blowup_theorem(d, 2).all_equal
        assert chow_after_blowup(d) == chow_poly(hexagon)

    def test_area_splits(self, cp2_triangle):
        d = triple_cut(cp2_triangle)
        assert area(d.chopped) + sum(area(s) for s in d.simplices) == area(cp2_triangle)

    def test_simplices_sit_at_their_vertices(self, cp2_triangle):
        d = triple_cut(cp2_triangle)
        for cut, simplex in zip(d.cuts, d.simplices):
            assert cut.vertex in simplex.vertices

    def test_unknown_vertex_rejected(self, hexagon):
        with pytest.raises(InvalidCutVertex):
            chop_corners(hexagon, [CornerCut.of((5, 5), 1)])

    def test_cut_built_from_plain_pair(self, cp2_triangle, hexagon):
        # the vertex is coerced like the depth: a pair works as a vertex,
        # names a point that is not one, and refuses inexact coordinates
        cut = CornerCut((0, 0), 1)
        assert cut == CornerCut.of((0, 0), 1)
        assert chop_corners(cp2_triangle, [cut]) == chop_corners(
            cp2_triangle, [CornerCut.of((0, 0), 1)]
        )
        with pytest.raises(InvalidCutVertex, match=r"^\(5, 5\) is not a vertex"):
            chop_corners(hexagon, [CornerCut((5, 5), 1)])
        for vertex in [(0.0, 0), (0, True)]:
            with pytest.raises(TypeError):
                CornerCut(vertex, 1)

    def test_duplicate_vertex_rejected(self, hexagon):
        cuts = [CornerCut.of((0, 2), HALF), CornerCut.of((0, 2), Fraction(1, 4))]
        with pytest.raises(InvalidCutVertex):
            chop_corners(hexagon, cuts)

    def test_depth_reaching_neighbour_rejected(self, hexagon):
        with pytest.raises(CutThroughEdge):
            chop_corners(hexagon, [CornerCut.of((0, 2), 1)])

    def test_adjacent_cuts_touching_rejected(self, cp2_triangle):
        cuts = [CornerCut.of((0, 0), 2), CornerCut.of((3, 0), 1)]
        with pytest.raises(OverlappingCuts):
            chop_corners(cp2_triangle, cuts)

    def test_adjacent_cuts_overlapping_rejected(self, cp2_triangle):
        cuts = [CornerCut.of((0, 0), 2), CornerCut.of((3, 0), Fraction(3, 2))]
        with pytest.raises(OverlappingCuts):
            chop_corners(cp2_triangle, cuts)

    def test_every_corner_of_a_large_polygon_cut(self):
        # two cuts meet only across the edge they share, so each cut is
        # checked against its two neighbours: 5696 cuts validate in linear time
        base = farey_fan(48)
        cuts = [CornerCut(v, Fraction(1, 3)) for v in base.vertices]
        started = time.monotonic()
        d = chop_corners(base, cuts)
        assert time.monotonic() - started < 1.0
        assert (d.k, len(d.chopped)) == (3, 2 * len(base))
        assert d.chopped_scaled_delzant

    def test_last_two_cuts_of_a_large_polygon_overlapping(self):
        base = farey_fan(48)
        cuts = [CornerCut(v, Fraction(1, 3)) for v in base.vertices[:-2]]
        cuts += [CornerCut(v, HALF) for v in base.vertices[-2:]]
        started = time.monotonic()
        with pytest.raises(OverlappingCuts) as excinfo:
            chop_corners(base, cuts)
        assert time.monotonic() - started < 1.0
        first, second = (cut.vertex.text() for cut in cuts[-2:])
        assert str(excinfo.value) == f"cuts at {first} and {second} intersect"

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(InvalidCutDepth):
            CornerCut.of((0, 0), 0)

    def test_cutting_blunt_corner_rejected(self):
        from polychow import NotDelzant

        blunt = Polygon.from_coords([(0, 0), (1, 0), (2, 2)])
        with pytest.raises(NotDelzant):
            chop_corners(blunt, [CornerCut.of((1, 0), Fraction(1, 4))])

    @pytest.mark.parametrize(
        "cuts, error, message",
        [
            ([(("1/2", 5), 1)], InvalidCutVertex, "(1/2, 5) is not a vertex of the base polygon"),
            (
                [(("1/2", 2), Fraction(1, 4)), (("1/2", 2), Fraction(1, 8))],
                InvalidCutVertex,
                "vertex (1/2, 2) is cut twice",
            ),
            (
                [(("1/2", 2), 1)],
                CutThroughEdge,
                "cut of depth 1 at (1/2, 2) reaches the edge towards (0, 3/2)",
            ),
            (
                [(("1/2", 2), Fraction(1, 4)), ((0, "3/2"), Fraction(1, 4))],
                OverlappingCuts,
                "cuts at (1/2, 2) and (0, 3/2) intersect",
            ),
        ],
    )
    def test_rejection_names_points_as_pairs(self, octagon, cuts, error, message):
        # points are named with p/q coordinates, as in vertex_text
        with pytest.raises(error) as excinfo:
            chop_corners(octagon, [CornerCut.of(v, depth) for v, depth in cuts])
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "coords, cuts, message",
        [
            # opposite corners share no edge, so their cuts never meet
            ([(0, 0), (2, 0), (2, 2), (0, 2)], [((0, 0), "3/2"), ((2, 2), "3/2")], None),
            # each cut is checked against its edges before any pair is compared
            (
                [(0, 0), (3, 0), (0, 3)],
                [((0, 0), 2), ((3, 0), 1), ((0, 3), 3)],
                "CutThroughEdge: cut of depth 3 at (0, 3) reaches the edge towards (0, 0)",
            ),
            # all three pairs meet; the first in list order is named
            (
                [(0, 0), (3, 0), (0, 3)],
                [((0, 3), 2), ((0, 0), 2), ((3, 0), 2)],
                "OverlappingCuts: cuts at (0, 3) and (0, 0) intersect",
            ),
            # the partner is named by list order, whichever side of the
            # first cut's vertex it sits on: here the next vertex ...
            (
                [(0, 0), (3, 0), (0, 3)],
                [((3, 0), 2), ((0, 3), 2), ((0, 0), 2)],
                "OverlappingCuts: cuts at (3, 0) and (0, 3) intersect",
            ),
            # ... and here the previous one
            (
                [(0, 0), (3, 0), (0, 3)],
                [((3, 0), 2), ((0, 0), 2), ((0, 3), 2)],
                "OverlappingCuts: cuts at (3, 0) and (0, 0) intersect",
            ),
        ],
    )
    def test_refusal_order(self, coords, cuts, message):
        base = Polygon.from_coords(coords)
        cuts = [CornerCut.of(v, Fraction(depth)) for v, depth in cuts]
        if message is None:
            assert len(chop_corners(base, cuts).simplices) == len(cuts)
            return
        with pytest.raises(PolychowError) as excinfo:
            chop_corners(base, cuts)
        assert f"{type(excinfo.value).__name__}: {excinfo.value}" == message

    def test_blunt_corner_named_as_pair(self):
        from polychow import NotDelzant

        blunt = Polygon.from_coords([(0, 0), (Fraction(1, 2), 0), (2, 2)])
        with pytest.raises(NotDelzant) as excinfo:
            chop_corners(blunt, [CornerCut.of(("1/2", 0), Fraction(1, 4))])
        assert str(excinfo.value).startswith("corner at (1/2, 0) has frame determinant ")

    def test_rational_base_supported(self, octagon):
        # the octagon has half-integral vertices; cutting it must still work
        d = octagon_cut(octagon)
        assert d.k == 4
        assert d.chopped_scaled_delzant

    def test_scaled_depth_is_seam_lattice_length(self, heptagon, octagon, nonagon):
        # each seam q -> r is depth * (p - n) for a corner frame (n, p) of
        # det 1, so p - n is primitive and k * (r - q) has gcd k * depth = m
        decompositions = list(decomposition_corpus())
        depths = [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        for base in (heptagon, octagon, nonagon):
            for vertex in base.vertices:
                for depth in depths:
                    try:
                        decompositions.append(chop_corners(base, [CornerCut(vertex, depth)]))
                    except PolychowError:
                        continue
        assert len(decompositions) >= 80
        for d in decompositions:
            for m, (q, r) in zip(d.m, d.seams):
                step = (r - q) * d.k
                assert step.x.denominator == step.y.denominator == 1
                assert m == gcd(step.x.numerator, step.y.numerator)


class TestSimplexForms:
    def test_unit_values(self):
        forms = simplex_closed_forms(1, 1)
        assert forms.volume == HALF
        assert forms.sum_diff == ZERO
        assert forms.count_diff == 1
        assert forms.moment == Vec2.of(Fraction(1, 6), Fraction(1, 6))

    def test_m2_values(self):
        forms = simplex_closed_forms(2, 1)
        assert forms.volume == 2
        assert forms.sum_diff == Vec2.of(1, 1)
        assert forms.count_diff == 3
        assert forms.moment == Vec2.of(Fraction(4, 3), Fraction(4, 3))

    def test_m2_i3_sum_diff(self):
        forms = simplex_closed_forms(2, 3)
        third = Fraction(35, 3)
        assert forms.sum_diff == Vec2.of(third, third)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_closed_forms_match_enumeration(self, m, i):
        triangle = [(0, 0), (m, 0), (0, m)]
        pts = brute.enumerate_points(triangle, i)
        on_hypotenuse = [p for p in pts if p[0] + p[1] == i * m]
        forms = simplex_closed_forms(m, i)
        assert forms.count_diff == len(pts) - len(on_hypotenuse)
        diff_x = Fraction(sum(p[0] for p in pts) - sum(p[0] for p in on_hypotenuse), i)
        diff_y = Fraction(sum(p[1] for p in pts) - sum(p[1] for p in on_hypotenuse), i)
        assert forms.sum_diff == Vec2.of(diff_x, diff_y)
        assert forms.volume == brute.shoelace_area(triangle)
        assert forms.moment == Vec2.of(*brute.green_moment(triangle))


class TestFrameIdentity:
    def test_scaled_simplices_are_framed_standard_triangles(self, hexagon):
        d = hexagon_cut(hexagon)
        for cut, frame, m, simplex in zip(d.cuts, d.frames, d.m, d.simplices):
            standard = [(0, 0), (m, 0), (0, m)]
            offset = cut.vertex * d.k
            expected = {
                (frame.apply(Vec2.of(x, y)) + offset) for x, y in standard
            }
            assert expected == set(scale(simplex, d.k).vertices)


class TestDfInvariants:
    def test_triple_cut_vanishes(self, cp2_triangle):
        assert df_invariants(triple_cut(cp2_triangle)) == (ZERO, ZERO)

    def test_hexagon_cut_values(self, hexagon):
        df1, df2 = df_invariants(hexagon_cut(hexagon))
        assert df1 == Vec2.of(Fraction(83, 12), Fraction(-83, 12))
        assert df2 == Vec2.of(Fraction(13, 12), Fraction(-13, 12))

    def test_two_cut_vanishes(self, hexagon):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)])
        assert df_invariants(d) == (ZERO, ZERO)

    def test_octagon_cut_values(self, octagon):
        df1, df2 = df_invariants(octagon_cut(octagon))
        assert df1 == Vec2.of(0, Fraction(-835, 12))
        assert df2 == Vec2.of(0, Fraction(-65, 12))


class TestBlowupIdentity:
    def test_triple_cut_chow_vanishes(self, cp2_triangle):
        assert chow_after_blowup(triple_cut(cp2_triangle)).is_zero()

    def test_hexagon_cut_chow(self, hexagon):
        poly = chow_after_blowup(hexagon_cut(hexagon))
        assert poly.c1 == Vec2.of(Fraction(83, 12), Fraction(-83, 12))
        assert poly.c0 == Vec2.of(Fraction(13, 12), Fraction(-13, 12))

    def test_hexagon_cut_scans(self, hexagon, scans):
        # the scaled base at i = 1, 2, 3 for the point-sum constant in
        # df_invariants; chow_poly reads the constant stored by that gate
        d = hexagon_cut(hexagon)
        chow_after_blowup(d)
        assert scans == [(d.scaled_base(), i) for i in (1, 2, 3)]

    def test_verification_charged_before_work(self, hexagon, scans, monkeypatch):
        # the rows of all i_max scans are charged before the identity side
        # or the first dilation is computed
        d = hexagon_cut(hexagon)
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "1000")
        with pytest.raises(EnumerationLimitExceeded) as excinfo:
            verify_blowup_theorem(d, 300)
        assert scans == []
        assert "i_max=300 scans up to" in str(excinfo.value)

    def test_two_cut_chow_vanishes(self, hexagon):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)])
        assert chow_after_blowup(d).is_zero()

    def test_identity_against_enumeration(self, cp2_triangle, hexagon, octagon):
        for d in (triple_cut(cp2_triangle), hexagon_cut(hexagon), octagon_cut(octagon)):
            report = verify_blowup_theorem(d, 4)
            assert report.all_equal
            assert [i for i, _, _ in report.entries] == [1, 2, 3, 4]

    def test_three_dilations_prove_every_dilation(self, hexagon):
        d = hexagon_cut(hexagon)
        assert verify_blowup_theorem(d, 3).proves_every_dilation
        assert verify_blowup_theorem(d, 5).proves_every_dilation
        short = verify_blowup_theorem(d, 2)
        assert short.all_equal and not short.proves_every_dilation

    def test_mismatch_proves_nothing(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        monkeypatch.setattr(blowup_module, "boundary_moment", lambda polygon: Vec2.of(1, 1))
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(hexagon_cut(hexagon), 3)
        assert not excinfo.value.report.proves_every_dilation
        # a mismatch past i = 3 proves nothing either, though 1, 2 and 3 agree
        zero = Vec2.of(0, 0)
        entries = tuple((i, zero, zero) for i in (1, 2, 3)) + ((4, Vec2.of(1, 0), zero),)
        assert not BlowupVerification(entries).proves_every_dilation

    def test_verification_scans_each_dilation_once(self, hexagon, scans):
        d = hexagon_cut(hexagon)
        target = d.scaled_chopped()
        verify_blowup_theorem(d, 4)
        assert [i for polygon, i in scans if polygon is target] == [1, 2, 3, 4]

    def test_verification_stops_at_first_mismatch(self, hexagon, scans, monkeypatch):
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        target = d.scaled_chopped()
        monkeypatch.setattr(blowup_module, "boundary_moment", lambda polygon: Vec2.of(1, 1))
        with pytest.raises(VerificationMismatch):
            verify_blowup_theorem(d, 4)
        assert [i for polygon, i in scans if polygon is target] == [1]

    def test_octagon_identity_value(self, octagon):
        d = octagon_cut(octagon)
        report = verify_blowup_theorem(d, 3)
        assert report.entries[0][1] == Vec2.of(0, -75)
        # identity route equals the direct Chow polynomial of the result
        assert chow_after_blowup(d) == chow_poly(d.scaled_chopped())

    def test_mismatch_reporting(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        broken = lambda polygon: Vec2.of(1, 1)  # noqa: E731 - deliberate fault
        monkeypatch.setattr(blowup_module, "boundary_moment", broken)
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 3)
        assert excinfo.value.i == 1
        assert excinfo.value.lhs != excinfo.value.rhs

    def test_corrupted_invariants_caught_by_enumeration(self, hexagon, monkeypatch):
        # the enumerated side shares nothing with the invariants, so a wrong
        # DF1 cannot be compared with itself
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        exact = blowup_module.df_invariants

        def shifted(decomposition):
            df1, df2 = exact(decomposition)
            return df1 + Vec2.of(1, 0), df2

        monkeypatch.setattr(blowup_module, "df_invariants", shifted)
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 3)
        assert excinfo.value.i == 1
        assert excinfo.value.lhs - excinfo.value.rhs == Vec2.of(1, 0)

    def test_identity_side_quadratic_term_checked(self, hexagon, monkeypatch):
        # c2 is zero by construction; a non-zero one must still show at i = 1
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        exact = blowup_module.chow_after_blowup

        def with_c2(decomposition):
            poly = exact(decomposition)
            return VecPoly(Vec2.of(1, 0), poly.c1, poly.c0)

        monkeypatch.setattr(blowup_module, "chow_after_blowup", with_c2)
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 3)
        assert excinfo.value.i == 1
        assert excinfo.value.lhs - excinfo.value.rhs == Vec2.of(1, 0)

    def test_mismatch_message_names_polygon_and_k(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        exact = blowup_module.df_invariants

        def shifted(decomposition):
            df1, df2 = exact(decomposition)
            return df1 + Vec2.of(1, 0), df2

        monkeypatch.setattr(blowup_module, "df_invariants", shifted)
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 3)
        error = excinfo.value
        message = str(error)
        assert "at i=1 " in message
        assert d.scaled_chopped().vertex_text() in message
        assert f"k={d.k}" in message
        assert f"{error.lhs} != {error.rhs}" in message
        assert error.report is not None and error.report.entries[-1] == (1, error.lhs, error.rhs)

    def test_mismatch_message_names_base_and_cuts(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        cuts = [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), Fraction(1, 4))]
        d = chop_corners(hexagon, cuts)
        exact = blowup_module.df_invariants

        def shifted(decomposition):
            df1, df2 = exact(decomposition)
            return df1, df2 + Vec2.of(0, Fraction(1, 3))

        monkeypatch.setattr(blowup_module, "df_invariants", shifted)
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 3)
        error = excinfo.value
        message = str(error)
        assert f"from base {hexagon.vertex_text()} " in message
        assert "cut at [(0, 2) at depth 1/2, (2, 0) at depth 1/4]" in message
        assert d.scaled_chopped().vertex_text() in message and f"k={d.k}" in message
        assert (error.i, error.lhs - error.rhs) == (1, Vec2.of(0, Fraction(1, 3)))
        assert error.report.entries == ((1, error.lhs, error.rhs),)

    def test_enumerated_side_reads_no_closed_form(self, hexagon):
        # a wrong point-sum constant stored on the scaled chopped polygon
        # cannot reach the enumerated side; on the scaled base it feeds the
        # identity side, and enumeration catches it at the first dilation
        d = hexagon_cut(hexagon)
        target = d.scaled_chopped()
        object.__setattr__(target, "_sum_constant", (1, -1))
        assert verify_blowup_theorem(d, 4).all_equal
        assert target._sum_constant == (1, -1)

        from polychow.counting import _counting_and_sum_polys

        d = hexagon_cut(hexagon)
        base = d.scaled_base()
        cx, cy = _counting_and_sum_polys(base)
        object.__setattr__(base, "_sum_constant", (cx + 1, cy))
        with pytest.raises(VerificationMismatch) as excinfo:
            verify_blowup_theorem(d, 4)
        assert excinfo.value.i == 1

    def test_area_mismatch_names_polygon_and_sides(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        monkeypatch.setattr(blowup_module, "area", lambda polygon: Fraction(1))
        with pytest.raises(InternalInconsistency) as excinfo:
            hexagon_cut(hexagon)
        message = str(excinfo.value)
        assert "[(0, 1), (1, 0), (2, 0), (2, 1), (1, 2), (0, 2)]" in message
        assert "k=2" in message and "chopped plus cut simplices 2, base 1" in message

    def test_area_mismatch_names_cuts(self, hexagon, monkeypatch):
        import polychow.blowup as blowup_module

        monkeypatch.setattr(blowup_module, "area", lambda polygon: Fraction(1))
        cuts = [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), Fraction(1, 4))]
        with pytest.raises(InternalInconsistency) as excinfo:
            chop_corners(hexagon, cuts)
        assert "cut at [(0, 2) at depth 1/2, (2, 0) at depth 1/4]" in str(excinfo.value)


class TestCorpusIdentity:
    def test_blowup_identity_on_corpus(self):
        for d in decomposition_corpus(max_count=8):
            assert verify_blowup_theorem(d, 3).all_equal


    def test_futaki_ono_relation_on_corpus(self):
        # a third route to the identity side: the Chow weight of the scaled
        # chopped polygon is Vol * E(i) times its Futaki-Ono invariant, with
        # Vol = B/2 and E(i) = (B/2) i^2 + (A/2) i + 1 by Pick's theorem
        for d in decomposition_corpus(max_count=12):
            poly = chow_after_blowup(d)
            a_c, b_c = d.a_const, d.b_const
            for i in (1, 2, 3, 4):
                scale_back = Fraction(4, b_c * (b_c * i * i + a_c * i + 2))
                fo = fo_invariant(d.scaled_chopped(), i)
                assert type(fo.x) is Fraction and type(fo.y) is Fraction
                assert fo == poly(i) * scale_back


class TestQuadrilateralCutData:
    """Cut data of the slanted quadrilateral family: frame column sums and
    the aggregate invariants of an all-corner chop."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frame_column_sums(self, n):
        from conftest import quadrilateral
        from polychow import corner_frame

        a, b = 2, 2
        quad = quadrilateral(a, b, n)
        expected = {
            (0, 0): (1, 1),
            (0, a): (1, -1),
            (b, a): (n - 1, -1),
            (b + a * n, 0): (-1 - n, 1),
        }
        for coords, column_sum in expected.items():
            idx = quad.index_of(Vec2.of(*coords))
            frame = corner_frame(quad, idx)
            assert frame.column_sum() == column_sum

    @pytest.mark.parametrize("a,b,n", [(2, 2, 1), (2, 3, 2), (3, 2, 1)])
    def test_all_corner_chop_aggregates(self, a, b, n):
        from conftest import quadrilateral

        quad = quadrilateral(a, b, n)
        cuts = [
            CornerCut.of(v, HALF)
            for v in [(0, 0), (0, a), (b, a), (b + a * n, 0)]
        ]
        d = chop_corners(quad, cuts)
        # boundary count and doubled volume of the scaled base in closed form
        assert d.k == 2
        assert d.m == (1, 1, 1, 1)
        assert d.a_const == d.k * (2 * a + a * n + 2 * b) - 4
        assert d.b_const == a * d.k * d.k * (a * n + 2 * b) - 4
        assert verify_blowup_theorem(d, 3).all_equal


class TestGeneralIdentity:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_identity_cut_fixtures(self, cp2_triangle, hexagon, i):
        for d in (triple_cut(cp2_triangle), hexagon_cut(hexagon)):
            assert verify_general_identity(d, ID, i) == ZERO

    def test_random_affine_maps(self, hexagon):
        rng = random.Random(7)
        d = hexagon_cut(hexagon)
        for _ in range(5):
            assert verify_general_identity(d, random_affine(rng), 2) == ZERO

    def test_corpus_decompositions(self):
        rng = random.Random(11)
        for d in decomposition_corpus(max_count=6):
            assert verify_general_identity(d, ID, 1) == ZERO
            assert verify_general_identity(d, random_affine(rng), 2) == ZERO

    def test_one_scan_per_polygon_and_dilation(self, hexagon, scans):
        # scaled base, one scaled cut simplex and the scaled chopped polygon
        assert verify_general_identity(hexagon_cut(hexagon), ID, 2) == ZERO
        assert len(scans) == 3
        assert len(set(scans)) == 3


    def test_no_polygon_built_per_call(self, hexagon, monkeypatch):
        # the cut simplices are scanned at dilation k*i, not rebuilt as
        # k*simplex: no integer form is made once the decomposition exists
        import polychow.geometry as geometry

        d = hexagon_cut(hexagon)
        assert d.k == 2

        def refuse(*args):
            raise AssertionError("a polygon was built")

        monkeypatch.setattr(geometry, "_integer_form", refuse)
        assert verify_general_identity(d, ID, 2) == ZERO

    @pytest.mark.parametrize("call", [0, 1, 2], ids=["base", "simplex", "chopped"])
    def test_shifted_count_leaves_residual(self, hexagon, monkeypatch, call):
        # the offset part of f cancels whatever the enumerated values are,
        # so it is not evaluated; one point too many in any polygon's count
        # must still show in the residual, for the identity and for a
        # random affine f
        import polychow.blowup as blowup_module

        d = hexagon_cut(hexagon)
        rng = random.Random(5)
        maps = [ID] + [f for f in (random_affine(rng) for _ in range(10)) if f.is_invertible()][:1]
        assert len(maps) == 2 and maps[1].offset != ZERO
        exact = blowup_module.lattice_moments
        for f in maps:
            seen = []

            def shifted(polygon, i):
                count, sx, sy = exact(polygon, i)
                seen.append(polygon)
                return (count + 1, sx, sy) if len(seen) == call + 1 else (count, sx, sy)

            monkeypatch.setattr(blowup_module, "lattice_moments", shifted)
            residual = verify_general_identity(d, f, 2)
            assert len(seen) == 3
            assert residual != ZERO
            assert type(residual.x) is Fraction and type(residual.y) is Fraction
            monkeypatch.setattr(blowup_module, "lattice_moments", exact)
            assert verify_general_identity(d, f, 2) == ZERO


class TestAdditivity:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_count_and_sum_additivity(self, cp2_triangle, hexagon, i):
        two_cut = chop_corners(
            hexagon, [CornerCut.of((0, 2), HALF), CornerCut.of((2, 0), HALF)]
        )
        for d in (triple_cut(cp2_triangle), two_cut):
            k = d.k
            # the integer points of each seam of the k*i-th dilation
            seams = [
                brute.segment_lattice_points(
                    (int(q.x * k * i), int(q.y * k * i)), (int(r.x * k * i), int(r.y * k * i))
                )
                for q, r in d.seams
            ]
            base_count = ehrhart_eval(scale(d.base, k), i)
            chopped_count = ehrhart_eval(scale(d.chopped, k), i)
            part_count = sum(
                ehrhart_eval(scale(s, k), i) - len(seam)
                for s, seam in zip(d.simplices, seams)
            )
            assert base_count == chopped_count + part_count

            base_sum = sum_points(scale(d.base, k), i)
            total = sum_points(scale(d.chopped, k), i)
            for s, seam in zip(d.simplices, seams):
                total = total + sum_points(scale(s, k), i)
                total = total - Vec2(
                    Fraction(sum(x for x, _ in seam), i), Fraction(sum(y for _, y in seam), i)
                )
            assert base_sum == total
