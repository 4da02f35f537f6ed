from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import brute
from conftest import quadrilateral
from corpus import delzant_corpus
from polychow import (
    CornerCut,
    DuplicatePoint,
    EmptyConfiguration,
    EnumerationLimitExceeded,
    GroupClosureOverflow,
    HypothesisNotMet,
    IntMat2,
    PointConfiguration,
    PolychowError,
    Polygon,
    SymmetryGroup,
    Vec2,
    c_constant,
    chop_corners,
    fo_invariant,
    is_centrally_symmetric,
    is_weakly_symmetric,
    mukai_classify,
    scale,
    sum_rule_constant_condition,
    sum_rule_residuals,
    translate,
)

ZERO = Vec2.of(0, 0)


class TestFoInvariant:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_symmetric_hexagon_vanishes(self, symmetric_hexagon, i):
        assert fo_invariant(symmetric_hexagon, i) == ZERO

    def test_cp2_triangle_vanishes(self, cp2_triangle):
        assert fo_invariant(cp2_triangle, 1) == ZERO

    def test_smallest_quadrilateral(self):
        value = fo_invariant(quadrilateral(1, 1, 1), 1)
        assert value == Vec2.of(Fraction(1, 45), Fraction(-2, 45))

    def test_translation_invariance(self, symmetric_hexagon):
        moved = translate(symmetric_hexagon, Vec2.of(5, -2))
        for i in (1, 2):
            assert fo_invariant(moved, i) == fo_invariant(symmetric_hexagon, i)

    def test_weakly_symmetric_polygon_vanishes(self):
        triangle = Polygon.from_coords([(1, 0), (0, 1), (-1, -1)])
        for i in range(1, 6):
            assert fo_invariant(triangle, i) == ZERO

    def test_unimodular_equivariance(self):
        from polychow import AffineMap, apply_affine

        quad = quadrilateral(1, 1, 1)
        u = IntMat2.from_rows((1, 1), (1, 2))
        image = apply_affine(quad, AffineMap.from_int_mat(u))
        for i in (1, 2):
            assert fo_invariant(image, i) == u.apply(fo_invariant(quad, i))


class TestSymmetry:
    def test_symmetric_hexagon_is_centrally_symmetric(self, symmetric_hexagon):
        assert is_centrally_symmetric(symmetric_hexagon)

    def test_unit_square_is_not(self, unit_square):
        assert not is_centrally_symmetric(unit_square)

    def test_centered_square_is(self):
        square = Polygon.from_coords([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert is_centrally_symmetric(square)

    def test_cyclic_triangle_weakly_symmetric(self):
        triangle = Polygon.from_coords([(1, 0), (0, 1), (-1, -1)])
        group = SymmetryGroup.generated_by([IntMat2.from_rows((0, -1), (1, -1))])
        assert len(group) == 3
        assert is_weakly_symmetric(triangle, group)

    def test_point_reflection_group(self, symmetric_hexagon):
        group = SymmetryGroup.generated_by([IntMat2(-1, 0, 0, -1)])
        assert is_weakly_symmetric(symmetric_hexagon, group)

    def test_trivial_group_never_weakly_symmetric(self, symmetric_hexagon):
        group = SymmetryGroup.generated_by([])
        assert not is_weakly_symmetric(symmetric_hexagon, group)

    def test_centrally_symmetric_implies_weakly(self, symmetric_hexagon):
        # point reflection realizes weak symmetry for centrally symmetric polygons
        square = Polygon.from_coords([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        group = SymmetryGroup.generated_by([IntMat2(-1, 0, 0, -1)])
        for polygon in (symmetric_hexagon, square):
            assert is_centrally_symmetric(polygon)
            assert is_weakly_symmetric(polygon, group)

    def test_generator_determinant_checked(self):
        with pytest.raises(ValueError):
            SymmetryGroup.generated_by([IntMat2.from_rows((1, 0), (0, -1))])

    def test_generator_named_row_major(self):
        with pytest.raises(ValueError) as excinfo:
            SymmetryGroup.generated_by([IntMat2.from_rows((1, 2), (0, -1))])
        assert str(excinfo.value) == "generator [[1, 2], [0, -1]] must have determinant one"

    def test_every_determinant_checked_before_any_closure(self):
        # the first generator alone would overflow; the second's determinant
        # is refused first
        with pytest.raises(ValueError, match="^generator \\[\\[1, 0\\], \\[0, -1\\]\\] must"):
            SymmetryGroup.generated_by([IntMat2(1, 1, 0, 1), IntMat2(1, 0, 0, -1)])

    def test_infinite_group_overflows(self):
        with pytest.raises(GroupClosureOverflow):
            SymmetryGroup.generated_by([IntMat2.from_rows((1, 1), (0, 1))])

    @pytest.mark.parametrize("order, generator", [
        (2, IntMat2(-1, 0, 0, -1)),
        (3, IntMat2(0, -1, 1, -1)),
        (4, IntMat2(0, -1, 1, 0)),
        (6, IntMat2(1, -1, 1, 0)),
    ])
    @pytest.mark.parametrize("conjugator", [
        IntMat2(1, 0, 0, 1), IntMat2(1, 7, 0, 1), IntMat2(5, 3, 3, 2), IntMat2(-13, 8, 21, -13),
    ])
    def test_conjugated_cyclic_groups_close(self, order, generator, conjugator):
        # the largest finite subgroups of SL2(Z) fit under the closure cap
        p = conjugator
        g = p @ generator @ IntMat2(p.d, -p.b, -p.c, p.a)
        group = SymmetryGroup.generated_by([g])
        assert len(group) == order
        assert all(x @ y in group.elements for x in group.elements for y in group.elements)

    def test_infinite_group_with_large_entries_refused_at_once(self):
        # det 1 and infinite order: each power adds about 20 digits per entry
        started = time.monotonic()
        with pytest.raises(GroupClosureOverflow, match="^group closure exceeds 6 elements; "
                                                       "the generated group is infinite$"):
            SymmetryGroup.generated_by([IntMat2(10**20 + 1, 10**20, 1, 1)])
        assert time.monotonic() - started < 1.0


class TestCConstant:
    def test_unimodular_simplex(self):
        simplex = Polygon.from_coords([(0, 0), (1, 0), (0, 1)])
        assert c_constant(simplex) == 6

    def test_cp2_triangle(self, cp2_triangle):
        assert c_constant(cp2_triangle) == Fraction(20, 9)

    def test_unit_square(self, unit_square):
        assert c_constant(unit_square) == 4


class TestSumRule:
    def test_single_cut_residuals(self, cp2_triangle):
        d = chop_corners(cp2_triangle, [CornerCut.of((0, 0), 1)])
        assert sum_rule_residuals(d) == {"1": 0, "x1": 0, "x2": 0}

    def test_three_cut_residuals(self, cp2_triangle):
        cuts = [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]]
        d = chop_corners(cp2_triangle, cuts)
        assert all(r == 0 for r in sum_rule_residuals(d).values())

    def test_constant_condition(self, cp2_triangle):
        single = chop_corners(cp2_triangle, [CornerCut.of((0, 0), 1)])
        triple = chop_corners(cp2_triangle, [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]])
        assert sum_rule_constant_condition(single) == 0
        assert sum_rule_constant_condition(triple) == 0

    def test_empty_decomposition(self, cp2_triangle):
        d = chop_corners(cp2_triangle, [])
        assert all(r == 0 for r in sum_rule_residuals(d).values())
        assert sum_rule_constant_condition(d) == 0

    def test_scaled_decomposition_rejected(self, hexagon):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), Fraction(1, 2))])
        assert d.k == 2
        with pytest.raises(HypothesisNotMet):
            sum_rule_residuals(d)

    def test_unbalanced_base_rejected(self):
        base = quadrilateral(2, 2, 2)
        assert fo_invariant(base, 1) != ZERO
        d = chop_corners(base, [CornerCut.of((0, 0), 1)])
        with pytest.raises(HypothesisNotMet):
            sum_rule_residuals(d)

    def test_count_residual_is_minus_constant_condition(self):
        # c_chop * area(chopped) is the chopped count, so the count residual
        # is exactly the constant condition with its sign flipped
        tested = nonzero = 0
        for base in delzant_corpus(size=20):
            for factor in (1, 2, 3):
                scaled = scale(base, factor)
                if fo_invariant(scaled, 1) != ZERO:
                    continue
                for r in (1, 2):
                    for corners in combinations(scaled.vertices, r):
                        for depths in product((1, 2), repeat=r):
                            try:
                                d = chop_corners(
                                    scaled, [CornerCut(v, t) for v, t in zip(corners, depths)]
                                )
                            except PolychowError:
                                continue
                            condition = sum_rule_constant_condition(d)
                            assert sum_rule_residuals(d)["1"] == -condition
                            tested += 1
                            nonzero += condition != 0
        assert tested >= 200 and nonzero >= 50

    def test_deep_cut_reports_nonzero_residual(self, cp2_triangle):
        # a depth-2 cut removes a non-unimodular corner simplex; the rule's
        # hypotheses are met (k=1, balanced base) but the residual is real
        d = chop_corners(cp2_triangle, [CornerCut.of((0, 0), 2)])
        assert d.k == 1
        residuals = sum_rule_residuals(d)
        assert any(r != 0 for r in residuals.values())
        assert sum_rule_constant_condition(d) != 0

    @pytest.mark.parametrize(
        "cuts",
        [
            [],
            [((0, 0), 1)],
            [((3, 0), 1)],
            [((3, 0), 2)],
            [((0, 0), 1), ((3, 0), 1), ((0, 3), 1)],
        ],
    )
    def test_residuals_match_brute_force(self, cp2_triangle, cuts):
        d = chop_corners(cp2_triangle, [CornerCut.of(v, depth) for v, depth in cuts])

        def coords(polygon):
            return [v.as_tuple() for v in polygon.vertices]

        def integrals(polygon):
            # the integrals of 1, x1 and x2
            return (brute.shoelace_area(coords(polygon)), *brute.green_moment(coords(polygon)))

        def c(polygon):
            return brute.count_points(coords(polygon), 1) / brute.shoelace_area(coords(polygon))

        c_base, c_chop = c(d.base), c(d.chopped)
        seam_points = [
            p
            for q, r in d.seams
            for p in brute.segment_lattice_points(
                (int(q.x), int(q.y)), (int(r.x), int(r.y))
            )
        ]
        lhs = (
            brute.count_points(coords(d.chopped), 1),
            *brute.point_sum(coords(d.chopped), 1),
        )
        seams = (len(seam_points), sum(p[0] for p in seam_points), sum(p[1] for p in seam_points))
        expected = {}
        for j, name in enumerate(("1", "x1", "x2")):
            rhs = (
                c_chop * integrals(d.chopped)[j]
                + (c_base - c_chop) * integrals(d.base)[j]
                + (c_chop - 6) * sum(integrals(s)[j] for s in d.simplices)
                + seams[j]
            )
            expected[name] = lhs[j] - rhs
        assert sum_rule_residuals(d) == expected
        assert sum_rule_constant_condition(d) == -expected["1"]

    @pytest.mark.parametrize("rule", [sum_rule_residuals, sum_rule_constant_condition])
    def test_one_scan_per_polygon(self, cp2_triangle, scans, rule):
        # one scan of the base and one of the chopped polygon, both at i = 1
        d = chop_corners(cp2_triangle, [CornerCut.of((0, 0), 1)])
        rule(d)
        assert len(scans) == 2
        assert set(scans) == {(d.base, 1), (d.chopped, 1)}


def config(*rows):
    return PointConfiguration.of(list(rows))


class TestMukai:
    def test_four_general_points_stable(self):
        result = mukai_classify(config((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        assert result.verdict == "Stable"
        assert result.witness.ratio < result.witness.bound

    def test_three_collinear_of_four_unstable(self):
        result = mukai_classify(config((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        assert result.verdict == "Unstable"
        assert result.witness.dim == 1
        assert result.witness.coordinates == (0, 0, 1)  # the line z = 0
        assert result.witness.ratio == Fraction(3, 4)

    def test_five_point_configuration_stable(self):
        # two lines carry three points each; the sharpest ratio is 3/5 < 2/3
        result = mukai_classify(
            config((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0))
        )
        assert result.verdict == "Stable"
        assert result.witness.dim == 1
        assert result.witness.ratio == Fraction(3, 5)

    def test_three_general_points_borderline(self):
        result = mukai_classify(config((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert result.verdict == "Borderline"

    def test_rescaling_and_permutation_invariance(self):
        base = config((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        rescaled = config((0, 0, 7), (1, 1, 1), (-3, 0, 0), (0, 2, 0))
        assert mukai_classify(base) == mukai_classify(rescaled)

    def test_rational_representatives_normalized(self):
        c = config((Fraction(1, 2), 0, Fraction(3, 2)), (0, 1, 0))
        assert c.points[0] == (1, 0, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyConfiguration):
            mukai_classify(PointConfiguration(()))

    def test_long_exponent_refused_at_once(self):
        started = time.monotonic()
        with pytest.raises(OverflowError, match="^exponent beyond 4300$"):
            config(("1e30000000", 0, 1), (0, 1, 1))
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("coordinate", [True, False])
    def test_bool_coordinate_refused(self, coordinate):
        with pytest.raises(TypeError, match="got bool"):
            config((coordinate, 0, 1), (0, 1, 1))

    def test_float_coordinate_refused(self):
        with pytest.raises(ValueError, match="exact rationals"):
            config((0.5, 0, 1), (0, 1, 1))

    @pytest.mark.parametrize("points", [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)],
        # two lines of four points sharing (1, 0, 0): n = 7, where a line
        # of m = 4 points leaves room for another of n - m + 1 = 4
        [(1, 0, 1), (1, 0, 2), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)],
    ], ids=["two lines of 3", "two lines of 4"])
    def test_tied_lines_in_every_order(self, points):
        # the scan keeps every line that ties with the best, whichever of
        # them it meets first
        orders = permutations(points) if len(points) < 6 else (
            points[k:] + points[:k] for k in range(len(points))
        )
        for order in orders:
            configuration = config(*order)
            result = mukai_classify(configuration)
            w = result.witness
            assert (result.verdict, w.dim, w.coordinates, w.incident, w.ratio, w.bound) == (
                brute.mukai_brute(configuration.points)
            )
            assert (w.dim, w.coordinates, w.incident) == (1, (0, 0, 1), len(points) // 2 + 1)

    @pytest.mark.parametrize("n", [4, 6, 16])
    @pytest.mark.parametrize("short", [0, 1], ids=["line of need", "line of need - 1"])
    def test_anchor_cut_off_boundary(self, n, short):
        # generic points on a conic, then one line on z = 0 of need or
        # need - 1 points, in every rotation: an anchor on the line with
        # the conic points between its line points reaches need - 1 later
        # points only at its last one. A line of need points is the
        # witness (unstable at n = 4, borderline at n = 6); one of need - 1
        # does not beat the points, and a point is the witness
        need = (n + 3) // 3 + 1
        line = [(1, j, 0) for j in range(need - short)]
        points = [(1, j, j * j) for j in range(1, n - len(line) + 1)] + line
        for k in range(n):
            configuration = config(*(points[k:] + points[:k]))
            result = mukai_classify(configuration)
            w = result.witness
            assert (result.verdict, w.dim, w.coordinates, w.incident, w.ratio, w.bound) == (
                brute.mukai_brute(configuration.points)
            )
            if short:
                assert (result.verdict, w.dim) == ("Stable", 0)
            else:
                assert (w.dim, w.coordinates, w.incident) == (1, (0, 0, 1), need)
                if n <= 6:
                    assert result.verdict == ("Unstable" if n == 4 else "Borderline")

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoint):
            config((1, 0, 0), (-2, 0, 0))

    def test_witness_is_lexicographically_smallest(self):
        # four aligned points: both the line and no point dominate; the line wins
        result = mukai_classify(config((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)))
        assert result.verdict == "Unstable"
        assert result.witness.coordinates == (0, 0, 1)

    def test_two_representatives_of_one_point_rejected(self):
        # built directly, not through `of`: the second representative of
        # (1, 2, 3) is neither primitive nor of canonical sign
        with pytest.raises(ValueError, match="not primitive"):
            PointConfiguration(((1, 2, 3), (0, 0, 1), (-2, -4, -6)))

    @pytest.mark.parametrize("points, error, message", [
        (((0, 0, 0),), ValueError, "projective coordinates cannot all vanish"),
        (((1, 0, 0), (0, 0, 0)), ValueError, "projective coordinates cannot all vanish"),
        (((2, 0, 0),), ValueError, "not primitive"),
        (((0, -1, 1),), ValueError, "not primitive"),
        (((1, 0),), ValueError, "triple of integers"),
        (((1, Fraction(1, 2), 0),), ValueError, "triple of integers"),
        (((1, 0, 0), (0, 1, 0), (1, 0, 0)), DuplicatePoint, "pairwise distinct"),
    ])
    def test_direct_construction_validated(self, points, error, message):
        with pytest.raises(error, match=message):
            PointConfiguration(points)

    def test_of_equals_direct_construction(self):
        normalized = ((1, 0, 3), (0, 1, 0), (1, -1, 0))
        assert config((Fraction(1, 2), 0, Fraction(3, 2)), (0, -2, 0), (-1, 1, 0)) == (
            PointConfiguration(normalized)
        )

    def test_pairs_charged_against_budget(self, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "10")
        points = [(1, j, j * j) for j in range(6)]
        assert mukai_classify(config(*points[:5])).verdict == "Stable"  # 10 pairs
        with pytest.raises(EnumerationLimitExceeded, match="15 point pairs"):
            mukai_classify(config(*points))

    def test_tied_lines_smallest_coordinates_win(self):
        # the lines y = 0 and z = 0 carry three of the five points each
        result = mukai_classify(
            config((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0))
        )
        assert result.witness.dim == 1
        assert result.witness.coordinates == (0, 0, 1)
