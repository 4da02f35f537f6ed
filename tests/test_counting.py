from __future__ import annotations

import time
from fractions import Fraction

import pytest

import brute
from conftest import quadrilateral
from corpus import decomposition_corpus, delzant_corpus
from polychow import (
    AffineMap,
    CornerCut,
    EnumerationLimitExceeded,
    IntMat2,
    InternalInconsistency,
    NotLatticePolygon,
    Polygon,
    ScalarPoly,
    Vec2,
    VecPoly,
    apply_affine,
    chop_corners,
    chow_poly,
    df_invariants,
    ehrhart_eval,
    ehrhart_poly,
    lattice_moments,
    lattice_points,
    p_delta,
    scale,
    sum_points,
    sum_poly,
    translate,
)
from polychow.blowup import _seam
from polychow.counting import _dilation_moments


def coords_of(polygon):
    return [v.as_tuple() for v in polygon.vertices]


class TestLatticePoints:
    def test_unit_square(self, unit_square):
        assert lattice_points(unit_square, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_triangle_count(self, cp2_triangle):
        assert len(lattice_points(cp2_triangle, 1)) == 10

    def test_scaled_octagon_count(self, octagon):
        assert len(lattice_points(scale(octagon, 4), 1)) == 55

    def test_sorted_lexicographically(self, hexagon):
        pts = lattice_points(hexagon, 2)
        assert pts == sorted(pts)

    def test_matches_brute_force(self, hexagon, heptagon, cp2_triangle):
        for polygon in (hexagon, heptagon, cp2_triangle, quadrilateral(2, 1, 2)):
            for i in range(1, 6):
                assert lattice_points(polygon, i) == sorted(
                    brute.enumerate_points(coords_of(polygon), i)
                )

    def test_rejects_nonpositive_dilation(self, unit_square):
        with pytest.raises(ValueError):
            lattice_points(unit_square, 0)

    def test_budget_cap(self, cp2_triangle, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "5")
        with pytest.raises(EnumerationLimitExceeded):
            lattice_points(cp2_triangle, 1)

    def test_budget_charges_rows(self, monkeypatch):
        # three points on 100001 rows: the rows alone exceed the cap
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "10")
        sliver = Polygon.from_coords([(0, 0), (1, 100000), (0, 1)])
        with pytest.raises(EnumerationLimitExceeded, match="rows"):
            ehrhart_eval(sliver, 1)

    def test_budget_env_validation(self, cp2_triangle, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "soon")
        with pytest.raises(EnumerationLimitExceeded):
            lattice_points(cp2_triangle, 1)

    def test_counting_charges_rows_only(self, cp2_triangle, monkeypatch):
        # 4 rows and 10 points: counting pays for the rows, listing for both
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "5")
        assert ehrhart_eval(cp2_triangle, 1) == 10
        assert lattice_moments(cp2_triangle, 1) == (10, 10, 10)
        with pytest.raises(EnumerationLimitExceeded, match="4 rows plus 10 points"):
            lattice_points(cp2_triangle, 1)

    def test_wide_sliver_lists_by_its_points(self):
        # 2 rows and 3 points, 10^12 columns wide: the listing costs its rows
        # plus points, not its width
        sliver = Polygon.from_coords([(0, 0), (10**12, 1), (10**12 - 1, 1)])
        started = time.monotonic()
        assert lattice_points(sliver, 1) == [(0, 0), (10**12 - 1, 1), (10**12, 1)]
        assert time.monotonic() - started < 0.1

    def test_listing_refused_before_any_row(self, monkeypatch):
        # 3 points on 3 * 10^6 rows: the floor sums count the points, so the
        # listing is refused without scanning the rows first
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "3000000")
        sliver = Polygon.from_coords([(0, 0), (1, 2999999), (0, 1)])
        started = time.monotonic()
        with pytest.raises(EnumerationLimitExceeded, match="scans 3000000 rows plus 3 points"):
            lattice_points(sliver, 1)
        assert time.monotonic() - started < 0.1

    @pytest.mark.parametrize("function", [lattice_moments, lattice_points])
    @pytest.mark.parametrize(
        "coords, i, rows",
        [
            ([(0, 0), (1, 0), (0, 10**20)], 1, 10**20 + 1),
            ([(0, 0), (1, 0), (0, 1)], 10**23, 10**23 + 1),
        ],
    )
    def test_rows_past_sys_maxsize_refused(self, monkeypatch, function, coords, i, rows):
        # a range longer than sys.maxsize has no len(); the rows are still
        # counted and refused
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        with pytest.raises(EnumerationLimitExceeded, match=f"scans {rows} rows"):
            function(Polygon.from_coords(coords), i)


class TestLatticeMoments:
    def test_triangle(self, cp2_triangle):
        assert lattice_moments(cp2_triangle, 1) == (10, 10, 10)

    def test_matches_point_list(self, hexagon, heptagon, octagon):
        for polygon in (hexagon, heptagon, octagon):
            for i in range(1, 5):
                points = lattice_points(polygon, i)
                assert lattice_moments(polygon, i) == (
                    len(points), sum(x for x, _ in points), sum(y for _, y in points)
                )

    def test_rejects_nonpositive_dilation(self, unit_square):
        with pytest.raises(ValueError):
            lattice_moments(unit_square, 0)

    def test_million_row_sliver_under_default_cap(self, monkeypatch):
        # three points on 10^6 + 1 rows: the floor sums do not visit them
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        sliver = Polygon.from_coords([(0, 0), (1, 10**6), (0, 1)])
        assert ehrhart_eval(sliver, 1) == 3
        assert lattice_moments(sliver, 1) == (3, 1, 10**6 + 1)


    def test_floor_sums_past_recursion_limit_refused(self, monkeypatch):
        # golden-ratio slopes nest the floor sums about 1.44 levels per bit
        # of the row count: the 10^313 rows of this triangle go past the
        # interpreter's recursion limit, which a cap of 10^400 admits
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "1" + "0" * 400)
        fib = [0, 1]
        while len(fib) < 1502:
            fib.append(fib[-1] + fib[-2])
        triangle = Polygon.from_coords([(0, 0), (fib[1501], fib[1500]), (0, fib[1500])])
        with pytest.raises(EnumerationLimitExceeded, match=f"^floor sums over {fib[1500] + 1} rows"):
            lattice_moments(triangle, 1)

    def test_shallow_floor_sums_at_huge_dilation(self, monkeypatch):
        # the unit triangle's slopes end the recursion at once, at any i
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "1" + "0" * 400)
        i = 10**300
        unit = Polygon.from_coords([(0, 0), (1, 0), (0, 1)])
        sums = i * (i + 1) * (i + 2) // 6
        assert lattice_moments(unit, i) == ((i + 1) * (i + 2) // 2, sums, sums)


# the triangle (0, 3/7), (1, 3/7), (0, 4/7): its dilations 1 .. 7 have
# 0, 1, 0, 1, 0, 1 and 2 rows, so a row count is not monotone in i
SEVENTHS = Polygon.from_coords([(0, Fraction(3, 7)), (1, Fraction(3, 7)), (0, Fraction(4, 7))])


def _brute_moments(polygon, i):
    points = brute.enumerate_points(coords_of(polygon), i)
    return len(points), sum(x for x, _ in points), sum(y for _, y in points)


class TestDilationMoments:
    """One kernel call over many dilations equals one call per dilation.
    The chopped polygons of the decomposition corpus are rational."""

    @pytest.mark.parametrize("polygon", [
        *delzant_corpus(size=12),
        *(d.chopped for d in decomposition_corpus(max_count=6)),
        SEVENTHS,
    ], ids=lambda polygon: polygon.vertex_text())
    def test_matches_separate_calls_and_brute_force(self, polygon):
        dilations = range(1, 7)
        fused = list(_dilation_moments(polygon, dilations))
        assert fused == [lattice_moments(polygon, i) for i in dilations]
        assert fused == [_brute_moments(polygon, i) for i in dilations]

    def test_zero_row_dilations_between_others(self):
        coords = coords_of(SEVENTHS)
        assert [brute.scan_rows(coords, i) for i in range(1, 8)] == [0, 1, 0, 1, 0, 1, 2]
        assert list(_dilation_moments(SEVENTHS, range(1, 8))) == [
            (0, 0, 0), (2, 1, 2), (0, 0, 0), (3, 3, 6), (0, 0, 0), (4, 6, 12), (9, 28, 28)
        ]

    @pytest.mark.parametrize("dilations", [(5, 7), (7, 5), (3, 3, 1)])
    def test_any_dilation_sequence(self, hexagon, dilations):
        for polygon in (hexagon, SEVENTHS):
            assert list(_dilation_moments(polygon, dilations)) == [
                _brute_moments(polygon, i) for i in dilations
            ]

    def test_each_dilation_charged_before_its_own_scan(self, monkeypatch):
        # at most 1 row at i = 1 .. 6 and 2 at i = 7: a cap of 1 refuses
        # the seventh dilation only when the call reaches it
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "1")
        moments = _dilation_moments(SEVENTHS, range(1, 8))
        assert [next(moments) for _ in range(6)][-2:] == [(0, 0, 0), (4, 6, 12)]
        with pytest.raises(EnumerationLimitExceeded, match="^enumeration scans 2 rows, over the cap of 1 "):
            next(moments)

    def test_nonpositive_dilation_refused_when_reached(self, unit_square):
        moments = _dilation_moments(unit_square, (1, 0))
        assert next(moments) == (4, 2, 2)
        with pytest.raises(ValueError, match="^dilation factor must be a positive integer$"):
            next(moments)

    def test_nonpositive_dilation_checked_before_the_cap(self, unit_square, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "soon")
        with pytest.raises(ValueError):
            lattice_moments(unit_square, 0)
        with pytest.raises(EnumerationLimitExceeded, match="is not an integer: 'soon'"):
            lattice_moments(unit_square, 1)


class TestEhrhart:
    def test_hexagon_poly(self, hexagon):
        assert ehrhart_poly(hexagon) == ScalarPoly(Fraction(3), Fraction(3), Fraction(1))

    def test_unit_square_poly(self, unit_square):
        assert ehrhart_poly(unit_square) == ScalarPoly(Fraction(1), Fraction(2), Fraction(1))

    @pytest.mark.parametrize("a,b,n", [(1, 1, 1), (2, 1, 1), (1, 2, 3), (2, 2, 2)])
    def test_quadrilateral_poly(self, a, b, n):
        expected = ScalarPoly(
            Fraction(a * b) + Fraction(a * a * n, 2),
            Fraction(a + b) + Fraction(a * n, 2),
            Fraction(1),
        )
        assert ehrhart_poly(quadrilateral(a, b, n)) == expected

    def test_constant_term_is_one(self, hexagon, cp2_triangle, unit_square):
        for polygon in (hexagon, cp2_triangle, unit_square, quadrilateral(3, 2, 1)):
            assert ehrhart_poly(polygon).c0 == 1

    def test_rational_polygon_rejected(self, heptagon):
        with pytest.raises(NotLatticePolygon):
            ehrhart_poly(heptagon)

    def test_eval_on_rational_polygon(self, heptagon):
        # evaluation at specific dilations works for any rational polygon
        assert ehrhart_eval(heptagon, 2) == ehrhart_eval(scale(heptagon, 2), 1)

    def test_poly_matches_enumeration(self, hexagon):
        poly = ehrhart_poly(hexagon)
        for i in range(1, 6):
            assert poly(i) == ehrhart_eval(hexagon, i)


class TestClosedFormGates:
    """The Pick and Euler-Maclaurin closed forms stay checked by enumeration."""

    @pytest.mark.parametrize("polynomial, dilations", [
        (ehrhart_poly, [1, 2, 3]),
        (sum_poly, [1, 2, 3]),
        (chow_poly, [1, 2, 3]),
    ])
    def test_scans_per_polynomial(self, polynomial, dilations, scans):
        polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        polynomial(polygon)
        assert scans == [(polygon, i) for i in dilations]

    def test_one_gate_per_polygon_object(self, scans):
        # ehrhart_poly, sum_poly, chow_poly and df_invariants on one scaled
        # base share one gate: three scans in all
        d = chop_corners(Polygon.from_coords([(0, 0), (3, 0), (0, 3)]),
                         [CornerCut.of((0, 0), 1)])
        polygon = d.scaled_base()
        first = (ehrhart_poly(polygon), sum_poly(polygon), chow_poly(polygon))
        df = df_invariants(d)
        assert scans == [(polygon, i) for i in (1, 2, 3)]
        assert (ehrhart_poly(polygon), sum_poly(polygon), chow_poly(polygon)) == first
        assert df_invariants(d) == df
        assert len(scans) == 3

    def test_equal_polygon_object_gated_again(self, scans):
        coords = [(0, 0), (3, 0), (0, 3)]
        polygon, twin = Polygon.from_coords(coords), Polygon.from_coords(coords)
        assert polygon == twin and polygon is not twin
        assert sum_poly(polygon) == sum_poly(twin)
        assert scans == [(polygon, i) for i in (1, 2, 3)] * 2
        assert [p is polygon for p, _ in scans] == [True] * 3 + [False] * 3

    def test_failed_gate_stores_nothing(self, scans):
        polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        object.__setattr__(polygon, "integer", polygon.integer._replace(twice_area=10))
        for _ in range(2):
            with pytest.raises(InternalInconsistency, match="at i=1:"):
                ehrhart_poly(polygon)
        assert scans == [(polygon, 1)] * 2

    def test_refused_dilation_stores_nothing(self, monkeypatch, scans):
        # the triangle's dilations 1, 2 and 3 have 4, 7 and 10 rows: a cap
        # of 7 admits the first two scans and refuses the third, every time
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "7")
        polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        for _ in range(2):
            with pytest.raises(EnumerationLimitExceeded) as excinfo:
                ehrhart_poly(polygon)
            assert str(excinfo.value) == (
                "enumeration scans 10 rows, over the cap of 7 "
                "(set POLYCHOW_MAX_ENUM to raise the cap)"
            )
            assert polygon._sum_constant is None
        assert scans == [(polygon, i) for i in (1, 2, 3)] * 2

    def test_gate_leaves_equality_hash_and_repr(self):
        coords = [(0, 0), (3, 0), (0, 3)]
        polygon, twin = Polygon.from_coords(coords), Polygon.from_coords(coords)
        before = (polygon == twin, hash(polygon), repr(polygon))
        chow_poly(polygon)
        assert (polygon == twin, hash(polygon), repr(polygon)) == before
        assert (hash(twin), repr(twin)) == before[1:]
        assert before[0]

    # an off-by-one entry of the triangle's integer form (twice the area 9,
    # boundary length 9, moment (27, 27), boundary moment (18, 18)) against
    # its enumerated counts 10, 28 and point sums (10, 10), (28, 28)
    @pytest.mark.parametrize("field, value, i, closed, enumerated", [
        ("twice_area", 10, 1, "E = 21/2, s = (10, 10)", "E = 10, s = (10, 10)"),
        ("boundary_length", 10, 1, "E = 21/2, s = (10, 10)", "E = 10, s = (10, 10)"),
        ("moment", (28, 27), 2, "E = 28, s = (57/2, 28)", "E = 28, s = (28, 28)"),
        ("boundary_moment", (19, 18), 2, "E = 28, s = (113/4, 28)", "E = 28, s = (28, 28)"),
    ], ids=["twice_area", "boundary_length", "moment", "boundary_moment"])
    def test_corrupted_integer_form_raises(self, field, value, i, closed, enumerated):
        polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        object.__setattr__(polygon, "integer", polygon.integer._replace(**{field: value}))
        with pytest.raises(InternalInconsistency) as excinfo:
            ehrhart_poly(polygon)
        message = str(excinfo.value)
        assert "[(0, 0), (3, 0), (0, 3)]" in message
        assert f"i={i}:" in message
        assert f"closed form {closed}; enumerated {enumerated}" in message
        assert "." not in message


class TestSumPoints:
    def test_triangle(self, cp2_triangle):
        assert sum_points(cp2_triangle, 1) == Vec2.of(10, 10)

    def test_unit_square(self, unit_square):
        assert sum_points(unit_square, 1) == Vec2.of(2, 2)

    def test_scaled_octagon(self, octagon):
        big = scale(octagon, 4)
        assert sum_points(big, 1) == Vec2.of(220, 220)
        # dividing the dilation-2 lattice sum by 2 is part of the definition:
        # the raw sum over the doubled polygon is (1576, 1576)
        assert sum_points(big, 2) == Vec2.of(788, 788)

    def test_sample_points_average(self, hexagon):
        for i in (1, 2, 3):
            s = sum_points(hexagon, i)
            assert s == Vec2.of(Fraction(brute.point_sum(coords_of(hexagon), i)[0]),
                                Fraction(brute.point_sum(coords_of(hexagon), i)[1]))


class TestSumPoly:
    def test_triangle(self, cp2_triangle):
        nine_halves = Vec2.of(Fraction(9, 2), Fraction(9, 2))
        assert sum_poly(cp2_triangle) == VecPoly(nine_halves, nine_halves, Vec2.of(1, 1))

    def test_scaled_octagon(self, octagon):
        poly = sum_poly(scale(octagon, 4))
        assert poly == VecPoly(Vec2.of(176, 176), Vec2.of(40, 40), Vec2.of(4, 4))

    def test_unit_square(self, unit_square):
        # row sums give ((i+1)^2/2, (i+1)^2/2) * i ... i.e. the polynomial below
        poly = sum_poly(unit_square)
        for i in range(1, 6):
            expected = Fraction((i + 1) ** 2, 2)
            assert poly(i) == Vec2.of(expected, expected)

    def test_rational_polygon_rejected(self, heptagon):
        with pytest.raises(NotLatticePolygon):
            sum_poly(heptagon)

    def test_matches_enumeration(self, hexagon, unit_square):
        for polygon in (hexagon, unit_square, quadrilateral(1, 2, 1)):
            poly = sum_poly(polygon)
            for i in range(1, 6):
                assert poly(i) == sum_points(polygon, i)

    def test_doubled_hexagon(self, hexagon):
        poly = sum_poly(scale(hexagon, 2))
        assert poly == VecPoly(Vec2.of(24, 24), Vec2.of(12, 12), Vec2.of(2, 2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("a,b,n", [(1, 1, 1), (2, 1, 2), (1, 3, 1)])
    def test_scaled_quadrilateral_closed_forms(self, k, a, b, n):
        from polychow import boundary_moment

        scaled = scale(quadrilateral(a, b, n), k)
        # linear coefficient of the sum polynomial is half the boundary moment
        expected_boundary = Vec2.of(
            Fraction(k * k, 2)
            * (a * a * n * n + a * a * n + 2 * a * b * n + 2 * a * b + 2 * b * b),
            Fraction(k * k, 2) * 2 * a * (a + b),
        )
        assert boundary_moment(scaled) == expected_boundary
        poly = sum_poly(scaled)
        assert poly.c1 == expected_boundary * Fraction(1, 2)
        assert poly.c0 == Vec2.of(
            Fraction(k, 12) * (a * n * n + 3 * a * n + 6 * b),
            Fraction(k, 12) * 2 * a * (3 - n),
        )


class TestPDelta:
    def test_identity_equals_sum_points(self, hexagon):
        for i in (1, 2, 3):
            assert p_delta(hexagon, AffineMap.identity(), i) == sum_points(hexagon, i)

    def test_shifted_square(self, unit_square):
        f = AffineMap.translation(Vec2.of(1, 0))
        assert p_delta(unit_square, f, 1) == Vec2.of(6, 2)

    def test_doubling_map_on_triangle(self, cp2_triangle):
        f = AffineMap.linear(2, 0, 0, 2)
        assert p_delta(cp2_triangle, f, 1) == Vec2.of(20, 20)


class TestTransformationIdentities:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_scaling_identity(self, hexagon, k, i):
        assert sum_points(scale(hexagon, k), i) == sum_points(hexagon, k * i) * Fraction(k)
        assert ehrhart_eval(scale(hexagon, k), i) == ehrhart_eval(hexagon, k * i)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_translation_identity(self, hexagon, i):
        c = Vec2.of(2, -1)
        f = AffineMap.identity()
        moved = translate(hexagon, c)
        expected = p_delta(hexagon, f, i) + c * Fraction(ehrhart_eval(hexagon, i))
        assert p_delta(moved, f, i) == expected

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("rows", [((2, 1), (1, 1)), ((0, 1), (1, 0))])  # det +1 / -1
    def test_unimodular_points_bijection(self, hexagon, i, rows):
        u = IntMat2.from_rows(*rows)
        image = apply_affine(hexagon, AffineMap.from_int_mat(u))
        source = {
            (u.a * x + u.b * y, u.c * x + u.d * y) for x, y in lattice_points(hexagon, i)
        }
        assert source == set(lattice_points(image, i))


class TestSegments:
    def test_segment_points(self):
        assert brute.segment_lattice_points((0, 2), (4, 0)) == [(0, 2), (2, 1), (4, 0)]

    def test_degenerate_segment(self):
        assert brute.segment_lattice_points((3, 5), (3, 5)) == [(3, 5)]

    @pytest.mark.parametrize("k, i", [(2, 1), (2, 3), (4, 1), (4, 5), (6, 2)])
    def test_seam_matches_enumeration(self, k, i):
        # a rational seam from (1/2, 3/2) to (5/2, 1/2): k*i times it has
        # integer ends for every even k
        q, r = Vec2.of("1/2", "3/2"), Vec2.of("5/2", "1/2")
        ends = [(int(v.x * k * i), int(v.y * k * i)) for v in (q, r)]
        pts = brute.segment_lattice_points(*ends)
        kq, kr = [(int(v.x * k), int(v.y * k)) for v in (q, r)]
        assert _seam(kq, kr, i) == (
            len(pts), sum(x for x, _ in pts), sum(y for _, y in pts)
        )
