from __future__ import annotations

import time
from fractions import Fraction

import pytest

import brute
from conftest import quadrilateral
from corpus import farey_fan
from polychow import (
    AffineMap,
    CornerCut,
    DegeneratePolytope,
    IntMat2,
    NotDelzant,
    Polygon,
    Vec2,
    apply_affine,
    area,
    boundary_lattice_length,
    boundary_moment,
    canonicalize,
    chop_corners,
    chow_after_blowup,
    corner_frame,
    denominator_lcm,
    df_invariants,
    is_delzant,
    is_lattice,
    lattice_length,
    moment_integral,
    primitive_direction,
    scale,
    verify_blowup_theorem,
    verify_general_identity,
)
from polychow.geometry import to_fraction


def vecs(coords):
    return [Vec2.of(x, y) for x, y in coords]


class TestCanonicalize:
    def test_already_canonical(self):
        p = canonicalize(vecs([(0, 0), (3, 0), (0, 3)]))
        assert [v.as_tuple() for v in p.vertices] == [(0, 0), (3, 0), (0, 3)]

    def test_interior_point_dropped(self):
        p = canonicalize(vecs([(0, 3), (0, 0), (3, 0), (1, 1)]))
        assert [v.as_tuple() for v in p.vertices] == [(0, 0), (3, 0), (0, 3)]

    def test_collinear_input_is_degenerate(self):
        with pytest.raises(DegeneratePolytope):
            canonicalize(vecs([(0, 0), (1, 0), (2, 0)]))

    def test_collinear_triples_merged(self):
        p = canonicalize(vecs([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]))
        assert [v.as_tuple() for v in p.vertices] == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_clockwise_input_reversed(self):
        p = canonicalize(vecs([(0, 0), (0, 3), (3, 0)]))
        assert area(p) == Fraction(9, 2)

    def test_duplicates_removed(self):
        p = canonicalize(vecs([(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)]))
        assert len(p) == 3

    def test_direct_constructor_rejects_noncanonical(self):
        with pytest.raises(DegeneratePolytope):
            Polygon(tuple(vecs([(3, 0), (0, 3), (0, 0)])))  # wrong start vertex

    @pytest.mark.parametrize("coords, message", [
        ([(0, 0), (1, 0)], "at least three vertices"),
        ([(0, 0), (0, 3), (3, 0)], "strictly convex and counter-clockwise"),
        ([(0, 0), (1, 0), (2, 0), (0, 2)], "strictly convex and counter-clockwise"),
        ([(0, 0), (0, 0), (1, 0), (0, 1)], "strictly convex and counter-clockwise"),
        ([(0, 3), (0, 0), (3, 0)], "canonical form starts at the smallest vertex"),
        ([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (0, 0)],
         "canonical form starts at the smallest vertex"),
    ])
    def test_direct_constructor_messages(self, coords, message):
        with pytest.raises(DegeneratePolytope, match=message):
            Polygon(tuple(vecs(coords)))


class TestMeasures:
    def test_unit_square_area(self, unit_square):
        assert area(unit_square) == 1

    def test_triangle_area(self, cp2_triangle):
        assert area(cp2_triangle) == Fraction(9, 2)

    def test_quadrilateral_area(self):
        assert area(quadrilateral(1, 1, 1)) == Fraction(3, 2)

    def test_unit_square_moment(self, unit_square):
        assert moment_integral(unit_square) == Vec2.of(Fraction(1, 2), Fraction(1, 2))

    def test_hexagon_moment(self, hexagon):
        assert moment_integral(hexagon) == Vec2.of(3, 3)

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_quadrilateral_moment_closed_form(self, a, b, n):
        expected = Vec2(
            Fraction(a, 6) * (a * a * n * n + 3 * a * b * n + 3 * b * b),
            Fraction(a, 6) * a * (a * n + 3 * b),
        )
        assert moment_integral(quadrilateral(a, b, n)) == expected

    def test_unit_square_boundary_moment(self, unit_square):
        assert boundary_moment(unit_square) == Vec2.of(2, 2)

    def test_triangle_boundary_moment(self, cp2_triangle):
        assert boundary_moment(cp2_triangle) == Vec2.of(9, 9)

    def test_scaled_hexagon_boundary_moment(self, hexagon):
        assert boundary_moment(scale(hexagon, 2)) == Vec2.of(24, 24)

    def test_boundary_lattice_length(self, cp2_triangle, hexagon, unit_square):
        assert boundary_lattice_length(cp2_triangle) == 9
        assert boundary_lattice_length(hexagon) == 6
        assert boundary_lattice_length(unit_square) == 4

    def test_moment_matches_green_oracle(self, hexagon, cp2_triangle):
        for polygon in (hexagon, cp2_triangle, quadrilateral(2, 3, 1)):
            coords = [v.as_tuple() for v in polygon.vertices]
            assert moment_integral(polygon).as_tuple() == brute.green_moment(coords)

    def test_boundary_length_counts_points(self, cp2_triangle):
        coords = [v.as_tuple() for v in cp2_triangle.vertices]
        assert boundary_lattice_length(cp2_triangle) == len(brute.boundary_points(coords))


class TestLatticePredicates:
    def test_denominators(self, hexagon, heptagon, nonagon):
        assert denominator_lcm(hexagon) == 1
        assert denominator_lcm(heptagon) == 2
        assert denominator_lcm(nonagon) == 4

    def test_is_lattice(self, hexagon, heptagon):
        assert is_lattice(hexagon)
        assert not is_lattice(heptagon)

    def test_is_delzant_triangle(self, cp2_triangle):
        assert is_delzant(cp2_triangle)

    def test_half_integral_not_delzant_but_scaled_is(self, heptagon):
        assert not is_delzant(heptagon)
        assert is_delzant(scale(heptagon, 2))

    def test_blunt_corner_not_delzant(self):
        p = Polygon.from_coords([(0, 0), (1, 0), (2, 2)])
        # corner at the origin spans directions (1,0) and (1,1) scaled twice
        assert not is_delzant(p)


class TestCornerFrames:
    def test_identity_frame_at_origin(self, cp2_triangle):
        assert corner_frame(cp2_triangle, 0) == IntMat2.identity()

    def test_frame_at_second_vertex(self, cp2_triangle):
        frame = corner_frame(cp2_triangle, 1)
        assert frame.columns() == ((-1, 1), (-1, 0))
        assert frame.det() == 1

    def test_frame_at_hexagon_cut_vertex(self, hexagon):
        idx = hexagon.index_of(Vec2.of(0, 2))
        frame = corner_frame(hexagon, idx)
        assert frame.columns() == ((0, -1), (1, 0))

    def test_all_frames_unimodular_and_generate_edges(self, hexagon):
        for i in range(len(hexagon)):
            frame = corner_frame(hexagon, i)
            assert frame.det() == 1
            v = hexagon.vertex(i)
            col_next, col_prev = frame.columns()
            d_next = primitive_direction(hexagon.vertex(i + 1) - v)
            d_prev = primitive_direction(hexagon.vertex(i - 1) - v)
            assert (col_next, col_prev) == (d_next, d_prev)

    def test_non_delzant_corner_raises(self):
        p = Polygon.from_coords([(0, 0), (1, 0), (2, 2)])
        idx = p.index_of(Vec2.of(1, 0))
        with pytest.raises(NotDelzant):
            corner_frame(p, idx)


class TestStoredForm:
    """A polygon stores its integer form only; its Fraction vertices are
    built on the first read."""

    def test_vertices_are_not_a_field(self):
        assert "vertices" not in Polygon.__slots__
        assert vars(Polygon.from_coords([(0, 0), (1, 0), (0, 1)])) == {}

    def test_equal_vertex_cycles_equal_and_hash_alike(self):
        coords = [(0, 0), (2, 0), (2, 1), (0, 1)]
        built = [
            Polygon(tuple(vecs(coords))),
            Polygon.from_coords(coords),
            # an interior point of a finer scale is dropped with its scale
            canonicalize(vecs([*coords, (Fraction(1, 3), Fraction(1, 7))])),
            scale(Polygon.from_coords([(0, 0), (1, 0), (1, Fraction(1, 2)), (0, Fraction(1, 2))]), 2),
        ]
        assert all(p == built[0] and hash(p) == hash(built[0]) for p in built)
        assert {p.integer.scale for p in built} == {1}
        assert built[0] != scale(built[0], 2)

    def test_blowup_pipeline_builds_no_vertices(self, hexagon):
        d = chop_corners(hexagon, [CornerCut.of((0, 2), Fraction(1, 2)),
                                   CornerCut.of((2, 0), Fraction(1, 2))])
        df_invariants(d)
        chow_after_blowup(d)
        assert verify_blowup_theorem(d, 4).all_equal
        assert verify_general_identity(d, AffineMap.linear(1, 2, 0, 1), 2) == Vec2.of(0, 0)
        polygons = [d.chopped, *d.simplices, d.scaled_base(), d.scaled_chopped()]
        assert not any("vertices" in vars(p) for p in polygons)
        expected = [
            [("0", "1"), ("1", "0"), ("3/2", "0"), ("2", "1/2"), ("2", "1"), ("1", "2"),
             ("1/2", "2"), ("0", "3/2")],
            [("0", "3/2"), ("1/2", "2"), ("0", "2")],
            [("3/2", "0"), ("2", "0"), ("2", "1/2")],
            [(0, 2), (2, 0), (4, 0), (4, 2), (2, 4), (0, 4)],
            [(0, 2), (2, 0), (3, 0), (4, 1), (4, 2), (2, 4), (1, 4), (0, 3)],
        ]
        for polygon, coords in zip(polygons, expected, strict=True):
            assert polygon.vertices == tuple(vecs(coords))
            assert "vertices" in vars(polygon)

    def test_index_of_builds_no_vertices(self):
        polygon = farey_fan(48)
        pts = polygon.integer.vertices
        assert polygon.integer.scale == 1
        assert all(polygon.index_of(Vec2.of(x, y)) == i for i, (x, y) in enumerate(pts))
        (x, y), inside = pts[0], (pts[0][0] + 1, pts[0][1] + 1)
        assert inside not in pts
        assert polygon.index_of(Vec2.of(x + Fraction(1, 2), y)) is None
        assert polygon.index_of(Vec2.of(*inside)) is None
        assert "vertices" not in vars(polygon)

    def test_hash_builds_no_vertices(self, hexagon):
        polygon = scale(hexagon, 3)
        assert hash(polygon) == hash(scale(hexagon, 3))
        assert "vertices" not in vars(polygon)


class TestRationalCoercion:
    """`to_fraction` is the one string-to-rational rule: every entry point
    that takes a rational string refuses a long exponent before building
    its digits."""

    ENTRY_POINTS = {
        "to_fraction": to_fraction,
        "Vec2.of": lambda text: Vec2.of(text, 0),
        "CornerCut": lambda text: CornerCut(Vec2.of(0, 0), text),
        "AffineMap.linear": lambda text: AffineMap.linear(text, 0, 0, 1),
    }

    @pytest.mark.parametrize("text", ["1e30000000", "1e-30000000"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_long_exponent_refused_at_once(self, entry, text):
        started = time.monotonic()
        with pytest.raises(OverflowError, match="^exponent beyond 4300$"):
            self.ENTRY_POINTS[entry](text)
        assert time.monotonic() - started < 0.5

    @pytest.mark.parametrize(
        "text, value",
        [("1e3", 1000), ("1e-4300", Fraction(1, 10**4300)), (" 5/3 ", Fraction(5, 3))],
    )
    def test_short_exponents_and_spaces_parse(self, text, value):
        assert to_fraction(text) == value
        assert Vec2.of(text, 0).x == value
        assert CornerCut(Vec2.of(0, 0), text).depth == value
        assert AffineMap.linear(text, 0, 0, 1).xx == value


class TestIntMat2:
    """A named tuple: field names in its repr, the hash of its entries,
    read-only fields, and `+` and `@` as matrix operations."""

    M = IntMat2(2, -1, 5, 3)

    def test_repr_names_fields(self):
        assert repr(self.M) == "IntMat2(a=2, b=-1, c=5, d=3)"

    def test_hash_is_the_hash_of_its_entries(self):
        assert hash(self.M) == hash((self.M.a, self.M.b, self.M.c, self.M.d))

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.M, name, 0)

    def test_sum_and_product_are_matrix_operations(self):
        other = IntMat2(1, 4, -2, 0)
        assert self.M + other == IntMat2(3, 3, 3, 3)
        assert self.M @ other == IntMat2(4, 8, -1, 20)
        assert isinstance(self.M + other, IntMat2) and isinstance(self.M @ other, IntMat2)
        assert IntMat2.identity() @ self.M == self.M

    @pytest.mark.parametrize(
        "entry", [0.99, Fraction(3, 2), "7", True], ids=["float", "Fraction", "str", "bool"]
    )
    def test_from_rows_refuses_a_non_integer_entry(self, entry):
        # int() would truncate 0.99 to 0, giving the order-3 generator
        with pytest.raises(TypeError):
            IntMat2.from_rows((entry, -1), (1, -1))
        with pytest.raises(TypeError):
            IntMat2.from_rows((0, -1), (1, entry))


class TestTransforms:
    def test_scale_doubles_hexagon(self, hexagon):
        doubled = scale(hexagon, 2)
        assert doubled == Polygon.from_coords([(2, 0), (4, 0), (4, 2), (2, 4), (0, 4), (0, 2)])

    def test_translation_of_unit_square(self, unit_square):
        moved = apply_affine(unit_square, AffineMap.translation(Vec2.of(1, 1)))
        assert [v.as_tuple() for v in moved.vertices] == [(1, 1), (2, 1), (2, 2), (1, 2)]

    def test_cyclic_triangle_invariance(self):
        triangle = Polygon.from_coords([(1, 0), (0, 1), (-1, -1)])
        rotated = apply_affine(triangle, AffineMap.linear(0, -1, 1, -1))
        assert rotated == triangle

    def test_singular_map_rejected(self, unit_square):
        with pytest.raises(DegeneratePolytope):
            apply_affine(unit_square, AffineMap.linear(1, 1, 1, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_scaling_laws(self, hexagon, k):
        assert area(scale(hexagon, k)) == k * k * area(hexagon)
        assert moment_integral(scale(hexagon, k)) == moment_integral(hexagon) * Fraction(k**3)

    def test_unimodular_area_invariance(self, hexagon):
        u = IntMat2.from_rows((1, 2), (0, 1))
        image = apply_affine(hexagon, AffineMap.from_int_mat(u))
        assert area(image) == area(hexagon)
        assert moment_integral(image) == u.apply(moment_integral(hexagon))

    def test_area_invariant_under_vertex_rotation(self, hexagon):
        verts = hexagon.vertices
        expected = area(hexagon)
        for shift in range(len(verts)):
            rotated = verts[shift:] + verts[:shift]
            total = Fraction(0)
            for i in range(len(rotated)):
                total += rotated[i].cross(rotated[(i + 1) % len(rotated)])
            assert total / 2 == expected


class TestPrimitive:
    def test_primitive_direction_of_rational(self):
        assert primitive_direction(Vec2.of(Fraction(1, 2), 0)) == (1, 0)
        assert primitive_direction(Vec2.of(-3, 3)) == (-1, 1)
        assert primitive_direction(Vec2.of(Fraction(2, 3), Fraction(4, 3))) == (1, 2)

    def test_lattice_length_of_rational_edge(self):
        assert lattice_length(Vec2.of(0, 2), Vec2.of(Fraction(1, 2), 2)) == Fraction(1, 2)
        assert lattice_length(Vec2.of(0, 0), Vec2.of(3, 3)) == 3

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            Vec2.of(0.5, 1)

    def test_bool_coordinates_rejected(self):
        with pytest.raises(TypeError):
            Vec2.of(True, 0)
