from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import brute
from corpus import decomposition_corpus, delzant_corpus, random_unimodular
from polychow import (
    AffineMap,
    CornerCut,
    CutThroughEdge,
    DegeneratePolytope,
    EnumerationLimitExceeded,
    GroupClosureOverflow,
    IntMat2,
    OverlappingCuts,
    PointConfiguration,
    Polygon,
    SymmetryGroup,
    Vec2,
    apply_affine,
    area,
    boundary_lattice_length,
    boundary_moment,
    canonicalize,
    chop_corners,
    chow_eval,
    chow_poly,
    corner_frame,
    denominator_lcm,
    df_invariants,
    ehrhart_eval,
    ehrhart_poly,
    is_centrally_symmetric,
    is_delzant,
    is_weakly_symmetric,
    lattice_length,
    lattice_moments,
    lattice_points,
    moment_integral,
    mukai_classify,
    p_delta,
    scale,
    sum_points,
    sum_poly,
    translate,
)
from polychow.counting import _floor_sums
from polychow.geometry import _over_common_denominator

ID = AffineMap.identity()

CORPUS = delzant_corpus(size=24)


def _vertex_hash(p: Polygon) -> str:
    """A test id that does not move with `Polygon`'s hash: the hash of
    the vertex tuple."""
    return str(hash((p.vertices,)) % 10**6)


@pytest.mark.parametrize("polygon", CORPUS[:12], ids=_vertex_hash)
def test_counting_polynomials_match_enumeration(polygon):
    e = ehrhart_poly(polygon)
    s = sum_poly(polygon)
    for i in (1, 2, 5):
        assert e(i) == ehrhart_eval(polygon, i)
        assert s(i) == sum_points(polygon, i)


@pytest.mark.parametrize("polygon", CORPUS[:10], ids=_vertex_hash)
def test_picks_theorem(polygon):
    boundary = boundary_lattice_length(polygon)
    assert boundary.denominator == 1
    coords = [v.as_tuple() for v in polygon.vertices]
    assert boundary == len(brute.boundary_points(coords))
    assert ehrhart_eval(polygon, 1) == area(polygon) + boundary / 2 + 1


@pytest.mark.parametrize("polygon", CORPUS[:8], ids=_vertex_hash)
def test_corner_frames_positive(polygon):
    for i in range(len(polygon)):
        assert corner_frame(polygon, i).det() == 1


def test_chow_laws_on_corpus():
    rng = random.Random(3)
    for polygon in CORPUS[:8]:
        offset = Vec2.of(rng.randint(-2, 2), rng.randint(-2, 2))
        u = random_unimodular(rng, 2)
        for i in (1, 2):
            base = chow_eval(polygon, ID, i)
            assert chow_eval(translate(polygon, offset), ID, i) == base
            assert chow_eval(apply_affine(polygon, AffineMap.from_int_mat(u)), ID, i) == u.apply(base)
        for k in (2, 3):
            assert chow_eval(scale(polygon, k), ID, 1) == chow_eval(polygon, ID, k) * Fraction(k**3)


BIG_RATIONALS = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
AFFINE_MAPS = st.one_of(
    st.builds(
        lambda xx, xy, yx, yy, ox, oy: AffineMap.linear(xx, xy, yx, yy, Vec2(ox, oy)),
        *[BIG_RATIONALS] * 6,
    ),
    st.builds(lambda ox, oy: AffineMap.linear(0, 0, 0, 0, Vec2(ox, oy)), BIG_RATIONALS, BIG_RATIONALS),
)
# Fraction points, and int-valued vectors
POINTS = st.one_of(
    st.builds(Vec2, BIG_RATIONALS, BIG_RATIONALS),
    st.builds(Vec2, *[st.integers(-(10**30), 10**30)] * 2),
)


@given(AFFINE_MAPS, POINTS)
@example(AffineMap.linear(0, 0, 0, 0), Vec2(3, 7))
@settings(max_examples=200, deadline=None)
def test_affine_map_matches_entrywise_fractions(f, v):
    x, y = Fraction(v.x), Fraction(v.y)
    linear = Vec2(f.xx * x + f.xy * y, f.yx * x + f.yy * y)
    for got, expected in ((f.linear_apply(v), linear), (f.apply(v), linear + f.offset)):
        assert got == expected
        assert_exact(got)


RATIONALS = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=60))


@given(st.lists(RATIONALS, min_size=1, max_size=7))
@example([7])
@example([Fraction(-3, 4)])
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
@example([Fraction(5, 6), Fraction(7, 4), 3, Fraction(-1, 12)])
@example([0, -2, 5])
@settings(max_examples=200, deadline=None)
def test_over_common_denominator_is_the_least(values):
    numerators, den = _over_common_denominator(*values)
    assert type(den) is int and den == lcm(*(Fraction(v).denominator for v in values))
    assert len(numerators) == len(values)
    for numerator, value in zip(numerators, values):
        assert type(numerator) is int
        assert Fraction(numerator, den) == value


@given(st.sampled_from(CORPUS), AFFINE_MAPS, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_chow_eval_is_f_linear_of_the_coordinate_weight(polygon, f, i):
    assert chow_eval(polygon, f, i) == f.linear_apply(chow_eval(polygon, ID, i))
    count = ehrhart_eval(polygon, i)
    assert p_delta(polygon, f, i) == f.linear_apply(p_delta(polygon, ID, i)) + f.offset * count


def assert_exact(*vectors):
    for v in vectors:
        assert type(v.x) is Fraction and type(v.y) is Fraction


def test_chow_poly_matches_its_definition():
    # Vol * s(i) - E(i) * moment, coefficient by coefficient, on the Delzant
    # corpus and on the scaled bases and chopped polygons of the
    # decomposition corpus
    decompositions = decomposition_corpus(max_count=12)
    polygons = CORPUS + [d.scaled_base() for d in decompositions]
    polygons += [d.scaled_chopped() for d in decompositions]
    for polygon in polygons:
        chow, s, e = chow_poly(polygon), sum_poly(polygon), ehrhart_poly(polygon)
        vol, moment = area(polygon), moment_integral(polygon)
        assert_exact(chow.c2, chow.c1, chow.c0)
        assert chow.c2 == s.c2 * vol - moment * e.c2 == Vec2.of(0, 0)
        assert chow.c1 == s.c1 * vol - moment * e.c1
        assert chow.c0 == s.c0 * vol - moment * e.c0


def test_df_invariants_match_docstring_formula():
    # DF1 and DF2 as written in the df_invariants docstring, in Fractions
    # from moment_integral, boundary_moment and sum_poly
    for d in decomposition_corpus(max_count=12):
        scaled = d.scaled_base()
        frame_m3 = frame_m1 = vert_m2 = vert_m1 = Vec2.of(0, 0)
        for cut, frame, m in zip(d.cuts, d.frames, d.m):
            column_sum = Vec2.of(frame.a + frame.b, frame.c + frame.d)
            vertex = cut.vertex * d.k
            frame_m3 = frame_m3 + column_sum * m**3
            frame_m1 = frame_m1 + column_sum * m
            vert_m2 = vert_m2 + vertex * m**2
            vert_m1 = vert_m1 + vertex * m
        a_c, b_c = d.a_const, d.b_const
        df1 = (
            (frame_m3 * a_c + (vert_m2 * a_c - vert_m1 * b_c) * 3) * Fraction(1, 12)
            + moment_integral(scaled) * Fraction(d.m_sum, 2)
            - boundary_moment(scaled) * Fraction(d.m_square_sum, 4)
        )
        df2 = (
            (frame_m1 * b_c + frame_m3 * 2 + vert_m2 * 6) * Fraction(1, 12)
            - sum_poly(scaled).c0 * Fraction(d.m_square_sum, 2)
        )
        got = df_invariants(d)
        assert_exact(*got)
        assert got == (df1, df2)


def test_delzant_preserved_by_corpus_transforms():
    for polygon in CORPUS:
        assert is_delzant(polygon)


@given(
    st.sampled_from(CORPUS),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(1, 6), st.integers(0, 99)),
        min_size=1, max_size=2,
    ),
)
@example(CORPUS[5], 1, [(0, 1, 0)])
@settings(max_examples=80, deadline=None)
def test_chop_scale_is_the_lcm_of_the_depths(polygon, s, raw_cuts):
    # a Delzant polygon scaled by 1/s, cut at one or two corners at depths
    # with denominators 1 to 6, each under both adjacent edges; a corner
    # too short for its denominator is not cut
    base = canonicalize(v * Fraction(1, s) for v in polygon.vertices)
    cuts: dict[int, CornerCut] = {}
    for corner, denominator, pick in raw_cuts:
        idx = corner % len(base)
        v = base.vertex(idx)
        shortest = min(lattice_length(v, base.vertex(idx + j)) for j in (-1, 1))
        largest = ceil(shortest * denominator) - 1
        if largest >= 1:
            cuts.setdefault(idx, CornerCut(v, Fraction(1 + pick % largest, denominator)))
    assume(cuts)
    try:
        d = chop_corners(base, list(cuts.values()))
    except OverlappingCuts:
        assume(False)
    k = d.k
    assert k == lcm(denominator_lcm(base), *(c.depth.denominator for c in d.cuts))
    assert k == denominator_lcm(d.chopped)
    assert d.m == tuple(k * c.depth for c in d.cuts)
    assert all(type(m) is int for m in d.m)
    assert d.scaled_base() == scale(d.base, k)
    for (v, q, r), cut, seam in zip(d._cut_points, d.cuts, d.seams):
        assert [v, q, r] == [(k * p.x, k * p.y) for p in (cut.vertex, *seam)]
    if k == 1:
        assert d.scaled_base() is d.base and d.scaled_chopped() is d.chopped


def _smooth_corner_steps(coords):
    """Per vertex, the lattice lengths of the edges towards the next and
    the previous vertex, and whether its primitive edge directions form a
    lattice basis (the corner is smooth), from the oracle's edge data."""
    lengths = [length for length, _ in brute.edge_lattice_data(coords)]
    corners = []
    for idx, (vx, vy) in enumerate(coords):
        (nx, ny), (px, py) = coords[(idx + 1) % len(coords)], coords[idx - 1]
        ahead, behind = lengths[idx], lengths[idx - 1]
        det = ((nx - vx) * (py - vy) - (ny - vy) * (px - vx)) / (ahead * behind)
        corners.append((ahead, behind, det == 1))
    return corners


@st.composite
def cut_bases(draw):
    """A base and a list of cuts at distinct smooth corners, in drawn
    order, each of depth up to one step past its shorter edge. The base
    is a corpus Delzant polygon scaled by 1/s, or a random lattice polygon
    with at least two smooth corners."""
    if draw(st.booleans()):
        s = draw(st.integers(1, 3))
        base = canonicalize(v * Fraction(1, s) for v in draw(st.sampled_from(CORPUS)).vertices)
    else:
        points = draw(st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=7
        ))
        try:
            base = canonicalize([Vec2.of(x, y) for x, y in points])
        except DegeneratePolytope:
            assume(False)
    corners = _smooth_corner_steps([v.as_tuple() for v in base.vertices])
    smooth = [idx for idx, (_, _, is_smooth) in enumerate(corners) if is_smooth]
    assume(len(smooth) >= 2)
    chosen = draw(st.permutations(smooth))[:draw(st.integers(2, len(smooth)))]
    # in one list of four, one of the cuts reaches its shorter edge or one
    # step past
    reaching = draw(st.sampled_from([*chosen, *[None] * (3 * len(chosen))]))
    cuts = []
    for idx in chosen:
        shortest = min(corners[idx][:2])
        denominator = draw(st.integers(2, 6))
        steps = draw(st.sampled_from(
            range(denominator, denominator + 2) if idx == reaching else range(1, denominator)
        ))
        cuts.append(CornerCut(base.vertex(idx), shortest * Fraction(steps, denominator)))
    return base, cuts


@given(cut_bases())
@settings(max_examples=120, deadline=None)
def test_overlap_refusal_matches_closed_triangle_oracle(base_and_cuts):
    # each cut is the triangle of v and the points `depth` lattice steps
    # along both edges at v; the first pair in list order whose closed
    # triangles meet under the oracle is the pair refused
    base, cuts = base_and_cuts
    coords = [v.as_tuple() for v in base.vertices]
    corners = _smooth_corner_steps(coords)
    triangles = []
    for cut in cuts:
        idx = base.index_of(cut.vertex)
        ahead, behind, _ = corners[idx]
        if cut.depth >= min(ahead, behind):
            with pytest.raises(CutThroughEdge):
                chop_corners(base, cuts)
            return
        (vx, vy), (nx, ny), (px, py) = (coords[(idx + j) % len(coords)] for j in (0, 1, -1))
        triangles.append([
            (vx, vy),
            (vx + cut.depth * (nx - vx) / ahead, vy + cut.depth * (ny - vy) / ahead),
            (vx + cut.depth * (px - vx) / behind, vy + cut.depth * (py - vy) / behind),
        ])
    meeting = [
        (a, b)
        for a in range(len(cuts))
        for b in range(a + 1, len(cuts))
        if brute.closed_triangles_meet(triangles[a], triangles[b])
    ]
    if meeting:
        a, b = meeting[0]
        with pytest.raises(OverlappingCuts) as excinfo:
            chop_corners(base, cuts)
        assert str(excinfo.value) == (
            f"cuts at {cuts[a].vertex.text()} and {cuts[b].vertex.text()} intersect"
        )
    else:
        d = chop_corners(base, cuts)
        assert [sorted(v.as_tuple() for v in s.vertices) for s in d.simplices] == [
            sorted(triangle) for triangle in triangles
        ]


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=3,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_canonicalize_is_idempotent_and_contains_input(points):
    vecs = [Vec2.of(x, y) for x, y in points]
    try:
        polygon = canonicalize(vecs)
    except Exception:
        return  # degenerate input sets are fine to reject
    assert canonicalize(polygon.vertices) == polygon
    assert area(polygon) > 0
    coords = [v.as_tuple() for v in polygon.vertices]
    for x, y in points:
        assert brute.contains(coords, Fraction(x), Fraction(y))


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_dilation_composition(k, i):
    polygon = Polygon.from_coords([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert ehrhart_eval(scale(polygon, k), i) == ehrhart_eval(polygon, k * i)
    assert sum_points(scale(polygon, k), i) == sum_points(polygon, k * i) * Fraction(k)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_translation_moves_points(dx, dy, i):
    polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
    moved = translate(polygon, Vec2.of(dx, dy))
    shifted = {(x + i * dx, y + i * dy) for x, y in lattice_points(polygon, i)}
    assert shifted == set(lattice_points(moved, i))


def test_moment_against_green_oracle_on_corpus():
    for polygon in CORPUS[:10]:
        coords = [v.as_tuple() for v in polygon.vertices]
        assert moment_integral(polygon).as_tuple() == brute.green_moment(coords)
        assert area(polygon) == brute.shoelace_area(coords)


def assert_kernel_matches(polygon, i, expected):
    points = sorted(expected)
    assert lattice_points(polygon, i) == points
    assert lattice_moments(polygon, i) == (
        len(points), sum(x for x, _ in points), sum(y for _, y in points)
    )


RATIONAL = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 7))
FAR = st.sampled_from([0, 10**12, -(10**12)])


@given(
    st.lists(st.tuples(RATIONAL, RATIONAL), min_size=3, max_size=8),
    st.tuples(FAR, FAR),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_oracle_on_rational_polygons(points, far, near, i):
    offset = (far[0] + near[0], far[1] + near[1])
    try:
        polygon = canonicalize([Vec2.of(x + offset[0], y + offset[1]) for x, y in points])
    except DegeneratePolytope:
        assume(False)
    coords = [v.as_tuple() for v in polygon.vertices]
    assert_kernel_matches(polygon, i, brute.enumerate_points(coords, i))


@given(
    st.lists(st.tuples(RATIONAL, RATIONAL), min_size=3, max_size=8),
    st.tuples(FAR, FAR),
    st.one_of(st.just(0), st.integers(1, 10**4)),
)
@settings(max_examples=80, deadline=None)
def test_integer_core_matches_fraction_formulas(points, offset, h):
    # rational polygons, moved by about 10^12 and sheared by (1, 0; h, 1)
    try:
        polygon = canonicalize(
            [Vec2.of(x + offset[0], h * x + y + offset[1]) for x, y in points]
        )
    except DegeneratePolytope:
        assume(False)
    coords = [v.as_tuple() for v in polygon.vertices]
    assert area(polygon) == brute.shoelace_area(coords)
    assert moment_integral(polygon).as_tuple() == brute.fan_moment(coords)
    assert moment_integral(polygon).as_tuple() == brute.green_moment(coords)
    assert boundary_lattice_length(polygon) == brute.lattice_boundary_length(coords)
    assert boundary_moment(polygon).as_tuple() == brute.lattice_boundary_moment(coords)
    assert denominator_lcm(polygon) == brute.denominator_lcm(coords)


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=8),
    st.tuples(FAR, FAR),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=30, deadline=None)
def test_counting_polynomials_match_oracle_far_out(points, far, near):
    # the integer gates multiply coordinates of about 10^12 by i^3
    ox, oy = far[0] + near[0], far[1] + near[1]
    try:
        polygon = canonicalize([Vec2.of(x + ox, y + oy) for x, y in points])
    except DegeneratePolytope:
        assume(False)
    coords = [v.as_tuple() for v in polygon.vertices]
    e = ehrhart_poly(polygon)
    s = sum_poly(polygon)
    for i in range(1, 6):
        found = brute.enumerate_points(coords, i)
        assert e(i) == len(found)
        assert s(i) == Vec2(Fraction(sum(x for x, _ in found), i),
                            Fraction(sum(y for _, y in found), i))


@given(st.integers(1, 10**4), st.tuples(FAR, FAR), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_oracle_on_thin_slivers(h, offset, i):
    # the unit triangle sheared by (1, 0; h, 1) and moved by an integral
    # offset: its lattice points are the oracle's points of the unit
    # triangle, sheared and moved (the oracle's own bounding box would
    # have about i^2 * h cells)
    ox, oy = offset
    polygon = Polygon.from_coords([(ox, oy), (ox + 1, oy + h), (ox, oy + 1)])
    expected = [
        (x + i * ox, h * x + y + i * oy)
        for x, y in brute.enumerate_points([(0, 0), (1, 0), (0, 1)], i)
    ]
    assert_kernel_matches(polygon, i, expected)


NEAR = st.integers(-60, 60)


@given(
    st.one_of(NEAR, NEAR.map(lambda a: a + 10**12), NEAR.map(lambda a: a - 10**12)),
    st.one_of(NEAR, st.integers(-(10**6), 10**6)),
    st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 10**6)),
    st.integers(-40, 40),
    st.integers(0, 60),
)
@example(a=5, c=-3, b=1, y0=-2, n=0)
@example(a=-(10**12) - 7, c=-999_983, b=1_000_003, y0=-40, n=60)
@settings(max_examples=300, deadline=None)
def test_floor_sums_match_direct_sums(a, c, b, y0, n):
    # one chain edge's bound F(y) = (a + c*y) // b over the n rows from y0,
    # summed row by row; negative slopes and offsets, offsets near 10^12,
    # b = 1 and no rows at all
    rows = range(y0, y0 + n)
    bounds = [(a + c * y) // b for y in rows]
    s, q, t = _floor_sums(a + c * y0, c, b, n)
    assert (s, q, y0 * s + t) == (
        sum(bounds), sum(f * f for f in bounds), sum(y * f for y, f in zip(rows, bounds))
    )


TWISTS = ((1, 0, 0, 1), (1, 1, 0, 1), (-1, 0, 0, -1), (-1, -1, 0, -1))


@given(
    st.integers(1, 10**4),
    st.sampled_from(TWISTS),
    st.tuples(st.integers(-9, 9), st.integers(-99, 99)),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_moments_match_listing_on_twisted_slivers(h, twist, offset, i):
    # the sliver (0, 0), (1, h), (0, 1) of the benchmark's family: the unit
    # triangle under (1, 0; h, 1) times a twist, then moved; the floor sums
    # and the row scan are the library's two routes to the same points
    a, b, c, d = twist
    u = (a, b, h * a + c, h * b + d)
    polygon = canonicalize([
        Vec2.of(u[0] * x + u[1] * y + offset[0], u[2] * x + u[3] * y + offset[1])
        for x, y in ((0, 0), (1, 0), (0, 1))
    ])
    assert_kernel_matches(polygon, i, lattice_points(polygon, i))


@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=3, max_size=8),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_listing_order_matches_oracle_on_rational_polygons(q, numerators, offset, i):
    # vertices over one denominator q <= 6, so the integer form's scale L
    # is up to 6; the oracle walks x then y, so its list is in x-major order
    # as it stands, unsorted
    try:
        polygon = canonicalize([
            Vec2.of(Fraction(x, q) + offset[0], Fraction(y, q) + offset[1])
            for x, y in numerators
        ])
    except DegeneratePolytope:
        assume(False)
    assert lattice_points(polygon, i) == brute.enumerate_points(
        [v.as_tuple() for v in polygon.vertices], i
    )


@given(
    st.integers(1, 60),
    st.sampled_from(TWISTS),
    st.tuples(st.integers(-9, 9), st.integers(-99, 99)),
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_listing_matches_oracle_on_twisted_slivers(h, twist, offset, i):
    # the benchmark's sliver family against the oracle's points of the unit
    # triangle, mapped by the same unimodular map and moved: the columns of
    # a twisted sliver are sparse, its rows short
    a, b, c, d = twist
    u = (a, b, h * a + c, h * b + d)
    polygon = canonicalize([
        Vec2.of(u[0] * x + u[1] * y + offset[0], u[2] * x + u[3] * y + offset[1])
        for x, y in ((0, 0), (1, 0), (0, 1))
    ])
    expected = [
        (u[0] * x + u[1] * y + i * offset[0], u[2] * x + u[3] * y + i * offset[1])
        for x, y in brute.enumerate_points([(0, 0), (1, 0), (0, 1)], i)
    ]
    assert lattice_points(polygon, i) == sorted(expected)


@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=8),
    st.tuples(FAR, FAR),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_moments_match_listing_at_large_dilations(points, far, i):
    # lattice polygons, some moved by about 10^12, at dilations whose points
    # the brute-force oracle's bounding-box search would take long to find
    try:
        polygon = canonicalize([Vec2.of(x + far[0], y + far[1]) for x, y in points])
    except DegeneratePolytope:
        assume(False)
    assert_kernel_matches(polygon, i, lattice_points(polygon, i))


def projective_rows(radius):
    coord = st.integers(-radius, radius)
    return st.lists(st.tuples(coord, coord, coord, st.sampled_from((1, -1, 2, -3))),
                    min_size=1, max_size=40)


@given(st.one_of(projective_rows(1), projective_rows(2)))
@settings(max_examples=150, deadline=None)
def test_mukai_matches_rescan_oracle(rows):
    # small coordinates put many triples on a line, and with radius 1 often
    # two lines tie for the witness; each point keeps the first
    # representative drawn, rescaled or negated
    representatives, seen = [], set()
    for x, y, z, factor in rows:
        if (x, y, z) == (0, 0, 0) or brute.primitive_triple((x, y, z)) in seen:
            continue
        seen.add(brute.primitive_triple((x, y, z)))
        representatives.append((factor * x, factor * y, factor * z))
    representatives = representatives[:25]
    assume(representatives)
    configuration = PointConfiguration.of(representatives)
    result = mukai_classify(configuration)
    w = result.witness
    assert (result.verdict, w.dim, w.coordinates, w.incident, w.ratio, w.bound) == (
        brute.mukai_brute(configuration.points)
    )
    # built directly, only normalized representatives are accepted
    raw = tuple(representatives)
    if raw == configuration.points:
        assert PointConfiguration(raw) == configuration
    else:
        with pytest.raises(ValueError, match="not primitive"):
            PointConfiguration(raw)


small_triples = st.tuples(*[st.integers(-5, 5)] * 3)


def cross(p, q) -> tuple[int, int, int]:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


@given(
    small_triples, small_triples, small_triples,
    st.sets(st.integers(-30, 30), min_size=2, max_size=24),
    st.booleans(),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_mukai_matches_rescan_oracle_with_a_heavy_line(u, v, w, steps, tied, data):
    # u + t v for distinct t are distinct points of the line through u and
    # v; it holds at least the `need` points that let a line beat the point
    # witness, and the order puts them anywhere. A second line u + t w of
    # the same size sometimes ties with it.
    assume(any(cross(u, v)) and any(cross(u, w)))
    rows = [tuple(a + t * b for a, b in zip(u, v)) for t in steps]
    if tied:
        rows += [tuple(a + t * b for a, b in zip(u, w)) for t in steps]
    rows += data.draw(st.lists(st.tuples(*[st.integers(-20, 20)] * 3), max_size=len(steps) // 2))
    triples = list(dict.fromkeys(brute.primitive_triple(r) for r in rows if any(r)))
    triples = data.draw(st.permutations(triples))
    n = len(triples)
    line = brute.primitive_triple(cross(u, v))
    on_line = sum(1 for p in triples if sum(a * b for a, b in zip(line, p)) == 0)
    assume(on_line >= (n + 3) // 3 + 1)
    result = mukai_classify(PointConfiguration.of(triples))
    got = result.witness
    assert (result.verdict, got.dim, got.coordinates, got.incident, got.ratio, got.bound) == (
        brute.mukai_brute(triples)
    )


def refused(call, *args) -> bool:
    try:
        call(*args)
    except EnumerationLimitExceeded:
        return True
    return False


@given(
    st.one_of(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=8),
        st.integers(2, 30).map(lambda h: [(0, 0), (1, h), (0, 1)]),  # rows without points
    ),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_cap_bounds_every_scan(points, i):
    # counting pays for the rows it scans, listing for the rows plus the
    # points it lists; rows and points come from the oracle, and the caps
    # sit on both sides of each charge
    try:
        polygon = canonicalize([Vec2.of(x, y) for x, y in points])
    except DegeneratePolytope:
        assume(False)
    coords = [v.as_tuple() for v in polygon.vertices]
    rows = brute.scan_rows(coords, i)
    count = brute.count_points(coords, i)
    with pytest.MonkeyPatch.context() as mp:
        for cap in {rows - 1, rows, rows + count - 1, rows + count} - {0}:
            mp.setenv("POLYCHOW_MAX_ENUM", str(cap))
            assert refused(lattice_moments, polygon, i) == (rows > cap)
            assert refused(lattice_points, polygon, i) == (rows + count > cap)


@given(projective_rows(2))
@settings(max_examples=60, deadline=None)
def test_cap_bounds_incidence_pairs(rows):
    triples = {brute.primitive_triple((x, y, z)) for x, y, z, _ in rows if (x, y, z) != (0, 0, 0)}
    assume(triples)
    configuration = PointConfiguration.of(sorted(triples))
    n = len(triples)
    pairs = n * (n - 1) // 2
    with pytest.MonkeyPatch.context() as mp:
        for cap in {pairs - 1, pairs} - {-1, 0}:
            mp.setenv("POLYCHOW_MAX_ENUM", str(cap))
            assert refused(mukai_classify, configuration) == (pairs > cap)


# a generator of each finite cyclic subgroup of SL2(Z), up to conjugacy
CYCLIC = {
    2: IntMat2(-1, 0, 0, -1),
    3: IntMat2(0, -1, 1, -1),
    4: IntMat2(0, -1, 1, 0),
    6: IntMat2(1, -1, 1, 0),
}
REFLECTION = SymmetryGroup.generated_by([CYCLIC[2]])


def _maps_onto_itself(polygon: Polygon, g: IntMat2) -> bool:
    """The definition: the canonical hull of the mapped Fraction vertices
    is the polygon itself."""
    return canonicalize([g.apply(v) for v in polygon.vertices]) == polygon


def _weakly_symmetric_by_definition(polygon: Polygon, group: SymmetryGroup) -> bool:
    return (
        all(_maps_onto_itself(polygon, g) for g in group.elements)
        and group.element_sum().is_zero()
    )


@given(
    st.lists(st.tuples(RATIONAL, RATIONAL), min_size=1, max_size=6),
    st.sampled_from(sorted(CYCLIC)),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.sampled_from(["plain", "with its reflection", "orbit"]),
)
@settings(max_examples=150, deadline=None)
def test_symmetry_predicates_match_their_definitions(points, order, factors, seed, build):
    # the closure of a conjugated cyclic generator, and a polygon that is a
    # random hull, the hull of P and -P, or the hull of the group orbit of P
    p = random_unimodular(random.Random(seed), factors)
    generator = p @ CYCLIC[order] @ IntMat2(p.d, -p.b, -p.c, p.a)
    group = SymmetryGroup.generated_by([generator])
    vecs = [Vec2(x, y) for x, y in points]
    if build == "with its reflection":
        vecs += [-v for v in vecs]
    elif build == "orbit":
        vecs = [g.apply(v) for g in group.elements for v in vecs]
    try:
        polygon = canonicalize(vecs)
    except DegeneratePolytope:
        assume(False)
    central = is_centrally_symmetric(polygon)
    assert central == _maps_onto_itself(polygon, CYCLIC[2])
    assert is_weakly_symmetric(polygon, REFLECTION) == central
    assert is_weakly_symmetric(polygon, group) == _weakly_symmetric_by_definition(polygon, group)
    # the built cases are symmetric, so both answers are exercised
    if build == "with its reflection":
        assert central
    elif build == "orbit":
        assert is_weakly_symmetric(polygon, group)


# every determinant-one matrix with entries in [-4, 4]
SMALL_SL2 = [
    IntMat2(a, b, c, d)
    for a in range(-4, 5) for b in range(-4, 5) for c in range(-4, 5) for d in range(-4, 5)
    if a * d - b * c == 1
]


@st.composite
def conjugated_cyclic(draw) -> IntMat2:
    p = random_unimodular(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(0, 4)))
    return p @ CYCLIC[draw(st.sampled_from(sorted(CYCLIC)))] @ IntMat2(p.d, -p.b, -p.c, p.a)


@given(st.lists(st.one_of(st.sampled_from(SMALL_SL2), conjugated_cyclic()), max_size=3))
@example([])
@example([CYCLIC[2], CYCLIC[3]])  # commuting: the cyclic group of order 6
@example([CYCLIC[3], CYCLIC[6]])  # the first group inside the second
@example([CYCLIC[4], IntMat2(1, 1, 0, 1) @ CYCLIC[4] @ IntMat2(1, -1, 0, 1)])  # 8 products
@example([IntMat2(1, 1, 0, 1)])  # infinite order
@settings(max_examples=400, deadline=None)
def test_group_closure_matches_breadth_first_search(generators):
    # walking each generator's powers gives the group that a breadth-first
    # search over plain tuples finds, and refuses exactly when it does
    expected = brute.group_closure([tuple(g) for g in generators])
    try:
        elements = SymmetryGroup.generated_by(generators).elements
    except GroupClosureOverflow:
        assert expected is None
    else:
        assert elements == expected
        assert all(type(g) is IntMat2 for g in elements)
