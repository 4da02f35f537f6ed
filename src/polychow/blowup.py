"""Corner-chop decompositions and the blow-up identity for Chow weights.

Chopping corners off a moment polygon is the combinatorial shadow of
blowing up the toric surface at torus-fixed points. A decomposition

    base = chopped  union  D_1 ... D_l

removes one small triangle D_a at each cut vertex. Two vector invariants
assembled from the cut data (depths, corner frames, the scaled polygon's
moment data) correct the Chow weight of the scaled base to that of the
scaled chopped polygon:

    chow(k*chopped; i) = chow(k*base; i) + i * DF1 + DF2

This module builds and validates decompositions, evaluates the invariants,
and verifies the identity against direct enumeration on the chopped
polygon. The verification is the module's reason to exist: the closed-form
route and the enumeration route are kept fully independent.

Every sum in the identity is an integer: the seam points at scale k,
k*v, the depths m, the frame column sums, A and B, and the scaled
polygons' integer forms (twice the area, 6 * the moment, 2 * the boundary
moment, 12 * the point-sum constant) and enumerated moments. So the
decomposition, the invariants and both verifications work in ints and
build one Fraction per output coordinate, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    CutThroughEdge,
    InternalInconsistency,
    InvalidCutDepth,
    InvalidCutVertex,
    OverlappingCuts,
    VerificationMismatch,
)
from .geometry import (
    AffineMap,
    IntMat2,
    Polygon,
    Vec2,
    ZERO_VEC,
    _from_integers,
    _hull,
    _over_common_denominator,
    _read_only,
    area,
    boundary_moment,
    corner_frame,
    denominator_lcm,
    is_delzant,
    scale,
    to_fraction,
)
from .chow import _polygon_weight, _weight, chow_poly
from .counting import (
    VecPoly, _charge_dilations, _counting_and_sum_polys, _dilation_moments, lattice_moments
)


class CornerCut(NamedTuple("CornerCut", [("vertex", Vec2), ("depth", Fraction)])):
    """One corner chop: a vertex of the base polygon and the rational depth
    measured in primitive lattice steps along both edges at that vertex.
    Built directly or through `of`, the vertex is coerced to a Vec2 and the
    depth to a Fraction; a depth that is not positive raises
    InvalidCutDepth."""

    __slots__ = ()

    def __new__(cls, vertex, depth) -> "CornerCut":
        if not isinstance(vertex, Vec2):
            vertex = Vec2.of(*vertex)
        depth = to_fraction(depth)
        if depth <= 0:
            raise InvalidCutDepth(f"cut depth must be positive, got {depth}")
        return tuple.__new__(cls, (vertex, depth))

    @staticmethod
    def of(vertex, depth) -> "CornerCut":
        return CornerCut(vertex, depth)


class _DecompositionFields(NamedTuple):
    base: Polygon
    cuts: tuple[CornerCut, ...]
    chopped: Polygon
    simplices: tuple[Polygon, ...]
    seams: tuple[tuple[Vec2, Vec2], ...]
    frames: tuple[IntMat2, ...]
    k: int
    m: tuple[int, ...]
    m_sum: int
    m_square_sum: int
    a_const: int
    b_const: int
    chopped_scaled_delzant: bool


class Decomposition(_DecompositionFields):
    """A validated corner-chop decomposition.

    `k` is the lcm of the base's scale and the depths' denominators, and
    equals the minimal integer making the scaled chopped polygon a lattice
    polygon; `m` holds the integer cut depths k*depth at that scale. The
    aggregates are taken on the scaled base: `a_const` is its boundary
    lattice point count minus sum(m), `b_const` twice its area minus
    sum(m^2).

    The named fields give its repr, its equality and its hash. Besides
    them it holds, built once by chop_corners, k * base and k * chopped,
    and each cut's (k*v, k*q, k*r) as integer pairs: its vertex and its
    seam. Assigning to any attribute raises AttributeError.
    """

    def __new__(cls, *fields, _scaled_base: Polygon, _scaled_chopped: Polygon,
                _cut_points: tuple[tuple[tuple[int, int], ...], ...],
                **named) -> "Decomposition":
        self = super().__new__(cls, *fields, **named)
        self.__dict__.update(
            _scaled_base=_scaled_base, _scaled_chopped=_scaled_chopped, _cut_points=_cut_points
        )
        return self

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return chop_corners, (self.base, self.cuts)

    def scaled_base(self) -> Polygon:
        return self._scaled_base

    def scaled_chopped(self) -> Polygon:
        return self._scaled_chopped


def _cut_text(cuts: tuple[CornerCut, ...]) -> str:
    """The cuts as `[(0, 2) at depth 1/2, ...]`, for messages that must
    reproduce a decomposition."""
    return "[" + ", ".join(f"{cut.vertex.text()} at depth {cut.depth}" for cut in cuts) + "]"


def chop_corners(base: Polygon, cuts: list[CornerCut] | tuple[CornerCut, ...]) -> Decomposition:
    """Chop the given corners off the base polygon and validate the result.

    The base may be rational: k is the lcm of the base's scale and the
    depths' denominators, set before any geometry, so each m = k*depth is
    a positive integer and the scaled base is a lattice polygon; k is also
    the minimal lattice multiple of the chopped polygon, which is checked.
    The chopped polygon's Delzant status at scale k is reported as a flag,
    not an error: the invariants still evaluate, and callers can decide
    how much to trust them.

    The cuts are valid when each depth is under the lattice length of both
    edges at its vertex, and two cuts at the ends of one edge leave part
    of it: their depths sum to less than its lattice length. So each cut
    is checked against the cuts at its two neighbouring vertices only,
    and validation is linear in the cuts.

    The seam points, the cut simplices, the chopped polygon (the hull of
    the uncut vertices and the seam points) and the scaled polygons are
    computed on integer vertices at scale k. The seams are returned as
    Fraction points, and each cut's vertex and seam also as integer pairs
    at k, which the blow-up sums read. Every refusal of an inconsistent
    result names the base and the cuts.
    """
    cuts = tuple(cuts)
    position: dict[int, int] = {}  # vertex index in the base -> index in cuts
    for a, cut in enumerate(cuts):
        idx = base.index_of(cut.vertex)
        if idx is None:
            raise InvalidCutVertex(f"{cut.vertex.text()} is not a vertex of the base polygon")
        if idx in position:
            raise InvalidCutVertex(f"vertex {cut.vertex.text()} is cut twice")
        position[idx] = a

    frames = tuple(corner_frame(base, idx) for idx in position)

    # The base's vertices and the seam points as integer pairs at scale k,
    # the least common denominator of 1/L0 and the depths, for L0 the
    # base's scale: the least k at which k/L0 and each m = k*depth are
    # integers. It is the least lattice multiple L of the chopped polygon:
    # the chopped vertices are integral at k, so L divides k. At L each
    # seam depth*(p - n) is integral, and p - n is primitive as the frame
    # (n, p) has det 1, so L*depth is an integer; every base vertex, uncut
    # or a seam point less depth*n, is then integral at L, so L0 divides L
    # and k divides L.
    form = base.integer
    (up, *m), k = _over_common_denominator(
        Fraction(1, form.scale), *(cut.depth for cut in cuts)
    )
    verts = [(x * up, y * up) for x, y in form.vertices]
    n = len(verts)
    triangles: list[tuple[tuple[int, int], ...]] = []  # each cut's k*v, k*q, k*r
    for idx, cut, depth, frame in zip(position, cuts, m, frames):
        vx, vy = verts[idx]
        # seam endpoints must stay strictly inside the adjacent edges: the
        # depth is under the lattice length of each
        for neighbour in (idx + 1, idx - 1):
            wx, wy = verts[neighbour % n]
            if depth >= gcd(wx - vx, wy - vy):
                raise CutThroughEdge(
                    f"cut of depth {cut.depth} at {base.vertex(idx).text()} reaches the edge "
                    f"towards {base.vertex(neighbour).text()}"
                )
        q, r = ((vx + x * depth, vy + y * depth) for x, y in frame.columns())
        triangles.append(((vx, vy), q, r))

    # Cut a lies strictly on v_a's side of the chord through its seam
    # points, and every other base vertex strictly on the far side. So cuts
    # at vertices that share no edge never meet, and for two that share an
    # edge the same chord separates them unless their depths fill the edge.
    # The pairs are met in list order, so the first that meets is named.
    for a, (ia, ((ax, ay), _, _)) in enumerate(zip(position, triangles)):
        neighbours = (position.get((ia + step) % n, -1) for step in (1, -1))
        for b in sorted(b for b in neighbours if b > a):
            (bx, by), _, _ = triangles[b]
            if m[a] + m[b] >= gcd(bx - ax, by - ay):
                raise OverlappingCuts(
                    f"cuts at {cuts[a].vertex.text()} and {cuts[b].vertex.text()} intersect"
                )
    simplices = tuple(_from_integers(k, _hull(triangle)) for triangle in triangles)

    uncut = [v for idx, v in enumerate(verts) if idx not in position]
    chopped = _from_integers(k, _hull(uncut + [p for _, *seam in triangles for p in seam]))
    if denominator_lcm(chopped) != k:
        raise InternalInconsistency(
            f"chopped polygon {chopped.vertex_text()} of base {base.vertex_text()} cut at "
            f"{_cut_text(cuts)} has lattice multiple {denominator_lcm(chopped)}, not k={k}"
        )

    scaled_base = scale(base, k)
    scaled_chopped = scale(chopped, k)
    base_area = area(base)
    parts_area = area(chopped) + sum(area(s) for s in simplices)
    if parts_area != base_area:
        raise InternalInconsistency(
            f"cut areas of base {base.vertex_text()} cut at {_cut_text(cuts)} at lattice "
            f"multiple k={k} do not add up: chopped plus cut simplices {parts_area}, "
            f"base {base_area}"
        )

    m_sum = sum(m)
    m_square_sum = sum(v * v for v in m)
    # the scaled base is a lattice polygon, so its integer form has scale 1
    a_const = scaled_base.integer.boundary_length - m_sum
    b_const = scaled_base.integer.twice_area - m_square_sum

    return Decomposition(
        base=base,
        cuts=cuts,
        chopped=chopped,
        simplices=simplices,
        seams=tuple(
            tuple(Vec2(Fraction(x, k), Fraction(y, k)) for x, y in seam)
            for _, *seam in triangles
        ),
        frames=frames,
        k=k,
        m=tuple(m),
        m_sum=m_sum,
        m_square_sum=m_square_sum,
        a_const=a_const,
        b_const=b_const,
        chopped_scaled_delzant=is_delzant(scaled_chopped),
        _scaled_base=scaled_base,
        _scaled_chopped=scaled_chopped,
        _cut_points=tuple(triangles),
    )


class SimplexForms(NamedTuple):
    """Closed forms for the right triangle with legs m at dilation i,
    relative to its hypotenuse: area, point-sum difference, point-count
    difference, and the moment integral."""

    volume: Fraction
    sum_diff: Vec2
    count_diff: Fraction
    moment: Vec2


def simplex_closed_forms(m: int, i: int) -> SimplexForms:
    if m < 1 or i < 1:
        raise ValueError("leg length and dilation must be positive integers")
    ones = Vec2(Fraction(1), Fraction(1))
    return SimplexForms(
        volume=Fraction(m * m, 2),
        sum_diff=ones * Fraction(m * (i * m + 1) * (i * m - 1), 6),
        count_diff=Fraction(i * m * (i * m + 1), 2),
        moment=ones * Fraction(m**3, 6),
    )


def _seam(q: tuple[int, int], r: tuple[int, int], i: int) -> tuple[int, int, int]:
    """(count, sum of x, sum of y) over the integer points of the i-th
    dilation of the seam between the integer points q and r, a cut's seam
    at scale k. Its i*gcd(r - q) + 1 points are evenly spaced, so they sum
    to i*count*(q + r)/2: an int, as a sum of integer points."""
    (qx, qy), (rx, ry) = q, r
    count = i * gcd(rx - qx, ry - qy) + 1
    return count, i * count * (qx + rx) // 2, i * count * (qy + ry) // 2


def df_invariants(decomposition: Decomposition) -> tuple[Vec2, Vec2]:
    """The two correction invariants of the blow-up identity.

    Both are assembled from the cut depths m, the corner-frame column sums
    F, the scaled cut vertices k*v, the aggregates A and B, and the scaled
    base's moment, boundary-moment and point-sum data:

        DF1 = (A*sum(F m^3) + 3*(A*sum(k v m^2) - B*sum(k v m))) / 12
              + moment * sum(m) / 2 - boundary moment * sum(m^2) / 4
        DF2 = (B*sum(F m) + 2*sum(F m^3) + 6*sum(k v m^2)) / 12
              - (constant of the point-sum polynomial) * sum(m^2) / 2

    The scaled base is a lattice polygon, so in the ints of its integer
    form (moment M/6, boundary moment BM/2, point-sum constant C/12, see
    `_counting_and_sum_polys`) and of the cuts, per coordinate,

        24*DF1 = 2A*sum(F m^3) + 6A*sum(k v m^2) - 6B*sum(k v m)
                 + 2M*sum(m) - 3*BM*sum(m^2)
        24*DF2 = 2B*sum(F m) + 4*sum(F m^3) + 12*sum(k v m^2) - C*sum(m^2)

    Each invariant builds one Fraction per coordinate, at the end. DF1's
    boundary term is read through `boundary_moment`, not the integer form,
    so that a wrong boundary measure shows up in DF1; its coordinates are
    read as integer ratios p/q and DF1 is put over 24 q.
    """
    d = decomposition
    a_c, b_c = d.a_const, d.b_const
    scaled = d.scaled_base()
    cut_data = [
        (frame.column_sum(), vertex, m)
        for frame, (vertex, _, _), m in zip(d.frames, d._cut_points, d.m)
    ]
    boundary = boundary_moment(scaled)
    constant = _counting_and_sum_polys(scaled)
    df1, df2 = [], []
    for j, half_bm in enumerate((boundary.x, boundary.y)):
        frame_m3 = frame_m1 = vert_m2 = vert_m1 = 0
        for column_sum, vertex, m in cut_data:
            frame_m3 += column_sum[j] * m**3
            frame_m1 += column_sum[j] * m
            vert_m2 += vertex[j] * m * m
            vert_m1 += vertex[j] * m
        df1_24 = (
            2 * a_c * frame_m3 + 6 * a_c * vert_m2 - 6 * b_c * vert_m1
            + 2 * scaled.integer.moment[j] * d.m_sum
        )
        # half_bm = p/q is BM/2, so 6 * half_bm is 3*BM: one Fraction over 24 q
        p, q = half_bm.as_integer_ratio()
        df1.append(Fraction(df1_24 * q - 6 * d.m_square_sum * p, 24 * q))
        df2.append(Fraction(
            2 * b_c * frame_m1 + 4 * frame_m3 + 12 * vert_m2 - constant[j] * d.m_square_sum, 24
        ))
    return Vec2(*df1), Vec2(*df2)


def chow_after_blowup(decomposition: Decomposition) -> VecPoly:
    """Chow weight of the scaled chopped polygon via the blow-up identity.
    The scaled base is scanned once: `df_invariants` gates it and
    `chow_poly` reads the constant that the gate stored."""
    df1, df2 = df_invariants(decomposition)
    base_poly = chow_poly(decomposition.scaled_base())
    return VecPoly(ZERO_VEC, base_poly.c1 + df1, base_poly.c0 + df2)


class BlowupVerification(NamedTuple):
    """Per-dilation comparison of the blow-up identity against enumeration."""

    entries: tuple[tuple[int, Vec2, Vec2], ...]  # (i, identity side, enumerated side)

    @property
    def all_equal(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.entries)

    @property
    def proves_every_dilation(self) -> bool:
        """The identity at every i: both sides have degree at most 2 in i on
        the lattice polygon k*chopped (by Pick and Euler-Maclaurin on the
        enumerated side), so equality at i = 1, 2 and 3 proves it."""
        return self.all_equal and {1, 2, 3} <= {i for i, _, _ in self.entries}


def verify_blowup_theorem(decomposition: Decomposition, i_max: int) -> BlowupVerification:
    """Compare the blow-up identity with direct enumeration for i = 1..i_max.

    The right side is the Chow weight of the scaled chopped polygon
    computed from its own lattice points; nothing is shared with the
    closed-form route. The polygon is a lattice polygon (scale 1), so the
    weight is `chow._polygon_weight` of it and of the (count, sum of x,
    sum of y) of the i-th dilation, over 6i, all from one kernel call.
    The identity side, `chow_after_blowup` with c2 included, is brought
    over one denominator for both coordinates once, so at each i both
    sides are integer numerators compared by cross-multiplying, and one
    Fraction per coordinate is built for the report. The first unequal
    dilation raises VerificationMismatch with the report so far, and no
    later one is scanned; its message names the scaled chopped polygon, k,
    the base and the cuts. The rows of all i_max scans are charged first.
    """
    if i_max < 1:
        raise ValueError("i_max must be a positive integer")
    d = decomposition
    target = d.scaled_chopped()
    _charge_dilations(target, i_max, i_max, f"blow-up verification to i_max={i_max}")
    identity_side = chow_after_blowup(d)
    # the identity side: c2, c1 and c0 of both coordinates over one q
    (x2, y2, x1, y1, x0, y0), q = _over_common_denominator(
        *identity_side.c2, *identity_side.c1, *identity_side.c0
    )
    entries: list[tuple[int, Vec2, Vec2]] = []
    for i, moments in enumerate(_dilation_moments(target, range(1, i_max + 1)), 1):
        # the identity side over q, the enumerated side over 6i
        lx, ly = (x2 * i + x1) * i + x0, (y2 * i + y1) * i + y0
        ex, ey, _ = _polygon_weight(target, moments, i)
        rhs = Vec2(Fraction(ex, 6 * i), Fraction(ey, 6 * i))
        if lx * 6 * i == ex * q and ly * 6 * i == ey * q:
            entries.append((i, rhs, rhs))
            continue
        lhs = Vec2(Fraction(lx, q), Fraction(ly, q))
        entries.append((i, lhs, rhs))
        where = (
            f" on the scaled chopped polygon {target.vertex_text()} "
            f"at lattice multiple k={d.k}, from base {d.base.vertex_text()} "
            f"cut at {_cut_text(d.cuts)}"
        )
        raise VerificationMismatch(i, lhs, rhs, BlowupVerification(tuple(entries)), where)
    return BlowupVerification(tuple(entries))


def verify_general_identity(decomposition: Decomposition, f: AffineMap, i: int) -> Vec2:
    """Residual of the dimension-free decomposition identity for the Chow
    weight, with every term enumerated or integrated directly.

    With P_X and E_X the sum of f and the count over the sample points of
    the i-th subdivision of the scaled base b, the scaled cut simplices p
    and their seams, Vol_X the areas and I_X the integrals of f, the
    identity reads

        chow(k*chopped; i) = P_b*Vol_b - I_b*E_b - P_b*Vol_p
                             - (P_p - P_seams)*(Vol_b - Vol_p) + I_p*E_b
                             + (I_b - I_p)*(E_p - E_seams)

    Returns rhs - chow(k*chopped; i); a correct decomposition gives zero.

    The offset t of f enters P_X as t*E_X and I_X as t*Vol_X, so its
    coefficient is E_b*Vol_b - Vol_b*E_b - E_b*Vol_p - (E_p - E_seams)*
    (Vol_b - Vol_p) + Vol_p*E_b + (Vol_b - Vol_p)*(E_p - E_seams) = 0 for
    any enumerated values: only the linear part of f is left. With the
    rest r = b minus the simplices plus the seams (Vol_r = Vol_b - Vol_p,
    moment M_r = M_b - M_p, count E_b - E_p + E_seams, raw sums
    S_b - S_p + S_seams over the dilation), the residual is
    f_linear((W_r - W_c)/(6i)), where W_X is `chow._weight` of X: 6i
    times the Chow weight of r minus that of the scaled chopped polygon c.
    Every polygon here is a lattice polygon, so each W_X is an int pair.

    One kernel call per polygon gives each count and raw sum. A cut
    simplex of scale L (which divides k) is scanned at dilation k*i, the
    same rows as k*simplex at i, and its measures are scaled by powers of
    k/L, so no polygon is built. `_seam` gives each seam's count and raw
    sum: its points are integer points, so the sums are ints.
    """
    d = decomposition
    k = d.k
    scaled_base = d.scaled_base()
    count, sx, sy = lattice_moments(scaled_base, i)
    a2 = scaled_base.integer.twice_area
    mx, my = scaled_base.integer.moment
    for simplex, (_, q, r) in zip(d.simplices, d._cut_points):
        part = simplex.integer
        up = k // part.scale
        part_count, part_x, part_y = lattice_moments(simplex, k * i)
        seam_count, seam_x, seam_y = _seam(q, r, i)
        count += seam_count - part_count
        sx += seam_x - part_x
        sy += seam_y - part_y
        a2 -= part.twice_area * up**2
        mx -= part.moment[0] * up**3
        my -= part.moment[1] * up**3
    wx, wy = _weight(3 * a2, (mx, my), (count, sx, sy), i)
    target = d.scaled_chopped()
    cx, cy, _ = _polygon_weight(target, lattice_moments(target, i), i)
    return f._apply_over(wx - cx, wy - cy, 6 * i)
