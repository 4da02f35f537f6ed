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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

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
    area,
    boundary_moment,
    canonicalize,
    corner_frame,
    denominator_lcm,
    is_delzant,
    is_lattice,
    lattice_length,
    moment_integral,
    scale,
    to_fraction,
)
from .chow import chow_eval, chow_poly, integral_of_affine
from .counting import (
    VecPoly,
    _f_sum_and_count,
    segment_count,
    segment_f_sum,
    sum_poly,
)


@dataclass(frozen=True)
class CornerCut:
    """One corner chop: a vertex of the base polygon and the rational depth
    measured in primitive lattice steps along both edges at that vertex."""

    vertex: Vec2
    depth: Fraction

    def __post_init__(self):
        object.__setattr__(self, "depth", to_fraction(self.depth))
        if self.depth <= 0:
            raise InvalidCutDepth(f"cut depth must be positive, got {self.depth}")

    @staticmethod
    def of(vertex, depth) -> "CornerCut":
        return CornerCut(Vec2.of(vertex[0], vertex[1]), to_fraction(depth))


@dataclass(frozen=True)
class Decomposition:
    """A validated corner-chop decomposition.

    `k` is the minimal integer making the scaled chopped polygon a lattice
    polygon; `m` holds the integer cut depths at that scale. The aggregates
    are taken on the scaled base: `a_const` is its boundary lattice point
    count minus sum(m), `b_const` twice its area minus sum(m^2).
    """

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
    # k * base and k * chopped, built once by chop_corners
    _scaled_base: Polygon = field(repr=False, compare=False)
    _scaled_chopped: Polygon = field(repr=False, compare=False)

    def scaled_base(self) -> Polygon:
        return self._scaled_base

    def scaled_chopped(self) -> Polygon:
        return self._scaled_chopped


def _triangles_disjoint(t1: Polygon, t2: Polygon) -> bool:
    """Exact separating-axis test for closed convex polygons, on their
    integer forms brought to one common scale."""
    common = lcm(t1.integer.scale, t2.integer.scale)

    def integer_vertices(t: Polygon) -> list[tuple[int, int]]:
        factor = common // t.integer.scale
        return [(x * factor, y * factor) for x, y in t.integer.vertices]

    def separated_by_edge_of(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> bool:
        for (px, py), (qx, qy) in zip(a, a[1:] + a[:1]):
            dx, dy = qx - px, qy - py
            # b entirely in the open outside of edge (p, q)?
            if all(dx * (wy - py) - dy * (wx - px) < 0 for wx, wy in b):
                return True
        return False

    a, b = integer_vertices(t1), integer_vertices(t2)
    return separated_by_edge_of(a, b) or separated_by_edge_of(b, a)


def chop_corners(base: Polygon, cuts: list[CornerCut] | tuple[CornerCut, ...]) -> Decomposition:
    """Chop the given corners off the base polygon and validate the result.

    The base may be rational as long as the cut data scales to integers:
    after computing k (the minimal lattice multiple of the chopped
    polygon), each k*depth must be a positive integer, which also forces
    the scaled base to be a lattice polygon. The chopped polygon's Delzant
    status at scale k is reported as a flag, not an error: the invariants
    still evaluate, and callers can decide how much to trust them.
    """
    cuts = tuple(cuts)
    indices: list[int] = []
    seen: set[int] = set()
    for cut in cuts:
        idx = base.index_of(cut.vertex)
        if idx is None:
            raise InvalidCutVertex(f"{cut.vertex} is not a vertex of the base polygon")
        if idx in seen:
            raise InvalidCutVertex(f"vertex {cut.vertex} is cut twice")
        seen.add(idx)
        indices.append(idx)

    frames = tuple(corner_frame(base, idx) for idx in indices)

    # seam endpoints must stay strictly inside the adjacent edges
    n = len(base.vertices)
    for idx, cut in zip(indices, cuts):
        v = base.vertex(idx)
        for neighbour in (base.vertex(idx + 1), base.vertex(idx - 1)):
            if cut.depth >= lattice_length(v, neighbour):
                raise CutThroughEdge(
                    f"cut of depth {cut.depth} at {v} reaches the edge towards {neighbour}"
                )

    seam_points: dict[int, tuple[Vec2, Vec2]] = {}
    for idx, cut, frame in zip(indices, cuts, frames):
        v = base.vertex(idx)
        col_next, col_prev = frame.columns()
        q = v + Vec2(Fraction(col_next[0]), Fraction(col_next[1])) * cut.depth
        r = v + Vec2(Fraction(col_prev[0]), Fraction(col_prev[1])) * cut.depth
        seam_points[idx] = (q, r)

    simplices = tuple(
        canonicalize([base.vertex(idx), *seam_points[idx]]) for idx in indices
    )
    for a in range(len(simplices)):
        for b in range(a + 1, len(simplices)):
            if not _triangles_disjoint(simplices[a], simplices[b]):
                raise OverlappingCuts(
                    f"cuts at {cuts[a].vertex} and {cuts[b].vertex} intersect"
                )

    walk: list[Vec2] = []
    for idx in range(n):
        if idx in seam_points:
            q, r = seam_points[idx]
            walk.extend([r, q])  # arrive along the previous edge, leave along the next
        else:
            walk.append(base.vertex(idx))
    chopped = canonicalize(walk)

    k = denominator_lcm(chopped)
    m: list[int] = []
    for cut in cuts:
        scaled_depth = cut.depth * k
        if scaled_depth.denominator != 1:
            raise InvalidCutDepth(
                f"depth {cut.depth} does not scale to an integer at lattice multiple {k}"
            )
        m.append(int(scaled_depth))

    scaled_base = scale(base, k)
    scaled_chopped = scale(chopped, k)
    if not is_lattice(scaled_base):
        raise InternalInconsistency(
            f"scaled base polygon {scaled_base.vertex_text()} (base {base.vertex_text()} "
            f"at lattice multiple k={k}) is not a lattice polygon"
        )
    base_area = area(base)
    parts_area = area(chopped) + sum(area(s) for s in simplices)
    if parts_area != base_area:
        raise InternalInconsistency(
            f"cut areas of base {base.vertex_text()} at lattice multiple k={k} do not add "
            f"up: chopped plus cut simplices {parts_area}, base {base_area}"
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
        seams=tuple(seam_points[idx] for idx in indices),
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
    )


@dataclass(frozen=True)
class SimplexForms:
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


def df_invariants(decomposition: Decomposition) -> tuple[Vec2, Vec2]:
    """The two correction invariants of the blow-up identity.

    Both are assembled from the cut depths m, the corner-frame column sums
    F, the scaled cut vertices k*v, the aggregates A and B, and the scaled
    base's moment, boundary-moment and point-sum data:

        DF1 = (A*sum(F m^3) + 3*(A*sum(k v m^2) - B*sum(k v m))) / 12
              + moment * sum(m) / 2 - boundary moment * sum(m^2) / 4
        DF2 = (B*sum(F m) + 2*sum(F m^3) + 6*sum(k v m^2)) / 12
              - (constant of the point-sum polynomial) * sum(m^2) / 2
    """
    d = decomposition
    a_c, b_c, k = d.a_const, d.b_const, d.k
    scaled = d.scaled_base()

    # integer sums over the cuts; k * v is integral because the scaled base
    # is a lattice polygon
    frame_m3 = frame_m1 = vert_m2 = vert_m1 = Vec2(0, 0)
    for cut, frame, m in zip(d.cuts, d.frames, d.m):
        col = frame.column_sum()
        vertex = Vec2(int(cut.vertex.x * k), int(cut.vertex.y * k))
        frame_m3 = frame_m3 + col * m**3
        frame_m1 = frame_m1 + col * m
        vert_m2 = vert_m2 + vertex * (m * m)
        vert_m1 = vert_m1 + vertex * m

    moment = moment_integral(scaled)
    boundary = boundary_moment(scaled)
    sum_const = sum_poly(scaled).c0

    df1 = (
        (frame_m3 * a_c + (vert_m2 * a_c - vert_m1 * b_c) * 3) * Fraction(1, 12)
        + moment * Fraction(d.m_sum, 2)
        - boundary * Fraction(d.m_square_sum, 4)
    )
    df2 = (
        (frame_m1 * b_c + frame_m3 * 2 + vert_m2 * 6) * Fraction(1, 12)
        - sum_const * Fraction(d.m_square_sum, 2)
    )
    return df1, df2


def chow_after_blowup(decomposition: Decomposition) -> VecPoly:
    """Chow weight of the scaled chopped polygon via the blow-up identity."""
    df1, df2 = df_invariants(decomposition)
    base_poly = chow_poly(decomposition.scaled_base())
    return base_poly + VecPoly(ZERO_VEC, df1, df2)


@dataclass(frozen=True)
class BlowupVerification:
    """Per-dilation comparison of the blow-up identity against enumeration."""

    entries: tuple[tuple[int, Vec2, Vec2], ...]  # (i, identity side, enumerated side)

    @property
    def all_equal(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.entries)


def verify_blowup_theorem(decomposition: Decomposition, i_max: int) -> BlowupVerification:
    """Compare the blow-up identity with direct enumeration for i = 1..i_max.

    The right side is the Chow weight of the scaled chopped polygon
    computed from its own lattice points; nothing is shared with the
    closed-form route. Raises VerificationMismatch on the first unequal
    dilation, carrying the full report assembled so far.
    """
    if i_max < 1:
        raise ValueError("i_max must be a positive integer")
    identity_side = chow_after_blowup(decomposition)
    target = decomposition.scaled_chopped()
    f = AffineMap.identity()
    entries: list[tuple[int, Vec2, Vec2]] = []
    for i in range(1, i_max + 1):
        lhs = identity_side(i)
        rhs = chow_eval(target, f, i)
        entries.append((i, lhs, rhs))
        if lhs != rhs:
            where = (
                f" on the scaled chopped polygon {target.vertex_text()} "
                f"at lattice multiple k={decomposition.k}"
            )
            raise VerificationMismatch(i, lhs, rhs, BlowupVerification(tuple(entries)), where)
    return BlowupVerification(tuple(entries))


def verify_general_identity(decomposition: Decomposition, f: AffineMap, i: int) -> Vec2:
    """Residual of the dimension-free decomposition identity for the Chow
    weight, with every term enumerated or integrated directly.

    Returns rhs - chow(k*chopped; i); a correct decomposition gives zero.
    """
    d = decomposition
    k = d.k
    scaled_base = d.scaled_base()
    scaled_parts = [scale(s, k) for s in d.simplices]
    scaled_seams = [(q * k, r * k) for q, r in d.seams]

    vol_parts = sum((area(s) for s in scaled_parts), Fraction(0))
    vol_rest = area(scaled_base) - vol_parts

    p_base, e_base = _f_sum_and_count(scaled_base, f, i)
    p_parts_minus_seams = ZERO_VEC
    count_parts_minus_seams = 0
    for part, (q, r) in zip(scaled_parts, scaled_seams):
        p_part, e_part = _f_sum_and_count(part, f, i)
        p_parts_minus_seams = p_parts_minus_seams + p_part - segment_f_sum(q, r, f, i)
        count_parts_minus_seams += e_part - segment_count(q, r, i)

    int_base = integral_of_affine(scaled_base, f)
    int_parts = ZERO_VEC
    for part in scaled_parts:
        int_parts = int_parts + integral_of_affine(part, f)

    chow_base = p_base * area(scaled_base) - int_base * e_base

    rhs = (
        chow_base
        - p_base * vol_parts
        - p_parts_minus_seams * vol_rest
        + int_parts * e_base
        + (int_base - int_parts) * count_parts_minus_seams
    )
    lhs = chow_eval(d.scaled_chopped(), f, i)
    return rhs - lhs
