"""Exact rational plane geometry.

Everything is built on `fractions.Fraction`; floating point is rejected at
every coercion point. Polygons are immutable values in a canonical form
(strictly convex, counter-clockwise, first vertex lexicographically
smallest), so equality, hashing and golden-file comparisons are structural.

The boundary measure used throughout is the lattice-normalized one: each
edge is weighted by its lattice length (the number of primitive lattice
steps it spans), not by Euclidean arc length. Every blow-up invariant in
this package depends on that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import DegeneratePolytope, NotDelzant

RationalLike = Union[int, str, Fraction]


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to a Fraction. Floats are
    rejected: binary floats would silently destroy exactness. So are bools,
    which are ints to Python but never a coordinate."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Vec2:
    """Exact rational vector in the plane."""

    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: RationalLike, y: RationalLike) -> "Vec2":
        return Vec2(to_fraction(x), to_fraction(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, scalar) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


ZERO_VEC = Vec2(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class IntMat2:
    """2x2 integer matrix [[a, b], [c, d]].

    Column convention: the columns (a, c) and (b, d) are the images of the
    basis vectors. Corner frames store the two primitive edge directions of
    a vertex as columns, ordered so the determinant is +1.
    """

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "IntMat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_columns(cls, col1: tuple[int, int], col2: tuple[int, int]) -> "IntMat2":
        return cls(col1[0], col2[0], col1[1], col2[1])

    @classmethod
    def from_rows(cls, row1: Sequence[int], row2: Sequence[int]) -> "IntMat2":
        return cls(int(row1[0]), int(row1[1]), int(row2[0]), int(row2[1]))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.c), (self.b, self.d))

    def column_sum(self) -> Vec2:
        return Vec2(Fraction(self.a + self.b), Fraction(self.c + self.d))

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0


@dataclass(frozen=True)
class AffineMap:
    """Affine map x -> L x + t with exact rational entries."""

    xx: Fraction
    xy: Fraction
    yx: Fraction
    yy: Fraction
    offset: Vec2

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls.linear(1, 0, 0, 1)

    @classmethod
    def linear(cls, xx, xy, yx, yy, offset: Vec2 = ZERO_VEC) -> "AffineMap":
        return cls(to_fraction(xx), to_fraction(xy), to_fraction(yx), to_fraction(yy), offset)

    @classmethod
    def translation(cls, offset: Vec2) -> "AffineMap":
        return cls.linear(1, 0, 0, 1, offset)

    @classmethod
    def from_int_mat(cls, m: IntMat2, offset: Vec2 = ZERO_VEC) -> "AffineMap":
        return cls.linear(m.a, m.b, m.c, m.d, offset)

    def det(self) -> Fraction:
        return self.xx * self.yy - self.xy * self.yx

    def is_invertible(self) -> bool:
        return self.det() != 0

    def linear_apply(self, v: Vec2) -> Vec2:
        return Vec2(self.xx * v.x + self.xy * v.y, self.yx * v.x + self.yy * v.y)

    def apply(self, v: Vec2) -> Vec2:
        return self.linear_apply(v) + self.offset


@dataclass(frozen=True)
class Polygon:
    """Strictly convex polygon in canonical form.

    Invariants enforced on construction: at least three vertices, no three
    consecutive vertices collinear, counter-clockwise orientation, first
    vertex lexicographically smallest. Use `canonicalize` to build one from
    arbitrary points.
    """

    vertices: tuple[Vec2, ...]

    def __post_init__(self):
        verts = self.vertices
        if len(verts) < 3:
            raise DegeneratePolytope("a polygon needs at least three vertices")
        n = len(verts)
        for i in range(n):
            p, q, r = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            if (q - p).cross(r - p) <= 0:
                raise DegeneratePolytope(
                    "vertices must be strictly convex and counter-clockwise"
                )
        smallest = min(range(n), key=lambda i: verts[i].sort_key())
        if smallest != 0:
            raise DegeneratePolytope("canonical form starts at the smallest vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Vec2:
        return self.vertices[i % len(self.vertices)]

    def index_of(self, v: Vec2) -> int | None:
        try:
            return self.vertices.index(v)
        except ValueError:
            return None

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    @staticmethod
    def from_coords(coords: Iterable[Sequence[RationalLike]]) -> "Polygon":
        return canonicalize([Vec2.of(c[0], c[1]) for c in coords])


def canonicalize(points: Iterable[Vec2]) -> Polygon:
    """Convex hull in canonical form.

    Interior points and collinear triples are dropped silently (corner cuts
    can produce seam vertices that line up with an old edge). Raises
    DegeneratePolytope when the hull has no area.
    """
    pts = sorted(set(points), key=Vec2.sort_key)
    if len(pts) < 3:
        raise DegeneratePolytope("need at least three distinct points")

    def build(chain_pts):
        chain: list[Vec2] = []
        for p in chain_pts:
            while len(chain) >= 2 and (chain[-1] - chain[-2]).cross(p - chain[-2]) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegeneratePolytope("points are collinear")
    # monotone chain starts at the lexicographically smallest point and runs CCW
    return Polygon(tuple(hull))


def area(polygon: Polygon) -> Fraction:
    """Euclidean area, exact (shoelace formula)."""
    total = Fraction(0)
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        total += verts[i].cross(verts[(i + 1) % n])
    return total / 2


def moment_integral(polygon: Polygon) -> Vec2:
    """Integral of the coordinate vector over the polygon.

    Fan triangulation from the first vertex; each triangle contributes
    area times centroid, which is exact for a linear integrand.
    """
    verts = polygon.vertices
    acc = ZERO_VEC
    for i in range(1, len(verts) - 1):
        p, q, r = verts[0], verts[i], verts[i + 1]
        tri_area = (q - p).cross(r - p) / 2
        centroid = (p + q + r) * Fraction(1, 3)
        acc = acc + centroid * tri_area
    return acc


def primitive_direction(d: Vec2) -> tuple[int, int]:
    """Primitive integer vector parallel to d (same orientation)."""
    if d.x == 0 and d.y == 0:
        raise ValueError("zero vector has no direction")
    scale = lcm(d.x.denominator, d.y.denominator)
    mx = int(d.x * scale)
    my = int(d.y * scale)
    g = gcd(abs(mx), abs(my))
    return (mx // g, my // g)


def lattice_length(p: Vec2, q: Vec2) -> Fraction:
    """Length of the segment p-q measured in primitive lattice steps."""
    d = q - p
    ux, uy = primitive_direction(d)
    return d.x / ux if ux != 0 else d.y / uy


def boundary_moment(polygon: Polygon) -> Vec2:
    """Integral of the coordinate vector over the boundary with the
    lattice-normalized measure: each edge contributes its lattice length
    times its midpoint (exact for a linear integrand)."""
    acc = ZERO_VEC
    for p, q in polygon.edges():
        acc = acc + (p + q) * (lattice_length(p, q) / 2)
    return acc


def boundary_lattice_length(polygon: Polygon) -> Fraction:
    """Total lattice length of the boundary; equals the number of boundary
    lattice points when the polygon is a lattice polygon."""
    return sum((lattice_length(p, q) for p, q in polygon.edges()), Fraction(0))


def is_lattice(polygon: Polygon) -> bool:
    return all(v.x.denominator == 1 and v.y.denominator == 1 for v in polygon.vertices)


def denominator_lcm(polygon: Polygon) -> int:
    """Least k >= 1 such that k * polygon has integral vertices."""
    result = 1
    for v in polygon.vertices:
        result = lcm(result, v.x.denominator, v.y.denominator)
    return result


def _corner_directions(polygon: Polygon, index: int) -> tuple[tuple[int, int], tuple[int, int]]:
    v = polygon.vertex(index)
    d_next = primitive_direction(polygon.vertex(index + 1) - v)
    d_prev = primitive_direction(polygon.vertex(index - 1) - v)
    return d_next, d_prev


def corner_frame(polygon: Polygon, index: int) -> IntMat2:
    """Frame of primitive edge directions at a vertex, as matrix columns.

    For a CCW polygon the (next-edge, previous-edge) order gives a positive
    determinant; the vertex is smooth exactly when that determinant is 1.
    """
    d_next, d_prev = _corner_directions(polygon, index)
    frame = IntMat2.from_columns(d_next, d_prev)
    if frame.det() != 1:
        raise NotDelzant(
            f"corner at {polygon.vertex(index)} has frame determinant {frame.det()}"
        )
    return frame


def is_delzant(polygon: Polygon) -> bool:
    """Integral vertices and a lattice-basis corner frame at every vertex."""
    if not is_lattice(polygon):
        return False
    for i in range(len(polygon)):
        d_next, d_prev = _corner_directions(polygon, i)
        if d_next[0] * d_prev[1] - d_next[1] * d_prev[0] != 1:
            return False
    return True


def apply_affine(polygon: Polygon, transform: AffineMap) -> Polygon:
    """Image polygon, re-canonicalized."""
    if not transform.is_invertible():
        raise DegeneratePolytope("affine transform has singular linear part")
    return canonicalize([transform.apply(v) for v in polygon.vertices])


def scale(polygon: Polygon, k: int) -> Polygon:
    """The dilation k * polygon for a positive integer k."""
    if k < 1:
        raise ValueError("scale factor must be a positive integer")
    if k == 1:
        return polygon
    return Polygon(tuple(v * k for v in polygon.vertices))


def translate(polygon: Polygon, offset: Vec2) -> Polygon:
    return Polygon(tuple(v + offset for v in polygon.vertices))
