"""Exact rational plane geometry.

A polygon is stored as its integer form: the least scale that makes every
vertex an integer pair, and those pairs. `fractions.Fraction`s appear at
the edges: in `Vec2` points, in the vertices built on demand and in the
measures returned. Floating point is rejected at every coercion point.
Polygons are immutable values in a canonical form (strictly convex,
counter-clockwise, first vertex lexicographically smallest), so equality,
hashing and golden-file comparisons are structural.

The boundary measure used throughout is the lattice-normalized one: each
edge is weighted by its lattice length (the number of primitive lattice
steps it spans), not by Euclidean arc length. Every blow-up invariant in
this package depends on that convention.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DegeneratePolytope, NotDelzant

RationalLike = Union[int, str, Fraction]

# The largest exponent magnitude accepted in exponent notation ("3e-2"):
# the 4300-digit limit that CPython applies to an integer written out in
# full. Fraction("1e10000000") would spend seconds building 10**10000000.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to a Fraction. Floats are
    rejected: binary floats would silently destroy exactness. So are bools,
    which are ints to Python but never a coordinate. Both raise TypeError;
    a string that is not a rational raises ValueError or, for "p/0",
    ZeroDivisionError. An exponent beyond MAX_EXPONENT in magnitude raises
    OverflowError before any digit is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        # lengths first: int() of a long digit string is slow, or refused
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise OverflowError(f"exponent beyond {MAX_EXPONENT}")
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Vec2(NamedTuple):
    """Exact rational vector in the plane.

    A named tuple, so that it builds cheaply: it hashes as the pair (x, y)
    and equals the plain pair with the same entries. `+`, `-`, unary `-`
    and `*` by a scalar (on either side) are vector operations, not tuple
    concatenation or repetition.
    """

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

    def cross(self, other: "Vec2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def text(self) -> str:
        """The point as "(x, y)" with p/q coordinates."""
        return f"({self.x}, {self.y})"


ZERO_VEC = Vec2(Fraction(0), Fraction(0))


class IntMat2(NamedTuple):
    """2x2 integer matrix [[a, b], [c, d]].

    Column convention: the columns (a, c) and (b, d) are the images of the
    basis vectors. Corner frames store the two primitive edge directions of
    a vertex as columns, ordered so the determinant is +1.

    A named tuple, so that group closures build their elements cheaply: it
    hashes, compares, orders and iterates as the tuple (a, b, c, d), and
    equals the plain 4-tuple with the same entries. `+` and `@` are the
    matrix sum and product.
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
        """The matrix with rows row1 and row2. An entry that is not an int,
        or is a bool, raises TypeError rather than being truncated."""
        entries = (row1[0], row1[1], row2[0], row2[1])
        for entry in entries:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError(f"expected an integer matrix entry, got {type(entry).__name__}")
        return cls(*entries)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.c), (self.b, self.d))

    def column_sum(self) -> tuple[int, int]:
        return (self.a + self.b, self.c + self.d)

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


class AffineMap(NamedTuple):
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
        (x, y), den = _over_common_denominator(*v)
        return self._apply_over(x, y, den)

    def apply(self, v: Vec2) -> Vec2:
        (x, y), den = _over_common_denominator(*v)
        return self._apply_over(x, y, den, 1)

    def _apply_over(self, x: int, y: int, den: int, weight: int = 0) -> Vec2:
        """f_linear((x, y) / den) + weight * offset for ints x, y, weight and
        den > 0, with one Fraction per coordinate. The entries are read
        through `as_integer_ratio()`, so int and Fraction entries both work;
        callers holding integer numerators over one denominator pass them
        here without building a Vec2 of Fractions."""
        return Vec2(
            _row_over(self.xx, self.xy, self.offset.x, x, y, den, weight),
            _row_over(self.yx, self.yy, self.offset.y, x, y, den, weight),
        )


def _over_common_denominator(*values) -> tuple[list[int], int]:
    """The numerators of exact rationals over their least common
    denominator, and that denominator. `as_integer_ratio` reads an int or
    a Fraction without building a Fraction."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in ratios))
    return [n * (den // q) for n, q in ratios], den


def _row_over(a, b, t, x: int, y: int, den: int, weight: int) -> Fraction:
    """(a*x + b*y) / den + weight*t as one Fraction, for rationals a, b, t:
    every term is brought over the product of the denominators, and the
    one gcd is Fraction's own."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    num, den = an * bd * x + bn * ad * y, ad * bd * den
    if weight:
        tn, td = t.as_integer_ratio()
        num, den = num * td + weight * tn * den, den * td
    return Fraction(num, den)


# one edge of a kernel chain: (L*y of its top vertex, a, c, b), see IntegerForm
_Edge = tuple[int, int, int, int]


class IntegerForm(NamedTuple):
    """A polygon scaled by the least common multiple `scale` of its vertex
    denominators, so that every vertex is an integer pair, with the
    polygon's invariants in exact integer units:

    - `twice_area` is 2 * scale^2 * area,
    - `moment` is 6 * scale^3 * (integral of the coordinate vector),
    - `boundary_length` is scale * (boundary lattice length),
    - `boundary_moment` is 2 * scale^2 * (lattice-normalized boundary moment),
    - `heights` is the least and the largest y of a vertex,
    - `right` and `left` are the enumeration kernel's chains, sorted bottom
      to top.

    The interior is on the left of each CCW edge (px, py) -> (qx, qy) of
    the integer vertices: dx*(L*y - py) - dy*(L*x - px) >= 0 for a point
    (x, y) of the polygon, with (dx, dy) = q - p and L = scale. With the
    edge's shoelace term a = px*qy - qx*py = px*dy - dx*py, c = dx*L and
    b = |dy|*L that is x <= (a + c*y) / b on the right chain (dy > 0) and
    x >= -(a + c*y) / b on the left chain (dy < 0). Each edge is stored as
    (L*y of its top vertex, a, c, b); horizontal edges bound no row and
    are left out.
    """

    scale: int
    vertices: tuple[tuple[int, int], ...]
    twice_area: int
    moment: tuple[int, int]
    boundary_length: int
    boundary_moment: tuple[int, int]
    heights: tuple[int, int]
    right: tuple[_Edge, ...]
    left: tuple[_Edge, ...]


def _scaled_to_integers(points: Sequence[Vec2]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The lcm L of the points' coordinate denominators, and the points
    L*v as integer pairs (in the same order; L > 0 keeps their order)."""
    nums, scale = _over_common_denominator(*(c for v in points for c in v))
    return scale, tuple(zip(nums[::2], nums[1::2]))


def _integer_form(scale: int, pts: tuple[tuple[int, int], ...]) -> IntegerForm:
    """The integer form of a canonical vertex cycle pts / scale, with scale
    the least that makes every vertex an integer pair, after the checks
    that make it one: at least three vertices, strictly convex and
    counter-clockwise, starting at the smallest vertex. One loop over the
    edges sums the invariants and builds the kernel chains of the first
    dilation, whose offset a is the edge's shoelace term."""
    n = len(pts)
    if n < 3:
        raise DegeneratePolytope("a polygon needs at least three vertices")
    twice_area = mx = my = length = bx = by = 0
    right: list[_Edge] = []
    left: list[_Edge] = []
    for j in range(n):
        px, py = pts[j - 1]
        qx, qy = pts[j]
        rx, ry = pts[(j + 1) % n]
        dx, dy = qx - px, qy - py
        if dx * (ry - qy) - dy * (rx - qx) <= 0:
            raise DegeneratePolytope("vertices must be strictly convex and counter-clockwise")
        # edge p -> q: its shoelace term, its moment term (Green's theorem),
        # its lattice length times its midpoint and its chain entry
        cross = px * qy - qx * py
        if dy > 0:
            right.append((qy, cross, dx * scale, dy * scale))
        elif dy < 0:
            left.append((py, cross, dx * scale, -dy * scale))
        twice_area += cross
        mx += (px + qx) * cross
        my += (py + qy) * cross
        steps = gcd(dx, dy)
        length += steps
        bx += (px + qx) * steps
        by += (py + qy) * steps
    if min(pts) != pts[0]:
        raise DegeneratePolytope("canonical form starts at the smallest vertex")
    right.sort()
    left.sort()
    ys = [y for _, y in pts]
    return IntegerForm(
        scale, pts, twice_area, (mx, my), length, (bx, by),
        (min(ys), max(ys)), tuple(right), tuple(left),
    )


def _read_only(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of an immutable value."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Polygon:
    """Strictly convex polygon in canonical form.

    Invariants enforced on construction: at least three vertices, no three
    consecutive vertices collinear, counter-clockwise orientation, first
    vertex lexicographically smallest. Use `canonicalize` to build one from
    arbitrary points. A polygon stores only its integer form `integer`,
    which gives its equality and its hash. The `Fraction` vertices are
    built from it on first access and kept in the instance `__dict__`.
    `_sum_constant` is 12 times the point-sum constant, stored once the
    gate of `counting._counting_and_sum_polys` has passed on this object,
    and None before. Assigning to any attribute raises AttributeError.
    """

    __slots__ = ("integer", "_sum_constant", "__dict__")

    def __init__(self, vertices: Iterable[Vec2]):
        self._store(_integer_form(*_scaled_to_integers(tuple(vertices))))

    def _store(self, form: IntegerForm) -> None:
        object.__setattr__(self, "integer", form)
        object.__setattr__(self, "_sum_constant", None)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Polygon:
            return NotImplemented
        return self.integer == other.integer

    def __hash__(self) -> int:
        return hash((self.integer,))

    def __reduce__(self):
        return _from_integers, (self.integer.scale, self.integer.vertices)

    @cached_property
    def vertices(self) -> tuple[Vec2, ...]:
        scale = self.integer.scale
        return tuple(Vec2(Fraction(x, scale), Fraction(y, scale)) for x, y in self.integer.vertices)

    def __repr__(self) -> str:
        return f"Polygon(vertices={self.vertices!r})"

    def __len__(self) -> int:
        return len(self.integer.vertices)

    def vertex(self, i: int) -> Vec2:
        return self.vertices[i % len(self)]

    def index_of(self, v: Vec2) -> int | None:
        """Position of v in the vertex cycle, compared at the polygon's scale."""
        form = self.integer
        x, x_rest = divmod(v.x.numerator * form.scale, v.x.denominator)
        y, y_rest = divmod(v.y.numerator * form.scale, v.y.denominator)
        if x_rest or y_rest or (x, y) not in form.vertices:
            return None
        return form.vertices.index((x, y))

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        return list(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))

    def vertex_text(self) -> str:
        """The vertices as "[(x, y), ...]" with p/q coordinates, so that a
        message naming the polygon can rebuild it."""
        return "[" + ", ".join(v.text() for v in self.vertices) + "]"

    @staticmethod
    def from_coords(coords: Iterable[Sequence[RationalLike]]) -> "Polygon":
        return canonicalize([Vec2.of(c[0], c[1]) for c in coords])


def _from_integers(scale: int, pts: Sequence[tuple[int, int]]) -> Polygon:
    """The polygon with the canonical vertex cycle pts / scale, its integer
    form brought to the least scale and checked as by the constructor."""
    common = gcd(scale, *(c for p in pts for c in p))
    polygon = object.__new__(Polygon)
    polygon._store(_integer_form(
        scale // common, tuple((x // common, y // common) for x, y in pts)
    ))
    return polygon


def _hull(pts: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull of distinct integer pairs as a canonical vertex cycle:
    counter-clockwise from the smallest pair, without collinear triples.
    Raises DegeneratePolytope when the hull has no area."""

    def build(chain_pts):
        chain: list[tuple[int, int]] = []
        for px, py in chain_pts:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                chain.pop()
            chain.append((px, py))
        return chain

    ordered = sorted(pts)
    hull = build(ordered)[:-1] + build(reversed(ordered))[:-1]
    if len(hull) < 3:
        raise DegeneratePolytope("points are collinear")
    # monotone chain starts at the lexicographically smallest point and runs CCW
    return hull


def canonicalize(points: Iterable[Vec2]) -> Polygon:
    """Convex hull in canonical form.

    Interior points and collinear triples are dropped silently (corner cuts
    can produce seam vertices that line up with an old edge). Raises
    DegeneratePolytope when the hull has no area.
    """
    unique = list(set(points))
    if len(unique) < 3:
        raise DegeneratePolytope("need at least three distinct points")
    # the hull is taken on the points scaled to integers; distinct points
    # have distinct integer pairs
    scale, pts = _scaled_to_integers(unique)
    return _from_integers(scale, _hull(pts))


def area(polygon: Polygon) -> Fraction:
    """Euclidean area, exact (shoelace formula)."""
    form = polygon.integer
    return Fraction(form.twice_area, 2 * form.scale**2)


def moment_integral(polygon: Polygon) -> Vec2:
    """Integral of the coordinate vector over the polygon, exact for a
    linear integrand: sum over the edges p -> q of (p + q) * (p x q) / 6."""
    form = polygon.integer
    return Vec2(*(Fraction(c, 6 * form.scale**3) for c in form.moment))


def primitive_direction(d: Vec2) -> tuple[int, int]:
    """Primitive integer vector parallel to d (same orientation)."""
    if d.x == 0 and d.y == 0:
        raise ValueError("zero vector has no direction")
    (mx, my), _ = _over_common_denominator(*d)
    g = gcd(mx, my)
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
    form = polygon.integer
    return Vec2(*(Fraction(c, 2 * form.scale**2) for c in form.boundary_moment))


def boundary_lattice_length(polygon: Polygon) -> Fraction:
    """Total lattice length of the boundary; equals the number of boundary
    lattice points when the polygon is a lattice polygon."""
    form = polygon.integer
    return Fraction(form.boundary_length, form.scale)


def is_lattice(polygon: Polygon) -> bool:
    return polygon.integer.scale == 1


def denominator_lcm(polygon: Polygon) -> int:
    """Least k >= 1 such that k * polygon has integral vertices."""
    return polygon.integer.scale


def _corner_directions(polygon: Polygon, index: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive directions from a vertex to its next and previous vertex,
    read from the integer form (scaling does not change a direction)."""
    pts = polygon.integer.vertices
    n = len(pts)
    vx, vy = pts[index % n]

    def towards(w: tuple[int, int]) -> tuple[int, int]:
        dx, dy = w[0] - vx, w[1] - vy
        steps = gcd(dx, dy)
        return dx // steps, dy // steps

    return towards(pts[(index + 1) % n]), towards(pts[(index - 1) % n])


def corner_frame(polygon: Polygon, index: int) -> IntMat2:
    """Frame of primitive edge directions at a vertex, as matrix columns.

    For a CCW polygon the (next-edge, previous-edge) order gives a positive
    determinant; the vertex is smooth exactly when that determinant is 1.
    """
    d_next, d_prev = _corner_directions(polygon, index)
    frame = IntMat2.from_columns(d_next, d_prev)
    if frame.det() != 1:
        raise NotDelzant(
            f"corner at {polygon.vertex(index).text()} has frame determinant {frame.det()}"
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
    form = polygon.integer
    return _from_integers(form.scale, [(x * k, y * k) for x, y in form.vertices])


def translate(polygon: Polygon, offset: Vec2) -> Polygon:
    return Polygon(tuple(v + offset for v in polygon.vertices))
