"""Independent oracle for the benchmark's outputs.

Nothing here imports polychow. Polygons are plain lists of coordinate
pairs in counter-clockwise order; vectors are (x, y) tuples of Fractions.

Only the small catalog bases are enumerated (by a bounding-box membership
test, not a row scan). Every larger input is reached from a base by
properties the library's results must satisfy:

- Pick: E(i) = A*i^2 + (b/2)*i + 1 for a lattice polygon with area A and
  b boundary lattice points.
- Euler-Maclaurin: the point-sum polynomial s(i) (lattice points of iP,
  divided by i) has c2 = moment integral and c1 = boundary moment / 2.
- Dilation: E_kP(i) = E_P(k*i) and s_kP(i) = k * s_P(k*i).
- Unimodular transport: for Q = U P + t, E_Q = E_P and
  s_Q(i) = U s_P(i) + t * E_P(i).
- Chow weight: chow(i) = Vol * s(i) - E(i) * moment.
- A corner triangle with legs m along a unimodular frame has area m^2/2,
  m(m+1)/2 lattice points off its seam, and those points sum to
  count * vertex + (e1 + e2) * (m-1)m(m+1)/6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, floor, gcd, lcm

F = Fraction
ZERO = (F(0), F(0))


class OracleError(Exception):
    """The oracle disagrees with itself: a defect of the benchmark."""


# --------------------------------------------------------------------- vectors

def vadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def vsub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def vmul(u, s):
    return (u[0] * s, u[1] * s)


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def mat_apply(u, v):
    """2x2 integer matrix u = (a, b, c, d), row-major, applied to v."""
    a, b, c, d = u
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def mat_mul(u, v):
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(u):
    """Inverse of a determinant-one integer matrix."""
    a, b, c, d = u
    if a * d - b * c != 1:
        raise OracleError(f"{u} is not unimodular")
    return (d, -b, -c, a)


def as_point(p):
    return (F(p[0]), F(p[1]))


# ----------------------------------------------------------- plane geometry

def shoelace_area(verts) -> Fraction:
    pts = [as_point(p) for p in verts]
    n = len(pts)
    return sum((cross(pts[j], pts[(j + 1) % n]) for j in range(n)), F(0)) / 2


def green_moment(verts):
    """Integral of (x, y) over the polygon by Green's theorem."""
    pts = [as_point(p) for p in verts]
    n = len(pts)
    mx = my = F(0)
    for j in range(n):
        (x1, y1), (x2, y2) = pts[j], pts[(j + 1) % n]
        mx += (y2 - y1) * (x1 * x1 + x1 * x2 + x2 * x2) / 6
        my -= (x2 - x1) * (y1 * y1 + y1 * y2 + y2 * y2) / 6
    return (mx, my)


def primitive(d):
    """Primitive integer vector along the rational vector d, and the number
    of primitive steps d spans."""
    scale = lcm(F(d[0]).denominator, F(d[1]).denominator)
    mx, my = int(d[0] * scale), int(d[1] * scale)
    g = gcd(mx, my)
    if g == 0:
        raise OracleError("zero edge")
    return (mx // g, my // g), F(g, scale)


def boundary_length(verts) -> Fraction:
    """Lattice length of the boundary (the gcd count on lattice edges)."""
    pts = [as_point(p) for p in verts]
    n = len(pts)
    return sum((primitive(vsub(pts[(j + 1) % n], pts[j]))[1] for j in range(n)), F(0))


def boundary_moment(verts):
    """Integral of (x, y) over the boundary, each edge weighted by its
    lattice length."""
    pts = [as_point(p) for p in verts]
    n = len(pts)
    acc = ZERO
    for j in range(n):
        p, q = pts[j], pts[(j + 1) % n]
        acc = vadd(acc, vmul(vadd(p, q), primitive(vsub(q, p))[1] / 2))
    return acc


def canonical_order(verts):
    """Counter-clockwise vertex list starting at the lexicographically
    smallest vertex (the input is counter-clockwise already)."""
    pts = [as_point(p) for p in verts]
    if shoelace_area(pts) <= 0:
        raise OracleError("vertices are not counter-clockwise")
    start = pts.index(min(pts))
    return pts[start:] + pts[:start]


def corner_dirs(verts, j):
    """Primitive directions (towards next, towards previous) at vertex j."""
    n = len(verts)
    v = as_point(verts[j])
    return (primitive(vsub(as_point(verts[(j + 1) % n]), v))[0],
            primitive(vsub(as_point(verts[j - 1]), v))[0])


def is_delzant(verts) -> bool:
    pts = [as_point(p) for p in verts]
    if any(c.denominator != 1 for p in pts for c in p):
        return False
    return all(cross(*corner_dirs(pts, j)) == 1 for j in range(len(pts)))


def denominator_lcm(verts) -> int:
    return lcm(*(F(c).denominator for p in verts for c in p))


def enumerate_points(verts, i: int = 1):
    """(count, sum x, sum y) over the integer points of i*P, by testing
    every point of the bounding box against every edge."""
    pts = [vmul(as_point(p), i) for p in verts]
    n = len(pts)
    count = sx = sy = 0
    for x in range(ceil(min(p[0] for p in pts)), floor(max(p[0] for p in pts)) + 1):
        for y in range(ceil(min(p[1] for p in pts)), floor(max(p[1] for p in pts)) + 1):
            if all(cross(vsub(pts[(j + 1) % n], pts[j]), (x - pts[j][0], y - pts[j][1])) >= 0
                   for j in range(n)):
                count += 1
                sx += x
                sy += y
    return count, sx, sy


# ------------------------------------------------------ counting polynomials

@dataclass(frozen=True)
class PolyData:
    """Everything the Chow weight of a lattice polygon needs.

    `e` holds the Ehrhart coefficients (e2, e1, e0) and `s` the point-sum
    coefficients (c2, c1, c0), each a vector.
    """

    verts: tuple
    area: Fraction
    moment: tuple
    e: tuple
    s: tuple

    def count(self, i: int) -> Fraction:
        e2, e1, e0 = self.e
        return (e2 * i + e1) * i + e0

    def point_sum(self, i: int):
        """Lattice points of iP summed, divided by i."""
        c2, c1, c0 = self.s
        return vadd(vadd(vmul(c2, i * i), vmul(c1, i)), c0)

    def chow(self, i: int):
        return vsub(vmul(self.point_sum(i), self.area), vmul(self.moment, self.count(i)))

    def chow_poly(self):
        """(c2, c1, c0) of the Chow weight."""
        return tuple(vsub(vmul(c, self.area), vmul(self.moment, e)) for c, e in zip(self.s, self.e))


def _closed_forms(verts, c0):
    """Pick and Euler-Maclaurin on the given vertices, with the sum
    polynomial's constant term supplied."""
    area = shoelace_area(verts)
    moment = green_moment(verts)
    b = boundary_length(verts)
    bm = boundary_moment(verts)
    return PolyData(tuple(as_point(p) for p in verts), area, moment,
                    (area, b / 2, F(1)), (moment, vmul(bm, F(1, 2)), c0))


@lru_cache(maxsize=None)
def base_data(verts: tuple) -> PolyData:
    """Closed forms of a small lattice base, with the sum polynomial's
    constant term taken from enumeration at i = 1 and both polynomials
    checked against enumeration at i = 1, 2, 3."""
    count1, sx1, sy1 = enumerate_points(verts, 1)
    partial = _closed_forms(verts, ZERO)
    c0 = vsub((F(sx1), F(sy1)), partial.point_sum(1))
    data = _closed_forms(verts, c0)
    for i in (1, 2, 3):
        count, sx, sy = enumerate_points(verts, i)
        if data.count(i) != count or data.point_sum(i) != (F(sx, i), F(sy, i)):
            raise OracleError(f"Pick or Euler-Maclaurin fails on {verts} at i={i}")
    return data


def transported(base: tuple, u=(1, 0, 0, 1), t=(0, 0), k: int = 1) -> PolyData:
    """Data of k * (U * base + t), from the base's enumerated data carried
    by unimodular transport and dilation. The area, moments and boundary
    terms are recomputed from the image's own vertices and must agree."""
    data = base_data(tuple(base))
    t = as_point(t)
    c0 = vmul(vadd(mat_apply(u, data.s[2]), t), k)
    verts = [vmul(vadd(mat_apply(u, v), t), k) for v in data.verts]
    image = _closed_forms(verts, c0)
    expected_c2 = vmul(vadd(mat_apply(u, data.s[0]), vmul(t, data.area)), k ** 3)
    expected_c1 = vmul(vadd(mat_apply(u, data.s[1]), vmul(t, data.e[1])), k ** 2)
    if (image.area != data.area * k * k or image.s[0] != expected_c2
            or image.s[1] != expected_c1 or image.e[1] != data.e[1] * k):
        raise OracleError("transported closed forms disagree with the image's own")
    return image


def affine_chow(data: PolyData, linear, i: int):
    """Chow weight for f(x) = L x + offset: the offset cancels, leaving
    L applied to the coordinate Chow weight."""
    xx, xy, yx, yy = linear
    c = data.chow(i)
    return (xx * c[0] + xy * c[1], yx * c[0] + yy * c[1])


def span_dim(c1, c0) -> int:
    if c1 == ZERO and c0 == ZERO:
        return 0
    return 2 if cross(c1, c0) != 0 else 1


# ------------------------------------------------------------- corner chops

@dataclass(frozen=True)
class Chop:
    """Oracle view of a corner-chop decomposition of a lattice base."""

    k: int
    m: tuple
    frames: tuple          # per cut: (e_next, e_prev)
    chopped: tuple         # unscaled chopped vertices, counter-clockwise
    simplices: tuple       # per cut: (vertex, m, e_next, e_prev) at scale k
    base: PolyData         # k * base
    a_const: int
    b_const: int

    def count(self, i: int) -> Fraction:
        total = self.base.count(i)
        for _, m, _, _ in self.simplices:
            legs = i * m
            total -= F(legs * (legs + 1), 2)
        return total

    def raw_sum(self, i: int):
        """Lattice points of i*k*chopped, summed (not divided by i)."""
        total = vmul(self.base.point_sum(i), i)
        for v, m, e1, e2 in self.simplices:
            legs = i * m
            removed = vadd(vmul(vmul(v, i), F(legs * (legs + 1), 2)),
                           vmul(vadd(e1, e2), F((legs - 1) * legs * (legs + 1), 6)))
            total = vsub(total, removed)
        return total

    @cached_property
    def area(self) -> Fraction:
        return self.base.area - sum((F(m * m, 2) for _, m, _, _ in self.simplices), F(0))

    @cached_property
    def moment(self):
        return green_moment([vmul(p, self.k) for p in self.chopped])

    def chow(self, i: int):
        return vsub(vmul(self.raw_sum(i), self.area / i), vmul(self.moment, self.count(i)))

    def chow_poly(self):
        """(c1, c0) of the scaled chopped polygon's Chow weight, checked to
        be of degree at most one."""
        w1, w2, w3, w4 = (self.chow(i) for i in (1, 2, 3, 4))
        c1 = vsub(w2, w1)
        c0 = vsub(w1, c1)
        if w3 != vadd(vmul(c1, 3), c0) or w4 != vadd(vmul(c1, 4), c0):
            raise OracleError("Chow weight of the chopped polygon is not linear in i")
        return c1, c0


def chop(base, u, t, cuts) -> Chop:
    """Chop U * base + t; cuts are (vertex index into the counter-clockwise
    base, depth)."""
    verts = transported(base, u, t).verts
    depth = {j: F(d) for j, d in cuts}
    walk = []
    frames = {}
    for j, v in enumerate(verts):
        if j not in depth:
            walk.append(v)
            continue
        e_next, e_prev = corner_dirs(verts, j)
        if cross(e_next, e_prev) != 1:
            raise OracleError(f"cut vertex {v} is not smooth")
        frames[j] = (e_next, e_prev)
        walk.append(vadd(v, vmul(e_prev, depth[j])))
        walk.append(vadd(v, vmul(e_next, depth[j])))
    k = denominator_lcm(walk)
    order = [j for j, _ in cuts]
    m = tuple(int(depth[j] * k) for j in order)
    scaled = transported(base, u, t, k)
    simplices = tuple((vmul(verts[j], k), mj) + frames[j] for j, mj in zip(order, m))
    result = Chop(k, m, tuple(frames[j] for j in order), tuple(walk), simplices, scaled,
                  int(2 * scaled.e[1] - sum(m)), int(2 * scaled.area - sum(x * x for x in m)))
    if result.area != shoelace_area([vmul(p, k) for p in walk]):
        raise OracleError("corner triangle areas do not add up")
    return result


def sum_rule_residuals(c: Chop) -> dict:
    """Residuals of the corner-chop sum rule for 1, x1, x2 (k = 1 only)."""
    if c.k != 1:
        raise OracleError("the sum rule needs k = 1")
    area_chop = c.area
    moment_chop = c.moment
    count_chop = c.count(1)
    sum_chop = c.raw_sum(1)
    c_chop = count_chop / area_chop
    c_base = c.base.count(1) / c.base.area
    residuals = {}
    for name, cx, cy, c0 in (("1", 0, 0, 1), ("x1", 1, 0, 0), ("x2", 0, 1, 0)):
        def integral(area, moment):
            return cx * moment[0] + cy * moment[1] + c0 * area

        lhs = cx * sum_chop[0] + cy * sum_chop[1] + c0 * count_chop
        rhs = c_chop * integral(area_chop, moment_chop)
        rhs += (c_base - c_chop) * integral(c.base.area, c.base.moment)
        simplex_total = F(0)
        for v, m, e1, e2 in c.simplices:
            area = F(m * m, 2)
            centroid = vadd(v, vmul(vadd(e1, e2), F(m, 3)))
            simplex_total += integral(area, vmul(centroid, area))
            seam_sum = vmul(vadd(v, vmul(vadd(e1, e2), F(m, 2))), m + 1)
            rhs += cx * seam_sum[0] + cy * seam_sum[1] + c0 * (m + 1)
        rhs += (c_chop - 6) * simplex_total
        residuals[name] = lhs - rhs
    return residuals


def fo_value(count, raw_point_sum, i, area, moment):
    """Average of the sample points of iP minus the barycenter."""
    return (raw_point_sum[0] / (i * count) - moment[0] / area,
            raw_point_sum[1] / (i * count) - moment[1] / area)


# ----------------------------------------------------------------- incidence

def primitive_triple(raw):
    g = gcd(*raw)
    if g == 0:
        raise OracleError("zero projective point")
    triple = tuple(c // g for c in raw)
    for c in triple:
        if c != 0:
            return triple if c > 0 else tuple(-x for x in triple)
    raise OracleError("zero projective point")


def cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def mukai(points):
    """(verdict, dim, coordinates, incident, ratio, bound) from the largest
    number of collinear points, found by hashing the line through each
    point towards every other point."""
    pts = [primitive_triple(p) for p in points]
    n = len(pts)
    if len(set(pts)) != n:
        raise OracleError("duplicate points")
    best, best_lines = 1, set()
    for a in range(n):
        through = {}
        for b in range(n):
            if b != a:
                line = primitive_triple(cross3(pts[a], pts[b]))
                through[line] = through.get(line, 1) + 1
        for line, incident in through.items():
            if incident > best:
                best, best_lines = incident, {line}
            elif incident == best:
                best_lines.add(line)
    point_margin = F(1, n) - F(1, 3)
    line_margin = F(best, n) - F(2, 3) if n > 1 else None
    if line_margin is None or point_margin >= line_margin:
        top, dim, coords, incident = point_margin, 0, min(pts), 1
    else:
        top, dim, coords, incident = line_margin, 1, min(best_lines), best
    verdict = "Unstable" if top > 0 else "Borderline" if top == 0 else "Stable"
    return verdict, dim, coords, incident, F(incident, n), F(dim + 1, 3)


def group_closure(generators):
    """Elements (row-major tuples) of the group the matrices generate."""
    identity = (1, 0, 0, 1)
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for h in generators:
                p = mat_mul(g, h)
                if p not in elements:
                    elements.add(p)
                    fresh.append(p)
        if len(elements) > 1000:
            raise OracleError("group is not finite")
        frontier = fresh
    return frozenset(elements)


def weakly_symmetric(verts, elements) -> bool:
    vset = {as_point(p) for p in verts}
    if any({mat_apply(g, v) for v in vset} != vset for g in elements):
        return False
    return tuple(sum(g[j] for g in elements) for j in range(4)) == (0, 0, 0, 0)


def sha256_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def fmt(value) -> str:
    value = F(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def fmt_vec(v):
    return [fmt(v[0]), fmt(v[1])]


# ------------------------------------------------------- hand-computed cases

def _expect(holds: bool, what: str) -> None:
    if not holds:
        raise OracleError(f"hand-computed case fails: {what}")


def self_check() -> None:
    """The oracle against values computed by hand."""
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    d = base_data(square)
    _expect(d.area == 1 and d.moment == (F(1, 2), F(1, 2)), "unit square area and moment")
    _expect(d.e == (1, 2, 1), "unit square E(i) = (i+1)^2")
    _expect(d.s == ((F(1, 2), F(1, 2)), (1, 1), (F(1, 2), F(1, 2))),
            "unit square s(i) = (i+1)^2 / 2 per coordinate")
    _expect(d.chow_poly() == (ZERO, ZERO, ZERO), "unit square Chow weight vanishes")
    triangle = ((0, 0), (3, 0), (0, 3))
    t = base_data(triangle)
    _expect(t.e == (F(9, 2), F(9, 2), 1), "degree-3 triangle E(i) = 9/2 i^2 + 9/2 i + 1")
    _expect(t.count(1) == 10 and t.count(2) == 28, "degree-3 triangle counts 10, 28")
    _expect(t.s[:2] == ((F(9, 2), F(9, 2)), (F(9, 2), F(9, 2))),
            "degree-3 triangle moment and half boundary moment")
    _expect(transported(triangle, (1, 1, 0, 1), (2, -1), 2).count(1) == 28,
            "transport and dilation keep counts")
    hexagon = chop(triangle, (1, 0, 0, 1), (0, 0), [(0, 1), (1, 1), (2, 1)])
    _expect(hexagon.area == 3 and hexagon.count(1) == 7, "three corner chops give the hexagon")
    _expect(hexagon.chow_poly() == (ZERO, ZERO), "hexagon Chow weight vanishes")
    _expect(mukai([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])[0] == "Stable",
            "four general points are stable")
    _expect(mukai([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])[:4] == ("Unstable", 1, (0, 0, 1), 3),
            "three of four points on z = 0 are unstable")
    _expect(len(group_closure([(1, -1, 1, 0)])) == 6, "order-6 rotation")
