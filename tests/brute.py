"""Independent brute-force oracle used by the tests.

Everything here works on plain coordinate tuples and deliberately uses
different algorithms from the library: membership tests over a bounding
box instead of a row scan, Green's theorem edge sums instead of fan
triangulation. Closed forms in the library must match these routines
exactly; the oracle never calls back into the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd


def frac_points(coords):
    return [(Fraction(x), Fraction(y)) for x, y in coords]


def shoelace_area(coords) -> Fraction:
    pts = frac_points(coords)
    total = Fraction(0)
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        total += x1 * y2 - x2 * y1
    return total / 2


def green_moment(coords) -> tuple[Fraction, Fraction]:
    """Moment integral via boundary integrals of x^2/2 dy and -y^2/2 dx."""
    pts = frac_points(coords)
    mx = Fraction(0)
    my = Fraction(0)
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        mx += (y2 - y1) * (x1 * x1 + x1 * x2 + x2 * x2) / 6
        my -= (x2 - x1) * (y1 * y1 + y1 * y2 + y2 * y2) / 6
    return (mx, my)


def fan_moment(coords) -> tuple[Fraction, Fraction]:
    """Moment integral by fan triangulation from the first vertex: each
    triangle contributes its area times its centroid."""
    pts = frac_points(coords)
    mx = Fraction(0)
    my = Fraction(0)
    (px, py) = pts[0]
    for (qx, qy), (rx, ry) in zip(pts[1:], pts[2:]):
        tri_area = ((qx - px) * (ry - py) - (qy - py) * (rx - px)) / 2
        mx += tri_area * (px + qx + rx) / 3
        my += tri_area * (py + qy + ry) / 3
    return (mx, my)


def denominator_lcm(coords) -> int:
    result = 1
    for x, y in frac_points(coords):
        for c in (x, y):
            result = result * c.denominator // gcd(result, c.denominator)
    return result


def contains(coords, x: Fraction, y: Fraction) -> bool:
    pts = frac_points(coords)
    for i in range(len(pts)):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % len(pts)]
        if (qx - px) * (y - py) - (qy - py) * (x - px) < 0:
            return False
    return True


def enumerate_points(coords, i: int) -> list[tuple[int, int]]:
    """Integer points of the i-th dilation by exhaustive membership test."""
    scaled = [(Fraction(x) * i, Fraction(y) * i) for x, y in coords]
    xs = [p[0] for p in scaled]
    ys = [p[1] for p in scaled]
    found = []
    for x in range(ceil(min(xs)), floor(max(xs)) + 1):
        for y in range(ceil(min(ys)), floor(max(ys)) + 1):
            if contains(scaled, Fraction(x), Fraction(y)):
                found.append((x, y))
    return found


def count_points(coords, i: int) -> int:
    return len(enumerate_points(coords, i))


def scan_rows(coords, i: int) -> int:
    """Number of integer y between the lowest and highest vertex of the
    i-th dilation: the rows a row scan visits."""
    ys = [Fraction(y) * i for _, y in coords]
    return max(0, floor(max(ys)) - ceil(min(ys)) + 1)


def point_sum(coords, i: int) -> tuple[Fraction, Fraction]:
    pts = enumerate_points(coords, i)
    return (
        Fraction(sum(p[0] for p in pts), i),
        Fraction(sum(p[1] for p in pts), i),
    )


def boundary_points(coords) -> set[tuple[int, int]]:
    """Integer points on the boundary: solve each edge for integral x
    (or integral y on vertical edges) and keep points with both
    coordinates integral."""
    pts = frac_points(coords)
    found: set[tuple[int, int]] = set()
    for i in range(len(pts)):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % len(pts)]
        dx, dy = qx - px, qy - py
        if dx != 0:
            for x in range(ceil(min(px, qx)), floor(max(px, qx)) + 1):
                t = (x - px) / dx
                if 0 <= t <= 1:
                    y = py + t * dy
                    if y.denominator == 1:
                        found.add((x, int(y)))
        elif px.denominator == 1:
            for y in range(ceil(min(py, qy)), floor(max(py, qy)) + 1):
                found.add((int(px), y))
    return found


def segment_lattice_points(p: tuple[int, int], q: tuple[int, int]) -> list[tuple[int, int]]:
    """Integer points on the closed segment from p to q, in order from p."""
    (px, py), (qx, qy) = p, q
    steps = gcd(qx - px, qy - py)
    if steps == 0:
        return [(px, py)]
    ux, uy = (qx - px) // steps, (qy - py) // steps
    return [(px + j * ux, py + j * uy) for j in range(steps + 1)]


def edge_lattice_data(coords):
    """(lattice length, midpoint) per edge, from primitive directions."""
    pts = frac_points(coords)
    data = []
    for i in range(len(pts)):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % len(pts)]
        dx, dy = qx - px, qy - py
        denom_scale = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
        g = gcd(abs(int(dx * denom_scale)), abs(int(dy * denom_scale)))
        length = Fraction(g, denom_scale)
        data.append((length, ((px + qx) / 2, (py + qy) / 2)))
    return data


def lattice_boundary_length(coords) -> Fraction:
    return sum(length for length, _ in edge_lattice_data(coords))


def lattice_boundary_moment(coords) -> tuple[Fraction, Fraction]:
    mx = Fraction(0)
    my = Fraction(0)
    for length, (cx, cy) in edge_lattice_data(coords):
        mx += length * cx
        my += length * cy
    return (mx, my)


def primitive_triple(triple) -> tuple[int, int, int]:
    g = gcd(gcd(abs(triple[0]), abs(triple[1])), abs(triple[2]))
    if g == 0:
        raise ValueError("projective coordinates cannot all vanish")
    sign = -1 if next(c for c in triple if c != 0) < 0 else 1
    return tuple(sign * c // g for c in triple)


def mukai_brute(points) -> tuple[str, int, tuple[int, int, int], int, Fraction, Fraction]:
    """Incidence test by rescanning every point for every line through two
    of them: (verdict, witness dim, coordinates, incident, ratio, bound).

    Candidates are the points and the lines through two or more of them;
    the witness has the largest incident/n - (dim+1)/3, ties broken by
    dimension then coordinates.
    """
    n = len(points)
    candidates = [(Fraction(1, n) - Fraction(1, 3), 0, tuple(p), 1) for p in points]
    seen = set()
    for a in range(n):
        for b in range(a + 1, n):
            p, q = points[a], points[b]
            line = primitive_triple((
                p[1] * q[2] - p[2] * q[1],
                p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0],
            ))
            if line in seen:
                continue
            seen.add(line)
            incident = sum(1 for r in points if sum(u * v for u, v in zip(line, r)) == 0)
            candidates.append((Fraction(incident, n) - Fraction(2, 3), 1, line, incident))
    top = max(c[0] for c in candidates)
    _, dim, coords, incident = min(c for c in candidates if c[0] == top)
    verdict = "Unstable" if top > 0 else "Borderline" if top == 0 else "Stable"
    return verdict, dim, coords, incident, Fraction(incident, n), Fraction(dim + 1, 3)


def group_closure(generators, cap: int = 6) -> frozenset[tuple[int, int, int, int]] | None:
    """Breadth-first closure of row-major 4-tuples under right multiplication
    by the generators, from the identity; None once it passes `cap`
    elements (every finite subgroup of SL2(Z) has at most 6)."""
    identity = (1, 0, 0, 1)
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a, b, c, d in frontier:
            for ga, gb, gc, gd in generators:
                product = (a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd)
                if product not in elements:
                    elements.add(product)
                    fresh.append(product)
                    if len(elements) > cap:
                        return None
        frontier = fresh
    return frozenset(elements)
