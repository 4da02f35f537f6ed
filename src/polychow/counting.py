"""Lattice point enumeration and the degree-2 counting polynomials.

Enumeration is the single source of truth here. Each row of a dilation
runs from a floor bound on its left chain edge to one on its right edge.
The polygon's integer form holds the chains of the first dilation, built
by its constructor's edge loop. One kernel, `_dilation_moments`, charges
the rows of each dilation it is given just before its scan and sums the
bounds edge by edge with floor sums into (count, sum of x, sum of y), in
O(log) steps per edge and without visiting a row; every count or sum
below is one call to it. `lattice_points` takes its count from it, is
charged for rows plus points before it visits any row, and lists each
edge's rows from the same bounds into per-column lists; there is no
separate row scan and no sort of the points.
The Ehrhart polynomial comes from Pick's theorem and the point-sum
polynomial from the Euler-Maclaurin form of the lattice-normalized
boundary measure, with one enumerated constant; one builder checks both
against the enumerated moments at dilations 1, 2 and 3, once per polygon
object, and a mismatch raises InternalInconsistency instead of returning
a silently wrong polynomial.
"""

from __future__ import annotations

import os
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import EnumerationLimitExceeded, InternalInconsistency, NotLatticePolygon
from .geometry import (
    AffineMap,
    Polygon,
    Vec2,
    ZERO_VEC,
    is_lattice,
)

MAX_ENUM_ENV = "POLYCHOW_MAX_ENUM"
DEFAULT_MAX_ENUM = 10**8


def _max_enum() -> int:
    """The cap in POLYCHOW_MAX_ENUM, read at each call, or DEFAULT_MAX_ENUM
    when it is unset; a value that is not a positive integer is refused."""
    raw = os.environ.get(MAX_ENUM_ENV)
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        budget = int(raw)
    except ValueError as exc:
        raise EnumerationLimitExceeded(f"{MAX_ENUM_ENV} is not an integer: {raw!r}") from exc
    if budget < 1:
        raise EnumerationLimitExceeded(f"{MAX_ENUM_ENV} must be positive, got {budget}")
    return budget


def _over_cap(work: str, budget: int) -> EnumerationLimitExceeded:
    return EnumerationLimitExceeded(
        f"{work}, over the cap of {budget} (set {MAX_ENUM_ENV} to raise the cap)"
    )


def _charge_budget(units: int, what: str, *parts: object) -> None:
    """Refuse `units` of work over the cap in POLYCHOW_MAX_ENUM. `what`
    says what the work is, as a format string for `parts`; the message is
    formatted only when the work is refused."""
    budget = _max_enum()
    if units > budget:
        raise _over_cap(what.format(*parts), budget)


def _charge_dilations(polygon: Polygon, calls: int, top: int, knob: str) -> None:
    """Charge the rows that a loop of `calls` kernel calls at dilations up
    to `top` will scan, before its first dilation. Each call scans at most
    the rows of the top dilation, top * height + 1, so a stale large knob
    is refused at once instead of running until it is killed."""
    if calls < 1:
        return
    low, high = polygon.integer.heights
    rows = calls * (top * (high - low) // polygon.integer.scale + 1)
    _charge_budget(rows, "{} scans up to {} rows", knob, rows)


class ScalarPoly(NamedTuple):
    """Quadratic polynomial c2*i^2 + c1*i + c0 with exact coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, i: int) -> Fraction:
        return (self.c2 * i + self.c1) * i + self.c0

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c2, self.c1, self.c0)


class VecPoly(NamedTuple):
    """Quadratic polynomial with plane-vector coefficients."""

    c2: Vec2
    c1: Vec2
    c0: Vec2

    def __call__(self, i: int) -> Vec2:
        return (self.c2 * i + self.c1) * i + self.c0

    def is_zero(self) -> bool:
        return self.c2 == ZERO_VEC and self.c1 == ZERO_VEC and self.c0 == ZERO_VEC


def _floor_sums(a: int, c: int, b: int, n: int) -> tuple[int, int, int]:
    """(sum f, sum f^2, sum t*f) over t = 0 .. n-1 of f(t) = (a + c*t) // b,
    for b > 0 (zeros when n = 0), by the Euclidean floor-sum recursion:
    O(log b) steps, as in the AtCoder Library's floor_sum, carried to the
    f^2 and t*f moments. One chain edge's rows y = y0 .. y1 are
    t = y - y0 with a shifted to a + c*y0. n - 1 more than halves every two
    levels, so the recursion is at most about 2*log2(n) deep: under 60
    levels for the 10^8 rows of the default budget. A raised budget can
    admit rows past the interpreter's recursion limit, about 2^450 rows on
    golden-ratio slopes; `_dilation_moments` refuses those."""
    qa, a = divmod(a, b)
    qc, c = divmod(c, b)
    # f(t) = qa + qc*t + r(t) with r(t) = (a + c*t) // b and 0 <= a, c < b
    s1 = n * (n - 1) // 2
    s2 = s1 * (2 * n - 1) // 3
    s = qa * n + qc * s1
    q = qa * qa * n + 2 * qa * qc * s1 + qc * qc * s2
    t = qa * s1 + qc * s2
    m = (a + c * (n - 1)) // b  # the largest r(t): 0 when c is 0 or n is 1
    if m > 0:
        # r(t) counts the j < m with t > u(j) = (b*j + b - a - 1) // c, and
        # r(t)^2 sums 2j + 1 over the same j; f^2 gains 2*qa*r + 2*qc*t*r + r^2
        us, uq, ut = _floor_sums(b - a - 1, b, c, m)
        rs = m * (n - 1) - us
        rt = (m * n * (n - 1) - uq - us) // 2
        s += rs
        q += 2 * qa * rs + 2 * qc * rt + m * m * (n - 1) - 2 * ut - us
        t += rt
    return s, q, t


def _dilation_moments(polygon: Polygon, dilations: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(count, sum of x, sum of y) over the integer points of each dilation
    in turn, by floor sums over each chain edge's span of rows. The integer
    form is unpacked and the cap read once; each dilation's rows, every
    integer y between its lowest and highest vertex, are charged just
    before its own scan (row counts are not monotone in i on a rational
    polygon), so a caller that stops early pays for nothing more.

    The integer form (see `IntegerForm`) holds the heights and chains of
    the first dilation, scaled by the lcm L of the vertex denominators. Row
    y runs from -G(y) to F(y), the floors (a + c*y) // b of its left and
    right edges. Dilating by i scales the tops by i, a by i^2 and c and b
    by i, and (i^2*a + i*c*y) // (i*b) = (i*a + c*y) // b. An edge bounds
    the rows y0 .. y1 above the edge below it, up to y1 = i*top // L (none
    when y1 < y0). F + G + 1 >= 0 on every row of a convex polygon, so over
    the n rows count = sum F + sum G + n, 2 * sum x = sum F^2 + F - G^2 - G
    and sum y = sum y*F + sum y*G + sum y. Floor sums that recurse past the
    interpreter's limit raise EnumerationLimitExceeded.
    """
    form = polygon.integer
    scale, (low, high), right, left = form.scale, form.heights, form.right, form.left
    budget = 0  # read after the first dilation's check; a cap is >= 1
    for i in dilations:
        if i < 1:
            raise ValueError("dilation factor must be a positive integer")
        if not budget:
            budget = _max_enum()
        start, stop = -(-low * i // scale), high * i // scale + 1
        n = stop - start  # not a range's len(), which overflows past sys.maxsize
        if n > budget:
            raise _over_cap(f"enumeration scans {n} rows", budget)
        count, sx2, sy = n, 0, (start + stop - 1) * n // 2
        for chain, sign in ((right, 1), (left, -1)):
            y0 = start
            for top, a, c, b in chain:
                y1 = top * i // scale
                try:
                    f, f2, tf = _floor_sums(a * i + c * y0, c, b, y1 - y0 + 1)
                except RecursionError:
                    raise EnumerationLimitExceeded(
                        f"floor sums over {n} rows recurse past the interpreter's limit"
                    ) from None
                count += f
                sx2 += sign * (f2 + f)
                sy += y0 * f + tf
                y0 = y1 + 1
        yield count, sx2 // 2, sy


def lattice_moments(polygon: Polygon, i: int) -> tuple[int, int, int]:
    """(count, sum of x, sum of y) over the integer points of the i-th
    dilation: one dilation of `_dilation_moments`."""
    return next(_dilation_moments(polygon, (i,)))


def lattice_points(polygon: Polygon, i: int) -> list[tuple[int, int]]:
    """All integer points of the i-th dilation, lexicographically sorted.
    `lattice_moments` counts the points first, and the rows plus the points
    are charged to the budget before any row is visited; then each chain
    edge of the integer form bounds each row of its span, as in
    `_dilation_moments`, one floor division per row. Rows are visited
    bottom to top into per-column lists, joined by sorted x: no sort of
    the points. Columns are keyed by x, as a thin slanted polygon can be
    far wider than its rows plus points."""
    count = lattice_moments(polygon, i)[0]
    form = polygon.integer
    scale, (low, high) = form.scale, form.heights
    rows = range(-(-low * i // scale), high * i // scale + 1)
    n = rows.stop - rows.start
    _charge_budget(n + count, "point listing scans {} rows plus {} points", n, count)
    f_rows: list[int] = []  # F(y), the last point of each row
    g_rows: list[int] = []  # G(y), minus the first point of each row
    for chain, bounds in ((form.right, f_rows), (form.left, g_rows)):
        y0 = rows.start
        for top, a, c, b in chain:
            y1 = top * i // scale
            bounds += [(a * i + c * y) // b for y in range(y0, y1 + 1)]
            y0 = y1 + 1
    # a row without points has F + G = -1 and adds nothing
    columns: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for y, f, g in zip(rows, f_rows, g_rows):
        for x in range(-g, f + 1):
            columns[x].append((x, y))
    return [point for x in sorted(columns) for point in columns[x]]


def ehrhart_eval(polygon: Polygon, i: int) -> int:
    """Number of lattice points of the i-th dilation."""
    return lattice_moments(polygon, i)[0]


def sum_points(polygon: Polygon, i: int) -> Vec2:
    """Sum of the sample points of the i-th subdivision: the lattice points
    of the i-th dilation divided by i."""
    _, sx, sy = lattice_moments(polygon, i)
    return Vec2(Fraction(sx, i), Fraction(sy, i))


def _counting_and_sum_polys(polygon: Polygon) -> tuple[int, int]:
    """12 times the constant of the point-sum polynomial of a lattice
    polygon, as the int pair (cx, cy), after checking the counting and
    point-sum polynomials against enumeration.

    Every coefficient is an int of the polygon's integer form
    (a2, b, M, BM), with scale 1 on a lattice polygon. Pick's theorem
    gives twice the count of the i-th dilation as a2*i^2 + b*i + 2.
    Euler-Maclaurin with the lattice-normalized boundary measure gives 12
    times its coordinate sums as 2*M*i^3 + 3*BM*i^2 + C*i, so
    s(i) = (M/6)*i^2 + (BM/4)*i + C/12 with C = 12*s(1) - 2*M - 3*BM from
    the scan at i = 1. One kernel call scans i = 1, 2, 3, checking E at all
    three and s at 2 and 3 in those ints; the first mismatch raises
    InternalInconsistency and scans no more. Callers build Fractions once.

    The gate runs once per polygon object: once it passes, (cx, cy) is
    stored in `Polygon._sum_constant` and returned by later calls. A gate
    that fails stores nothing.
    """
    if polygon._sum_constant is not None:
        return polygon._sum_constant
    if not is_lattice(polygon):
        raise NotLatticePolygon("counting and sum polynomials need integral vertices")
    form = polygon.integer
    a2, b = form.twice_area, form.boundary_length
    (mx, my), (bx, by) = form.moment, form.boundary_moment
    for i, (count, sx, sy) in enumerate(_dilation_moments(polygon, (1, 2, 3)), 1):
        if i == 1:
            cx, cy = 12 * sx - 2 * mx - 3 * bx, 12 * sy - 2 * my - 3 * by
        e2 = (a2 * i + b) * i + 2
        x12 = ((2 * mx * i + 3 * bx) * i + cx) * i
        y12 = ((2 * my * i + 3 * by) * i + cy) * i
        if (e2, x12, y12) != (2 * count, 12 * sx, 12 * sy):
            raise InternalInconsistency(
                f"counting and sum polynomials of polygon {polygon.vertex_text()} disagree "
                f"with enumeration at i={i}: closed form E = {Fraction(e2, 2)}, "
                f"s = ({Fraction(x12, 12 * i)}, {Fraction(y12, 12 * i)}); enumerated "
                f"E = {count}, s = ({Fraction(sx, i)}, {Fraction(sy, i)})"
            )
    object.__setattr__(polygon, "_sum_constant", (cx, cy))
    return cx, cy


def ehrhart_poly(polygon: Polygon) -> ScalarPoly:
    """Counting polynomial of a lattice polygon, by Pick's theorem:
    (a2/2)*i^2 + (b/2)*i + 1, checked by `_counting_and_sum_polys`."""
    _counting_and_sum_polys(polygon)
    form = polygon.integer
    return ScalarPoly(Fraction(form.twice_area, 2), Fraction(form.boundary_length, 2), Fraction(1))


def sum_poly(polygon: Polygon) -> VecPoly:
    """Point-sum polynomial of a lattice polygon, by Euler-Maclaurin:
    (M/6)*i^2 + (BM/4)*i + C/12, checked by `_counting_and_sum_polys`."""
    cx, cy = _counting_and_sum_polys(polygon)
    (mx, my), (bx, by) = polygon.integer.moment, polygon.integer.boundary_moment
    return VecPoly(
        Vec2(Fraction(mx, 6), Fraction(my, 6)),
        Vec2(Fraction(bx, 4), Fraction(by, 4)),
        Vec2(Fraction(cx, 12), Fraction(cy, 12)),
    )


def p_delta(polygon: Polygon, f: AffineMap, i: int) -> Vec2:
    """Sum of f over the sample points of the i-th subdivision, from one
    scan. Because f is affine the pointwise sum factors exactly as
    f_linear(sum of points) + count * offset, with the raw sums over i."""
    count, sx, sy = lattice_moments(polygon, i)
    return f._apply_over(sx, sy, i, count)
