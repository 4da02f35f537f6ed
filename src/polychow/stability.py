"""Stability obstructions: averaged-point invariant, symmetry tests, the
unimodular corner-chop sum rule, and the incidence criterion for point
blow-ups of the projective plane.

The averaged-point invariant of a polygon at dilation i is the difference
between the average of the coordinate vector over the sample points and
its average over the polygon; it vanishes for every dilation when the
polarized toric surface is asymptotically Chow semistable. An affine test
function reduces to a dot product with this vector (constants cancel
between the two averages), so the invariant is exposed as a vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    DuplicatePoint,
    EmptyConfiguration,
    GroupClosureOverflow,
    HypothesisNotMet,
)
from .geometry import (
    IntMat2,
    Polygon,
    Vec2,
    _over_common_denominator,
    area,
    to_fraction,
)
from .counting import _charge_budget, lattice_moments
from .chow import _polygon_weight
from .blowup import Decomposition, _seam

# every finite subgroup of SL2(Z) is cyclic of order 1, 2, 3, 4 or 6, so a
# closure past 6 elements has shown that the group is infinite
GROUP_CLOSURE_CAP = 6
_CLOSURE_OVERFLOW = (
    f"group closure exceeds {GROUP_CLOSURE_CAP} elements; the generated group is infinite"
)
_IDENTITY = IntMat2.identity()

FACTORIAL_N_PLUS_1 = 6  # (n+1)! in the plane


def fo_invariant(polygon: Polygon, i: int) -> Vec2:
    """Average of the sample points minus the barycenter, at dilation i:
    the Chow weight of the coordinate function over Vol * count.
    `chow._polygon_weight` is 6 L^3 i times the Chow weight and its vol6 is
    6 L^3 Vol, so the invariant is the weight over vol6 i count."""
    moments = lattice_moments(polygon, i)
    count = moments[0]
    if count == 0:
        raise HypothesisNotMet(f"no sample points at dilation {i}")
    wx, wy, vol6 = _polygon_weight(polygon, moments, i)
    denominator = vol6 * i * count
    return Vec2(Fraction(wx, denominator), Fraction(wy, denominator))


def is_centrally_symmetric(polygon: Polygon) -> bool:
    """True when the polygon equals its own point reflection through 0,
    read on the integer vertex set: the reflection commutes with L."""
    vertices = polygon.integer.vertices
    return set(vertices) == {(-x, -y) for x, y in vertices}


class SymmetryGroup(NamedTuple):
    """A finite subgroup of the determinant-one integer matrices, closed
    under multiplication. Built from generators via `generated_by`, which
    walks each generator's powers and multiplies them together: a finite
    subgroup of SL2(Z) is cyclic, so that product is the whole group. Its
    length is the group order, the number of its elements."""

    elements: frozenset[IntMat2]

    @classmethod
    def generated_by(cls, generators: list[IntMat2] | tuple[IntMat2, ...]) -> "SymmetryGroup":
        for a, b, c, d in generators:
            if a * d - b * c != 1:
                raise ValueError(f"generator [[{a}, {b}], [{c}, {d}]] must have determinant one")
        # Every finite subgroup of SL2(Z) is cyclic of order 1, 2, 3, 4 or
        # 6, so a finite group is abelian and equals the product set of its
        # generators' powers. The group so far is such a cyclic group <g>.
        # If a further generator h does not commute with g, neither of <g>
        # and <h> contains the other, so they meet in a proper subgroup of
        # each; and neither is {I} or {I, -I}, which are central, so both
        # have order 3, 4 or 6. Then |<g><h>| = |<g>| |<h>| / |<g> n <h>|
        # >= 8 > 6 (two groups of order 4 meeting in {I, -I} give 8), and
        # the product set past the cap refuses them.
        elements = {_IDENTITY}
        for ga, gb, gc, gd in generators:
            powers = {_IDENTITY}
            a, b, c, d = ga, gb, gc, gd
            while a != 1 or b or c or d != 1:
                if len(powers) == GROUP_CLOSURE_CAP:
                    raise GroupClosureOverflow(_CLOSURE_OVERFLOW)
                powers.add(IntMat2._make((a, b, c, d)))
                a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
            elements = {x @ p for p in powers for x in elements} if len(elements) > 1 else powers
            if len(elements) > GROUP_CLOSURE_CAP:
                raise GroupClosureOverflow(_CLOSURE_OVERFLOW)
        # filled one element at a time from the set's iteration, not copied
        # from the set whole, the frozenset lists its elements in the order
        # that tests/golden/library_repr.json pins
        return cls(frozenset(iter(elements)))

    def __len__(self) -> int:
        return len(self.elements)

    def element_sum(self) -> IntMat2:
        total = IntMat2(0, 0, 0, 0)
        for g in self.elements:
            total = total + g
        return total


def is_weakly_symmetric(polygon: Polygon, group: SymmetryGroup) -> bool:
    """True when every group element permutes the vertex set and the sum of
    the group elements is the zero matrix (so group-averaging annihilates
    every point of the polygon), compared on the integer vertex set."""
    vertex_set = set(polygon.integer.vertices)
    for a, b, c, d in group.elements:
        if {(a * x + b * y, c * x + d * y) for x, y in vertex_set} != vertex_set:
            return False
    return group.element_sum().is_zero()


def c_constant(polygon: Polygon) -> Fraction:
    """Lattice points per unit area at dilation one; equals (n+1)! for a
    unimodular simplex."""
    return Fraction(lattice_moments(polygon, 1)[0]) / area(polygon)


def sum_rule_residuals(decomposition: Decomposition) -> dict[str, Fraction]:
    """Residuals of the corner-chop sum rule for the test functions
    1, x1, x2.

    For each test function the lattice-point sum over the chopped polygon,
    less the lattice-point sums over the seams, is compared with one
    weighted sum of integrals: over the chopped polygon (weight c_chop),
    the base (c_base - c_chop) and each cut simplex (c_chop - 3!). The c
    are points-per-area constants at dilation one. The function 1 sums to
    the point count and integrates to the area; x1 and x2 sum to the
    coordinate sums and integrate to the moment. `blowup._seam` gives each
    seam's count and sums as ints, from its integer ends at k = 1. Both
    sides are enumerated or integrated directly, each polygon scanned
    once and each integral read from its integer form, one Fraction per
    residual. The residuals of a decomposition satisfying the hypotheses
    (k = 1 and a base whose averaged-point invariant vanishes) are zero.
    """
    d = decomposition
    if d.k != 1:
        raise HypothesisNotMet(
            f"the sum rule needs a lattice chopped polygon (k=1), got k={d.k}"
        )
    base = lattice_moments(d.base, 1)
    # a lattice base has points: its invariant vanishes with its weight
    if _polygon_weight(d.base, base, 1)[:2] != (0, 0):
        raise HypothesisNotMet("the base polygon's averaged-point invariant must vanish")
    count, sx, sy = lattice_moments(d.chopped, 1)
    # At k = 1 every polygon here has integer form scale 1: its area is
    # a2/2 and its moment integral M/6 in the ints of that form. Over
    # den = a2_base * a2_chop the weights c_base = 2 E_base / a2_base and
    # c_chop = 2 E_chop / a2_chop have int numerators, so the weighted
    # volume is an int over 2 den and the weighted moment one over 6 den.
    a2_base, a2_chop = d.base.integer.twice_area, d.chopped.integer.twice_area
    den = a2_base * a2_chop
    c_chop = 2 * count * a2_base
    weighted = [(d.chopped.integer, c_chop), (d.base.integer, 2 * base[0] * a2_chop - c_chop)]
    weighted += [(simplex.integer, c_chop - FACTORIAL_N_PLUS_1 * den) for simplex in d.simplices]
    volume = moment_x = moment_y = 0
    for form, weight in weighted:
        volume += form.twice_area * weight
        moment_x += form.moment[0] * weight
        moment_y += form.moment[1] * weight
    for _, q, r in d._cut_points:
        seam_count, seam_x, seam_y = _seam(q, r, 1)
        count, sx, sy = count - seam_count, sx - seam_x, sy - seam_y
    return {
        "1": Fraction(2 * den * count - volume, 2 * den),
        "x1": Fraction(6 * den * sx - moment_x, 6 * den),
        "x2": Fraction(6 * den * sy - moment_y, 6 * den),
    }


def sum_rule_constant_condition(decomposition: Decomposition) -> Fraction:
    """The closed combination that the constant test function reduces the
    sum rule to: weighted areas of base and cut simplices plus the seam
    lattice-point counts. Zero under the sum rule's hypotheses. Since
    c_chop * area(chopped) is the chopped count exactly, it is minus the
    count residual."""
    return -sum_rule_residuals(decomposition)["1"]


def _primitive_triple(raw: tuple[int, int, int]) -> tuple[int, int, int]:
    g = gcd(*raw)
    if g == 0:
        raise ValueError("projective coordinates cannot all vanish")
    # a triple is below (0, 0, 0) exactly when its first nonzero coordinate is negative
    if raw < (0, 0, 0):
        g = -g
    return (raw[0] // g, raw[1] // g, raw[2] // g)


class PointConfiguration(NamedTuple("PointConfiguration", [("points", tuple[tuple[int, int, int], ...])])):
    """Pairwise-distinct points of the projective plane, stored as primitive
    integer triples with canonical sign (first nonzero coordinate
    positive). A configuration built directly must already hold such
    triples, or it raises ValueError, or DuplicatePoint for a repeated
    point; `of` normalizes arbitrary rational representatives."""

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[int, int, int], ...]) -> "PointConfiguration":
        for point in points:
            if not (type(point) is tuple and len(point) == 3
                    and type(point[0]) is type(point[1]) is type(point[2]) is int):
                raise ValueError(f"projective point needs a triple of integers: {point!r}")
            if _primitive_triple(point) != point:
                raise ValueError(
                    f"projective point {point!r} is not primitive with its first nonzero "
                    "coordinate positive (PointConfiguration.of normalizes it)"
                )
        if len(set(points)) != len(points):
            raise DuplicatePoint("projective points must be pairwise distinct")
        return tuple.__new__(cls, (points,))

    @staticmethod
    def of(rows) -> "PointConfiguration":
        normalized = []
        for row in rows:
            if len(row) != 3:
                raise ValueError(f"projective point needs three coordinates: {row!r}")
            if any(isinstance(c, float) for c in row):
                raise ValueError("projective coordinates must be exact rationals")
            coords, _ = _over_common_denominator(*(to_fraction(c) for c in row))
            normalized.append(_primitive_triple(tuple(coords)))
        return PointConfiguration(tuple(normalized))

    def __len__(self) -> int:
        return len(self.points)


class MukaiWitness(NamedTuple):
    """The extremal candidate subspace of the incidence test."""

    dim: int
    coordinates: tuple[int, int, int]  # point, or line as primitive dual triple
    incident: int
    ratio: Fraction
    bound: Fraction


class MukaiResult(NamedTuple):
    verdict: str  # "Stable" | "Unstable" | "Borderline"
    witness: MukaiWitness


def mukai_classify(configuration: PointConfiguration) -> MukaiResult:
    """Incidence test for Chow stability of the plane blown up at a point
    configuration.

    Candidates are the single points (dimension 0) and the lines through at
    least two configuration points (dimension 1, deduplicated by primitive
    dual coordinates). The blow-up is stable when every candidate V
    satisfies #(incident)/#(points) < (dim V + 1)/3 strictly, unstable when
    some candidate reverses the inequality strictly, and borderline when
    equality is attained but never exceeded. The witness is the candidate
    with the largest margin, ties broken by dimension then lexicographic
    coordinates.

    A line beats the point witness only if it holds at least
    need = (n+3)//3 + 1 points. Each anchor point j counts the lines through
    it and the later points, so a line through m points counts m - 1 at its
    first point and no line rescans the points. Anchor j is skipped, and
    with it every later one, once its n - 1 - j later points are fewer than
    the best count so far, which starts at need - 1; the lines that tie
    with the best are kept. An anchor also stops once its largest line
    count so far plus its unread later points falls below the best: no line
    through it can then reach the best, so it adds no line. On n points in
    general position or on a grid the anchors read about 0.22 n^2 pairs,
    where full scans of the same anchors read 0.44 n^2. The search stops as
    soon as a line of m points has n - m + 1 < need, since any other line
    meets it in at most one point. Margins are compared as the integer
    3*incident - (dim+1)*n. The n(n-1)/2 pairs, a loose bound on the work,
    are charged against the enumeration budget first.
    """
    points = configuration.points
    count = len(points)
    if count == 0:
        raise EmptyConfiguration("need at least one point")
    pairs = count * (count - 1) // 2
    _charge_budget(pairs, "incidence test compares {} point pairs", pairs)

    # every point ties at margin 3 - n; a line of m points beats it when
    # 3m - 2n > 3 - n, that is from m = need on
    need = (count + 3) // 3 + 1
    best, lines = need - 1, []
    for j, (px, py, pz) in enumerate(points):
        if count - 1 - j < best:
            break
        # top is the largest line count so far and reach = top plus the
        # points left to read, which bounds every line's final count: a
        # point raises top by one or leaves it and lowers reach by one
        top, reach = 0, count - 1 - j
        through: dict[tuple[int, int, int], int] = {}
        for qx, qy, qz in points[j + 1:]:
            a = py * qz - pz * qy
            b = pz * qx - px * qz
            c = px * qy - py * qx
            g = gcd(a, b, c)  # nonzero: the points are distinct and primitive
            if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):
                g = -g  # first nonzero coordinate positive, as in _primitive_triple
            line = (a // g, b // g, c // g)
            later = through.get(line, 0) + 1
            through[line] = later
            if later > top:
                top = later
            else:
                reach -= 1
                if reach < best:
                    break  # then top < best, and the anchor adds no line
        if top > best:
            best, lines = top, []
        if top == best:
            lines += [line for line, later in through.items() if later == top]
            if count - best < need:
                break

    if lines:
        dim, coords, incident = 1, min(lines), best + 1
    else:
        dim, coords, incident = 0, min(points), 1
    top_margin = 3 * incident - (dim + 1) * count

    if top_margin > 0:
        verdict = "Unstable"
    elif top_margin == 0:
        verdict = "Borderline"
    else:
        verdict = "Stable"
    witness = MukaiWitness(
        dim=dim,
        coordinates=coords,
        incident=incident,
        ratio=Fraction(incident, count),
        bound=Fraction(dim + 1, 3),
    )
    return MukaiResult(verdict=verdict, witness=witness)
