"""Deterministic randomized corpora shared by the property and acceptance
tests: lattice Delzant polygons (catalog bases hit with random unimodular
maps and integral translations, which preserve the Delzant property) and
valid corner-chop decompositions built on top of them."""

from __future__ import annotations

import random
from fractions import Fraction

from polychow import (
    AffineMap,
    CornerCut,
    IntMat2,
    Polygon,
    Vec2,
    apply_affine,
    chop_corners,
    is_delzant,
    lattice_length,
)
from polychow.errors import PolychowError


CATALOG: list[Polygon] = [
    Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)]),
    Polygon.from_coords([(0, 0), (2, 0), (2, 3), (0, 3)]),
    Polygon.from_coords([(0, 0), (5, 0), (5, 2), (0, 2)]),
    Polygon.from_coords([(0, 0), (1, 0), (0, 1)]),
    Polygon.from_coords([(0, 0), (2, 0), (0, 2)]),
    Polygon.from_coords([(0, 0), (3, 0), (0, 3)]),
    Polygon.from_coords([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)]),
    Polygon.from_coords([(-2, 1), (1, 1), (2, 0), (2, -1), (-1, -1), (-2, 0)]),
    # quadrilaterals (0,0), (0,a), (b,a), (b+a*n,0)
    Polygon.from_coords([(0, 0), (0, 1), (1, 1), (2, 0)]),
    Polygon.from_coords([(0, 0), (0, 1), (2, 1), (3, 0)]),
    Polygon.from_coords([(0, 0), (0, 2), (1, 2), (3, 0)]),
    Polygon.from_coords([(0, 0), (0, 1), (1, 1), (3, 0)]),
    Polygon.from_coords([(0, 0), (0, 2), (2, 2), (4, 0)]),
    Polygon.from_coords([(0, 0), (0, 3), (1, 3), (4, 0)]),
    Polygon.from_coords([(0, 0), (0, 1), (3, 1), (4, 0)]),
    Polygon.from_coords([(0, 0), (0, 2), (3, 2), (5, 0)]),
]

_SHEARS = [
    IntMat2.from_rows((1, 1), (0, 1)),
    IntMat2.from_rows((1, -1), (0, 1)),
    IntMat2.from_rows((1, 0), (1, 1)),
    IntMat2.from_rows((1, 0), (-1, 1)),
]


def random_unimodular(rng: random.Random, factors: int = 3) -> IntMat2:
    m = IntMat2.identity()
    for _ in range(factors):
        m = m @ rng.choice(_SHEARS)
    return m


def delzant_corpus(size: int = 60, seed: int = 20240611) -> list[Polygon]:
    """At least `size` distinct lattice Delzant polygons, deterministically."""
    rng = random.Random(seed)
    seen: set[Polygon] = set()
    result: list[Polygon] = []
    for p in CATALOG:
        assert is_delzant(p)
        if p not in seen:
            seen.add(p)
            result.append(p)
    while len(result) < size:
        base = rng.choice(CATALOG)
        u = random_unimodular(rng, rng.randint(1, 4))
        offset = Vec2.of(rng.randint(-3, 3), rng.randint(-3, 3))
        image = apply_affine(base, AffineMap.from_int_mat(u, offset))
        assert is_delzant(image)
        if image not in seen:
            seen.add(image)
            result.append(image)
    return result


def farey_fan(order: int) -> Polygon:
    """The lattice polygon whose edge vectors, counter-clockwise, are (b, a)
    and then (a, b) for the Farey fractions a/b of the given order, turned
    through all four quadrants. Farey neighbours a/b < c/d have
    b*c - a*d = 1, so consecutive edges have determinant 1: every corner
    is smooth and every edge has lattice length 1. Order 48 gives 5696
    vertices."""
    fractions = [(0, 1), (1, order)]
    while fractions[-1] != (1, 1):
        (a, b), (c, d) = fractions[-2:]
        step = (order + b) // d
        fractions.append((step * c - a, step * d - b))
    quadrant = [(b, a) for a, b in fractions] + [(a, b) for a, b in reversed(fractions[1:-1])]
    points, x, y = [], 0, 0
    for turn in range(4):
        for dx, dy in quadrant:
            for _ in range(turn):
                dx, dy = -dy, dx
            points.append((x, y))
            x, y = x + dx, y + dy
    return Polygon.from_coords(points)


def decomposition_corpus(seed: int = 20240612, max_count: int = 12):
    """Valid corner-chop decompositions over small Delzant bases."""
    rng = random.Random(seed)
    bases = [
        CATALOG[5],  # big triangle
        CATALOG[6],  # hexagon
        CATALOG[2],  # wide rectangle
        CATALOG[7],  # centrally symmetric hexagon
        CATALOG[12],
        CATALOG[15],
    ]
    depth_choices = [Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(1, 4)]
    result = []
    attempts = 0
    while len(result) < max_count and attempts < 50 * max_count:
        attempts += 1
        base = rng.choice(bases)
        n = len(base.vertices)
        how_many = rng.randint(1, min(3, n))
        indices = rng.sample(range(n), how_many)
        cuts = []
        ok = True
        for idx in indices:
            v = base.vertex(idx)
            t_min = min(
                lattice_length(v, base.vertex(idx + 1)),
                lattice_length(v, base.vertex(idx - 1)),
            )
            depth = rng.choice([d for d in depth_choices if d < t_min] or [None])
            if depth is None:
                ok = False
                break
            cuts.append(CornerCut(v, depth))
        if not ok:
            continue
        try:
            result.append(chop_corners(base, cuts))
        except PolychowError:
            continue
    assert len(result) == max_count, "decomposition corpus came out too small"
    return result


def random_affine(rng: random.Random) -> AffineMap:
    def coeff() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return AffineMap.linear(coeff(), coeff(), coeff(), coeff(), Vec2(coeff(), coeff()))
