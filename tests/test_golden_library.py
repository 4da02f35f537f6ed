"""Replays recorded library outputs and compares their `repr`s.

`tests/golden/library_repr.json` maps each subject (a catalog polygon, a
corpus decomposition or a group of sum-rule decompositions) to the `repr`
of what the library returns for it: for the polygons of `CATALOG`,
`ehrhart_poly`, `sum_poly`, `chow_poly`, `c_constant`,
`lattice_points`, `fo_invariant` and `chow_eval` (for one fixed affine f)
at i = 1, 2, 3, `chow_eval` under two more affine maps and `p_delta` under
all three at i = 1, 2, 3, the polygon scaled by 2, the polygon canonicalized
from its vertices in reverse order, `is_centrally_symmetric`,
`is_weakly_symmetric` with the point reflection and with each conjugated
cyclic group below, and `lattice_moments` at i = 1, 7 and 10^6; for `decomposition_corpus(max_count=40)`,
the base, the chopped polygon, the cut simplices, the seams, both scaled
polygons, k, m, the frames, A, B, the Delzant flag, `df_invariants`, `chow_after_blowup`, the entries of
`verify_blowup_theorem(d, 6)`, `verify_general_identity` at i = 1, 2, 3
for the same f, `lattice_points` of the (rational) chopped polygon at
i = 1, 2, 3, and both sum-rule functions; and for every balanced base of
`delzant_corpus(size=20)` scaled by 1, 2 or 3, both sum-rule functions on
each decomposition cutting one or two corners at depth 1 or 2; for the
rational heptagon, octagon and nonagon of `tests/conftest.py`, the same
decomposition outputs, or the refusal, of a cut at each of their first
three vertices at depth 1/6, 1/4 and 1/3, and of two octagon cuts; for fixed
point configurations of the plane (a heavy line's points placed first,
last or interleaved, two tied heavy lines, a line of exactly 2n/3 points,
all points on one line, n = 1, 2 and 3, a grid and generic points),
`mukai_classify`; and for each cyclic generator of order 2, 3, 4 and 6
conjugated by fixed unimodular matrices, `SymmetryGroup.generated_by`,
whose frozenset order also pins the hash of `IntMat2`, with the hull of
the orbit of a fixed triangle under that group, `is_weakly_symmetric` on
it, its `fo_invariant` at i = 1, 2, 3 and its `chow_poly`. A `repr`
pins values and types alike: every coefficient must stay a `Fraction`.
Where a call raises, the exception's type and message are recorded.

After a deliberate change of library output, rewrite the recorded results
with `PYTHONPATH=src python tests/test_golden_library.py` and review the
diff.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from itertools import combinations, product

import pytest
from corpus import CATALOG, decomposition_corpus, delzant_corpus

from polychow import (
    AffineMap,
    CornerCut,
    IntMat2,
    PointConfiguration,
    PolychowError,
    SymmetryGroup,
    Vec2,
    c_constant,
    canonicalize,
    chop_corners,
    chow_after_blowup,
    chow_eval,
    chow_poly,
    df_invariants,
    ehrhart_poly,
    fo_invariant,
    is_centrally_symmetric,
    is_weakly_symmetric,
    lattice_moments,
    lattice_points,
    mukai_classify,
    p_delta,
    scale,
    sum_poly,
    sum_rule_constant_condition,
    sum_rule_residuals,
    verify_blowup_theorem,
    verify_general_identity,
)
from polychow.replicate import HEXAGON

GOLDEN = Path(__file__).parent / "golden" / "library_repr.json"

# a fixed affine test function with rational entries and a non-zero offset
F = AffineMap.linear(2, -1, Fraction(1, 3), 1, Vec2.of(5, Fraction(-1, 2)))
# two more test functions for `chow_eval` and `p_delta` on the catalog: four
# distinct linear denominators with a rational offset, and a zero row with an
# integer offset
MAPS = {
    "F": F,
    "mixed": AffineMap.linear(
        Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6), Fraction(-1, 5),
        Vec2.of(Fraction(3, 7), Fraction(-2, 9)),
    ),
    "zero row": AffineMap.linear(0, 0, 3, Fraction(-1, 2), Vec2.of(4, -1)),
}


def _outcome(function, *args) -> str:
    """The `repr` of what the call returns, or the type and message of the
    library error it raises."""
    try:
        return repr(function(*args))
    except PolychowError as exc:
        return f"{type(exc).__name__}: {exc}"


def _polygon_outputs(polygon) -> dict[str, str]:
    out = {
        "ehrhart_poly": repr(ehrhart_poly(polygon)),
        "sum_poly": repr(sum_poly(polygon)),
        "chow_poly": repr(chow_poly(polygon)),
        "c_constant": repr(c_constant(polygon)),
    }
    for i in (1, 2, 3):
        out[f"lattice_points {i}"] = repr(lattice_points(polygon, i))
        out[f"fo_invariant {i}"] = _outcome(fo_invariant, polygon, i)
        out[f"chow_eval {i}"] = repr(chow_eval(polygon, F, i))
    for name, f in MAPS.items():
        for i in (1, 2, 3):
            if name != "F":
                out[f"chow_eval {name} {i}"] = repr(chow_eval(polygon, f, i))
            out[f"p_delta {name} {i}"] = repr(p_delta(polygon, f, i))
    out["scale 2"] = repr(scale(polygon, 2))
    out["canonicalize reversed"] = repr(canonicalize(reversed(polygon.vertices)))
    out["is_centrally_symmetric"] = repr(is_centrally_symmetric(polygon))
    out["is_weakly_symmetric point reflection"] = repr(is_weakly_symmetric(polygon, _REFLECTION))
    for name, group in _CYCLIC_GROUPS.items():
        out[f"is_weakly_symmetric {name}"] = repr(is_weakly_symmetric(polygon, group))
    for i in (1, 7, 10**6):
        out[f"lattice_moments {i}"] = _outcome(lattice_moments, polygon, i)
    return out


def _sum_rule_outputs(d) -> dict[str, str]:
    return {
        "sum_rule_residuals": _outcome(sum_rule_residuals, d),
        "sum_rule_constant_condition": _outcome(sum_rule_constant_condition, d),
    }


def _decomposition_outputs(d) -> dict[str, str]:
    out = {
        "base": repr(d.base),
        "chopped": repr(d.chopped),
        "simplices": repr(d.simplices),
        "seams": repr(d.seams),
        "scaled_base": repr(d.scaled_base()),
        "scaled_chopped": repr(d.scaled_chopped()),
        "k": repr(d.k),
        "m": repr(d.m),
        "frames": repr(d.frames),
        "a_const": repr(d.a_const),
        "b_const": repr(d.b_const),
        "chopped_scaled_delzant": repr(d.chopped_scaled_delzant),
        "df_invariants": repr(df_invariants(d)),
        "chow_after_blowup": repr(chow_after_blowup(d)),
        "verify_blowup_theorem 6": repr(verify_blowup_theorem(d, 6).entries),
    }
    for i in (1, 2, 3):
        out[f"verify_general_identity {i}"] = repr(verify_general_identity(d, F, i))
    for i in (1, 2, 3):
        out[f"chopped lattice_points {i}"] = repr(lattice_points(d.chopped, i))
    out.update(_sum_rule_outputs(d))
    return out


def _cut_outputs(base, cuts) -> dict[str, str]:
    """`_decomposition_outputs` of the chop, or the refusal it raises."""
    try:
        d = chop_corners(base, cuts)
    except PolychowError:
        return {"chop_corners": _outcome(chop_corners, base, cuts)}
    return _decomposition_outputs(d)


def _sum_rule_sweep_outputs(scaled) -> dict[str, str]:
    """Both sum-rule functions on every valid chop of one or two corners of
    a balanced base at depth 1 or 2, keyed by the cuts."""
    out: dict[str, str] = {}
    for r in (1, 2):
        for corners in combinations(scaled.vertices, r):
            for depths in product((1, 2), repeat=r):
                cuts = [CornerCut(v, t) for v, t in zip(corners, depths)]
                try:
                    d = chop_corners(scaled, cuts)
                except PolychowError:
                    continue
                key = "; ".join(f"({c.vertex.x}, {c.vertex.y}) at {c.depth}" for c in cuts)
                for name, text in _sum_rule_outputs(d).items():
                    out[f"{key}: {name}"] = text
    return out


def _mukai_outputs(rows) -> dict[str, str]:
    configuration = PointConfiguration.of(rows)
    return {
        "points": repr(configuration.points),
        "mukai_classify": _outcome(mukai_classify, configuration),
    }


def _group_outputs(generators) -> dict[str, str]:
    return {"generated_by": _outcome(SymmetryGroup.generated_by, generators)}


# Points on a conic, off the line z = 0. With 11 points on z = 0 and these
# 5, n = 16 and a line beats the point witness from 7 points on; any other
# line holds at most 3, so the search may stop at the heavy line.
_CONIC = [(1, j, j * j) for j in range(1, 6)]
_HEAVY = [(1, j, 0) for j in range(11)]
_MUKAI_CONFIGURATIONS = {
    "heavy line first": _HEAVY + _CONIC,
    "heavy line last": _CONIC + _HEAVY,
    "heavy line interleaved": [p for pair in zip(_HEAVY, _CONIC) for p in pair] + _HEAVY[5:],
    # y = 0 and z = 0 carry five points each, sharing (1, 0, 0); n = 11, need 5
    "two tied heavy lines": [(1, 0, j) for j in range(5)] + [(1, j, 0) for j in range(1, 5)]
    + [(1, 1, 1), (2, 3, 5)],
    # y = 0 and z = 0 carry four points each, sharing (1, 0, 0); n = 7 and
    # need 4, so another line might still tie; the larger line comes first
    "two tied lines at the stop bound": [(1, 0, 1), (1, 0, 2), (0, 0, 1), (1, 0, 0), (0, 1, 0),
                                         (1, 1, 0), (1, 2, 0)],
    # 6 of 9 points on z = 0, exactly 2n/3
    "borderline line of 2n/3": [(1, j, 0) for j in range(6)] + [(1, 1, 1), (1, 2, 4), (1, 3, 9)],
    "all collinear": [(j, 1, 2 * j + 1) for j in range(7)],
    "n = 1": [(2, 4, 6)],
    "n = 2": [(1, 0, 0), (0, 1, 0)],
    "n = 3": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "grid": [(1, x, y) for x in range(4) for y in range(4)],
    "generic": [(1, j, j * j) for j in range(10)],
}

_CYCLIC = {
    2: IntMat2(-1, 0, 0, -1),
    3: IntMat2(0, -1, 1, -1),
    4: IntMat2(0, -1, 1, 0),
    6: IntMat2(1, -1, 1, 0),
}
_CONJUGATORS = [
    IntMat2(1, 0, 0, 1),
    IntMat2(1, 1, 0, 1),
    IntMat2(2, 1, 1, 1),
    IntMat2(3, -2, -1, 1),
    IntMat2(-5, 2, 2, -1),
]


def _conjugate(g: IntMat2, p: IntMat2) -> IntMat2:
    """p g p^-1 for p of determinant one."""
    return p @ g @ IntMat2(p.d, -p.b, -p.c, p.a)


_REFLECTION = SymmetryGroup.generated_by([IntMat2(-1, 0, 0, -1)])
# the closure of each conjugated cyclic generator, keyed as its group subject
_CYCLIC_GROUPS = {
    f"group[{order}, {n}]": SymmetryGroup.generated_by([_conjugate(g, p)])
    for order, g in _CYCLIC.items()
    for n, p in enumerate(_CONJUGATORS)
}


# the triangle whose orbit under each cyclic group spans a symmetric hull
_TRIANGLE = [Vec2.of(1, 0), Vec2.of(2, 1), Vec2.of(0, 3)]


def _cyclic_group_outputs(name: str, generator: IntMat2) -> dict[str, str]:
    """`_group_outputs` of one generator, and the symmetry tests on the hull
    of the orbit of `_TRIANGLE` under its group."""
    out = _group_outputs([generator])
    group = _CYCLIC_GROUPS[name]
    hull = canonicalize(g.apply(v) for g in group.elements for v in _TRIANGLE)
    out["orbit hull"] = repr(hull)
    out["orbit hull is_weakly_symmetric"] = repr(is_weakly_symmetric(hull, group))
    for i in (1, 2, 3):
        out[f"orbit hull fo_invariant {i}"] = _outcome(fo_invariant, hull, i)
    out["orbit hull chow_poly"] = repr(chow_poly(hull))
    return out


def _rational_bases() -> dict[str, object]:
    """The heptagon, octagon and nonagon of `tests/conftest.py`, at scales 2,
    2 and 4."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    heptagon = chop_corners(HEXAGON, [CornerCut.of((0, 2), half)]).chopped
    octagon = chop_corners(
        HEXAGON, [CornerCut.of((0, 2), half), CornerCut.of((2, 0), half)]
    ).chopped
    nonagon = chop_corners(octagon, [CornerCut.of((1, 2), quarter)]).chopped
    return {"heptagon": heptagon, "octagon": octagon, "nonagon": nonagon}


def _subjects() -> dict[str, tuple]:
    subjects: dict[str, tuple] = {}
    for n, polygon in enumerate(CATALOG):
        subjects[f"catalog[{n}]"] = (_polygon_outputs, polygon)
    for n, d in enumerate(decomposition_corpus(max_count=40)):
        subjects[f"corpus[{n}]"] = (_decomposition_outputs, d)
    zero = Vec2.of(0, 0)
    for n, base in enumerate(delzant_corpus(size=20)):
        for factor in (1, 2, 3):
            scaled = scale(base, factor)
            if fo_invariant(scaled, 1) == zero:
                subjects[f"sum_rule[{n}, {factor}]"] = (_sum_rule_sweep_outputs, scaled)
    bases = _rational_bases()
    for name, base in bases.items():
        for vertex in base.vertices[:3]:
            for depth in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)):
                key = f"rational[{name}, {vertex.text()} at {depth}]"
                subjects[key] = (_cut_outputs, base, [CornerCut(vertex, depth)])
    octagon = bases["octagon"]
    for depths in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 6))):
        cuts = [CornerCut(v, t) for v, t in zip(octagon.vertices, depths)]
        key = "; ".join(f"{c.vertex.text()} at {c.depth}" for c in cuts)
        subjects[f"rational[octagon, {key}]"] = (_cut_outputs, octagon, cuts)
    for name, rows in _MUKAI_CONFIGURATIONS.items():
        subjects[f"mukai[{name}]"] = (_mukai_outputs, rows)
    for order, g in _CYCLIC.items():
        for n, p in enumerate(_CONJUGATORS):
            name = f"group[{order}, {n}]"
            subjects[name] = (_cyclic_group_outputs, name, _conjugate(g, p))
    two_generators = [_CYCLIC[2], _conjugate(_CYCLIC[3], _CONJUGATORS[2])]
    subjects["group[2 and 3]"] = (_group_outputs, two_generators)
    return subjects


_SUBJECTS = _subjects()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(_SUBJECTS))
def test_library_repr_matches_golden(name, golden, monkeypatch):
    monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
    outputs, *subject = _SUBJECTS[name]
    assert outputs(*subject) == golden[name]


def test_golden_covers_every_subject(golden):
    assert list(golden) == list(_SUBJECTS)


def _regenerate() -> None:
    os.environ.pop("POLYCHOW_MAX_ENUM", None)
    data = {name: outputs(*subject) for name, (outputs, *subject) in _SUBJECTS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
