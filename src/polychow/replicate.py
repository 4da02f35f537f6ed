"""Built-in replication suite.

Every fixture is embedded so the golden values cannot drift from the code.
The suite exercises the full pipeline: corner-chop decompositions with
their invariants, the blow-up identity against direct enumeration, the
quadrilateral family's closed forms, symmetry-based vanishing of the
averaged-point invariant, and the unimodular corner-chop sum rule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import IntMat2, Polygon, Vec2, ZERO_VEC, area, moment_integral
from .counting import ScalarPoly, VecPoly, ehrhart_poly, sum_points, sum_poly
from .chow import chow_poly, coefficient_span_dim
from .blowup import (
    CornerCut,
    Decomposition,
    chop_corners,
    chow_after_blowup,
    df_invariants,
    verify_blowup_theorem,
)
from .errors import VerificationMismatch
from .stability import (
    SymmetryGroup,
    fo_invariant,
    is_centrally_symmetric,
    is_weakly_symmetric,
    sum_rule_constant_condition,
    sum_rule_residuals,
)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


class FixtureResult(NamedTuple):
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _eq(name: str, got, expected) -> Check:
    return Check(name, got == expected, f"got {got}, expected {expected}")


def _identity_check(d: Decomposition, i_max: int) -> Check:
    """The blow-up identity against enumeration for i = 1..i_max; a
    mismatch fails the check with its report instead of raising."""
    try:
        return _eq("identity vs enumeration", verify_blowup_theorem(d, i_max).all_equal, True)
    except VerificationMismatch as exc:
        return Check("identity vs enumeration", False, str(exc))


CP2_TRIANGLE = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
HEXAGON = Polygon.from_coords([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
SYMMETRIC_HEXAGON = Polygon.from_coords(
    [(-2, 1), (1, 1), (2, 0), (2, -1), (-1, -1), (-2, 0)]
)
CYCLIC_TRIANGLE = Polygon.from_coords([(1, 0), (0, 1), (-1, -1)])
CYCLIC_GENERATOR = IntMat2.from_rows((0, -1), (1, -1))


def _fixture_cp2_three_chops() -> FixtureResult:
    cuts = [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]]
    d = chop_corners(CP2_TRIANGLE, cuts)
    df1, df2 = df_invariants(d)
    checks = [
        _eq("k", d.k, 1),
        _eq("m", d.m, (1, 1, 1)),
        _eq("A", d.a_const, 6),
        _eq("B", d.b_const, 6),
        _eq("df1", df1, ZERO_VEC),
        _eq("df2", df2, ZERO_VEC),
        _eq("chopped", d.chopped, HEXAGON),
        _eq("chow after blow-up", chow_after_blowup(d).is_zero(), True),
        _identity_check(d, 5),
    ]
    return FixtureResult("cp2-three-corner-chops", tuple(checks))


def _fixture_hexagon_chop() -> FixtureResult:
    d = chop_corners(HEXAGON, [CornerCut.of((0, 2), Fraction(1, 2))])
    df1, df2 = df_invariants(d)
    expected_df1 = Vec2.of(Fraction(83, 12), Fraction(-83, 12))
    expected_df2 = Vec2.of(Fraction(13, 12), Fraction(-13, 12))
    after = chow_after_blowup(d)
    checks = [
        _eq("k", d.k, 2),
        _eq("m", d.m, (1,)),
        _eq("A", d.a_const, 11),
        _eq("B", d.b_const, 23),
        _eq("df1", df1, expected_df1),
        _eq("df2", df2, expected_df2),
        _eq("chow linear", after.c1, expected_df1),
        _eq("chow const", after.c0, expected_df2),
        _eq("coefficient span", coefficient_span_dim(after), 1),
        _identity_check(d, 5),
    ]
    return FixtureResult("hexagon-corner-chop", tuple(checks))


def _fixture_hexagon_two_chops() -> FixtureResult:
    d = chop_corners(
        HEXAGON,
        [CornerCut.of((0, 2), Fraction(1, 2)), CornerCut.of((2, 0), Fraction(1, 2))],
    )
    df1, df2 = df_invariants(d)
    checks = [
        _eq("k", d.k, 2),
        _eq("A", d.a_const, 10),
        _eq("B", d.b_const, 22),
        _eq("df1", df1, ZERO_VEC),
        _eq("df2", df2, ZERO_VEC),
        _eq("chow after blow-up", chow_after_blowup(d).is_zero(), True),
        _identity_check(d, 4),
    ]
    return FixtureResult("hexagon-two-corner-chops", tuple(checks))


def _fixture_octagon_chop() -> FixtureResult:
    five = chop_corners(
        HEXAGON,
        [CornerCut.of((0, 2), Fraction(1, 2)), CornerCut.of((2, 0), Fraction(1, 2))],
    )
    octagon = five.chopped
    d = chop_corners(octagon, [CornerCut.of((1, 2), Fraction(1, 4))])
    scaled_base = d.scaled_base()
    df1, df2 = df_invariants(d)
    after = chow_after_blowup(d)
    direct = chow_poly(d.scaled_chopped())
    checks = [
        _eq("k", d.k, 4),
        _eq("m", d.m, (1,)),
        _eq("A", d.a_const, 19),
        _eq("B", d.b_const, 87),
        _eq(
            "count polynomial of scaled base",
            ehrhart_poly(scaled_base),
            ScalarPoly(Fraction(44), Fraction(10), Fraction(1)),
        ),
        _eq("point sum at 1", sum_points(scaled_base, 1), Vec2.of(220, 220)),
        _eq("point sum at 2", sum_points(scaled_base, 2), Vec2.of(788, 788)),
        _eq("sum polynomial constant", sum_poly(scaled_base).c0, Vec2.of(4, 4)),
        _eq("df1", df1, Vec2.of(0, Fraction(-835, 12))),
        _eq("df2", df2, Vec2.of(0, Fraction(-65, 12))),
        _eq("identity equals direct Chow weight (linear)", after.c1, direct.c1),
        _eq("identity equals direct Chow weight (const)", after.c0, direct.c0),
        _eq("coefficient span", coefficient_span_dim(after), 1),
        _eq("chow weight is nonzero (unstable)", after.is_zero(), False),
        _identity_check(d, 3),
    ]
    return FixtureResult("octagon-corner-chop", tuple(checks))


def quadrilateral(a: int, b: int, n: int) -> Polygon:
    """The non-rectangular Delzant quadrilateral with heights a, b and slant n."""
    return Polygon.from_coords([(0, 0), (0, a), (b, a), (b + a * n, 0)])


def _fixture_quadrilateral_sweep() -> FixtureResult:
    failures: list[Check] = []
    for a in range(1, 5):
        for b in range(1, 5):
            for n in range(1, 5):
                p = quadrilateral(a, b, n)
                tag = f"a={a} b={b} n={n}"
                vol = Fraction(a * b) + Fraction(a * a * n, 2)
                expected_e = ScalarPoly(vol, Fraction(a + b) + Fraction(a * n, 2), Fraction(1))
                moment = Vec2.of(
                    Fraction(a, 6) * (a * a * n * n + 3 * a * b * n + 3 * b * b),
                    Fraction(a, 6) * a * (a * n + 3 * b),
                )
                expected_s = VecPoly(
                    moment,
                    Vec2.of(
                        Fraction(a * a * n * n + a * a * n + 2 * a * b * n + 2 * a * b + 2 * b * b, 4),
                        Fraction(2 * a * (a + b), 4),
                    ),
                    Vec2.of(
                        Fraction(a * n * n + 3 * a * n + 6 * b, 12),
                        Fraction(2 * a * (3 - n), 12),
                    ),
                )
                scale_chow = Fraction(a * a * n, 24) * (a * n - a + 2 * b)
                expected_chow = VecPoly(
                    ZERO_VEC,
                    Vec2.of(scale_chow * a * n, -2 * scale_chow * a),
                    Vec2.of(scale_chow * n, -2 * scale_chow),
                )
                ok = (
                    area(p) == vol
                    and ehrhart_poly(p) == expected_e
                    and moment_integral(p) == moment
                    and sum_poly(p) == expected_s
                    and chow_poly(p) == expected_chow
                )
                if not ok:
                    failures.append(Check(tag, False, "closed forms disagree with enumeration"))
    checks = failures or [
        Check(
            "closed forms over the (a,b,n) grid",
            True,
            "64 quadrilaterals, enumeration-backed",
        )
    ]
    return FixtureResult("quadrilateral-sweep", tuple(checks))


def _fixture_rectangles() -> FixtureResult:
    checks = []
    for w, h in [(1, 1), (2, 3), (5, 2)]:
        rect = Polygon.from_coords([(0, 0), (w, 0), (w, h), (0, h)])
        poly = chow_poly(rect)
        checks.append(_eq(f"{w}x{h} chow weight", poly.is_zero(), True))
        checks.append(_eq(f"{w}x{h} span", coefficient_span_dim(poly), 0))
    return FixtureResult("rectangle-chow-vanishes", tuple(checks))


def _fixture_symmetric_hexagon() -> FixtureResult:
    checks = [_eq("centrally symmetric", is_centrally_symmetric(SYMMETRIC_HEXAGON), True)]
    group = SymmetryGroup.generated_by([IntMat2(-1, 0, 0, -1)])
    checks.append(_eq("weakly symmetric via point reflection",
                      is_weakly_symmetric(SYMMETRIC_HEXAGON, group), True))
    for i in range(1, 7):
        checks.append(_eq(f"averaged-point invariant at i={i}",
                          fo_invariant(SYMMETRIC_HEXAGON, i), ZERO_VEC))
    return FixtureResult("centrally-symmetric-hexagon", tuple(checks))


def _fixture_cyclic_triangle() -> FixtureResult:
    group = SymmetryGroup.generated_by([CYCLIC_GENERATOR])
    checks = [
        _eq("group order", len(group), 3),
        _eq("weakly symmetric", is_weakly_symmetric(CYCLIC_TRIANGLE, group), True),
    ]
    for i in range(1, 4):
        checks.append(_eq(f"averaged-point invariant at i={i}",
                          fo_invariant(CYCLIC_TRIANGLE, i), ZERO_VEC))
    return FixtureResult("cyclic-symmetry-triangle", tuple(checks))


def _fixture_sum_rule() -> FixtureResult:
    checks = []
    single = chop_corners(CP2_TRIANGLE, [CornerCut.of((0, 0), 1)])
    for name, residual in sum_rule_residuals(single).items():
        checks.append(_eq(f"single-cut residual {name}", residual, 0))
    checks.append(_eq("single-cut constant condition", sum_rule_constant_condition(single), 0))
    triple = chop_corners(CP2_TRIANGLE, [CornerCut.of(v, 1) for v in [(0, 0), (3, 0), (0, 3)]])
    for name, residual in sum_rule_residuals(triple).items():
        checks.append(_eq(f"three-cut residual {name}", residual, 0))
    checks.append(_eq("three-cut constant condition", sum_rule_constant_condition(triple), 0))
    return FixtureResult("corner-chop-sum-rule", tuple(checks))


def run_replication() -> list[FixtureResult]:
    """Run every embedded fixture in a fixed order."""
    return [
        _fixture_cp2_three_chops(),
        _fixture_hexagon_chop(),
        _fixture_hexagon_two_chops(),
        _fixture_octagon_chop(),
        _fixture_quadrilateral_sweep(),
        _fixture_rectangles(),
        _fixture_symmetric_hexagon(),
        _fixture_cyclic_triangle(),
        _fixture_sum_rule(),
    ]
