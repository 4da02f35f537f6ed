"""Exception taxonomy.

Every error raised by the library derives from PolychowError so callers
can catch the whole family. The CLI maps input/validation errors to exit
code 1 and mathematical verification mismatches to exit code 2.
"""

from __future__ import annotations


class PolychowError(Exception):
    """Base class for all library errors."""


class DegeneratePolytope(PolychowError):
    """Input points do not span a two-dimensional convex region."""


class NotDelzant(PolychowError):
    """Primitive edge directions at a vertex do not form a lattice basis."""


class NotLatticePolygon(PolychowError):
    """Operation requires all vertices to be integral."""


class InternalInconsistency(PolychowError):
    """A closed form disagreed with direct enumeration.

    This is deliberately fatal: enumeration is the single source of truth,
    and a mismatch means a convention bug, not bad input.
    """


class EnumerationLimitExceeded(PolychowError):
    """A count, point listing or incidence test would exceed the configured
    budget of rows of a dilation, rows plus points listed, or point pairs
    compared. Each is charged before the work starts: a listing is charged
    its rows plus its points, counted by floor sums, before any row is
    visited."""


class InvalidCutVertex(PolychowError):
    """A corner cut names a point that is not a (distinct) vertex of the base."""


class InvalidCutDepth(PolychowError):
    """A corner-cut depth is not positive."""


class CutThroughEdge(PolychowError):
    """A corner cut reaches or passes an adjacent vertex."""


class OverlappingCuts(PolychowError):
    """Two corner simplices intersect."""


class VerificationMismatch(PolychowError):
    """The blow-up identity failed at some dilation factor.

    Carries the first differing dilation `i`, both sides, and the full
    per-i report assembled so far. `where` names the polygon that was
    enumerated, so that the message alone reproduces the failure.
    """

    def __init__(self, i, lhs, rhs, report=None, where=""):
        super().__init__(f"blow-up identity fails at i={i}{where}: {lhs} != {rhs}")
        self.i = i
        self.lhs = lhs
        self.rhs = rhs
        self.report = report


class HypothesisNotMet(PolychowError):
    """A decomposition does not satisfy the preconditions of the sum rule."""


class GroupClosureOverflow(PolychowError):
    """Group closure exceeded the fixed cap of `GROUP_CLOSURE_CAP` = 6
    elements, the largest order of a finite subgroup of SL(2, Z)."""


class EmptyConfiguration(PolychowError):
    """A point configuration must contain at least one point."""


class DuplicatePoint(PolychowError):
    """Projective points in a configuration must be pairwise distinct."""


class ParseError(PolychowError):
    """An input file is malformed; the message carries the offending position."""
