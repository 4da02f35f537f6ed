from __future__ import annotations

from fractions import Fraction

import pytest

from polychow import CornerCut, Polygon, chop_corners

# the degree-3 plane triangle, the hexagon it chops to, the symmetric
# hexagon and the slanted quadrilateral family come from the replication
# suite, the one place that embeds them
from polychow.replicate import CP2_TRIANGLE, HEXAGON, SYMMETRIC_HEXAGON, quadrilateral


@pytest.fixture(scope="session")
def cp2_triangle() -> Polygon:
    return CP2_TRIANGLE


@pytest.fixture(scope="session")
def unit_square() -> Polygon:
    return Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def hexagon() -> Polygon:
    return HEXAGON


@pytest.fixture(scope="session")
def symmetric_hexagon() -> Polygon:
    return SYMMETRIC_HEXAGON


@pytest.fixture(scope="session")
def heptagon(hexagon) -> Polygon:
    """Hexagon with the top-left corner chopped at depth 1/2."""
    return chop_corners(hexagon, [CornerCut.of((0, 2), Fraction(1, 2))]).chopped


@pytest.fixture(scope="session")
def octagon(hexagon) -> Polygon:
    """Hexagon with two corners chopped at depth 1/2."""
    cuts = [CornerCut.of((0, 2), Fraction(1, 2)), CornerCut.of((2, 0), Fraction(1, 2))]
    return chop_corners(hexagon, cuts).chopped


@pytest.fixture(scope="session")
def nonagon(octagon) -> Polygon:
    """Octagon with the (1,2) corner chopped at depth 1/4."""
    return chop_corners(octagon, [CornerCut.of((1, 2), Fraction(1, 4))]).chopped


@pytest.fixture
def scans(monkeypatch) -> list[tuple[Polygon, int]]:
    """(polygon, i) of every dilation the kernel scans while the test runs,
    in order: each count, sum or listing of a dilation scans it once."""
    import polychow.blowup as blowup
    import polychow.counting as counting

    calls: list[tuple[Polygon, int]] = []
    dilation_moments = counting._dilation_moments

    def counted_dilation_moments(polygon, dilations):
        for i in dilations:
            calls.append((polygon, i))
            yield from dilation_moments(polygon, (i,))

    for module in (counting, blowup):
        monkeypatch.setattr(module, "_dilation_moments", counted_dilation_moments)
    return calls


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at the end of a run

from contextlib import contextmanager

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS[number] = (name, passed, detail)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException as exc:
        message = str(exc).strip().replace("\n", " ")
        if len(message) > 300:
            message = message[:297] + "..."
        record_criterion(number, name, False, message)
        raise
    record_criterion(number, name, True)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        name, passed, detail = _ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {name}"
        if detail and not passed:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
