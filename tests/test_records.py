"""The library's value records: named tuples, or small classes where
construction validates or caches.

`Vec2` arithmetic is vector arithmetic, not tuple repetition or
concatenation; `CornerCut` and `PointConfiguration` validate when built
directly; no record takes an assignment; every record survives a pickle
round trip. A named tuple equals the plain tuple with its entries, so the
replication suite and the recorded CLI cases run with every comparison of
a `Vec2` against another kind of tuple recorded, and none may happen.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from test_golden_cli import _DATA, _invoke, _write_files
from polychow import (
    AffineMap,
    CornerCut,
    DuplicatePoint,
    IntMat2,
    InvalidCutDepth,
    PointConfiguration,
    Polygon,
    SymmetryGroup,
    Vec2,
    check_translation_law,
    chop_corners,
    ehrhart_poly,
    mukai_classify,
    simplex_closed_forms,
    sum_poly,
    verify_blowup_theorem,
)
from polychow.replicate import run_replication

HALF = Fraction(1, 2)


class TestVec2Arithmetic:
    V = Vec2.of(1, 2)

    @pytest.mark.parametrize("product", [
        lambda v: v * 3,
        lambda v: 3 * v,
        lambda v: v * Fraction(3),
        lambda v: Fraction(3) * v,
    ], ids=["v*int", "int*v", "v*Fraction", "Fraction*v"])
    def test_scalar_product_scales_both_coordinates(self, product):
        result = product(self.V)
        assert type(result) is Vec2
        assert result == Vec2.of(3, 6)

    def test_sum_difference_and_negation_are_vector_operations(self):
        other = Vec2.of(HALF, -5)
        for result, expected in [
            (self.V + other, Vec2.of(Fraction(3, 2), -3)),
            (self.V - other, Vec2.of(HALF, 7)),
            (-self.V, Vec2.of(-1, -2)),
        ]:
            assert type(result) is Vec2
            assert result == expected

    def test_repr_and_hash_are_those_of_the_pair(self):
        assert repr(self.V) == "Vec2(x=Fraction(1, 1), y=Fraction(2, 1))"
        assert hash(self.V) == hash((Fraction(1), Fraction(2)))


class TestValidatingRecords:
    """Built directly, not through `of`, the validating records coerce
    their fields and refuse bad ones."""

    def test_corner_cut_coerces_vertex_and_depth(self):
        cut = CornerCut((0, 2), 1)
        assert type(cut.vertex) is Vec2 and cut.vertex == Vec2.of(0, 2)
        assert type(cut.depth) is Fraction and cut.depth == 1
        assert cut == CornerCut.of(Vec2.of(0, 2), Fraction(1))

    @pytest.mark.parametrize("vertex, depth, error", [
        ((0, 0), 0, InvalidCutDepth),
        ((0, 0), "-1/2", InvalidCutDepth),
        ((0, 0), 0.5, TypeError),
        ((0.5, 0), 1, TypeError),
        ((0,), 1, TypeError),
        ((0, 0), "half", ValueError),
    ])
    def test_corner_cut_refusals(self, vertex, depth, error):
        with pytest.raises(error):
            CornerCut(vertex, depth)

    @pytest.mark.parametrize("points, error", [
        (((1, 2),), ValueError),
        (((1, 2, 3.0),), ValueError),
        ((("1", 2, 3),), ValueError),
        (((2, 4, 6),), ValueError),
        (((-1, 0, 0),), ValueError),
        (((1, 0, 0), (0, 1, 0), (1, 0, 0)), DuplicatePoint),
    ])
    def test_point_configuration_refusals(self, points, error):
        with pytest.raises(error):
            PointConfiguration(points)

    def test_point_configuration_keeps_its_points(self):
        points = ((0, 0, 1), (1, 0, 0), (1, 2, 3))
        configuration = PointConfiguration(points)
        assert configuration.points == points and len(configuration) == 3
        assert configuration == PointConfiguration.of([[0, 0, 5], [-1, 0, 0], ["1/3", "2/3", 1]])


def _records() -> dict[str, object]:
    """One instance of each value record, built through the library."""
    hexagon = Polygon.from_coords([(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)])
    decomposition = chop_corners(hexagon, [CornerCut.of((0, 2), HALF)])
    mukai = mukai_classify(PointConfiguration.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    fixture = run_replication()[0]
    return {
        "Vec2": Vec2.of(1, HALF),
        "IntMat2": IntMat2(0, -1, 1, -1),
        "AffineMap": AffineMap.linear(1, 2, 0, 1, Vec2.of(3, 4)),
        "IntegerForm": hexagon.integer,
        "Polygon": hexagon,
        "ScalarPoly": ehrhart_poly(hexagon),
        "VecPoly": sum_poly(hexagon),
        "LawCheck": check_translation_law(hexagon, Vec2.of(1, 1), 1),
        "CornerCut": decomposition.cuts[0],
        "Decomposition": decomposition,
        "SimplexForms": simplex_closed_forms(2, 3),
        "BlowupVerification": verify_blowup_theorem(decomposition, 2),
        "SymmetryGroup": SymmetryGroup.generated_by([IntMat2(0, -1, 1, -1)]),
        "PointConfiguration": PointConfiguration.of([[1, 0, 0], [0, 1, 0]]),
        "MukaiWitness": mukai.witness,
        "MukaiResult": mukai,
        "Check": fixture.checks[0],
        "FixtureResult": fixture,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_record_takes_no_assignment(name):
    record = RECORDS[name]
    for attribute in ("__doc__", "x", "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)
    with pytest.raises(AttributeError):
        delattr(record, "x")


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_pickling(name):
    record = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)


def test_polygon_value_is_its_integer_form():
    polygon = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
    assert hash(polygon) == hash((polygon.integer,))
    assert polygon._sum_constant is None
    # the counting gate's one write goes around the refusal
    object.__setattr__(polygon, "_sum_constant", (1, 1))
    assert polygon._sum_constant == (1, 1) and polygon == Polygon.from_coords([(0, 3), (0, 0), (3, 0)])


@pytest.mark.parametrize("cls, name, kind", [
    (Polygon, "from_coords", staticmethod),
    (SymmetryGroup, "generated_by", classmethod),
    (PointConfiguration, "of", staticmethod),
])
def test_constructors_live_in_their_own_class(cls, name, kind):
    # perfbench's tracer rebinds these in the class's own __dict__
    assert type(cls.__dict__[name]) is kind


def test_decomposition_value_is_its_named_fields():
    record = RECORDS["Decomposition"]
    copy = pickle.loads(pickle.dumps(record))
    assert copy.scaled_base() == record.scaled_base()
    assert copy._cut_points == record._cut_points
    assert "_scaled_base" not in repr(record)
    assert hash(record) == hash(tuple(record)) and len(record) == 13


def test_no_library_path_compares_a_vec2_with_another_tuple(monkeypatch, tmp_path):
    mixed = []

    def recording(compare):
        def method(self, other):
            if isinstance(other, tuple) and type(other) is not Vec2:
                mixed.append((self, other))
            return compare(self, other)
        return method

    monkeypatch.setattr(Vec2, "__eq__", recording(tuple.__eq__))
    monkeypatch.setattr(Vec2, "__ne__", recording(tuple.__ne__))
    # the hook sees a comparison from either side
    assert Vec2.of(1, 2) == (1, 2) and (1, 2) == Vec2.of(1, 2)
    assert len(mixed) == 2
    mixed.clear()

    assert all(fixture.passed for fixture in run_replication())
    paths = _write_files(_DATA["files"], tmp_path)
    monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
    for case in _DATA["cases"]:
        assert _invoke(case["argv"], paths) == (case["exit"], case["stdout"])
    assert mixed == []
