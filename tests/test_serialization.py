from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from polychow import IntMat2, ParseError, Vec2
from polychow.counting import ScalarPoly, VecPoly
from polychow.serialization import (
    load_cuts,
    load_group,
    load_points,
    load_polytope,
    parse_rational,
    render_report,
)


class TestRationalRoundTrip:
    @pytest.mark.parametrize("text", ["3", "-7", "3/2", "-83/12", " 5/3 "])
    def test_parse_round_trip(self, text):
        value = parse_rational(text, "here")
        assert parse_rational(str(value), "back") == value

    @pytest.mark.parametrize("bad", [1.5, True, None, "x", "1/0", [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad, "here")

    @pytest.mark.parametrize("text", ["1e30000000", "1e-30000000", "1e4301", "1E+0_4301"])
    def test_long_exponent_refused_at_once(self, text):
        started = time.monotonic()
        with pytest.raises(ParseError, match="^here: exponent beyond 4300"):
            parse_rational(text, "here")
        assert time.monotonic() - started < 0.5

    @pytest.mark.parametrize(
        "text, value",
        [("1e3", 1000), ("25e-1", Fraction(5, 2)), ("1e0_0003", 1000),
         ("1e-4300", Fraction(1, 10**4300))],
    )
    def test_short_exponent_parses(self, text, value):
        assert parse_rational(text, "here") == value


class TestLoaders:
    def test_polytope_with_mixed_entries(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"vertices": [["0", "0"], [3, 0], ["0", "3"]]}))
        polygon = load_polytope(path)
        assert len(polygon) == 3

    def test_polytope_missing_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"points": []}))
        with pytest.raises(ParseError, match="vertices"):
            load_polytope(path)

    def test_polytope_bad_pair_reports_index(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"vertices": [["0", "0"], ["1"], ["0", "1"]]}))
        with pytest.raises(ParseError, match=r"vertices\[1\]"):
            load_polytope(path)

    def test_cuts_report_field_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cuts": [{"vertex": ["0", "0"]}]}))
        with pytest.raises(ParseError, match=r"cuts\[0\]"):
            load_cuts(path)

    def test_cuts_parse(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"cuts": [{"vertex": ["0", "2"], "depth": "1/2"}]})
        )
        cuts = load_cuts(path)
        assert cuts[0].depth == Fraction(1, 2)
        assert cuts[0].vertex == Vec2.of(0, 2)

    def test_points_parse_and_validate(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [["2", "0", "0"], ["0", "1", "0"]]}))
        config = load_points(path)
        assert config.points[0] == (1, 0, 0)

    def test_duplicate_points_are_parse_errors_with_path(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [["1", "0", "0"], ["-1", "0", "0"]]}))
        with pytest.raises(ParseError):
            load_points(path)

    def test_group_rejects_float_entries(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": [[[0.0, -1], [1, -1]]]}))
        with pytest.raises(ParseError, match="integers"):
            load_group(path)

    def test_group_parses_row_major(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": [[[-1, 0], [0, -1]]]}))
        group = load_group(path)
        assert len(group) == 2

    @pytest.mark.parametrize(
        "loader, payload, message",
        [
            (load_polytope, [], "expected an object with a 'vertices' key"),
            (load_polytope, {"vertices": [["0", "0"], ["1", "0"]]},
             "'vertices' must list at least three coordinate pairs"),
            (load_cuts, {"vertex": []}, "expected an object with a 'cuts' key"),
            (load_cuts, {"cuts": {}}, "'cuts' must be a list"),
            (load_points, {}, "expected an object with a 'points' key"),
            (load_points, {"points": []}, "'points' must be a non-empty list"),
            (load_group, {"points": []}, "expected an object with a 'generators' key"),
            (load_group, {"generators": "x"}, "'generators' must be a non-empty list"),
        ],
    )
    def test_header_messages(self, tmp_path, loader, payload, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError) as excinfo:
            loader(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_cuts_may_be_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cuts": []}))
        assert load_cuts(path) == []

    def test_json_syntax_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [\n  ["0" "0"]\n]}')
        with pytest.raises(ParseError, match=r":2:"):
            load_polytope(path)


class TestRendering:
    def test_json_and_text_are_deterministic(self):
        report = {"command": "info", "values": {"area": "9/2", "ok": True}}
        assert render_report(report, as_json=True) == render_report(report, as_json=True)
        assert render_report(report, as_json=False) == render_report(report, as_json=False)

    def test_text_layout(self):
        report = {"a": "1/2", "nested": {"flag": True}, "rows": [{"i": 1, "v": ["0", "0"]}]}
        text = render_report(report, as_json=False)
        assert "a: 1/2" in text
        assert "  flag: yes" in text
        assert "    i: 1" in text

    # (library value, its JSON data, its text listing under the key "v")
    VALUES = {
        "int-fraction": (Fraction(3), "3", "v: 3\n"),
        "zero": (Fraction(0), "0", "v: 0\n"),
        "reduced": (Fraction(6, 4), "3/2", "v: 3/2\n"),
        "negative": (Fraction(-83, 12), "-83/12", "v: -83/12\n"),
        "vec": (Vec2.of(Fraction(1, 2), -3), ["1/2", "-3"], "v: (1/2, -3)\n"),
        "mat": (IntMat2(1, -1, 0, 1), [[1, -1], [0, 1]], "v: ((1, -1), (0, 1))\n"),
        "scalar-poly": (
            ScalarPoly(Fraction(9, 2), Fraction(9, 2), Fraction(1)),
            {"i2": "9/2", "i1": "9/2", "const": "1"},
            "v:\n  i2: 9/2\n  i1: 9/2\n  const: 1\n",
        ),
        "vec-poly": (
            VecPoly(Vec2.of(0, 0), Vec2.of(Fraction(83, 12), Fraction(-83, 12)), Vec2.of(1, -3)),
            {"i2": ["0", "0"], "i1": ["83/12", "-83/12"], "const": ["1", "-3"]},
            "v:\n  i2: (0, 0)\n  i1: (83/12, -83/12)\n  const: (1, -3)\n",
        ),
        "tuple": ((1, -2, 0), [1, -2, 0], "v: (1, -2, 0)\n"),
        "bool": (True, True, "v: yes\n"),
        "int": (10**30, 10**30, f"v: {10**30}\n"),
        "str": ("Borderline", "Borderline", "v: Borderline\n"),
        "nested": (
            [{"i": 1, "value": Vec2.of(Fraction(1, 2), 0), "equal": False}],
            [{"i": 1, "value": ["1/2", "0"], "equal": False}],
            "v:\n  -\n    i: 1\n    value: (1/2, 0)\n    equal: no\n",
        ),
        "vertices": (
            (Vec2.of(0, 0), Vec2.of(3, 0)),
            [["0", "0"], ["3", "0"]],
            "v: ((0, 0), (3, 0))\n",
        ),
    }

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("name", list(VALUES))
    def test_library_values_render(self, name, as_json):
        value, data, text = self.VALUES[name]
        rendered = render_report({"v": value}, as_json=as_json)
        if as_json:
            assert rendered == json.dumps({"v": data}, indent=2) + "\n"
        else:
            assert rendered == text
