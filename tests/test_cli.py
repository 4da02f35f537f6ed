from __future__ import annotations

import json
import time

import pytest

from corpus import farey_fan
from polychow.cli import main
from polychow.errors import VerificationMismatch
from polychow.geometry import Vec2


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    return write(tmp_path, "tri.json", {"vertices": [["0", "0"], ["3", "0"], ["0", "3"]]})


@pytest.fixture
def hexagon_file(tmp_path):
    return write(
        tmp_path,
        "hex.json",
        {"vertices": [["1", "0"], ["2", "0"], ["2", "1"], ["1", "2"], ["0", "2"], ["0", "1"]]},
    )


@pytest.fixture
def heptagon_file(tmp_path):
    vertices = [["1", "0"], ["2", "0"], ["2", "1"], ["1", "2"], ["1/2", "2"], ["0", "3/2"], ["0", "1"]]
    return write(tmp_path, "hepta.json", {"vertices": vertices})


@pytest.fixture
def cut_file(tmp_path):
    return write(tmp_path, "cuts.json", {"cuts": [{"vertex": ["0", "2"], "depth": "1/2"}]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestInfo:
    def test_triangle(self, capsys, triangle_file):
        code, report = run_json(capsys, "info", triangle_file)
        assert code == 0
        assert report["polytope"]["area"] == "9/2"
        assert report["polytope"]["is_delzant"] is True
        assert report["polytope"]["denominator_lcm"] == 1
        assert report["polytope"]["barycenter"] == ["1", "1"]

    def test_heptagon(self, capsys, heptagon_file):
        code, report = run_json(capsys, "info", heptagon_file)
        assert code == 0
        assert report["polytope"]["is_lattice"] is False
        assert report["polytope"]["denominator_lcm"] == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [["0","0"],["1","0"],["0"', encoding="utf-8")
        code = main(["info", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.json" in err and ":" in err  # position-annotated message

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code = main(["info", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "deep.json" in err

    def test_degenerate_polygon(self, capsys, tmp_path):
        path = write(tmp_path, "flat.json", {"vertices": [["0", "0"], ["1", "0"], ["2", "0"]]})
        assert main(["info", path]) == 1

    def test_float_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "f.json", {"vertices": [[0.5, 0], [1, 0], [0, 1]]})
        code = main(["info", path])
        assert code == 1
        assert "exact rational" in capsys.readouterr().err

    def test_reports_are_deterministic(self, capsys, triangle_file):
        code1, out1 = run(capsys, "info", triangle_file)
        code2, out2 = run(capsys, "info", triangle_file)
        assert (code1, code2) == (0, 0)
        assert out1 == out2


class TestCounting:
    def test_ehrhart_eval(self, capsys, triangle_file):
        code, report = run_json(capsys, "ehrhart", triangle_file, "--i", "2")
        assert code == 0 and report["count"] == 28

    def test_ehrhart_poly(self, capsys, hexagon_file):
        code, report = run_json(capsys, "ehrhart", hexagon_file, "--poly")
        assert code == 0
        assert report["ehrhart_poly"] == {"i2": "3", "i1": "3", "const": "1"}

    def test_ehrhart_poly_rational_polygon_fails(self, capsys, heptagon_file):
        assert main(["ehrhart", heptagon_file, "--poly"]) == 1

    def test_sum(self, capsys, triangle_file):
        code, report = run_json(capsys, "sum", triangle_file, "--i", "1")
        assert code == 0 and report["sum"] == ["10", "10"]

    def test_sum_poly(self, capsys, triangle_file):
        code, report = run_json(capsys, "sum", triangle_file, "--poly")
        assert code == 0
        assert report["sum_poly"]["i2"] == ["9/2", "9/2"]
        assert report["sum_poly"]["const"] == ["1", "1"]


class TestChow:
    def test_quadrilateral_poly(self, capsys, tmp_path):
        path = write(
            tmp_path, "quad.json",
            {"vertices": [["0", "0"], ["0", "1"], ["2", "1"], ["3", "0"]]},
        )
        code, report = run_json(capsys, "chow", path, "--poly")
        assert code == 0
        assert report["chow_poly"]["linear"] == ["1/6", "-1/3"]
        assert report["chow_poly"]["const"] == ["1/6", "-1/3"]
        assert report["coefficient_span_dim"] == 1

    def test_rectangle_vanishes(self, capsys, tmp_path):
        path = write(
            tmp_path, "rect.json",
            {"vertices": [["0", "0"], ["4", "0"], ["4", "2"], ["0", "2"]]},
        )
        code, report = run_json(capsys, "chow", path, "--poly")
        assert code == 0
        assert report["chow_poly"] == {"linear": ["0", "0"], "const": ["0", "0"]}
        assert report["coefficient_span_dim"] == 0

    def test_law_diagnostics(self, capsys, triangle_file):
        code, report = run_json(capsys, "chow", triangle_file, "--poly", "--laws", "2")
        assert code == 0
        assert len(report["laws"]) == 6
        assert all(entry["holds"] for entry in report["laws"])


class TestBlowup:
    def test_hexagon_cut(self, capsys, hexagon_file, cut_file):
        code, report = run_json(
            capsys, "blowup", hexagon_file, "--cuts", cut_file, "--verify", "--imax", "5"
        )
        assert code == 0
        assert report["k"] == 2
        assert report["A"] == 11 and report["B"] == 23
        assert report["DF1"] == ["83/12", "-83/12"]
        assert report["DF2"] == ["13/12", "-13/12"]
        assert report["coefficient_span_dim"] == 1
        assert report["verified"] is True
        assert len(report["verification"]) == 5

    def test_triple_cut(self, capsys, triangle_file, tmp_path):
        cuts = write(
            tmp_path, "three.json",
            {"cuts": [
                {"vertex": ["0", "0"], "depth": "1"},
                {"vertex": ["3", "0"], "depth": "1"},
                {"vertex": ["0", "3"], "depth": "1"},
            ]},
        )
        code, report = run_json(
            capsys, "blowup", triangle_file, "--cuts", cuts, "--verify", "--imax", "4"
        )
        assert code == 0
        assert report["k"] == 1
        assert report["M"] == 3 and report["M_tilde"] == 3
        assert report["A"] == 6 and report["B"] == 6
        assert report["DF1"] == ["0", "0"] and report["DF2"] == ["0", "0"]
        assert report["chow_poly"] == {"linear": ["0", "0"], "const": ["0", "0"]}
        assert report["verified"] is True

    def test_cut_at_missing_vertex_exit_one(self, capsys, triangle_file, tmp_path):
        cuts = write(
            tmp_path, "miss.json",
            {"cuts": [{"vertex": ["1", "1"], "depth": "1/2"}]},
        )
        assert main(["blowup", triangle_file, "--cuts", cuts]) == 1

    def test_overlapping_cuts_exit_one(self, capsys, triangle_file, tmp_path):
        cuts = write(
            tmp_path, "bad_cuts.json",
            {"cuts": [
                {"vertex": ["0", "0"], "depth": "2"},
                {"vertex": ["3", "0"], "depth": "1"},
            ]},
        )
        assert main(["blowup", triangle_file, "--cuts", cuts]) == 1

    def test_verification_mismatch_exit_two(self, capsys, hexagon_file, cut_file, monkeypatch):
        import polychow.cli as cli_module

        def broken(decomposition, i_max):
            raise VerificationMismatch(1, Vec2.of(0, 0), Vec2.of(1, 1), None)

        monkeypatch.setattr(cli_module, "verify_blowup_theorem", broken)
        code = main(["blowup", hexagon_file, "--cuts", cut_file, "--verify"])
        assert code == 2


class TestFo:
    def test_symmetric_hexagon(self, capsys, tmp_path):
        path = write(
            tmp_path, "sym.json",
            {"vertices": [["-2", "1"], ["1", "1"], ["2", "0"], ["2", "-1"], ["-1", "-1"], ["-2", "0"]]},
        )
        code, report = run_json(capsys, "fo", path, "--i", "4")
        assert code == 0
        assert all(entry["value"] == ["0", "0"] for entry in report["fo"])
        assert report["centrally_symmetric"] is True
        assert report["weakly_symmetric_via_point_reflection"] is True

    def test_quadrilateral_value(self, capsys, tmp_path):
        path = write(
            tmp_path, "quad.json",
            {"vertices": [["0", "0"], ["0", "1"], ["1", "1"], ["2", "0"]]},
        )
        code, report = run_json(capsys, "fo", path)
        assert code == 0
        assert report["fo"][0]["value"] == ["1/45", "-2/45"]

    def test_group_file(self, capsys, tmp_path):
        poly = write(
            tmp_path, "t.json",
            {"vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]},
        )
        group = write(tmp_path, "g.json", {"generators": [[[0, -1], [1, -1]]]})
        code, report = run_json(capsys, "fo", poly, "--group", group)
        assert code == 0
        assert report["group_order"] == 3
        assert report["weakly_symmetric"] is True

    def test_infinite_group_file_exits_one_at_once(self, capsys, tmp_path):
        poly = write(tmp_path, "t.json", {"vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]})
        group = write(tmp_path, "g.json", {"generators": [[[10**20 + 1, 10**20], [1, 1]]]})
        started = time.monotonic()
        assert main(["fo", poly, "--group", group]) == 1
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: GroupClosureOverflow: group closure exceeds 6 elements; "
            "the generated group is infinite\n"
        )


class TestMukai:
    def test_stable(self, capsys, tmp_path):
        path = write(
            tmp_path, "pts.json",
            {"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]},
        )
        code, report = run_json(capsys, "mukai", path)
        assert code == 0 and report["verdict"] == "Stable"

    def test_unstable_with_witness(self, capsys, tmp_path):
        path = write(
            tmp_path, "pts.json",
            {"points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]},
        )
        code, report = run_json(capsys, "mukai", path)
        assert code == 0
        assert report["verdict"] == "Unstable"
        assert report["witness"]["dim"] == 1
        assert report["witness"]["ratio"] == "3/4"

    def test_duplicate_points_exit_one(self, capsys, tmp_path):
        path = write(tmp_path, "pts.json", {"points": [["1", "0", "0"], ["2", "0", "0"]]})
        assert main(["mukai", path]) == 1

    def test_pair_budget_exit_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "10")
        points = [["1", str(j), str(j * j)] for j in range(6)]
        path = write(tmp_path, "pts.json", {"points": points})
        assert main(["mukai", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "15 point pairs" in captured.err


class TestReplicate:
    def test_full_suite_passes(self, capsys):
        code, report = run_json(capsys, "replicate")
        assert code == 0
        assert report["all_pass"] is True
        names = {entry["name"] for entry in report["fixtures"]}
        assert "hexagon-corner-chop" in names
        assert "octagon-corner-chop" in names
        assert all(entry["status"] == "pass" for entry in report["fixtures"])


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [["ehrhart", "{file}", "--i", "x"], ["frobnicate"], [], ["info", "{file}", "--text"]],
    )
    def test_argument_error_exit_one(self, capsys, triangle_file, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([a.format(file=triangle_file) for a in argv])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["ehrhart", "{file}", "--i", "0"],
            ["fo", "{file}", "--i", "0"],
            ["fo", "{file}", "--i", "-5"],
            ["chow", "{file}", "--laws", "-1"],
            ["chow", "{file}", "--poly", "--laws", "-1"],
        ],
    )
    def test_out_of_range_value_exit_one(self, capsys, triangle_file, argv):
        assert main([a.format(file=triangle_file) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["chow", "--help"]])
    def test_help_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestLongNumbers:
    @pytest.mark.parametrize(
        "corner, argv",
        [
            ("9" * 4290, ["--i", "1000000"]),
            ("1e4300", []),
            ("1e4400", []),
        ],
        ids=["4290 nines", "1e4300", "1e4400"],
    )
    def test_result_past_the_digit_limit_exit_one(self, capsys, tmp_path, corner, argv):
        # a count past 4300 digits cannot be printed; an exponent past 4300
        # is refused when the file is read
        path = write(tmp_path, "wide.json", {"vertices": [["0", "0"], [corner, "0"], ["0", "1"]]})
        assert main(["ehrhart", path, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("depth", ["1e30000000", "1e-30000000"])
    def test_long_cut_depth_exponent_refused_at_once(self, capsys, hexagon_file, tmp_path, depth):
        cuts = write(tmp_path, "deep.json", {"cuts": [{"vertex": ["0", "2"], "depth": depth}]})
        started = time.monotonic()
        assert main(["blowup", hexagon_file, "--cuts", cuts]) == 1
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ") and "depth" in captured.err


class TestUndecodableFiles:
    """A file that is not UTF-8, or holds a JSON integer past the
    interpreter's 4300-digit limit, gives one ParseError line naming the
    file, whichever loader reads it."""

    LONG = "1" + "0" * 5000
    TEXTS = {
        "info": '{"vertices": [[%s, "0"], ["1", "0"], ["0", "1"]]}' % LONG,
        "blowup": '{"cuts": [{"vertex": [%s, "0"], "depth": "1"}]}' % LONG,
        "mukai": '{"points": [[%s, "0", "1"]]}' % LONG,
        "fo": '{"generators": [[[%s, 0], [0, 1]]]}' % LONG,
    }

    @staticmethod
    def argv(command, path, hexagon_file):
        if command == "blowup":
            return ["blowup", hexagon_file, "--cuts", path]
        if command == "fo":
            return ["fo", hexagon_file, "--group", path]
        return [command, path]

    def check(self, capsys, argv, path, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: ParseError: {path}: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", list(TEXTS))
    def test_file_not_utf8(self, capsys, tmp_path, hexagon_file, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        self.check(capsys, self.argv(command, str(path), hexagon_file), path, message)

    @pytest.mark.parametrize("command", list(TEXTS))
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, hexagon_file, command):
        path = tmp_path / "long.json"
        path.write_text(self.TEXTS[command], encoding="utf-8")
        message = "Exceeds the limit (4300 digits) for integer string conversion"
        self.check(capsys, self.argv(command, str(path), hexagon_file), path, message)


class TestLongValuesInErrors:
    """A parse error echoes at most about 60 characters of the offending
    value, so a huge value still gives one short error line."""

    @pytest.mark.parametrize(
        "command, key, payload",
        [
            ("info", "vertices", [["x" * 200_000, "0"], ["1", "0"], ["0", "1"]]),
            ("blowup", "cuts", [{"vertex": ["0", "2"], "depth": "1/" + "x" * 100_000}]),
            ("mukai", "points", [["x" * 100_000, "0", "1"]]),
            ("info", "vertices", [list(range(50_000)), ["1", "0"], ["0", "1"]]),
        ],
        ids=["info coordinate", "blowup depth", "mukai coordinate", "info list as a pair"],
    )
    def test_one_short_error_line(self, capsys, hexagon_file, tmp_path, command, key, payload):
        path = write(tmp_path, "long.json", {key: payload})
        argv = ["blowup", hexagon_file, "--cuts", path] if command == "blowup" else [command, path]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 400
        assert "long.json" in captured.err and "..." in captured.err


class TestBudget:
    def test_enumeration_cap_exit_one(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "3")
        assert main(["ehrhart", triangle_file]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fo", "{tri}", "--i", "100000000"],
            ["chow", "{tri}", "--laws", "100000000"],
            ["blowup", "{hex}", "--cuts", "{cuts}", "--verify", "--imax", "100000000"],
        ],
    )
    def test_dilation_loops_charged_before_work(
        self, capsys, triangle_file, hexagon_file, cut_file, monkeypatch, argv
    ):
        # each loop would run for hours; its rows over all dilations are
        # charged to the default cap before the first one
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        files = {"tri": triangle_file, "hex": hexagon_file, "cuts": cut_file}
        started = time.monotonic()
        assert main([a.format(**files) for a in argv]) == 1
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert f"{argv[-2]} 100000000 scans up to" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ehrhart", "{tall}"],
            ["chow", "{tall}", "--poly"],
            ["ehrhart", "{tri}", "--i", str(10**23)],
        ],
    )
    def test_rows_past_sys_maxsize_exit_one(
        self, capsys, tmp_path, triangle_file, monkeypatch, argv
    ):
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        tall = write(tmp_path, "tall.json", {"vertices": [[0, 0], [1, 0], [0, 10**20]]})
        assert main([a.format(tall=tall, tri=triangle_file) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: EnumerationLimitExceeded: enumeration scans ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "{fan}"],
            ["ehrhart", "{fan}", "--poly"],
            ["chow", "{fan}", "--poly"],
            ["fo", "{fan}", "--i", "2"],
            ["blowup", "{fan}", "--cuts", "{cuts}", "--verify", "--imax", "3"],
        ],
    )
    def test_large_delzant_polygon_bounded(self, tmp_path, monkeypatch, argv):
        # 5696 smooth corners, every one cut in the blow-up
        monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
        fan = farey_fan(48)
        vertices = [[str(c) for c in v] for v in fan.vertices]
        files = {
            "fan": write(tmp_path, "fan.json", {"vertices": vertices}),
            "cuts": write(tmp_path, "cuts.json", {
                "cuts": [{"vertex": v, "depth": "1/3"} for v in vertices]
            }),
        }
        started = time.monotonic()
        assert main([a.format(**files) for a in argv]) == 0
        assert time.monotonic() - started < 2.0

    def test_floor_sums_past_recursion_limit_exit_one(self, capsys, tmp_path, monkeypatch):
        # a raised cap admits 10^313 rows on golden-ratio slopes, whose floor
        # sums nest past the interpreter's recursion limit
        monkeypatch.setenv("POLYCHOW_MAX_ENUM", "1" + "0" * 400)
        fib = [0, 1]
        while len(fib) < 1502:
            fib.append(fib[-1] + fib[-2])
        vertices = [["0", "0"], [str(fib[1501]), str(fib[1500])], ["0", str(fib[1500])]]
        path = write(tmp_path, "fib.json", {"vertices": vertices})
        assert main(["ehrhart", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: EnumerationLimitExceeded: floor sums over ")
        assert captured.err.count("\n") == 1
