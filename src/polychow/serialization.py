"""JSON file formats and exact-rational report rendering.

All rationals travel as strings ("p/q" or a bare integer string) so that
exactness survives round trips; float literals are rejected everywhere.
Reports are plain dicts of library values with deterministic key order;
`render_report` turns every value type into JSON data in one place and
writes it either as canonical JSON or as an indented text listing.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .errors import DuplicatePoint, ParseError
from .geometry import IntMat2, Polygon, Vec2, canonicalize, to_fraction
from .blowup import CornerCut
from .counting import ScalarPoly, VecPoly
from .stability import PointConfiguration, SymmetryGroup


def _echo(value) -> str:
    """The repr of an offending value, cut to about 60 characters so that
    an error message stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def parse_rational(value, where: str) -> Fraction:
    try:
        return to_fraction(value)
    except TypeError:
        raise ParseError(
            f"{where}: expected an exact rational string, got {_echo(value)}"
        ) from None
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: not a rational: {_echo(value)}") from exc


def _load_json(path: str | Path) -> object:
    """The JSON value held by the file. A file that cannot be read, is not
    UTF-8 or is not JSON, or holds an integer past the interpreter's
    4300-digit limit, raises ParseError naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # the integer digit limit
        raise ParseError(f"{path}: {exc}") from exc


def _load_list(path: str | Path, key: str, min_length: int, requirement: str) -> list:
    """The list held under `key` by the JSON object in the file."""
    data = _load_json(path)
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{path}: expected an object with a '{key}' key")
    raw = data[key]
    if not isinstance(raw, list) or len(raw) < min_length:
        raise ParseError(f"{path}: '{key}' {requirement}")
    return raw


def _coordinate_pair(raw, where: str) -> Vec2:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"{where}: expected a coordinate pair, got {_echo(raw)}")
    return Vec2(parse_rational(raw[0], f"{where}[0]"), parse_rational(raw[1], f"{where}[1]"))


def load_polytope(path: str | Path) -> Polygon:
    """Read {"vertices": [["0","0"], ...]} into a canonical polygon."""
    raw = _load_list(path, "vertices", 3, "must list at least three coordinate pairs")
    return canonicalize(
        [_coordinate_pair(entry, f"{path}: vertices[{idx}]") for idx, entry in enumerate(raw)]
    )


def load_cuts(path: str | Path) -> list[CornerCut]:
    """Read {"cuts": [{"vertex": ["0","0"], "depth": "1/2"}, ...]}."""
    raw = _load_list(path, "cuts", 0, "must be a list")
    cuts = []
    for idx, entry in enumerate(raw):
        where = f"{path}: cuts[{idx}]"
        if not isinstance(entry, dict) or "vertex" not in entry or "depth" not in entry:
            raise ParseError(f"{where}: expected keys 'vertex' and 'depth'")
        vertex = _coordinate_pair(entry["vertex"], f"{where}.vertex")
        depth = parse_rational(entry["depth"], f"{where}.depth")
        cuts.append(CornerCut(vertex, depth))
    return cuts


def load_points(path: str | Path) -> PointConfiguration:
    """Read {"points": [["1","0","0"], ...]} into a point configuration."""
    raw = _load_list(path, "points", 1, "must be a non-empty list")
    rows = []
    for idx, entry in enumerate(raw):
        where = f"{path}: points[{idx}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"{where}: expected a projective triple")
        rows.append([parse_rational(c, f"{where}[{j}]") for j, c in enumerate(entry)])
    try:
        return PointConfiguration.of(rows)
    except (ValueError, DuplicatePoint) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_group(path: str | Path) -> SymmetryGroup:
    """Read {"generators": [[[0,-1],[1,-1]], ...]} (row-major matrices)."""
    raw = _load_list(path, "generators", 1, "must be a non-empty list")
    generators = []
    for idx, entry in enumerate(raw):
        where = f"{path}: generators[{idx}]"
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or any(not isinstance(row, (list, tuple)) or len(row) != 2 for row in entry)
        ):
            raise ParseError(f"{where}: expected a 2x2 integer matrix in row-major form")
        values = [c for row in entry for c in row]
        if any(isinstance(c, (float, bool)) or not isinstance(c, int) for c in values):
            raise ParseError(f"{where}: matrix entries must be integers")
        generators.append(IntMat2.from_rows(entry[0], entry[1]))
    try:
        return SymmetryGroup.generated_by(generators)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def file_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _data(value):
    """A report value as JSON data: a Fraction as its p/q string, a Vec2 as
    its two coordinate strings, an IntMat2 as its rows, a polynomial as its
    "i2", "i1" and "const" coefficients, a tuple as a list, and dicts and
    lists entry by entry; ints, bools and strings stay as they are."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Vec2):
        return [str(value.x), str(value.y)]
    if isinstance(value, IntMat2):
        return [[value.a, value.b], [value.c, value.d]]
    if isinstance(value, (ScalarPoly, VecPoly)):
        return {"i2": _data(value.c2), "i1": _data(value.c1), "const": _data(value.c0)}
    if isinstance(value, dict):
        return {key: _data(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_data(entry) for entry in value]
    return value


def render_report(report: dict, as_json: bool) -> str:
    """The report, its library values turned into JSON data, as canonical
    JSON or as an indented text listing."""
    report = _data(report)
    if as_json:
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    lines: list[str] = []

    def emit(key: str, value, indent: int) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for sub_key, sub_value in value.items():
                emit(str(sub_key), sub_value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for entry in value:
                lines.append(f"{pad}  -")
                for sub_key, sub_value in entry.items():
                    emit(str(sub_key), sub_value, indent + 2)
        else:
            lines.append(f"{pad}{key}: {_flat(value)}")

    def _flat(value) -> str:
        if isinstance(value, list):
            return "(" + ", ".join(_flat(v) for v in value) + ")"
        if isinstance(value, bool):
            return "yes" if value else "no"
        return str(value)

    for key, value in report.items():
        emit(str(key), value, 0)
    return "\n".join(lines) + "\n"
