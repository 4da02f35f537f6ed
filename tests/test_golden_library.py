"""Replays recorded library outputs and compares their `repr`s.

`tests/golden/library_repr.json` maps each subject (a catalog polygon or a
corpus decomposition) to the `repr` of what the library returns for it:
for the polygons of `CATALOG`, `ehrhart_poly`, `sum_poly`, `chow_poly` and
`lattice_points` at i = 1, 2, 3; for `decomposition_corpus(max_count=40)`,
`df_invariants`, `chow_after_blowup`, the entries of
`verify_blowup_theorem(d, 6)`, `verify_general_identity` at i = 1, 2, 3
for one fixed affine f, and `lattice_points` of the (rational) chopped
polygon at i = 1, 2, 3. A `repr` pins values and types alike: every
coefficient must stay a `Fraction`.

After a deliberate change of library output, rewrite the recorded results
with `PYTHONPATH=src python tests/test_golden_library.py` and review the
diff.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest
from corpus import CATALOG, decomposition_corpus

from polychow import (
    AffineMap,
    Vec2,
    chow_after_blowup,
    chow_poly,
    df_invariants,
    ehrhart_poly,
    lattice_points,
    sum_poly,
    verify_blowup_theorem,
    verify_general_identity,
)

GOLDEN = Path(__file__).parent / "golden" / "library_repr.json"

# a fixed affine test function with rational entries and a non-zero offset
F = AffineMap.linear(2, -1, Fraction(1, 3), 1, Vec2.of(5, Fraction(-1, 2)))


def _polygon_outputs(polygon) -> dict[str, str]:
    out = {
        "ehrhart_poly": repr(ehrhart_poly(polygon)),
        "sum_poly": repr(sum_poly(polygon)),
        "chow_poly": repr(chow_poly(polygon)),
    }
    for i in (1, 2, 3):
        out[f"lattice_points {i}"] = repr(lattice_points(polygon, i))
    return out


def _decomposition_outputs(d) -> dict[str, str]:
    out = {
        "df_invariants": repr(df_invariants(d)),
        "chow_after_blowup": repr(chow_after_blowup(d)),
        "verify_blowup_theorem 6": repr(verify_blowup_theorem(d, 6).entries),
    }
    for i in (1, 2, 3):
        out[f"verify_general_identity {i}"] = repr(verify_general_identity(d, F, i))
    for i in (1, 2, 3):
        out[f"chopped lattice_points {i}"] = repr(lattice_points(d.chopped, i))
    return out


def _subjects() -> dict[str, tuple]:
    subjects: dict[str, tuple] = {}
    for n, polygon in enumerate(CATALOG):
        subjects[f"catalog[{n}]"] = (_polygon_outputs, polygon)
    for n, d in enumerate(decomposition_corpus(max_count=40)):
        subjects[f"corpus[{n}]"] = (_decomposition_outputs, d)
    return subjects


_SUBJECTS = _subjects()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(_SUBJECTS))
def test_library_repr_matches_golden(name, golden, monkeypatch):
    monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
    outputs, subject = _SUBJECTS[name]
    assert outputs(subject) == golden[name]


def test_golden_covers_every_subject(golden):
    assert list(golden) == list(_SUBJECTS)


def _regenerate() -> None:
    os.environ.pop("POLYCHOW_MAX_ENUM", None)
    data = {name: outputs(subject) for name, (outputs, subject) in _SUBJECTS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
