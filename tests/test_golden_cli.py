"""Replays recorded CLI invocations and compares exit codes and stdout bytes.

`tests/golden/cli_stdout.json` holds the input files (name -> text) and, for
each case, the argv, the exit code and the stdout of `polychow.cli.main`. An
argv entry that names one of the files is replaced by its path. stderr is
not compared: it carries the duration line and the error messages. The
`--help` cases are rendered at a fixed width of 80 columns, since argparse
wraps help text to the terminal's width.

After a deliberate change of CLI output, rewrite the recorded results with
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from polychow.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _write_files(files: dict[str, str], directory: Path) -> dict[str, str]:
    paths = {}
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _invoke(argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    out = io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
    ):
        try:
            code = main([paths.get(arg, arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


_DATA = _load()


@pytest.mark.parametrize(
    "case", _DATA["cases"], ids=[" ".join(case["argv"]) for case in _DATA["cases"]]
)
def test_cli_stdout_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("POLYCHOW_MAX_ENUM", raising=False)
    paths = _write_files(_DATA["files"], tmp_path)
    assert _invoke(case["argv"], paths) == (case["exit"], case["stdout"])


def _regenerate() -> None:
    os.environ.pop("POLYCHOW_MAX_ENUM", None)
    data = _load()
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_files(data["files"], Path(directory))
        for case in data["cases"]:
            case["exit"], case["stdout"] = _invoke(case["argv"], paths)
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
