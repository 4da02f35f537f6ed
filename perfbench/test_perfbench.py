"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CHOP_BASES, DELZANT, WORKLOADS, CliResult  # noqa: E402


def built(name: str, seed: int, tmp_path: Path, limit: int):
    workload = WORKLOADS[name]
    env, cases, calls, _ = run.setup(workload, seed, ROOT, tmp_path)
    cases, calls = cases[:limit], calls[:limit]
    return workload, env, cases, calls


def one_round(workload, cases, calls, expected):
    tally = run.new_tally()
    run.run_round(workload, cases, calls, expected, None, tally)
    tally["wrong"] = sum("oracle says" in problem for problem in tally["problems"])
    return tally


def test_oracle_hand_computed_cases():
    oracle.self_check()
    assert oracle.base_data(((0, 0), (1, 0), (1, 1), (0, 1))).e == (1, 2, 1)
    assert oracle.base_data(((0, 0), (3, 0), (0, 3))).e == (F(9, 2), F(9, 2), 1)


def test_oracle_imports_nothing_from_polychow():
    tree = ast.parse((HERE / "oracle.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "polychow" for name in imported)


def test_catalog_bases_are_delzant_and_sum_rule_bases_balanced():
    assert all(oracle.is_delzant(verts) for verts in DELZANT.values())
    for name in CHOP_BASES[1]:
        data = oracle.base_data(DELZANT[name])
        assert oracle.fo_value(data.count(1), data.point_sum(1), 1, data.area,
                               data.moment) == oracle.ZERO, name


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        assert workload.cases(Random(5)) == workload.cases(Random(5))
        assert workload.cases(Random(5)) != workload.cases(Random(6))


def test_runs_leave_ten_ops_beyond_p90():
    for workload in WORKLOADS.values():
        assert run.MIN_ROUNDS * len(workload.cases(Random(1))) >= 100, workload.name


def test_metrics_over_every_timed_op():
    timings = [[0.001] * 9 + [0.1], [0.3] + [0.001] * 9]
    metrics = run.end_to_end_metrics(timings)
    assert metrics["ops_per_s"]["value"] == pytest.approx(20 / 0.418)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.0)
    assert metrics["op_p90_ms"]["value"] == pytest.approx(1.0 * 0.1 + 100.0 * 0.9)


def test_warm_up_is_checked_but_not_timed(tmp_path, monkeypatch):
    workload, env, cases, calls = built("incidence", 2, tmp_path, 4)
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    tally = run.new_tally()
    run.warm_up(workload, cases, calls, tally)
    timings = run.run_rounds(workload, env, cases, 0, None, tally)
    assert [len(t) for t in timings] == [4, 4]
    assert (tally["attempted"], tally["failed"]) == (12, 0)


@pytest.mark.parametrize("name,limit", [("dilated-polygons", 12), ("blowup-chains", 12),
                                        ("incidence", 12), ("cli-batch", 7)])
def test_round_agrees_with_oracle(name, limit, tmp_path):
    workload, env, cases, calls = built(name, 3, tmp_path, limit)
    tally = one_round(workload, cases, calls, [workload.expect(c) for c in cases])
    moved, moved_calls, moved_expected = run.round_inputs(workload, env, cases, 2)
    assert all(a != b for a, b in zip(cases, moved))
    run.run_round(workload, moved, moved_calls, moved_expected, None, tally)
    assert tally["problems"] == []
    assert (tally["attempted"], tally["failed"]) == (2 * limit, 0)


def test_incidence_has_every_verdict():
    cases = WORKLOADS["incidence"].cases(Random(2))
    verdicts = {oracle.mukai(c.spec["points"])[0] for c in cases if c.kind != "groups"}
    assert verdicts == {"Stable", "Borderline", "Unstable"}


def raising():
    raise ValueError("the library raised")


def test_raising_op_makes_the_run_incorrect(tmp_path):
    workload, _, cases, calls = built("blowup-chains", 4, tmp_path, 4)
    expected = [workload.expect(c) for c in cases]
    tally = one_round(workload, cases, [raising] + calls[1:], expected)
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (4, 1, 0)
    assert run.result_line(True, tally, {})["correct"] is False
    assert run.result_line(True, one_round(workload, cases, calls, expected), {})["correct"]


def test_failing_cli_child_makes_the_run_incorrect(tmp_path):
    workload, _, cases, calls = built("cli-batch", 4, tmp_path, 3)
    expected = [workload.expect(c) for c in cases]
    crashed = CliResult(1, b"Traceback ...", tmp_path / "none.json")
    garbled = CliResult(0, b"{not json", tmp_path / "none.json")
    tally = one_round(workload, cases, [lambda: crashed, lambda: garbled, calls[2]], expected)
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (3, 2, 0)
    assert run.result_line(True, tally, {})["correct"] is False


def skew(value):
    """The same value with its first leaf made wrong."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, F)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, tuple):
        return (skew(value[0]),) + value[1:]
    if isinstance(value, list):
        return [skew(value[0])] + value[1:]
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: skew(value[key])}
    if isinstance(value, frozenset):
        return value | {("not", "an", "element")}
    raise TypeError(type(value))


@pytest.mark.parametrize("name,limit", [("dilated-polygons", 6), ("blowup-chains", 6),
                                        ("incidence", 6), ("cli-batch", 3)])
def test_wrong_expected_value_fails_ops(name, limit, tmp_path):
    workload, _, cases, calls = built(name, 4, tmp_path, limit)
    expected = [workload.expect(c) for c in cases]
    wrong = [skew(e) if j % 2 == 0 else e for j, e in enumerate(expected)]
    tally = one_round(workload, cases, calls, wrong)
    flipped = (limit + 1) // 2
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (limit, flipped, flipped)


def test_wrong_oracle_verdict_fails_mukai_ops(tmp_path, monkeypatch):
    workload, _, cases, calls = built("cli-batch", 4, tmp_path, 112)
    chosen = [(c, f) for c, f in zip(cases, calls) if c.kind == "mukai"][:3]
    original = oracle.mukai
    monkeypatch.setattr(oracle, "mukai", lambda points: ("Wrong",) + original(points)[1:])
    expected = [workload.expect(c) for c, _ in chosen]
    tally = one_round(workload, [c for c, _ in chosen], [f for _, f in chosen], expected)
    assert tally["attempted"] == tally["failed"] == tally["wrong"] == len(chosen) > 0


def test_tracer_self_time_and_rebinding():
    import polychow
    import polychow.chow

    polygon = polychow.Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
    original = polychow.chow.sum_poly
    tracer = Tracer()
    tracer.install(polychow)
    try:
        assert polychow.chow.sum_poly is not original
        polychow.chow_poly(polygon)            # outside an op: not recorded
        assert tracer.spans == []
        tracer.begin_op("chow_poly")
        polychow.chow_poly(polygon)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert polychow.chow.sum_poly is original
    metrics = {k: v["value"] for k, v in tracer.metrics().items()}
    assert metrics["chow.enumerations_per_poly"] == 7
    assert metrics["counting.lattice_points.calls"] == 7
    assert metrics["counting.points_listed"] == sum(
        oracle.base_data(((0, 0), (3, 0), (0, 3))).count(i) for i in (1, 2, 3, 1, 2, 3, 4))
    assert metrics["counting.repeat_enumerations"] == 3

    spans = [["op", 0.0, 10.0, -1, "x"], ["chow.chow_poly", 1.0, 9.0, 0, None],
             ["counting.sum_poly", 2.0, 5.0, 1, None]]
    synthetic = Tracer()
    synthetic.spans = spans
    values = synthetic.metrics()
    assert values["chow.chow_poly.self_ms"]["value"] == pytest.approx(5000.0)
    assert values["counting.sum_poly.self_ms"]["value"] == pytest.approx(3000.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blowup-chains",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == b""
