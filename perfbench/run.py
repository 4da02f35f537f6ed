"""polychow benchmark: one workload, closed loop, one client, one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload dilated-polygons --seed 1 --seconds 25 --trace 0

The seed fixes one round of inputs. The run repeats that round, moved by
one more step each time (see `workloads.py`): one untimed warm-up round,
then timed rounds until --seconds have passed and at least MIN_ROUNDS are
done, always finishing the round it is in. Between rounds it starts the
fresh set-up processes whose median is setup_s. It checks every op's
output against the independent oracle in `oracle.py`,
and prints one JSON object as the last line of stdout: end-to-end metrics
with --trace 0, per-layer metrics from spans around polychow's public
functions with --trace 1. Results and spans go to .perfbench-out/ in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random
from time import perf_counter

import oracle
from workloads import WORKLOADS, CliResult, run_child

# Fresh set-up processes per run, spread over the run's time.
SETUP_PROBES = 15
# Timed rounds per run at least. The percentiles are over every timed op,
# so a run has at least MIN_ROUNDS * (ops per round) >= 100 latencies and
# at least ten beyond p90.
MIN_ROUNDS = 3
OUT_DIR = ".perfbench-out"
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Env:
    """What a workload's built calls need at run time."""

    def __init__(self, pc, root: Path, workdir: Path):
        self.pc = pc
        self.workdir = workdir
        self.tracer = None
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_child_rss_kb = 0
        self._ids = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids

    def run_cli(self, args: list, input_file: Path) -> CliResult:
        if self.tracer is None:
            argv = [sys.executable, "-m", "polychow.cli", *args]
        else:
            spans = self.workdir / "child-spans.json"
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(spans), *args]
        code, stdout, rss_kb = run_child(argv, self.child_env)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        if self.tracer is not None:
            child = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
            self.tracer.absorb(child["spans"], child["import_ms"], len(stdout))
        return CliResult(code, stdout, input_file)


def setup(workload, seed: int, root: Path, workdir: Path):
    """Import polychow from the checkout and build one round of inputs.

    Returns (env, cases, calls, import seconds). This is what setup_s
    measures, so it does no oracle work.
    """
    src = root / "src"
    sys.path.insert(0, str(src))
    started = perf_counter()
    import polychow
    import_s = perf_counter() - started
    if Path(polychow.__file__).resolve().parent != (src / "polychow").resolve():
        raise SystemExit(f"error: imported polychow from {polychow.__file__}, not {src}")
    env = Env(polychow, root, workdir)
    cases = workload.cases(Random(seed))
    calls = [workload.build(case, env) for case in cases]
    return env, cases, calls, import_s


class SetupProbes:
    """Wall times of fresh processes that each start the interpreter and
    run `setup` for this workload and seed, from spawn until the inputs
    are built. They are spread over the run, one before the first round
    and the others as its time passes, so their median is not that of one
    moment of the machine's speed."""

    def __init__(self, args):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        self.times: list[float] = []

    def due(self, share: float) -> None:
        """Start the probes due once `share` of the run has passed."""
        while len(self.times) < 1 + round((SETUP_PROBES - 1) * min(share, 1.0)):
            self.times.append(self.probe())

    def probe(self) -> float:
        started = perf_counter()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed with exit code {proc.returncode}")
        return elapsed

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


def run_round(workload, cases, calls, expected, tracer, tally) -> list[float]:
    """Run every op once, timing each; then check the outputs against the
    oracle outside the timed region. Returns the latencies in seconds."""
    outputs = []
    latencies = []
    for case, call in zip(cases, calls):
        if tracer is not None:
            tracer.begin_op(case.kind)
        t0 = perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # counted as a failed op and reported
            out, err = None, exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        latencies.append(t1 - t0)
        outputs.append((out, err))
    for case, want, (out, err) in zip(cases, expected, outputs):
        tally["attempted"] += 1
        if err is None:
            try:
                got = workload.observe(case, out)
            except Exception as exc:  # a malformed output fails the op
                err = exc
        if err is not None:
            tally["failed"] += 1
            tally["problems"].append(f"{case.kind}: {type(err).__name__}: {err}")
        elif got != want:
            tally["failed"] += 1
            tally["problems"].append(f"{case.kind}: got {got!r}, oracle says {want!r}")
    return latencies


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "problems": []}


def round_inputs(workload, env, cases, r: int):
    """Round r's cases, their built calls and the oracle's values. Every
    case is moved by r steps, so no input value repeats between rounds.
    This runs outside the timed ops."""
    varied = [workload.vary(case, r) for case in cases]
    return varied, [workload.build(case, env) for case in varied], [
        workload.expect(case) for case in varied]


def warm_up(workload, cases, calls, tally) -> None:
    """The untimed, untraced round 0, on the calls built during set-up."""
    run_round(workload, cases, calls, [workload.expect(case) for case in cases], None, tally)


def run_rounds(workload, env, cases, seconds: float, tracer, tally, probes=None):
    """Timed rounds 1, 2, ... until `seconds` have passed and MIN_ROUNDS
    are done. Each round builds its own moved inputs first, untimed, and
    its outputs are checked. The set-up probes fall due between rounds.
    Returns each round's op latencies."""
    timings: list[list[float]] = []
    started = perf_counter()
    while perf_counter() - started < seconds or len(timings) < MIN_ROUNDS:
        round_cases, round_calls, expected = round_inputs(workload, env, cases, len(timings) + 1)
        timings.append(run_round(workload, round_cases, round_calls, expected, tracer, tally))
        if probes is not None:
            probes.due((perf_counter() - started) / seconds if seconds else 1.0)
    return timings


def end_to_end_metrics(timings: list[list[float]]) -> dict:
    """Over every timed op of the run: ops_per_s is the ops completed per
    second of timed wall time, the percentiles are of their latencies.
    Each round's inputs differ, so no cache can serve a later round."""
    latencies = [t for round_timings in timings for t in round_timings]
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8] * 1000.0, "unit": "ms"},
    }


def result_line(oracle_ok: bool, tally: dict, metrics: dict) -> dict:
    """The final JSON object. An op that raised, printed a malformed
    report or disagreed with the oracle makes the run incorrect."""
    return {"correct": oracle_ok and tally["failed"] == 0, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exit, so children are killed and waited for
    # and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "polychow" / "__init__.py").is_file():
        print("error: src/polychow not found; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    try:
        env, cases, calls, import_s = setup(workload, args.seed, root, workdir)
        if args.setup_probe:
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        return run(args, workload, env, cases, calls, import_s, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, env, cases, calls, import_s, out_dir: Path) -> int:
    probes = SetupProbes(args)
    probes.due(0.0)
    try:
        oracle.self_check()
        oracle_ok = True
    except oracle.OracleError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        oracle_ok = False

    tally = new_tally()
    warm_up(workload, cases, calls, tally)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(env.pc)
        env.tracer = tracer
        if workload.name != "cli-batch":  # there the children report their own imports
            tracer.import_ms.append(import_s * 1000.0)
    timings = run_rounds(workload, env, cases, args.seconds, tracer, tally, probes)
    setup_s = probes.median()
    attempted, failed, problems = tally["attempted"], tally["failed"], tally["problems"]

    if workload.name == "cli-batch":
        peak_kb = env.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {"setup_s": {"value": setup_s, "unit": "s"}, **end_to_end_metrics(timings),
                  "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"}}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out_dir / f"trace-{stem}.jsonl")
        metrics = tracer.metrics()
    else:
        metrics = end_to_end
    result = result_line(oracle_ok, tally, metrics)
    details = {**result, "workload": workload.name, "seed": args.seed, "trace": args.trace,
               "rounds": len(timings), "ops_per_round": len(cases),
               "setup_probes_s": probes.times, "timings_s": timings,
               "import_s": import_s, "end_to_end": end_to_end, "problems": problems[:20]}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n",
                                                 encoding="utf-8")
    for line in problems[:5]:
        print(f"failed op: {line[:400]}", file=sys.stderr)
    print(f"{workload.name}: {attempted} ops in {len(timings)} timed rounds and a warm-up, "
          f"{failed} failed; "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in end_to_end.items()), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
