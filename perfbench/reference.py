"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py --seeds 1-10 --traced-seeds 1-3 --overhead-rounds 6

It runs every workload once per seed, seed-major, so each workload's runs
spread over the whole measurement. It then prints, per workload and
end-to-end metric, the median, the quartiles and their distance as a
share of the median. Traced runs of the traced seeds give the medians of
the per-layer metrics.

The tracing overhead is measured in one process per workload on seed 1.
Untraced and traced rounds alternate there, so drift in the machine's
speed hits both sides alike. Runs made minutes apart differ by more than
the overhead. Results accumulate in .perfbench-out/ as for single runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   capture_output=True, check=True, timeout=600)
    path = Path(".perfbench-out") / f"result-{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {result['problems'][:3]}")
    return result


def tracing_overhead(workload, rounds: int, workdir: Path) -> tuple[float, float]:
    """ops_per_s untraced and traced, from alternating rounds of seed 1,
    each run by `run.run_round` as in a real run."""
    env, cases, calls, _ = run.setup(workload, 1, Path.cwd(), workdir)
    timings: dict = {False: [], True: []}
    tally = run.new_tally()
    run.warm_up(workload, cases, calls, tally)
    for r in range(rounds):
        for traced in (False, True):
            round_cases, calls, expected = run.round_inputs(workload, env, cases,
                                                            2 * r + traced + 1)
            tracer = None
            if traced:
                tracer = env.tracer = Tracer()
                tracer.install(env.pc)
            timings[traced].append(run.run_round(workload, round_cases, calls, expected,
                                                 tracer, tally))
            if tracer is not None:
                tracer.uninstall()
                env.tracer = None
    if tally["failed"]:
        raise SystemExit(f"{workload.name}: {tally['failed']} ops failed: {tally['problems'][:3]}")
    return tuple(run.end_to_end_metrics(timings[t])["ops_per_s"]["value"] for t in (False, True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range, default=seed_range("1-3"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--overhead-rounds", type=int, default=6)
    args = parser.parse_args()

    runs: dict = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            runs[workload].append(run_once(workload, seed, args.seconds))

    print("| workload | metric | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for metric, entry in results[0]["end_to_end"].items():
            values = [r["end_to_end"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | `{metric}` ({entry['unit']}) | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} |")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"| {workload} | failed / attempted | {failed} / {attempted} | | | |")

    traced_runs: dict = {w: [] for w in WORKLOADS}
    for seed in args.traced_seeds:
        for workload in WORKLOADS:
            traced_runs[workload].append(run_once(workload, seed, args.seconds, trace=1))
    print("\n| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for metric, entry in traced_runs[next(iter(WORKLOADS))][0]["metrics"].items():
        medians = [statistics.median(r["metrics"][metric]["value"] for r in traced_runs[w])
                   for w in WORKLOADS]
        print(f"| `{metric}` | {entry['unit']} | " + " | ".join(f"{m:.4g}" for m in medians) + " |")

    print("\n| workload | ops_per_s untraced | ops_per_s traced | overhead |")
    print("|---|---|---|---|")
    workdir = Path(".perfbench-out") / "overhead"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        plain, traced = tracing_overhead(workload, args.overhead_rounds, workdir)
        print(f"| {name} | {plain:.4g} | {traced:.4g} | {1 - traced / plain:.1%} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
