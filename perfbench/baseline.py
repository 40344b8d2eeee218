"""Measure the benchmark's baseline and its run-to-run spread.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 21-30 --out perfbench/baseline.json

For every workload in BENCHMARK.json it makes one ``run.py --trace 0`` run
per seed, each ``run_seconds`` long, and records each end-to-end metric's
median, quartiles and spread (quartile distance over the median, the figure
a bound is checked against). One traced run per workload at seed 42 adds the
exact counts, the report digest and the per-layer split. Runs are sequential: running two at once on a small machine
would measure the scheduler.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACE_SEED = 42


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), lines


def line_after(lines: list[str], prefix: str) -> str:
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="21-30", help="corpus seeds: 21-30 or 1,5,9")
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    seeds = parse_seeds(args.seeds)

    baseline = {
        "note": (f"End-to-end medians, quartiles and spreads over one run per seed "
                 f"(python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0), "
                 f"plus one traced run per workload at seed {TRACE_SEED} for the exact counts, the "
                 "report digest and the per-layer split. Counts repeat exactly for one commit, workload "
                 "and seed; timings depend on the machine in 'environment'."),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, lines = run(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            env = json.loads(line_after(lines, "env "))
            env.pop("jobs")  # a workload setting, not the machine's
            baseline["environment"] = env
        summary = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            print(f"  {workload} {key}: median {median:.6g}, spread {spread:.3f} "
                  f"(bound {bounds[key]}, {spread / bounds[key]:.2f} of it)", flush=True)
        traced, lines = run(workload, TRACE_SEED, seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": summary,
            f"exact_counts_seed{TRACE_SEED}": json.loads(line_after(lines, "exact counts ")),
            f"report_sha256_seed{TRACE_SEED}": line_after(lines, "report.json sha256 ").split()[0],
            f"per_layer_seed{TRACE_SEED}": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
