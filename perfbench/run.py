"""voxbench sweep benchmark: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sne-sweep --seed 42 --seconds 40 --trace 0

Each sample is a fresh process (perfbench/sample.py) that imports voxbench
from ./src, generates the seeded synthetic corpus, and runs one
``voxbench bench`` call through ``voxbench.cli.main``. Samples repeat until
``--seconds`` is spent. The runner then checks every report the sweep wrote,
prints each metric by name with its unit and sample count, and ends with one
JSON line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics.

``--seed`` is the corpus seed; the sweep's master seed is fixed at 0. All
files go under .perfbench-work/ in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MASTER_SEED = 0
RUN_LIMIT_S = 120  # no sample starts that would end past this
RUN_DEADLINE_S = 170  # a sample still running then is killed; a run must end within 180 s
MIN_SAMPLES = 3  # byte identity needs two reports; a traced run needs an untraced/traced pair
MIN_SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXTRACTORS = ("mfcc", "lpcc", "plp")
CLASSIFIERS = ("complex tree", "weighted knn", "fine svm", "feed forward", "bagged trees")
PCA_ONLY = [{"method": "pca"}]

# Sizes are scaled so one sweep takes 3-8 s on a 2-core machine and a run's
# median rests on 3-10 samples: the full acceptance-corpus sweep (n = 1260 per
# extractor) runs about two minutes, too long to repeat. Each workload keeps the
# layer mix named in its "why".
WORKLOADS = {
    # Dense SNE dominates: the default 3x2x5 grid with a frame cap, so three
    # n x n SNE fits run; the only workload where --jobs could overlap them.
    "sne-sweep": {
        "corpus": {"speakers": 7, "recordings": 3, "seconds": 1.0},
        "reducers": ["sne", "pca"],
        "grid": None,
        "max_frames_per_file": 14,
        "jobs": 2,
    },
    # Extraction dominates: longer recordings, PCA only, and the cap keeps about
    # 4% of the extracted frames, so frame-first extraction would show here.
    "extract-heavy": {
        "corpus": {"speakers": 7, "recordings": 3, "seconds": 3.5},
        "reducers": ["pca"],
        "grid": {"reducers": PCA_ONLY},
        "max_frames_per_file": 12,
        "jobs": 1,
    },
    # Classifiers dominate: PCA only and no frame cap, so every extracted
    # frame is kept and classified (kept ratio exactly 1.0).
    "classify-heavy": {
        "corpus": {"speakers": 7, "recordings": 3, "seconds": 0.75},
        "reducers": ["pca"],
        "grid": {"reducers": PCA_ONLY, "max_frames_per_file": None},
        "max_frames_per_file": 60,
        "jobs": 1,
    },
}


class BenchmarkFailure(Exception):
    """The program crashed or wrote output that fails the checks."""


def expected_files(reducers) -> set[str]:
    names = {"report.json"}
    for reducer in reducers:
        names |= {f"accuracy_{reducer}.csv", f"distinguishable_{reducer}.csv"}
    return names


def check_report(out_dir: Path, workload: dict) -> dict:
    """Validate one sweep's output dir; returns its counts, quality and digest."""
    present = {p.name for p in out_dir.iterdir()}
    expected = expected_files(workload["reducers"])
    if present != expected:
        raise BenchmarkFailure(f"output files {sorted(present)} != expected {sorted(expected)}")
    raw = (out_dir / "report.json").read_bytes()
    try:
        report = json.loads(raw)
        entries = report["combinations"]
        threshold = report["settings"]["recall_threshold"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchmarkFailure(f"malformed report.json: {exc!r}") from exc

    grid = {(r, e, c) for r in workload["reducers"] for e in EXTRACTORS for c in CLASSIFIERS}
    seen = [(e.get("reducer"), e.get("extractor"), e.get("classifier")) for e in entries]
    if len(seen) != len(grid) or set(seen) != grid:
        raise BenchmarkFailure(f"report has {len(seen)} combinations, expected the {len(grid)}-cell grid")

    ok = [e for e in entries if e.get("status") == "ok"]
    failed = [e for e in entries if e.get("status") == "failed"]
    if len(ok) + len(failed) != len(entries):
        raise BenchmarkFailure("a combination has a status other than ok/failed")
    for entry in ok:
        tag = f"{entry['extractor']}:{entry['reducer']}:{entry['classifier']}"
        try:
            confusion = entry["confusion"]
            total = sum(map(sum, confusion))
            correct = sum(confusion[i][i] for i in range(len(confusion)))
            accuracy = entry["frame_accuracy_pct"]
            recalls = [row[i] / sum(row) if sum(row) else 0.0 for i, row in enumerate(confusion)]
            distinguishable = sum(r > threshold for r in recalls)
            if total != entry["test_frames"] or total == 0:
                raise BenchmarkFailure(f"{tag}: confusion sums to {total}, test_frames {entry['test_frames']}")
            if abs(accuracy - 100.0 * correct / total) > 1e-4 * max(accuracy, 1.0):
                raise BenchmarkFailure(f"{tag}: frame_accuracy_pct {accuracy} disagrees with its confusion matrix")
            if entry["distinguishable_count"] != distinguishable:
                raise BenchmarkFailure(f"{tag}: distinguishable_count disagrees with its confusion matrix")
        except (KeyError, TypeError, IndexError) as exc:
            raise BenchmarkFailure(f"{tag}: malformed entry: {exc!r}") from exc
    return {
        "attempted": len(entries),
        "ok": len(ok),
        "failed": len(failed),
        "accuracy_mean_pct": statistics.fmean(e["frame_accuracy_pct"] for e in ok) if ok else 0.0,
        "distinguishable_total": sum(e["distinguishable_count"] for e in ok),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def child_env(root: Path) -> dict:
    """Sample environment: voxbench from ./src, one BLAS thread per process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], root: Path, deadline: float) -> str:
    """Run one child process to completion; returns the last line it printed."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkFailure(f"run exceeded {RUN_DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkFailure(f"sample exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def environment(root: Path, jobs: int, versions: dict) -> dict:
    """Where the numbers came from: machine, library versions, commit."""
    env = dict(versions)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["machine"] = platform.machine()
    env["blas_env"] = {k: child_env(root).get(k) for k in BLAS_THREAD_VARS}
    env["jobs"] = jobs
    env["commit"] = None
    if (root / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            env["commit"] = head.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def summarize(values: list[float]) -> str:
    """Median plus the highest percentile the sample count supports (the max)."""
    return (f"median {statistics.median(values):.6g}, max {max(values):.6g}, n={len(values)} "
            f"[{' '.join(f'{v:.4g}' for v in values)}]")


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workload = WORKLOADS[name]
    work_root = root / ".perfbench-work"
    run_dir = work_root / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {
        "corpus": workload["corpus"],
        "corpus_seed": seed,
        "master_seed": MASTER_SEED,
        "grid": workload["grid"],
        "reducers": workload["reducers"],
        "max_frames_per_file": workload["max_frames_per_file"],
        "jobs": workload["jobs"],
        "src_dir": str(root / "src"),
    }
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def sample(**fields) -> dict:
        return json.loads(run_child([str(HERE / "sample.py"), json.dumps(dict(base, **fields))], root, deadline))

    try:
        samples, reports, setups = [], [], []
        start = time.perf_counter()
        while True:
            index = len(samples)
            traced = trace and index % 2 == 1
            sample_dir = run_dir / f"sample-{index}"
            sample_dir.mkdir()
            t0 = time.perf_counter()
            result = sample(
                work_dir=str(sample_dir),
                out_dir=str(sample_dir / "out"),
                trace=traced,
                run_id=f"{name}-{seed}-{os.getpid()}-{index}",
                trace_out=str(work_root / f"trace-{name}.jsonl"),
            )
            result["wall_s"] = time.perf_counter() - t0
            result["traced"] = traced
            if result["exit_code"] != 0:
                raise BenchmarkFailure(f"voxbench bench exited {result['exit_code']}: {result['cli_stdout']}")
            reports.append(check_report(sample_dir / "out", workload))
            samples.append(result)
            setups.append(result["setup_s"])
            shutil.rmtree(sample_dir)
            # stop before a sample that would end past the budget
            next_end = time.perf_counter() - start + statistics.median(s["wall_s"] for s in samples)
            if len(samples) >= MIN_SAMPLES and next_end > min(seconds, RUN_LIMIT_S):
                break
        # set-up is cheap next to a sweep; repeat it alone until its median rests on several samples
        while len(setups) < MIN_SETUP_SAMPLES:
            sample_dir = run_dir / f"setup-{len(setups)}"
            sample_dir.mkdir()
            setups.append(sample(work_dir=str(sample_dir), setup_only=True)["setup_s"])
            shutil.rmtree(sample_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment(root, workload["jobs"], samples[0]["versions"])
    return {"workload": workload, "env": env, "samples": samples, "reports": reports, "setups": setups}


def end_to_end(run: dict) -> dict[str, list[float]]:
    """Per-sample values of every end-to-end metric."""
    pairs = list(zip(run["samples"], run["reports"]))
    return {
        "sweep_s": [s["sweep_s"] for s, _ in pairs],
        "setup_s": run["setups"],
        "combos_per_min": [60.0 * r["ok"] / s["sweep_s"] for s, r in pairs],
        "peak_rss_mb": [s["peak_rss_mb"] for s, _ in pairs],
        "accuracy_mean_pct": [r["accuracy_mean_pct"] for _, r in pairs],
        "distinguishable_total": [r["distinguishable_total"] for _, r in pairs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="corpus seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "voxbench" / "__init__.py").is_file():
        print("error: run from the voxbench repository root (src/voxbench not found)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples, reports = run["samples"], run["reports"]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    digests = {r["sha256"] for r in reports}
    correct = len(digests) == 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(samples)} sweep samples")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"report.json sha256 {' '.join(sorted(digests))} ({'identical' if correct else 'DIFFERS'} "
          f"across {len(reports)} repeats)")
    print(f"combinations attempted {attempted}, failed {failed}, "
          f"failed_combo_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    if not correct:
        print("error: report.json is not byte-identical across repeats of one seed", file=sys.stderr)

    if args.trace:
        traced = [s for s in samples if s["traced"]]
        traced_s = [s["sweep_s"] for s in traced]
        plain_s = [s["sweep_s"] for s in samples if not s["traced"]]
        layers = {key: statistics.median(s["layers"][key] for s in traced) for key in traced[0]["layers"]}
        layers["bench.trace_overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        layers["bench.failed_combo_ratio"] = failed / attempted
        print(f"traced sweep_s {summarize(traced_s)}; untraced {summarize(plain_s)}")
        print("self time by span (s): " + json.dumps(
            {k: round(v, 4) for k, v in sorted(traced[-1]["self_s"].items(), key=lambda kv: -kv[1])}))
        print("exact counts " + json.dumps(traced[-1]["counts"], sort_keys=True))
        for key in sorted(units):
            print(f"{key}: {layers[key]:.6g} {units[key]}")
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in units.items()}
    else:
        values = end_to_end(run)
        for key, unit in units.items():
            print(f"{key}: {summarize(values[key])} {unit}")
        metrics = {key: {"value": statistics.median(values[key]), "unit": unit} for key, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
