"""Append perfbench runs to the BENCH_sweep.json trajectory at the repository root.

Run from the repository root:

    python3 perfbench/run.py --workload sne-sweep --seed 42 --trace 0 | python3 tools/bench_log.py

Each input (standard input, or each file named on the command line) is the
stdout of one ``perfbench/run.py`` run. One row per run is appended to
BENCH_sweep.json: workload, corpus seed, trace flag, the run's ``env``
(commit, src digest, library versions, machine), the report.json SHA-256,
the correctness and failure counts, and every metric with its unit.

A run from a copied tree has no commit (``env.commit`` is null). Its row
records this repository's ``HEAD`` as ``env.parent_commit``, beside
``env.src_sha256``, so the tree it was copied from or built on stays named.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY = REPO / "BENCH_sweep.json"
HEADER = re.compile(r"^workload (\S+) seed (-?\d+) trace ([01]):")
DIGESTS = re.compile(r"^report\.json sha256 ([0-9a-f ]+) \(")


def parse_run(text: str) -> dict:
    """The trajectory row of one perfbench stdout; ValueError if a part is missing."""
    lines = text.strip().splitlines()
    header = next((m for m in map(HEADER.match, lines) if m), None)
    env = next((line[len("env "):] for line in lines if line.startswith("env ")), None)
    digests = next((m.group(1).split() for m in map(DIGESTS.match, lines) if m), None)
    if header is None or env is None or digests is None:
        raise ValueError("input is not the stdout of perfbench/run.py")
    result = json.loads(lines[-1])
    return {
        "workload": header.group(1),
        "seed": int(header.group(2)),
        "trace": int(header.group(3)),
        "env": json.loads(env),
        "report_sha256": digests[0] if len(digests) == 1 else digests,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def head_commit():
    """The HEAD commit of the repository that holds this script, or None outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", help="saved perfbench stdout files; standard input when none")
    parser.add_argument("--note", help="free text stored with each row, e.g. what the source tree holds")
    args = parser.parse_args(argv)

    texts = [Path(path).read_text() for path in args.runs] or [sys.stdin.read()]
    try:
        rows = [parse_run(text) for text in texts]
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.note:
        for row in rows:
            row["note"] = args.note
    copied = [row for row in rows if row["env"].get("commit") is None]
    if copied:
        parent = head_commit()
        for row in copied:
            row["env"]["parent_commit"] = parent
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.extend(rows)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"appended {len(rows)} row(s) to {TRAJECTORY.name}; {len(trajectory)} in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
