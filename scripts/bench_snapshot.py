#!/usr/bin/env python3
"""Snapshot of the benchmark and the tier-1 suite, written as BENCH_<n>.json.

Usage: python3 scripts/bench_snapshot.py [--root DIR]

Runs ``perfbench/run.py --trace 0`` of the checkout at ``--root`` (this
repository by default) once per workload of its ``BENCHMARK.json`` and per
seed in SEEDS, for its ``run_seconds`` each, then its tier-1 suite, and
writes the next free ``BENCH_<n>.json`` at the root of this repository (so
a checkout of an older commit can be measured into it). The file holds each
run's metrics and their median over the seeds, the seeds, the checkout's
git SHA, whether its files differ from it, the git tree id of its ``src/``
as measured, its ``src/`` line count, and the tier-1 wall time and counts.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def next_bench_path(directory: Path) -> Path:
    taken = [int(m.group(1)) for p in directory.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return directory / f"BENCH_{max(taken, default=0) + 1}.json"


def tier1_counts(summary: str) -> dict:
    """Outcome counts of pytest's last summary line, such as '464 passed, 2 warnings in 79.1s'."""
    return {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}


def src_tree(root: Path) -> str | None:
    """Git tree id of ``src/`` as it is on disk, committed or not: the
    ``git rev-parse <commit>:src`` of any commit that holds this code."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        for cmd in (["git", "add", "-A", "--", "src"], ["git", "write-tree", "--prefix=src/"]):
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            if proc.returncode:
                return None
    return proc.stdout.strip()


def git_state(root: Path) -> dict:
    """HEAD's SHA, whether tracked or new files differ from it (a snapshot
    taken before its change is committed), and the measured ``src/`` tree."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
    if head.returncode or status.returncode:
        return {"git_sha": None, "git_dirty": None, "src_tree": None}
    return {"git_sha": head.stdout.strip(), "git_dirty": bool(status.stdout.strip()), "src_tree": src_tree(root)}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode, "summary": summary, **tier1_counts(summary)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = parser.parse_args()
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    state = git_state(root)

    workloads = {}
    for w in bench["workloads"]:
        runs = [bench_run(root, w["name"], seed, seconds) for seed in SEEDS]
        median = {k: statistics.median(r["metrics"][k] for r in runs) for k in runs[0]["metrics"]}
        workloads[w["name"]] = {"median": median, "failed": sum(r["failed"] for r in runs), "runs": runs}
        print(f"{w['name']}: " + "  ".join(f"{k} {v:.4g}" for k, v in median.items()), file=sys.stderr)
    snapshot = {
        **state,
        "src_lines": src_lines(root),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "workloads": workloads,
        "tier1": tier1(root),
    }
    out = next_bench_path(HERE)
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
