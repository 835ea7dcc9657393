"""Benchmark of the geogasket CLI pipeline on one workload.

    python3 perfbench/run.py --workload sphere-pipeline --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. The runner writes the seeded scene, times the
set-up in several fresh processes, and starts one fresh worker process
(single-threaded BLAS, ``GEOGASKET_THREADS`` unset) that runs and checks
the pipeline. It prints a readable summary, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (medians over the run's samples, in seconds
rescaled to a reference host speed by ``hostspeed.py``); with ``--trace 1``
they are the per-layer ones from a traced pipeline.

Full reports, span files and the output digests kept for the determinism
check go to ``.bench_out/``; scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import ZERO_TRACE
from workloads import WORKLOADS, rotation_angle, seeded_scene, work_paths

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # set-up-only processes; the worker's own set-up adds one sample
DEADLINE_S = 170.0
DIGEST_STORE = OUT / "digests.json"


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("GEOGASKET_THREADS", None)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0"
    )
    return env


def code_digest() -> str:
    """Digest of the program, its scenes and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "scenes", BENCH.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(worker_args, env, deadline) -> dict:
    out_path = worker_args[worker_args.index("--out") + 1]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *worker_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(ROOT / out_path) as fh:
        return json.load(fh)


def high_percentile(values, q=0.9) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def compare_digests(key: str, digests: dict) -> list:
    """Output digests must match earlier runs of the same code and seed."""
    store = {}
    if DIGEST_STORE.is_file():
        with open(DIGEST_STORE) as fh:
            store = json.load(fh)
    earlier = store.setdefault(key, {})
    mismatched = [k for k, v in digests.items() if earlier.get(k, v) != v]
    earlier.update(digests)
    with open(DIGEST_STORE, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return mismatched


def unit_of(name: str) -> str:
    if name.endswith("rows_per_call"):
        return "rows/call"
    if name.endswith("zero_frac"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "geogasket" / "cli.py").is_file():
        print(f"error: no geogasket source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / workload.scene).is_file():
        print(f"error: scene {workload.scene} not found", file=sys.stderr)
        return 2

    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "code_sha256": code_digest(),
    }
    paths = work_paths(workload)
    work_dir = (ROOT / paths.scene).parent
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    doc = seeded_scene(workload, ROOT, args.seed)
    with open(ROOT / paths.scene, "w") as fh:
        json.dump(doc, fh, indent=1)
    scene_seed = doc["seed"]

    env = pinned_env()
    common = ["--workload", workload.name, "--scene-seed", str(scene_seed)]
    probe_out = str(work_dir.relative_to(ROOT) / "probe.json")
    try:
        setups = [
            run_worker([*common, "--setup-only", "--out", probe_out], env, deadline)
            for _ in range(SETUP_PROBES)
        ]
        spans = OUT / f"spans-{workload.name}.npz"
        result = run_worker(
            [
                *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--spans", str(spans.relative_to(ROOT)),
                "--out", str(work_dir.relative_to(ROOT) / "result.json"),
            ],
            env, deadline,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    mismatched = compare_digests(
        f"{environment['code_sha256']}:{workload.name}:{args.seed}", result["digests"]
    )
    failures = result["failures"] + [
        {"command": k, "problems": [f"{k}: digest differs from an earlier run of this code and seed"]}
        for k in mismatched
    ]
    attempted = result["attempted"]
    failed = min(attempted, len(failures))

    samples = dict(
        result["samples"],
        setup=[r["setup_s"] for r in setups],
        pipeline=result["pipelines"],
        **{f"{k}_wall": v for k, v in result["samples_wall"].items()},
        setup_wall=[r["setup_wall_s"] for r in setups],
        pipeline_wall=result["pipelines_wall"],
    )
    summary = {
        name: {
            "median": statistics.median(values),
            "p90": high_percentile(values),
            "max": max(values),
            "n": len(values),
        }
        for name, values in samples.items()
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(result["layers"].items())}
    else:
        metrics = {
            f"{name}_s": {"value": summary[name]["median"], "unit": "s"}
            for name in ("setup", "pipeline")
        }
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}

    print(
        f"workload {workload.name}  seed {args.seed}  rotation {rotation_angle(args.seed):.6f} rad"
        f"  scene seed {scene_seed}  trace {args.trace}"
    )
    print(
        f"env: nproc {environment['nproc']}  loadavg {environment['loadavg']}  "
        + "  ".join(f"{k} {v}" for k, v in result["versions"].items())
        + f"  git {environment['git_sha']}  src lines {environment['src_lines']}"
    )
    for name, s in summary.items():
        print(f"{name + '_s':17s} median {s['median']:.4f}  p90 {s['p90']:.4f}  max {s['max']:.4f}  n={s['n']}")
    if result["slowness"]:
        q = statistics.quantiles(result["slowness"], n=10)
        print(f"host slowness: p10 {q[0]:.3f}  median {statistics.median(result['slowness']):.3f}"
              f"  p90 {q[-1]:.3f}  n={len(result['slowness'])}")
    for values in result["kr_traces"][:1]:
        zeros = sum(v <= ZERO_TRACE for v in values)
        print(f"kr trace zeros: {zeros} of {len(values)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for f in failures:
        print(f"FAILED {f['command']}: {'; '.join(f['problems'])}")
    for k, v in sorted(result["digests"].items()):
        print(f"sha256 {k}: {v}")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scene": doc,
        "environment": dict(environment, **result["versions"]),
        "summary": summary,
        "samples": samples,
        "slowness": result["slowness"],
        "probe": result["probe"],
        "intervals": result["intervals"],
        "failures": failures,
        "digests": result["digests"],
        "kr_traces": result["kr_traces"],
        "metrics": metrics,
    }
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        work_dir.parent.rmdir()

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
