"""One workload process: set up, run the CLI pipeline in-process, check it.

Started by ``run.py`` with the thread-pinned environment, one fresh process
per run. With ``--setup-only`` it only times the set-up. Otherwise it runs
the workload's whole pipelines (build, verify, dim and mostly measure)
through ``geogasket.cli.main`` until at least ``--seconds`` have passed,
with the host-speed probe (``hostspeed.py``) running between bytecodes, and
rescales every command's time to the reference host speed. With
``--trace 1`` it runs the pipeline once untraced and once traced instead,
without the probe, and adds the per-layer figures.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_COMMAND_S = 0.5
MAX_REPEATS = 20

sys.path.insert(0, str(ROOT / "src"))

from checks import check_output, parse_trace  # noqa: E402
from hostspeed import HostProbe, slowness_median  # noqa: E402
from workloads import WORKLOADS, pipeline_argv, work_paths  # noqa: E402


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def set_up(workload):
    """Import the CLI, load and validate the scene, construct its surface."""
    start = perf_counter()
    import geogasket.cli
    from geogasket.scene import SceneConfig

    SceneConfig.from_path(work_paths(workload).scene).surface()
    elapsed = perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(geogasket.cli.__file__).resolve().parents:
        raise RuntimeError(f"geogasket was imported from {geogasket.cli.__file__}, not {src}")
    # probed after the set-up, so that its numpy import is not timed
    return elapsed, elapsed / slowness_median()


def run_command(argv):
    import geogasket.cli as cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return rc, (start, perf_counter()), out.getvalue(), err.getvalue()


class Recorder:
    """Command samples, failures and output digests of one process.

    Commands are timed as (start, end) intervals; ``finish`` turns them into
    wall and reference-speed seconds once the probe has stopped, so that
    every interval has probes on both sides.
    """

    def __init__(self, workload):
        self.workload = workload
        self.intervals = []  # per pipeline: [(command, [(start, end), ...]), ...]
        self.samples = {}
        self.samples_wall = {}
        self.pipelines = []
        self.pipelines_wall = []
        self.probe = None
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.traces = []

    def digest(self, key, value):
        seen = self.digests.setdefault(key, value)
        return [] if seen == value else [f"{key}: digest differs between runs of the same input"]

    def execute(self, command, argv):
        rc, interval, stdout, stderr = run_command(argv)
        self.attempted += 1
        problems = check_output(self.workload, command, rc, stdout, ROOT)
        problems += self.digest(f"{command}.stdout", sha256(stdout))
        if command == "build" and rc == 0:
            problems += self.digest("system", sha256((ROOT / work_paths(self.workload).system).read_bytes()))
        if command == "measure" and rc == 0:
            self.traces.append(parse_trace(stdout))
        if problems:
            self.failures.append({"command": command, "problems": problems, "stderr": stderr[-2000:]})
        return interval

    def pipeline(self, scene_seed, repeat=False):
        """Each command in order, its intervals kept for ``finish``.

        With ``repeat``, a command that took less than ``MIN_COMMAND_S`` is
        run again (up to ``MAX_REPEATS`` times), so that the short commands
        also get a median of several samples.
        """
        commands = []
        for command, argv in pipeline_argv(self.workload, scene_seed):
            runs = [self.execute(command, argv)]
            while repeat and sum(e - s for s, e in runs) < MIN_COMMAND_S and len(runs) < MAX_REPEATS:
                runs.append(self.execute(command, argv))
            commands.append((command, runs))
        self.intervals.append(commands)

    def finish(self, probe=None):
        """Command samples and pipeline times, in wall and reference seconds.

        A pipeline's time is the sum of its command medians. Without a probe
        the reference times are the wall times.
        """
        for commands in self.intervals:
            total = total_wall = 0.0
            for command, runs in commands:
                timed = [probe.rescale(s, e) if probe else (e - s, e - s) for s, e in runs]
                walls, refs = [w for w, _ in timed], [r for _, r in timed]
                self.samples_wall.setdefault(command, []).extend(walls)
                self.samples.setdefault(command, []).extend(refs)
                total_wall += statistics.median(walls)
                total += statistics.median(refs)
            self.pipelines_wall.append(total_wall)
            self.pipelines.append(total)

    def run_for(self, seconds, scene_seed):
        """Whole pipelines until at least ``seconds`` have passed."""
        probe = HostProbe()
        probe.start()
        start = perf_counter()
        try:
            while True:
                self.pipeline(scene_seed, repeat=True)
                if perf_counter() - start >= seconds:
                    break
        finally:
            probe.stop()
        self.finish(probe)
        self.probe = probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scene-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_wall, setup_ref = set_up(workload)
    result = {"setup_s": setup_ref, "setup_wall_s": setup_wall}
    if not args.setup_only:
        import numpy
        import scipy

        rec = Recorder(workload)
        if args.trace:
            import geogasket
            import tracer

            rec.pipeline(args.scene_seed)
            spans = tracer.Tracer()
            tracer.install(spans, geogasket)
            rec.pipeline(args.scene_seed)
            rec.finish()
            untraced, traced = rec.pipelines
            layers = tracer.layer_metrics(spans)
            layers["trace.pipeline_s"] = traced
            layers["trace.overhead_s"] = traced - untraced
            if args.spans:
                spans.save(args.spans)
            result["layers"] = layers
        else:
            rec.run_for(args.seconds, args.scene_seed)
        result.update(
            samples=rec.samples,
            samples_wall=rec.samples_wall,
            pipelines=rec.pipelines,
            pipelines_wall=rec.pipelines_wall,
            slowness=rec.probe.values if rec.probe else [],
            probe=rec.probe and {
                "starts": rec.probe.starts, "ends": rec.probe.ends, "kernels": rec.probe.kernels,
            },
            intervals=rec.intervals,
            attempted=rec.attempted,
            failures=rec.failures,
            digests=rec.digests,
            kr_traces=rec.traces,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
