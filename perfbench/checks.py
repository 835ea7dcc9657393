"""Output checks for each CLI command of a workload pipeline.

Each check returns a list of problems; an empty list means the output is
correct. A command that exits nonzero or fails a check counts as failed.
"""

from __future__ import annotations

import re
from pathlib import Path

from workloads import LOG3_LOG2, Workload, work_paths

TRACE_RATIO_RANGE = (0.45, 0.55)
INVARIANCE_TOL = 1e-12
ZERO_TRACE = 1e-12  # trace values at or below this count as collapsed


def first_resampled_iteration(workload: Workload) -> int:
    """1-based iteration at which the point-mass seed first exceeds the budget.

    Iterate m of a point-mass seed has 3**m distinct atoms, so resampling
    starts at the first m with 3**m > budget (iters + 1 if never).
    """
    m = 1
    while m <= workload.iters and 3**m <= workload.atom_budget:
        m += 1
    return m


def parse_trace(stdout: str) -> list:
    match = re.search(r"^kr trace:(.*)$", stdout, re.MULTILINE)
    if match is None:
        return None
    return [float(x) for x in match.group(1).split()]


def _check_build(workload, stdout, root):
    problems = []
    n = workload.depth
    if f"built {3**n} cells at depth {n};" not in stdout:
        problems.append("build: missing 'built N cells' line")
    if not (root / work_paths(workload).system).is_file():
        problems.append("build: no system file written")
    return problems


def _check_verify(workload, stdout, root):
    lines = stdout.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    if len(passes) != 6 or fails:
        return [f"verify: {len(passes)} PASS and {len(fails)} FAIL lines, expected 6 PASS"]
    return []


def _check_dim(workload, stdout, root):
    match = re.search(r"^slope = ([-+0-9.eE]+)$", stdout, re.MULTILINE)
    if match is None:
        return ["dim: no slope line"]
    problems = []
    slope = float(match.group(1))
    if not abs(slope - LOG3_LOG2) <= workload.slope_tol:
        problems.append(f"dim: slope {slope} is not within {workload.slope_tol} of log3/log2")
    paths = work_paths(workload)
    if not (root / paths.csv).is_file():
        problems.append("dim: no CSV written")
    svg = root / paths.svg
    if not svg.is_file():
        problems.append("dim: no SVG written")
    elif svg.read_text().count("<polygon") != 3 ** workload.levels[1]:
        problems.append("dim: SVG polygon count differs from 3**n2")
    return problems


def _check_measure(workload, stdout, root):
    values = parse_trace(stdout)
    if values is None or len(values) != workload.iters:
        return [f"measure: expected {workload.iters} trace values"]
    problems = []
    lo, hi = TRACE_RATIO_RANGE
    before = values[: first_resampled_iteration(workload) - 1]
    for prev, nxt in zip(before, before[1:]):
        ratio = nxt / prev if prev > 0 else float("inf")
        if not lo <= ratio <= hi:
            problems.append(f"measure: trace ratio {ratio:.6g} before resampling is outside [{lo}, {hi}]")
            break
    if workload.iters >= 4:
        match = re.search(r"^depth-\d+ invariance residual = ([-+0-9.eE]+)$", stdout, re.MULTILINE)
        if match is None:
            problems.append("measure: no invariance residual line")
        elif not float(match.group(1)) <= INVARIANCE_TOL:
            problems.append(f"measure: invariance residual {match.group(1)} exceeds {INVARIANCE_TOL}")
    return problems


_CHECKS = {
    "build": _check_build,
    "verify": _check_verify,
    "dim": _check_dim,
    "measure": _check_measure,
}


def check_output(workload: Workload, command: str, rc, stdout: str, root: Path) -> list:
    if rc != 0:
        return [f"{command}: exit code {rc}"]
    return _CHECKS[command](workload, stdout, root)
