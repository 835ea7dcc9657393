"""Workload definitions shared by the runner and the worker.

Each workload is a scene document plus the CLI pipeline run on it. The
scene is rotated about the chart origin by an angle drawn from the seed
(seed 0: no rotation, so the committed scene is reproduced exactly). The
rotation is an isometry of every surface used here (unit sphere in its
stereographic chart, the plane, the rotationally symmetric bump), so the
cost of a run does not depend on the seed while its inputs do.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WEIGHTS = ["0.3333333333333333", "0.3333333333333333", "0.3333333333333334"]
LOG3_LOG2 = math.log(3) / math.log(2)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str  # path relative to the repository root
    depth: int  # passed to `build --depth`
    levels: tuple  # `dim --levels n1..n2`
    slope_tol: float  # allowed |slope - log3/log2|
    iters: int = 0  # `measure --iters`
    atom_budget: int = 0  # `measure --atom-budget`
    verify_args: tuple = field(default_factory=tuple)
    steps: tuple = ("build", "verify", "dim", "measure")


WORKLOADS = {
    w.name: w
    for w in (
        # Geodesic kernel in all three batch shapes (wide build midpoints,
        # ~134-row audit calls, ~2-row nesting calls) plus the per-atom
        # scalar apply_f path of `measure`.
        Workload(
            name="sphere-pipeline",
            scene="scenes/sphere_small.json",
            depth=5,
            levels=(2, 5),
            slope_tol=1e-3,
            iters=2,
            atom_budget=100,
            verify_args=("--cells-per-level", "2"),
        ),
        # Exact affine flat model: no geodesic kernel. Large system JSON
        # (load, schema validation), 6,561-polygon SVG, HiGHS transport LPs
        # including the resampling collapse from iteration 5 on.
        Workload(
            name="flat-deep",
            scene="scenes/flat_unit.json",
            depth=8,
            levels=(2, 8),
            slope_tol=1e-9,
            iters=8,
            atom_budget=200,
        ),
        # Same kernel, but every RHS call evaluates the compiled metric
        # expressions and finite-difference metric partials. No `measure`:
        # its apply_f path is the same code as on the sphere.
        Workload(
            name="custom-bump",
            scene="perfbench/scenes/custom_bump.json",
            depth=4,
            levels=(1, 4),
            slope_tol=1e-3,
            verify_args=("--cells-per-level", "2"),
            steps=("build", "verify", "dim"),
        ),
    )
}

def rotation_angle(seed: int) -> float:
    return 0.0 if seed == 0 else 2.0 * math.pi * random.Random(seed).random()


def seeded_scene(workload: Workload, root: Path, seed: int) -> dict:
    """The workload's scene document for ``seed``."""
    with open(root / workload.scene) as fh:
        doc = json.load(fh)
    angle = rotation_angle(seed)
    if angle:
        c, s = math.cos(angle), math.sin(angle)
        doc["vertices"] = [[c * u - s * v, s * u + c * v] for u, v in doc["vertices"]]
    doc["seed"] = int(doc.get("seed", 0)) + seed
    return doc


@dataclass(frozen=True)
class Paths:
    scene: str
    system: str
    csv: str
    svg: str


def work_paths(workload: Workload) -> Paths:
    """Relative paths, so that command output is the same in any checkout."""
    base = f".bench_work/{workload.name}"
    return Paths(
        scene=f"{base}/scene.json",
        system=f"{base}/system.json",
        csv=f"{base}/dim.csv",
        svg=f"{base}/cells.svg",
    )


def pipeline_argv(workload: Workload, scene_seed: int) -> list:
    """(command, argv) pairs of one pipeline run."""
    p = work_paths(workload)
    n1, n2 = workload.levels
    argv = [
        ("build", ["build", p.scene, "--depth", str(workload.depth), "--out", p.system]),
        ("verify", ["verify", p.system, "--seed", str(scene_seed), *workload.verify_args]),
        ("dim", ["dim", p.system, "--levels", f"{n1}..{n2}", "--csv", p.csv, "--svg", p.svg]),
        (
            "measure",
            [
                "measure", p.system, "--weights", *WEIGHTS,
                "--iters", str(workload.iters),
                "--atom-budget", str(workload.atom_budget),
            ],
        ),
    ]
    return [(command, args) for command, args in argv if command in workload.steps]
