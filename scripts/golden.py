#!/usr/bin/env python3
"""Golden corpus: every byte the CLI writes for one fixed command set.

Usage: python3 scripts/golden.py [--write]

Runs the commands of ``commands()`` in-process, in a temporary directory
holding copies of the scenes, so that every path in the outputs is
relative. The outputs are each command's exit code, stdout and stderr (one
``<scene>.<command>.txt`` per command) and every file it wrote. Without
``--write`` they are compared with ``tests/golden/`` and the script exits 1
naming the files that differ. With ``--write`` they replace the corpus, and
for each system file that changed the script prints the largest vertex,
side and ``gauge_c`` drift against the old one, or the reader's message
where the current reader cannot load either file (after a format change).
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from geogasket.cli import main as cli
from geogasket.errors import GeogasketError
from geogasket.gasket import system_from_json

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden"
SCENES = {
    "sphere": "scenes/sphere_small.json",
    "hyperbolic": "scenes/hyperbolic_small.json",
    "flat": "scenes/flat_unit.json",
    "bump": "perfbench/scenes/custom_bump.json",
}
DEPTH = 4
# the bump scene with its E unclosed, which the expression parser rejects
UNCLOSED_E = "exp(-(u*u + v*v)/8"
WEIGHTS = ["0.3333333333333333", "0.3333333333333333", "0.3333333333333334"]


def commands():
    """(record name, CLI arguments) of the command set, in run order."""
    yield "moran", ["moran", "0.5", "0.5", "0.5"]
    for name in SCENES:
        system = f"{name}.json"
        yield f"{name}.build", ["build", f"{name}.scene.json", "--depth", str(DEPTH), "--out", system]
        yield f"{name}.verify", ["verify", system]
        yield f"{name}.dim", ["dim", system, "--levels", f"1..{DEPTH}", "--csv", f"{name}.csv", "--svg", f"{name}.svg"]
        yield f"{name}.measure", ["measure", system, "--weights", *WEIGHTS, "--iters", "3", "--atom-budget", "30"]
    # three package errors, pinning the bytes of the exit-2 handler
    yield "flat.dim-short", ["dim", "flat.json", "--levels", "1..2"]
    yield "flat.measure-deep", ["measure", "flat.json", "--weights", *WEIGHTS, "--iters", "9"]
    yield "bump.build-unclosed", ["build", "bump-unclosed.scene.json", "--depth", str(DEPTH), "--out", "unclosed.json"]


def run(workdir) -> dict:
    """Run the command set in the empty directory ``workdir``; file name -> bytes of every output."""
    workdir = Path(workdir)
    for name, scene in SCENES.items():
        shutil.copyfile(ROOT / scene, workdir / f"{name}.scene.json")
    bump = json.loads((ROOT / SCENES["bump"]).read_text())
    bump["surface"]["metric"]["E"] = UNCLOSED_E
    (workdir / "bump-unclosed.scene.json").write_text(json.dumps(bump))
    records = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli(argv)
            records[f"{name}.txt"] = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()
    finally:
        os.chdir(cwd)
    written = {p.name: p.read_bytes() for p in workdir.iterdir() if not p.name.endswith(".scene.json")}
    return {**written, **records}


def read_corpus() -> dict:
    return {p.name: p.read_bytes() for p in CORPUS.iterdir()} if CORPUS.is_dir() else {}


def drift(old: bytes, new: bytes) -> str:
    """Largest vertex, side and gauge_c change between two system files, or
    the message of the reader on the first of them it cannot load."""
    try:
        a, b = system_from_json(old.decode()), system_from_json(new.decode())
    except GeogasketError as exc:
        return f"unreadable: {exc}"
    if a.depth != b.depth:
        return f"depth {a.depth} -> {b.depth}"
    vertex = max(float(np.max(np.abs(x.vertices - y.vertices))) for x, y in zip(a.levels, b.levels))
    side = max(float(np.max(np.abs(x.side_lengths - y.side_lengths))) for x, y in zip(a.levels, b.levels))
    gauge = abs(a.gauge_c - b.gauge_c) if None not in (a.gauge_c, b.gauge_c) else float("nan")
    return f"vertex {vertex:.3e}, side {side:.3e}, gauge_c {gauge:.3e}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="replace the corpus and report the drift")
    args = parser.parse_args()
    old = read_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        new = run(tmp)
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    if not args.write:
        for name in changed:
            print(f"differs: {name}")
        return 1 if changed else 0
    shutil.rmtree(CORPUS, ignore_errors=True)
    CORPUS.mkdir(parents=True)
    for name, data in new.items():
        (CORPUS / name).write_bytes(data)
    for name in changed:
        systems = name in old and name in new and name.removesuffix(".json") in SCENES
        print(f"changed: {name}" + (f" ({drift(old[name], new[name])})" if systems else ""))
    print(f"wrote {len(new)} files to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
