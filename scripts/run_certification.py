#!/usr/bin/env python3
"""Build a scene and certify it: the CLI's `build` into a temporary file,
then its `verify` with the scene's `tolerances.cells_per_level`.

Usage: python scripts/run_certification.py scenes/sphere_small.json [--depth N] [--seed S]

Exits with the first nonzero exit code of the two commands.
"""

import argparse
import os
import sys
import tempfile

from geogasket.cli import main as cli
from geogasket.scene import SceneConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scene")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0, help="verify's --seed, which sets its audit pairs")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        system = os.path.join(tmp, "system.json")
        depth = [] if args.depth is None else ["--depth", str(args.depth)]
        code = cli(["build", args.scene, *depth, "--out", system])
        if code:
            return code
        # build has read the scene, so it is valid here
        scene = SceneConfig.from_path(args.scene)
        return cli([
            "verify", system, "--seed", str(args.seed),
            "--cells-per-level", str(scene.cells_per_level),
        ])


if __name__ == "__main__":
    sys.exit(main())
