#!/usr/bin/env python3
"""Box-dimension regression for a scene, with per-level rows.

Usage: python scripts/dimension_sweep.py scenes/flat_unit.json --depth 10 --levels 3..10
"""

import argparse
import math
import sys

from geogasket.cli import _int_in, _level_range
from geogasket.dimension import box_dimension_estimate, hausdorff_upper_sum
from geogasket.gasket import build_system
from geogasket.scene import MAX_DEPTH, SceneConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scene")
    parser.add_argument("--depth", type=_int_in(1, MAX_DEPTH), default=None)
    parser.add_argument("--levels", type=_level_range, default=None, help="range n1..n2")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    scene = SceneConfig.from_path(args.scene)
    depth = args.depth if args.depth is not None else scene.depth
    system = build_system(scene.base_triangle(), depth, scene.delta)
    n1, n2 = args.levels or (max(1, depth - 6), depth)
    est = box_dimension_estimate(system, n1, n2)
    s = est.slope
    print(f"{'level':>5} {'epsilon':>24} {'count':>9} {'upper sum':>22}")
    for n, rec in zip(est.levels_used, est.records):
        print(f"{n:>5} {rec.epsilon:>24.17g} {rec.count:>9} "
              f"{hausdorff_upper_sum(system, s, n):>22.17g}")
    ref = math.log(3) / math.log(2)
    print(f"slope = {s:.12f}   deviation from log3/log2 = {abs(s - ref):.3e}")
    print(f"confidence band = [{est.confidence_band[0]:.6f}, {est.confidence_band[1]:.6f}]")
    if args.csv:
        from geogasket.dimension import dimension_report_csv

        with open(args.csv, "w") as fh:
            fh.write(dimension_report_csv(system, est))
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
