#!/usr/bin/env python3
"""Build a scene and run the full certification battery, printing a table.

Usage: python scripts/run_certification.py scenes/sphere_small.json [--depth N]
"""

import argparse
import sys
import time

from geogasket import gasket
from geogasket.scene import SceneConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scene")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scene = SceneConfig.from_path(args.scene)
    depth = args.depth or scene.depth
    surface = scene.surface()
    base = scene.base_triangle(surface)
    print(f"surface: {surface.kind}   base diameter: {base.diam:.6g}   depth: {depth}")

    t0 = time.perf_counter()
    system = gasket.build_system(base, depth, scene.delta)
    build_s = time.perf_counter() - t0
    print(f"built {3**depth} cells in {build_s:.2f}s   nu = {system.nu:.6g}")

    c = gasket.calibrate_gauge(system, n_pairs=scene.audit_pairs, seed=args.seed)
    print(f"calibrated quadratic gauge constant c = {c:.6g}")

    rows = []
    nest = gasket.nesting_check(system, seed=args.seed)
    rows.append(("nesting", nest.all_inside, f"max resid factor {nest.max_residual_factor:.2e}"))
    contract = gasket.contraction_check(system)
    rows.append(("contraction", contract.passed, f"worst margin {contract.worst_margin:.4f}"))
    nondeg = gasket.nondegeneracy_sweep(system)
    rows.append(("non-degeneracy", nondeg.passed, f"min angle {nondeg.min_angle:.4f}"))
    audits = gasket.audit_sweep(system, n_pairs=scene.audit_pairs,
                                cells_per_level=scene.cells_per_level, seed=args.seed)
    worst = max(a.max_ratio_deviation / a.envelope if a.envelope else 0.0 for a in audits)
    rows.append(("similarity audits", all(a.passed for a in audits), f"worst dev/env {worst:.3f}"))
    drift = gasket.check_ratio_products(system)
    rows.append(("quotient drift", drift.passed, f"{drift.max_drift:.6f} vs L = {drift.bound:.6f}"))
    moran = gasket.controlled_moran_check(system)
    rows.append(("diameter products", moran.band_factor <= 4.0,
                 f"band {moran.band_factor:.4f}, D >= {moran.d_required:.4f}"))

    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"  {name:<{width}}  {status}  {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
