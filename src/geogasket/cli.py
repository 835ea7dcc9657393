"""Command-line interface.

Subcommands: ``moran`` (exponent solver), ``build`` (construct and export a
system), ``verify`` (certification report), ``dim`` (box-dimension
regression with CSV/SVG artifacts), ``measure`` (push-forward fixed-point
trace).  Exit codes: 0 success, 2 input error, 3 construction failure,
4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gasket
from .dimension import box_dimension_estimate, dimension_report_csv, solve_moran
from .errors import CapacityError, DomainError, GeogasketError, SceneValidationError
from .measures import (
    DiscreteMeasure,
    cell_masses,
    pushforward_fixpoint,
    trace_ratios,
)
from .scene import SceneConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_CERTIFICATION = 4

def cmd_moran(args) -> int:
    try:
        ratios = tuple(float(r) for r in args.ratios)
        if any(not (0.0 < r < 1.0) for r in ratios):
            raise DomainError(f"ratios must lie in (0, 1): {ratios}")
        sol = solve_moran(ratios)
    except (ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"s = {sol.s:.15f}")
    print(f"residual = {sol.residual:.3e}")
    return EXIT_OK


def _load_system(path):
    try:
        with open(path) as fh:
            return gasket.system_from_json(fh.read())
    except (OSError, ValueError, GeogasketError) as exc:
        raise SceneValidationError(f"cannot load system {path}: {exc}") from exc


def _write(path, text) -> bool:
    """Write ``text`` to ``path``; False, after an error line, when it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_build(args) -> int:
    try:
        scene = SceneConfig.from_path(args.scene)
        surface = scene.surface()
    except GeogasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    depth = args.depth if args.depth is not None else scene.depth
    try:
        base = scene.base_triangle(surface)
        system = gasket.build_system(base, depth, scene.delta)
        gasket.calibrate_gauge(system, n_pairs=scene.audit_pairs, seed=scene.seed)
    except GeogasketError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    if not _write(args.out, gasket.system_to_json(system)):
        return EXIT_INPUT
    print(f"built {3**depth} cells at depth {depth}; gauge c = {system.gauge_c:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        system = _load_system(args.system)
    except SceneValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    failures = []
    checks = []

    def run_check(name, fn):
        try:
            ok, detail = fn()
        except GeogasketError as exc:
            ok, detail = False, f"error: {exc}"
        checks.append((name, ok, detail))

    def check_nesting():
        nest = gasket.nesting_check(system, cells_per_level=args.cells_per_level, seed=args.seed)
        return nest.all_inside, f"max residual factor {nest.max_residual_factor:.3e}"

    def check_contraction():
        contract = gasket.contraction_check(system)
        return contract.passed, f"nu = {system.nu:.6g}, worst margin {contract.worst_margin:.6g}"

    def check_nondegeneracy():
        nondeg = gasket.nondegeneracy_sweep(system)
        return nondeg.passed, (
            f"angles in [{nondeg.min_angle:.4f}, {nondeg.max_angle:.4f}], "
            f"delta/2 = {system.delta / 2:.4f}"
        )

    def check_audits():
        if system.gauge_c is None:
            gasket.calibrate_gauge(system, seed=args.seed)
        audits = gasket.audit_sweep(system, cells_per_level=args.cells_per_level, seed=args.seed)
        ok = all(a.passed for a in audits)
        worst = max(
            (a.max_ratio_deviation / a.envelope if a.envelope > 0 else 0.0)
            for a in audits
        )
        return ok, f"c = {system.gauge_c:.6g}, worst dev/envelope = {worst:.3f}"

    def check_ratio():
        ratio = gasket.check_ratio_products(system)
        return ratio.passed, f"max drift {ratio.max_drift:.6g} vs L(r) = {ratio.bound:.6g}"

    def check_moran():
        moran = gasket.controlled_moran_check(system)
        return moran.band_factor <= 4.0, (
            f"band factor {moran.band_factor:.4f} around 1/diam = "
            f"{moran.center:.4f}, D >= {moran.d_required:.4f}"
        )

    run_check("nesting", check_nesting)
    run_check("nu-contraction", check_contraction)
    run_check("non-degeneracy", check_nondegeneracy)
    run_check("similarity-audits", check_audits)
    run_check("ratio-products", check_ratio)
    run_check("controlled-moran", check_moran)

    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(json.dumps({"failures": failures}))
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_dim(args) -> int:
    try:
        system = _load_system(args.system)
        n1_s, n2_s = args.levels.split("..")
        n1, n2 = int(n1_s), int(n2_s)
    except (SceneValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        est = box_dimension_estimate(system, n1, n2)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    reference = math.log(3) / math.log(2)
    if args.csv and not _write(args.csv, dimension_report_csv(system, est)):
        return EXIT_INPUT
    if args.svg and not _write(args.svg, gasket.render_svg(system, n2)):
        return EXIT_INPUT
    print(f"slope = {est.slope:.12f}")
    print(f"deviation from log3/log2 = {abs(est.slope - reference):.3e}")
    print(f"confidence band = [{est.confidence_band[0]:.6f}, {est.confidence_band[1]:.6f}]")
    if est.dropped_levels:
        print(f"dropped coarse levels: {est.dropped_levels}")
    return EXIT_OK


def cmd_measure(args) -> int:
    try:
        system = _load_system(args.system)
        weights = tuple(float(w) for w in args.weights)
        # `not w > 0`, so that NaN fails too
        if len(weights) != 3 or any(not w > 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise DomainError(f"weights must be three positives summing to 1: {weights}")
    except (SceneValidationError, ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    centroid = system.base.vertices.mean(axis=0)
    seed = DiscreteMeasure.point_mass(system.surface, centroid)
    try:
        report = pushforward_fixpoint(
            system, weights, args.iters, seed, atom_budget=args.atom_budget
        )
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print("kr trace:", " ".join(f"{v:.6e}" for v in report.trace_values))
    ratios = trace_ratios(report.trace_values)
    if ratios:
        print("trace ratios:", " ".join(f"{r:.4f}" for r in ratios))
    depth = min(4, system.depth)
    masses = cell_masses(report.final, system, depth)
    # expected mass of cell I is the product of its digit weights
    expected = np.ones(3**depth)
    for code in range(3**depth):
        c = code
        m = 1.0
        for _ in range(depth):
            m *= weights[c % 3]
            c //= 3
        expected[code] = m
    resid = float(np.max(np.abs(masses - expected)))
    print(f"depth-{depth} invariance residual = {resid:.6e}")
    print(f"converged = {report.converged}")
    return EXIT_OK


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi, or at least lo without hi."""

    def parse(text):
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"in {lo}..{hi}" if hi is not None else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {value}")
        return value

    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geogasket",
        description="Geodesic gaskets on surfaces: build, certify, estimate dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_moran = sub.add_parser("moran", help="solve the similarity-dimension equation")
    p_moran.add_argument("ratios", nargs="+")
    p_moran.set_defaults(func=cmd_moran)

    p_build = sub.add_parser("build", help="build a system from a scene JSON")
    p_build.add_argument("scene")
    # the scene reader's depth range
    p_build.add_argument("--depth", type=_int_in(1, 14), default=None)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the certification checks")
    p_verify.add_argument("system")
    p_verify.add_argument("--seed", type=_int_in(0), default=0)
    p_verify.add_argument("--cells-per-level", type=_int_in(1), default=12)
    p_verify.set_defaults(func=cmd_verify)

    p_dim = sub.add_parser("dim", help="box-dimension regression and artifacts")
    p_dim.add_argument("system")
    p_dim.add_argument("--levels", required=True, help="range n1..n2")
    p_dim.add_argument("--csv", default=None)
    p_dim.add_argument("--svg", default=None)
    p_dim.set_defaults(func=cmd_dim)

    p_meas = sub.add_parser("measure", help="push-forward fixed-point trace")
    p_meas.add_argument("system")
    p_meas.add_argument("--weights", nargs=3, required=True)
    p_meas.add_argument("--iters", type=_int_in(1), default=12)
    p_meas.add_argument("--atom-budget", type=_int_in(1), default=2000)
    p_meas.set_defaults(func=cmd_measure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
