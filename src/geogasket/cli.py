"""Command-line interface.

Subcommands: ``moran`` (exponent solver), ``build`` (construct and export a
system), ``verify`` (certification report), ``dim`` (box-dimension regression
with CSV/SVG artifacts), ``measure`` (push-forward fixed point and its
transport bracket).  Exit codes: 0 success, 2 input error, 3 construction
failure, 4 certification failure.  ``main`` turns a package error that no
command handles into exit 2.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import gasket
from .dimension import box_dimension_estimate, dimension_report_csv, solve_moran
from .errors import DomainError, GeogasketError, SceneValidationError
from .measures import product_masses, pushforward_fixpoint, trace_ratios
from .scene import SceneConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_CERTIFICATION = 4

def cmd_moran(args) -> int:
    try:
        sol = solve_moran(float(r) for r in args.ratios)
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


def _write(path, text) -> None:
    """Write ``text`` to ``path``; a ``DomainError`` when it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _writable(path) -> None:
    """A ``DomainError`` unless ``path`` can be written; leaves no file where there was none."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def cmd_build(args) -> int:
    scene = SceneConfig.from_path(args.scene)
    surface = scene.surface()
    depth = args.depth if args.depth is not None else scene.depth
    # before the build, so that an unwritable path fails at once
    _writable(args.out)
    try:
        base = scene.base_triangle(surface)
        system = gasket.build_system(base, depth, scene.delta)
        gasket.calibrate_gauge(system, n_pairs=scene.audit_pairs, seed=scene.seed)
    except GeogasketError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    _write(args.out, gasket.system_to_json(system))
    print(f"built {3**depth} cells at depth {depth}; gauge c = {system.gauge_c:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    system = _load_system(args.system)
    checks = gasket.certify(system, seed=args.seed, cells_per_level=args.cells_per_level)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    failures = [check.name for check in checks if not check.passed]
    if failures:
        print(json.dumps({"failures": failures}))
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_dim(args) -> int:
    system = _load_system(args.system)
    est = box_dimension_estimate(system, *args.levels)
    if args.csv:
        _write(args.csv, dimension_report_csv(system, est))
    if args.svg:
        _write(args.svg, gasket.render_svg(system, args.levels[1]))
    print(f"slope = {est.slope:.12f}")
    print(f"deviation from log3/log2 = {abs(est.slope - math.log(3) / math.log(2)):.3e}")
    print(f"confidence band = [{est.confidence_band[0]:.6f}, {est.confidence_band[1]:.6f}]")
    return EXIT_OK


def cmd_measure(args) -> int:
    system = _load_system(args.system)
    report = pushforward_fixpoint(system, args.weights, args.iters)
    print("kr trace:", " ".join(f"{v:.6e}" for v in report.upper))
    print("kr lower:", " ".join(f"{v:.6e}" for v in report.lower))
    ratios = trace_ratios(report.upper)
    if ratios:
        print("trace ratios:", " ".join(f"{r:.4f}" for r in ratios))
    depth = min(4, args.iters)
    # each depth-d cell's mass, summed over its descendants in the last iterate
    masses = report.masses.reshape(3**depth, -1).sum(axis=1)
    resid = float(np.max(np.abs(masses - product_masses(args.weights, depth))))
    print(f"depth-{depth} invariance residual = {resid:.6e}")
    for n, (lo, up) in enumerate(zip(report.lower, report.upper)):
        if lo > up:
            print(f"error: inverted bracket at n = {n}: L_n = {lo:.6e} > U_n = {up:.6e}", file=sys.stderr)
            return EXIT_CERTIFICATION
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


def _level_range(text):
    """argparse type: a level range ``n1..n2``, as two integers."""
    try:
        n1, n2 = map(int, text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be n1..n2 with integers n1 and n2, not {text!r}") from None
    return n1, n2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geogasket", description="Geodesic gaskets on surfaces: build, certify, estimate dimension."
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
    p_dim.add_argument("--levels", type=_level_range, required=True, help="range n1..n2")
    p_dim.add_argument("--csv", default=None)
    p_dim.add_argument("--svg", default=None)
    p_dim.set_defaults(func=cmd_dim)

    p_meas = sub.add_parser("measure", help="push-forward fixed-point trace")
    p_meas.add_argument("system")
    p_meas.add_argument("--weights", type=float, nargs=3, required=True)
    p_meas.add_argument("--iters", type=_int_in(1), default=12)
    p_meas.add_argument(
        "--atom-budget", type=_int_in(1), default=2000,
        help="unused: the iterates are held as cell masses, with no atom budget",
    )
    p_meas.set_defaults(func=cmd_measure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeogasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
