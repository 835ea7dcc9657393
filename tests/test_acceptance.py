"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from geogasket.dimension import (
    GaugeSpec,
    box_dimension_estimate,
    gauge_admissible,
    solve_moran,
)
from geogasket.gasket import (
    TriangleSystem,
    audit_similarity,
    audit_sweep,
    build_system,
    controlled_moran_check,
    mi_from_code,
    nondegeneracy_sweep,
)
from geogasket.measures import pushforward_fixpoint, trace_ratios
from geogasket.surfaces import unit_sphere_surface
from geogasket.triangles import GeodesicTriangleRegion, planar_angles_batch

LOG3_OVER_LOG2 = math.log(3.0) / math.log(2.0)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def equilateral_base(surface, diam):
    verts = []
    for ang in (90, 210, 330):
        a = math.radians(ang)
        w = np.array([math.cos(a), math.sin(a)]) * 0.5
        verts.append(surface.exp_many([(0.0, 0.0)], [w * (diam / math.sqrt(3))])[0])
    return GeodesicTriangleRegion.from_vertices(surface, *verts)


@pytest.fixture(scope="module")
def flat12(flat_base):
    start = time.perf_counter()
    system = build_system(flat_base, 12, delta=0.5)
    return system, time.perf_counter() - start


@pytest.fixture(scope="module")
def sphere8(sphere):
    start = time.perf_counter()
    base = equilateral_base(sphere, 0.3)
    system = build_system(base, 8, delta=0.4)
    return system, time.perf_counter() - start


@pytest.fixture(scope="module")
def hyperbolic8(hyperbolic):
    start = time.perf_counter()
    base = equilateral_base(hyperbolic, 0.3)
    system = build_system(base, 8, delta=0.4)
    return system, time.perf_counter() - start


def test_criterion_1_moran_solver():
    start = time.perf_counter()
    for _ in range(100):
        sol = solve_moran((0.5, 0.5, 0.5))
    per_call = (time.perf_counter() - start) / 100.0
    err = abs(sol.s - 1.584962500721156)
    closed_ok = True
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        lam = float(rng.uniform(0.1, 0.9))
        got = solve_moran((lam,) * k).s
        closed_ok &= abs(got - math.log(k) / math.log(1 / lam)) <= 1e-12
    report(
        1,
        err <= 1e-12 and closed_ok and per_call < 1e-3,
        f"s error {err:.2e}, uniform cross-checks exact to 1e-12: {closed_ok}, "
        f"{per_call * 1e6:.0f} us/solve",
    )


def test_criterion_2_flat_gasket_oracle(flat12):
    system, build_time = flat12
    start = time.perf_counter()
    base_diam = system.base.diam
    diam_ok = True
    for n in range(1, 13):
        diams = system.level(n).diams
        diam_ok &= bool(np.all(np.abs(diams / (base_diam * 2.0**-n) - 1.0) <= 1e-12))
    est = box_dimension_estimate(system, 4, 12)
    slope_err = abs(est.slope - LOG3_OVER_LOG2)
    cells = [mi_from_code(code, n) for n in (1, 2, 3, 4) for code in range(3**n)]
    devs = np.concatenate([
        audit_similarity(system, cells)[0],
        audit_sweep(system, cells_per_level=12, seed=0)[0],
    ])
    worst_dev = float(np.max(devs))
    elapsed = build_time + (time.perf_counter() - start)
    report(
        2,
        diam_ok and slope_err <= 1e-10 and worst_dev <= 1e-12 and elapsed < 30.0,
        f"diameters exact: {diam_ok}, slope error {slope_err:.2e}, worst audit "
        f"deviation {worst_dev:.2e} over {len(devs)} audits, runtime {elapsed:.1f}s",
    )


@pytest.mark.parametrize("fixture_name", ["sphere8", "hyperbolic8"])
def test_criterion_3_curved_dimension(fixture_name, request):
    system, build_time = request.getfixturevalue(fixture_name)
    start = time.perf_counter()
    est = box_dimension_estimate(system, 3, 8)
    err = abs(est.slope - LOG3_OVER_LOG2)
    elapsed = build_time + (time.perf_counter() - start)
    report(
        3,
        err <= 0.05 and elapsed < 300.0,
        f"{system.surface.kind}: slope {est.slope:.5f} (error {err:.4f}), "
        f"runtime {elapsed:.1f}s",
    )


@pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
def test_criterion_4_cross_geodesic_envelope(kind, request):
    surface = request.getfixturevalue(kind)
    rng = np.random.default_rng(42)
    apexes = []
    w_b = []
    w_c = []
    sides = []
    while len(apexes) < 500:
        n_try = 800
        a_pts = rng.uniform(-0.08, 0.08, size=(n_try, 2))
        ang1 = rng.uniform(0, 2 * math.pi, n_try)
        ang2 = ang1 + rng.uniform(0.6, math.pi - 0.6, n_try)
        len1 = rng.uniform(0.08, 0.14, n_try)
        len2 = rng.uniform(0.08, 0.14, n_try)
        lam = np.sqrt(surface.metric(a_pts[:, 0], a_pts[:, 1])[0])
        wb = np.stack([np.cos(ang1), np.sin(ang1)], axis=1) * (len1 / lam)[:, None]
        wc = np.stack([np.cos(ang2), np.sin(ang2)], axis=1) * (len2 / lam)[:, None]
        b_pts = surface.exp_many(a_pts, wb)
        c_pts = surface.exp_many(a_pts, wc)
        a1 = surface.distance_many(b_pts, c_pts)
        a2 = surface.distance_many(a_pts, c_pts)
        a3 = surface.distance_many(a_pts, b_pts)
        tri_sides = np.stack([a1, a2, a3], axis=1)
        diam = np.max(tri_sides, axis=1)
        good = diam <= 0.3
        with np.errstate(invalid="ignore"):
            angles = planar_angles_batch(tri_sides)
        good &= np.all((angles > 0.15) & (angles < math.pi - 0.15), axis=1)
        for i in np.where(good)[0]:
            if len(apexes) >= 500:
                break
            apexes.append(a_pts[i])
            w_b.append(wb[i])
            w_c.append(wc[i])
            sides.append(tri_sides[i])
    apexes = np.array(apexes)
    w_b = np.array(w_b)
    w_c = np.array(w_c)
    sides = np.array(sides)
    r2 = np.max(sides, axis=1) ** 2
    a1 = sides[:, 0]
    violations = 0
    worst_margin = math.inf
    for s in np.arange(0.1, 0.95, 0.1):
        b_s = surface.exp_many(apexes, s * w_b)
        c_s = surface.exp_many(apexes, s * w_c)
        a1_s = surface.distance_many(b_s, c_s)
        ratio = a1_s / (s * a1)
        violations += int(np.sum((ratio <= 1 - r2) | (ratio >= 1 + r2)))
        worst_margin = min(worst_margin, float(np.min((1 + r2) - ratio)), float(np.min(ratio - (1 - r2))))
    report(
        4,
        violations == 0,
        f"{surface.kind}: 500 triangles x 9 cross sections, {violations} violations, "
        f"smallest envelope margin {worst_margin:.2e}",
    )


def test_criterion_5_quadratic_dilation_rate(sphere):
    diams = [0.05, 0.1, 0.2, 0.3]
    devs = []
    for d in diams:
        base = equilateral_base(sphere, d)
        system = build_system(base, 1, delta=0.4)
        (dev,), _ = audit_similarity(system, [(1,)], seed=0)
        devs.append(dev)
    slope = np.polyfit(np.log(diams), np.log(devs), 1)[0]
    report(
        5,
        slope >= 1.8,
        f"max deviation of the first map vs base diameter fits exponent {slope:.3f}",
    )


def test_criterion_6_nondegeneracy_propagation(sphere8):
    system, _ = sphere8
    check = nondegeneracy_sweep(system)
    total = sum(3**n for n in range(1, 9))
    report(
        6,
        check.passed and check.value > check.bound,
        f"sphere depth 8 (delta = 0.4), {total} cells: {check.detail}; "
        f"closest angle to 0 or pi {check.value:.3f}",
    )


def test_criterion_7_simple_family_sums(flat12, first_crossing):
    system, _ = flat12
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        lams = tuple(rng.uniform(0.2, 0.8, size=3))
        s = solve_moran(lams).s
        threshold = system.base.diam * float(rng.uniform(0.02, 0.45))
        family = first_crossing(system, threshold)
        total = sum(math.prod(lams[d - 1] for d in index) ** s for index in family)
        worst = max(worst, abs(total - 1.0))
    report(7, worst <= 1e-10, f"50 random ratio lists: worst |sum - 1| = {worst:.2e}")


def test_criterion_8_controlled_moran(flat12, sphere8, hyperbolic8):
    flat_sys, _ = flat12
    # index pairs of total length at most 8: the flat system to depth 8
    flat_spread = controlled_moran_check(TriangleSystem(flat_sys.base, flat_sys.delta, flat_sys.levels[:9])).value - 1.0
    curved_ok = True
    details = [f"flat spread {flat_spread:.2e}"]
    for system, _ in (sphere8, hyperbolic8):
        check = controlled_moran_check(system)
        curved_ok &= check.passed
        details.append(f"{system.surface.kind} band factor {check.value:.4f}")
    report(8, flat_spread <= 1e-12 and curved_ok, "; ".join(details))


def test_criterion_9_measure_fixed_point(flat12):
    # on the flat model each upper bound is the Hutchinson rate max a_i = 1/2
    # times the last, and the depth-4 masses are the product masses
    system, _ = flat12
    out = pushforward_fixpoint(system, (1 / 3, 1 / 3, 1 / 3), 12)
    ratios = trace_ratios(out.upper)
    ratio_err = max(abs(r - 0.5) for r in ratios)
    bracket_ok = all(lo <= up for lo, up in zip(out.lower, out.upper))
    masses = out.masses.reshape(3**4, -1).sum(axis=1)
    mass_err = float(np.max(np.abs(masses - 3.0**-4)))
    report(
        9,
        len(ratios) == 11 and ratio_err <= 1e-12 and bracket_ok and mass_err <= 1e-12,
        f"12 iterations, trace ratios within {ratio_err:.2e} of 0.5; lower <= upper: "
        f"{bracket_ok}; depth-4 mass error {mass_err:.2e}",
    )


def test_criterion_10_gauge_admissibility():
    sq = gauge_admissible(GaugeSpec("power", alpha=2.0), 1.0, 0.5)
    integral_err = abs(sq.integral - 1.0 / (8.0 * math.log(2.0)))
    harmonic = gauge_admissible(GaugeSpec("neglog_power", beta=1.0), 1.0, 0.5)
    family_ok = all(
        gauge_admissible(GaugeSpec("logpower", n=n), 1.0, 0.5).admissible
        for n in (1, 2, 3)
    )
    report(
        10,
        sq.admissible and integral_err <= 1e-8 and not harmonic.admissible and family_ok,
        f"square-gauge integral error {integral_err:.2e}; harmonic-log flagged "
        f"inadmissible: {not harmonic.admissible}; slow log family admissible: {family_ok}",
    )


@pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
def test_criterion_11_geodesic_oracle_fidelity(kind, request, closed_form_distance):
    surface = request.getfixturevalue(kind)
    rng = np.random.default_rng(13)
    n = 10**4
    pts = rng.uniform(-0.15, 0.15, size=(n, 2))
    qts = rng.uniform(-0.15, 0.15, size=(n, 2))
    solver = surface.distance_many(pts, qts)
    closed = np.array([closed_form_distance(surface, pts[i], qts[i]) for i in range(n)])
    dist_err = float(np.max(np.abs(solver - closed)))
    vels = rng.uniform(-0.2, 0.2, size=(n, 2))
    targets = surface.exp_many(pts, vels)
    back = surface.log_many(pts, targets)
    rel = np.linalg.norm(back - vels, axis=1) / np.maximum(
        np.linalg.norm(vels, axis=1), 1e-9
    )
    round_err = float(np.max(rel))
    report(
        11,
        dist_err <= 1e-8 and round_err <= 1e-7,
        f"{surface.kind}: max |closed-form - solver| = {dist_err:.2e} over 10^4 "
        f"pairs; worst round-trip relative error {round_err:.2e}",
    )
