import json
import math
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import read_level, write_level

from geogasket import gasket
from geogasket.cli import main
from geogasket.errors import DomainError, InversionError, NondegeneracyError, SceneValidationError
from geogasket.gasket import (
    apply_f,
    audit_similarity,
    audit_sweep,
    build_system,
    calibrate_gauge,
    check_ratio_products,
    contraction_check,
    controlled_moran_check,
    mi_code,
    mi_from_code,
    nesting_check,
    nondegeneracy_sweep,
    render_svg,
    system_from_json,
    system_to_json,
)
from geogasket.scene import SceneConfig
from geogasket.surfaces import EUCLIDEAN, SurfaceModel
from geogasket.triangles import GeodesicTriangleRegion


def shoelace(tri):
    (x1, y1), (x2, y2), (x3, y3) = tri
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


class TestMultiIndex:
    def test_code_roundtrip(self):
        for n in (1, 2, 5):
            for code in range(3**n):
                assert mi_code(mi_from_code(code, n)) == code

    def test_bad_digit(self):
        with pytest.raises(DomainError):
            mi_code((1, 4))


class TestSubdivide:
    def test_flat_halves_sides(self, flat_base, split_cells):
        c1, c2, c3, center = split_cells(flat_base)
        for idx, child in enumerate((c1, c2, c3)):
            np.testing.assert_allclose(
                child.side_lengths, flat_base.side_lengths / 2.0, rtol=1e-12
            )
            # child keeps its namesake vertex
            np.testing.assert_allclose(
                child.vertices[idx], flat_base.vertices[idx]
            )
        np.testing.assert_allclose(center.side_lengths, flat_base.side_lengths / 2.0, rtol=1e-12)

    def test_flat_area_additivity(self, flat_base, split_cells):
        c1, c2, c3, center = split_cells(flat_base)
        total = sum(shoelace(t.vertices) for t in (c1, c2, c3, center))
        assert total == pytest.approx(shoelace(flat_base.vertices), abs=1e-10)

    def test_sphere_midline_rauch(self, sphere, split_cells):
        tri = GeodesicTriangleRegion.from_vertices(
            sphere, (0.01, 0.0), (0.12, 0.02), (0.05, 0.1)
        )
        r = tri.diam
        c1, c2, c3, center = split_cells(tri)
        for i, child in enumerate((c1, c2, c3)):
            midline = child.side_lengths[i]
            opposite = tri.side_lengths[i]
            ratio = midline / (opposite / 2.0)
            assert 1 - r * r < ratio < 1 + r * r


class TestBuildSystem:
    def test_depth_one(self, flat_base):
        system = build_system(flat_base, 1, delta=0.5)
        assert len(system.level(1)) == 3

    def test_flat_exact_halving_depth10(self, flat_base):
        system = build_system(flat_base, 10, delta=0.5)
        diams = system.level_diams(10)
        assert len(diams) == 3**10
        np.testing.assert_allclose(diams, flat_base.diam * 2.0**-10, rtol=1e-12)

    def test_nu_value(self, sphere_system, sphere_base):
        r = sphere_base.diam
        assert sphere_system.nu == pytest.approx(0.5 * (1 + r * r))

    def test_base_must_be_nondegenerate(self, eu):
        needle = GeodesicTriangleRegion.from_vertices(eu, (0, 0), (1, 0), (0.5, 0.01))
        with pytest.raises(NondegeneracyError):
            build_system(needle, 2, delta=0.5)

    def test_contraction(self, sphere_system, hyperbolic_system, flat_system):
        for system in (sphere_system, hyperbolic_system, flat_system):
            assert contraction_check(system).passed

    def test_nesting(self, sphere_system, flat_system):
        for system in (sphere_system, flat_system):
            check = nesting_check(system, cells_per_level=6)
            assert check.passed
            assert check.value <= 1e-7 == check.bound


class TestApplyF:
    def test_fixed_vertex(self, sphere_system):
        apex = sphere_system.base.vertices[1]
        out = apply_f(sphere_system, [(2,)], [apex])[0, 0]
        assert tuple(out) == tuple(apex)

    def test_flat_homothety_exact(self, flat_system):
        rng = np.random.default_rng(0)
        apex = flat_system.base.vertices[0]
        for _ in range(25):
            t, s = rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0)
            x, y = flat_system.base.phi_many(1, [t, t * 0.7], [s, s * 0.9])
            fx, fy = apply_f(flat_system, [(1,)], [x, y])[0]
            num = np.hypot(*(fx - fy))
            den = np.hypot(*(x - y))
            assert num / den == 0.5

    def test_sphere_dilation_band(self, sphere):
        tri = GeodesicTriangleRegion.from_vertices(
            sphere, (0.0, 0.0), (0.07, 0.005), (0.03, 0.06)
        )
        system = build_system(tri, 2, delta=0.4)
        c = calibrate_gauge(system, n_pairs=150, seed=2)
        rng = np.random.default_rng(8)
        r2 = tri.diam**2
        for _ in range(10):
            t1, s1 = rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.0)
            t2, s2 = rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.0)
            x, y = tri.phi_many(1, [t1, t2], [s1, s2])
            d = sphere.distance_many([x], [y])[0]
            if d < 1e-4:
                continue
            fx, fy = apply_f(system, [(1,)], [x, y])[0]
            ratio = sphere.distance_many([fx], [fy])[0] / d
            assert abs(ratio - 0.5) <= 0.5 * max(c, 1e-6) * r2 * 1.5

    @pytest.mark.parametrize("vertex", [1, 2, 3])
    def test_near_apex_point_moves(self, vertex):
        # a point close to the apex is mapped, not snapped onto the apex
        scene = SceneConfig.from_path(Path(__file__).parents[1] / "scenes" / "sphere_small.json")
        system = build_system(scene.base_triangle(), 3, scene.delta)
        verts = system.base.vertices
        apex = verts[vertex - 1]
        inward = verts.mean(axis=0) - apex
        inward /= np.hypot(*inward)
        for offset in (1e-9, 1e-7, 3e-7, 1e-6):
            x = apex + offset * inward
            fx = apply_f(system, [(vertex,)], [x])[0, 0]
            ratio = system.surface.distance_many([fx, x], [apex, apex])
            ratio = ratio[0] / ratio[1]
            assert 0.49 < ratio < 0.51, (offset, ratio)

    @pytest.mark.parametrize("parent", [(), (2,), (3, 3)], ids=["base", "2", "33"])
    def test_deep_cells_match_region_maps(self, sphere_system, parent):
        # the frames read from the level arrays (or, for depth-1 cells, the
        # base region's table) give the maps of the parent built as a
        # region from the same arrays
        lv = sphere_system.level(len(parent))
        code = mi_code(parent)
        region = GeodesicTriangleRegion(sphere_system.surface, lv.vertices[code], lv.side_lengths[code])
        rng = np.random.default_rng(5)
        xs = region.phi_many(1, rng.uniform(0.05, 0.95, 12), rng.uniform(0.05, 1.0, 12))
        cells = [parent + (d,) for d in (1, 2, 3)]
        images = apply_f(sphere_system, cells, xs)
        for d, got in zip((1, 2, 3), images):
            ts, ss, _ = region.invert_phi_many(d, xs, tol=1e-7 * region.diam)
            expected = region.phi_many(d, ts, ss / 2)
            assert np.max(np.hypot(*(got - expected).T)) <= 1e-12 * region.diam

    @pytest.mark.parametrize(
        "system_name, far",
        [("sphere_system", [0.5, 0.5]), ("flat_system", [2.0, 2.0])],
        ids=["sphere_system", "flat_system"],
    )
    def test_outside_point_inversion_error(self, request, system_name, far):
        system = request.getfixturevalue(system_name)
        with pytest.raises(InversionError, match="on cell 1"):
            apply_f(system, [(1,)], [far])


def sweep_cells(depth, cells_per_level):
    """The cells ``audit_sweep`` samples when each level has more than
    ``cells_per_level`` cells."""
    return [
        mi_from_code(int(code), n)
        for n in range(1, depth + 1)
        for code in np.unique(np.linspace(0, 3**n - 1, cells_per_level).astype(int))
    ]


class TestAudits:
    def test_flat_zero_deviation(self, flat_system):
        dev, diam = audit_similarity(flat_system, [(1, 3, 2)], n_pairs=150, seed=4)
        assert dev.tolist() == [0.0]
        assert diam.tolist() == [flat_system.level_diams(2)[mi_code((1, 3))]]

    def test_budget_enforced(self, flat_system):
        with pytest.raises(DomainError):
            audit_similarity(flat_system, [(1,)], n_pairs=50)

    @pytest.mark.parametrize("call", [audit_similarity, lambda system, cells: apply_f(system, cells, [(0.0, 0.0)])])
    @pytest.mark.parametrize("cells", [[], [(1,), ()]], ids=["no_cells", "empty_index"])
    def test_cells_required(self, flat_system, call, cells):
        with pytest.raises(DomainError, match="needs at least one cell, each a nonempty multi-index"):
            call(flat_system, cells)

    @pytest.mark.parametrize("call", [audit_similarity, lambda system, cells: apply_f(system, cells, [(0.0, 0.0)])])
    def test_first_cell_past_depth_named(self, flat_system, call):
        # a stored cell first, and a cell whose code overflows 64 bits before the other deep one
        with pytest.raises(DomainError, match="^level 59 outside stored depth"):
            call(flat_system, [(1,), (3,) * 60, (2,) * 9])

    def test_sphere_all_levels_pass(self, sphere_system):
        dev, diam = audit_sweep(sphere_system, n_pairs=100, cells_per_level=6, seed=2)
        assert len(dev) and np.all(dev <= 0.5 * sphere_system.gauge_c * diam**2)

    def test_quadratic_decay_across_depths(self, sphere_system):
        # deviations shrink with the parent diameter, roughly quadratically
        devs = {}
        for n in (1, 3, 5):
            (dev,), (diam,) = audit_similarity(sphere_system, [(1,) * n], n_pairs=200, seed=6)
            devs[n] = (diam, dev)
        (d1, v1), (d5, v5) = devs[1], devs[5]
        slope = math.log(v1 / v5) / math.log(d1 / d5)
        assert slope >= 1.8

    def test_single_audit_matches_sweep(self, sphere_system):
        dev, diam = audit_sweep(sphere_system, n_pairs=100, cells_per_level=2, seed=3)
        cells = sweep_cells(sphere_system.depth, 2)
        # a copy that was never audited measures each cell alone
        fresh = system_from_json(system_to_json(sphere_system))
        for row in range(0, len(cells), 3):
            alone = audit_similarity(fresh, [cells[row]], n_pairs=100, seed=3)
            assert (alone[0].tolist(), alone[1].tolist()) == ([dev[row]], [diam[row]])

    def test_envelope_follows_gauge(self, sphere_base):
        system = build_system(sphere_base, 2, delta=0.4)
        dev, diam = audit_sweep(system, n_pairs=100, cells_per_level=2, seed=5)
        system.gauge_c = 1.0
        first = gasket._audit_check(system, cells_per_level=2, seed=5)
        system.gauge_c = 1e-9
        second = gasket._audit_check(system, cells_per_level=2, seed=5)
        # the same deviations, measured against envelopes 1e9 times smaller
        assert np.all(dev > 0)
        assert first.value == float(np.max(dev / (0.5 * 1.0 * diam**2)))
        assert second.value == float(np.max(dev / (0.5 * 1e-9 * diam**2))) > first.value
        assert first.passed and not second.passed

    def test_row_cap_does_not_change_results(self, sphere_base, monkeypatch):
        def run():
            system = build_system(sphere_base, 3, delta=0.4)
            c = calibrate_gauge(system, max_parent_depth=1, n_pairs=100, seed=4)
            dev, diam = audit_sweep(system, n_pairs=100, cells_per_level=3, seed=4)
            nest = nesting_check(system, cells_per_level=3)
            # points of cell 1, the first the apex of child 12, which skips the inversion
            verts = system.level(1).vertices[0]
            xs = [verts[1], *(w @ verts for w in ([0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]))]
            images = apply_f(system, [(1, 1), (1, 2), (1, 3)], xs)
            return c, dev.tolist(), diam.tolist(), nest, images.tolist()

        wide = run()
        monkeypatch.setattr(gasket, "_STACK_ROWS", 5)
        assert run() == wide

    def test_gauge_calibration_margin(self, sphere_system):
        dev, diam = audit_sweep(sphere_system, n_pairs=100, cells_per_level=4, seed=9)
        worst = np.max(dev / (0.5 * sphere_system.gauge_c * diam**2))
        assert worst <= 1.0


class TestRatioProducts:
    def test_flat_exact(self, flat_system):
        check = check_ratio_products(flat_system)
        assert check.passed
        assert check.value == pytest.approx(1.0, abs=1e-12)

    def test_curved_within_bound(self, sphere_system, hyperbolic_system):
        for system in (sphere_system, hyperbolic_system):
            check = check_ratio_products(system)
            assert check.passed
            assert check.value <= check.bound


class TestControlledMoran:
    def test_flat_constant(self, flat_system):
        check = controlled_moran_check(flat_system, max_total=8)
        # the spread (max - min) * diam(base) of the ratios is at most
        # twice the band factor's excess over 1
        assert check.value - 1.0 <= 0.5e-12

    def test_depth_one_vacuous(self, flat_base, sphere_system):
        system = build_system(flat_base, 1, delta=0.5)
        check = controlled_moran_check(system)
        assert check.passed and check.value == 1.0
        # on a curved system the factor is exactly 1 only when no pair fits
        assert controlled_moran_check(sphere_system, max_total=1).value == 1.0
        assert controlled_moran_check(sphere_system, max_total=2).value > 1.0

    def test_sphere_band(self, sphere_system):
        check = controlled_moran_check(sphere_system)
        assert check.passed
        assert check.value <= check.bound == gasket.MORAN_BAND


def _sphere_lift(p):
    """Stereographic chart -> unit vectors in R^3 (chart origin at the north pole)."""
    r2 = np.sum(p * p, axis=-1, keepdims=True)
    return np.concatenate([2 * p, 1 - r2], axis=-1) / (1 + r2)


def _hyperboloid_lift(p):
    """Poincare disk -> the hyperboloid -x0^2 + x1^2 + x2^2 = -1, x0 > 0."""
    r2 = np.sum(p * p, axis=-1, keepdims=True)
    return np.concatenate([1 + r2, 2 * p], axis=-1) / (1 - r2)


def _minkowski(x, y):
    return -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


# name -> (scene, lift to the model space, geodesic midpoint there, chart of a lifted point)
CLOSED_FORM_MODELS = {
    "sphere": (
        "sphere_small.json",
        _sphere_lift,
        lambda p, q: (p + q) / np.linalg.norm(p + q, axis=-1, keepdims=True),
        lambda x: x[..., :2] / (1 + x[..., 2:]),
    ),
    "hyperbolic": (
        "hyperbolic_small.json",
        _hyperboloid_lift,
        lambda p, q: (p + q) / np.sqrt(-_minkowski(p + q, p + q))[..., None],
        lambda x: x[..., 1:] / (1 + x[..., :1]),
    ),
}


class TestClosedFormReference:
    """Whole-gasket oracle: the scene gaskets at depth 6, rebuilt without the
    ODE path from exact midpoints in the sphere's and the disk's model space."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_MODELS))
    def test_every_cell_matches(self, name, closed_form_distance):
        scene_file, lift, midpoint, chart = CLOSED_FORM_MODELS[name]
        scene = SceneConfig.from_path(Path(__file__).parents[1] / "scenes" / scene_file)
        surface = scene.surface()
        system = build_system(scene.base_triangle(surface), 6, scene.delta)
        cells = lift(system.base.vertices)[None]
        for n in range(1, 7):
            # the digit convention of _children: child d keeps vertex d,
            # and midpoint k, of the side opposite vertex k, fills slot 3 - d - k
            mids = midpoint(cells[:, [1, 2, 0]], cells[:, [2, 0, 1]])
            children = np.empty((len(cells), 3, 3, 3))
            for d in range(3):
                for slot in range(3):
                    children[:, d, slot] = cells[:, d] if slot == d else mids[:, 3 - d - slot]
            cells = children.reshape(-1, 3, 3)
            verts = chart(cells)
            lv = system.level(n)
            assert np.max(np.abs(lv.vertices - verts)) <= 1e-10, (name, n)
            exact = [
                [closed_form_distance(surface, tri[(k + 1) % 3], tri[(k + 2) % 3]) for k in range(3)]
                for tri in verts
            ]
            assert np.max(np.abs(lv.side_lengths - exact)) <= 1e-10, (name, n)


class TestKernelWork:
    def test_build_and_calibrate_rhs_rows(self, monkeypatch):
        # RHS rows (geodesic ODE states evaluated) of build plus calibration,
        # counted without timing anything.  The fixed 0.1 first step and a
        # Jacobian per Newton iteration took 4,485,813 rows here; the
        # whole-interval first step and one finite-difference Jacobian per
        # solve took 2.29 M; the Christoffel seed and Jacobian, with no
        # Jacobian pass, take about 1.51 M.  The bar is 40% of the first.
        rows = []
        rhs = SurfaceModel._ode_rhs

        def counting(self, y, out):
            rows.append(y.shape[1])
            return rhs(self, y, out)

        monkeypatch.setattr(SurfaceModel, "_ode_rhs", counting)
        scene = SceneConfig.from_path(Path(__file__).parents[1] / "scenes" / "sphere_small.json")
        system = build_system(scene.base_triangle(), 3, scene.delta)
        calibrate_gauge(system, n_pairs=scene.audit_pairs, seed=scene.seed)
        assert sum(rows) <= 0.4 * 4_485_813


    @pytest.mark.parametrize("scene, most", [("sphere_small", (240, 142, 26)), ("flat_unit", (0, 0, 0))])
    def test_pipeline_steps(self, scene, most, tmp_path, monkeypatch, capsys):
        # integrator steps of build, verify and measure at depth 5.  Solving
        # each triangle's side directions once, and filling the audit passes
        # in level order, took the sphere from 397, 260 and 40 steps to
        # 332, 217 and 40; one cell sample for both verify checks took verify
        # to 197.  The third-order shooting seed, the second-order starting
        # Jacobian and each Newton pass started at its row's last first
        # accepted step took them to 240, 142 and 26.  The flat model takes none.
        steps = []
        step = SurfaceModel._step

        def counting(self, b):
            steps[-1] += 1
            return step(self, b)

        monkeypatch.setattr(SurfaceModel, "_step", counting)
        out = str(tmp_path / "system.json")
        thirds = [repr(1 / 3), repr(1 / 3), repr(1 - 2 / 3)]
        for argv in (
            ["build", str(Path(__file__).parents[1] / "scenes" / f"{scene}.json"), "--depth", "5", "--out", out],
            ["verify", out, "--seed", "7", "--cells-per-level", "2"],
            ["measure", out, "--weights", *thirds, "--iters", "2"],
        ):
            steps.append(0)
            assert main(argv) == 0
        capsys.readouterr()
        assert all(n <= bound for n, bound in zip(steps, most)), steps


class TestDirectionTables:
    @staticmethod
    def assert_fresh(surface, frames):
        # each frame's side directions, bitwise those of a new solve
        apex, p_j, p_k, w_to_k, w_to_j = frames
        assert w_to_k.tobytes() == surface.log_many(apex, p_k).tobytes()
        assert w_to_j.tobytes() == surface.log_many(apex, p_j).tobytes()

    def test_frames_match_fresh_solves(self, sphere_base, monkeypatch):
        system = build_system(sphere_base, 4, delta=0.4)
        calibrate_gauge(system, max_parent_depth=1, seed=2)
        base = sphere_base.vertices
        assert sphere_base.side_lengths.tobytes() == sphere_base.surface.distance_many(base[[1, 2, 0]], base[[2, 0, 1]]).tobytes()
        levels = np.repeat([1, 2, 3, 4], [3, 9, 5, 4])
        codes = np.concatenate([np.arange(3), np.arange(9), [0, 4, 13, 20, 26], [1, 40, 41, 80]])
        read_back = system_from_json(system_to_json(system))
        for stored in (system, read_back):
            frames, _ = gasket._parent_frames(stored, levels, codes)
            self.assert_fresh(stored.surface, frames)
            frames, _ = gasket._parent_frames(stored, levels, codes, at_vertex1=True)
            self.assert_fresh(stored.surface, frames)
        # the copy solved its own tables: no solve is shared between systems
        solves = []
        log_many = SurfaceModel.log_many

        def counting(self, pts, targets, **kwargs):
            solves.append(len(pts))
            return log_many(self, pts, targets, **kwargs)

        monkeypatch.setattr(SurfaceModel, "log_many", counting)
        gasket._parent_frames(system_from_json(system_to_json(system)), levels, codes)
        gasket._parent_frames(read_back, levels, codes)
        # 1 + 3 + 5 + 3 parents, six directions each, in one solve for the new
        # copy and none for the old
        assert solves == [6 * 12]

    def test_systems_share_no_table(self, sphere_base):
        first, second = (build_system(sphere_base, 2, delta=0.4) for _ in range(2))
        calibrate_gauge(first, max_parent_depth=1, seed=2)
        assert first._directions is not second._directions
        for table in (second._directions[0, 0], sphere_base.directions):
            assert not np.shares_memory(first._directions[0, 0], table)
        # the base, then the parents of levels 1 and 2 that calibration read
        assert sorted(first._directions) == [(0, 0), (1, 0), (1, 1), (1, 2)]
        assert list(second._directions) == [(0, 0)]

    def test_audit_passes_fill_in_level_order(self, flat_base, monkeypatch):
        # 208 pairs, 832 rows a cell: 8 cells fit in 7,000 rows, so the
        # first pass takes levels 1 to 4 and the second level 5
        system = build_system(flat_base, 5, delta=0.5)
        passes = []
        pair_distances = gasket._pair_distances

        def recording(surface, frames, cells, ts, ss):
            passes.append(len(cells))
            return pair_distances(surface, frames, cells, ts, ss)

        monkeypatch.setattr(gasket, "_pair_distances", recording)
        audit_sweep(system, n_pairs=100, cells_per_level=2, seed=0)
        assert passes == [8, 2]

    @pytest.mark.parametrize("cells_per_level", [2, 12])
    def test_audit_reads_the_nesting_cells(self, sphere_system, cells_per_level):
        # both checks sample the same cells, so the audit finds every parent's
        # table already solved by the nesting check
        system = system_from_json(system_to_json(sphere_system))
        nesting_check(system, cells_per_level=cells_per_level)
        solved = set(system._directions)
        audit_sweep(system, cells_per_level=cells_per_level, seed=5)
        assert set(system._directions) == solved


class TestNondegeneracySweep:
    def test_curved_systems(self, sphere_system, hyperbolic_system):
        for system in (sphere_system, hyperbolic_system):
            rep = nondegeneracy_sweep(system)
            assert rep.passed


class TestSerialization:
    def test_roundtrip(self, sphere_system):
        text = system_to_json(sphere_system)
        back = system_from_json(text)
        assert back.depth == sphere_system.depth
        assert back.nu == pytest.approx(sphere_system.nu)
        np.testing.assert_allclose(
            back.level(3).side_lengths, sphere_system.level(3).side_lengths
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path, field",
        [
            (("meta", "delta"), "meta.delta"),
            (("meta", "gauge_c"), "meta.gauge_c"),
            (("meta", "base_vertices", 1, 0), "meta.base_vertices"),
            (("levels", 2, 1, (2, 2)), "level 2 midlines"),
            (("meta", "base_side_lengths", 2), "meta.base_side_lengths"),
            (("levels", 2, 0, (2, 1, 0)), "level 2 midpoints"),
        ],
    )
    def test_nonfinite_rejected(self, flat_base, path, field, value):
        doc = json.loads(system_to_json(build_system(flat_base, 2, delta=0.5)))
        system_from_json(json.dumps(doc))
        if path[0] == "levels":
            # level n, array 0 (midpoints) or 1 (midlines), entry
            _, n, which, entry = path
            arrays = read_level(doc, n)
            arrays[which][entry] = value
            write_level(doc, n, *arrays)
        else:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        with pytest.raises(SceneValidationError, match=field):
            system_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "scene", ["scenes/flat_unit.json", "scenes/sphere_small.json", "scenes/hyperbolic_small.json", "perfbench/scenes/custom_bump.json"]
    )
    def test_reread_levels_bitwise(self, scene):
        # a stored level holds only its parents' solved midpoints and
        # midlines, 9 numbers a parent, and the reader's assembly rebuilds
        # the very arrays build_system made
        config = SceneConfig.from_path(Path(__file__).parents[1] / scene)
        system = build_system(config.base_triangle(), 3, config.delta)
        text = system_to_json(system)
        doc = json.loads(text)
        for n in range(1, 4):
            mids, midlines = read_level(doc, n)
            assert mids.size + midlines.size == 9 * 3 ** (n - 1)
        back = system_from_json(text)
        assert len(back.levels) == len(system.levels) == 4
        for built, read in zip(system.levels, back.levels):
            for a, b in ((built.vertices, read.vertices), (built.side_lengths, read.side_lengths)):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert system_to_json(back) == text

    def test_levels_read_only(self, flat_base):
        system = build_system(flat_base, 2, delta=0.5)
        for stored in (system, system_from_json(system_to_json(system))):
            for lv in stored.levels:
                for arr in (lv.vertices, lv.side_lengths):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] *= 2

    def test_custom_surface_roundtrip(self):
        # the stored surface is the custom metric document, not the kind name
        scene = SceneConfig.from_path(Path(__file__).parents[1] / "perfbench" / "scenes" / "custom_bump.json")
        text = system_to_json(build_system(scene.base_triangle(), 2, scene.delta))
        assert json.loads(text)["meta"]["surface"] == scene.surface_spec
        assert system_to_json(system_from_json(text)) == text

    def test_surface_without_spec_refused(self, flat_base):
        # a model built directly, not from a name or a document, cannot be stored
        eu = flat_base.surface
        surface = SurfaceModel(EUCLIDEAN, eu.chart, eu.metric, eu.curvature, eu.christoffels, eu.christoffel_partials)
        base = GeodesicTriangleRegion(surface, flat_base.vertices, flat_base.side_lengths)
        with pytest.raises(DomainError, match="no spec"):
            system_to_json(build_system(base, 1, delta=0.5))

    def test_deterministic(self, sphere_base):
        s1 = build_system(sphere_base, 3, delta=0.4)
        s2 = build_system(sphere_base, 3, delta=0.4)
        assert system_to_json(s1) == system_to_json(s2)

    def test_svg_valid_xml(self, flat_system):
        svg = render_svg(flat_system, 4)
        xml.dom.minidom.parseString(svg)
        assert svg.count("<polygon") == 3**4
