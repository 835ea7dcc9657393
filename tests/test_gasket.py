import base64
import json
import math
import re
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import equilateral_base, read_level, write_level

from geogasket import gasket
from geogasket.cli import main
from geogasket.dimension import box_dimension_estimate
from geogasket.errors import ChartEscapeError, DomainError, InversionError, NondegeneracyError, SceneValidationError
from geogasket.gasket import (
    LevelArrays,
    TriangleSystem,
    _children,
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
from geogasket.surfaces import CUSTOM, EUCLIDEAN, HYPERBOLIC, SPHERE, SurfaceModel, make_surface
from geogasket.triangles import GeodesicTriangleRegion


def shoelace(tri):
    (x1, y1), (x2, y2), (x3, y3) = tri
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def keep_children(monkeypatch, digits):
    """Cut the child tables to the rows of ``digits``: the tree code then
    builds, stores and reads the sub-system of those corner maps, whose
    digits are 1 to len(digits) in the order of ``digits``."""
    rows = [d - 1 for d in digits]
    monkeypatch.setattr(gasket, "_CHILD_VERTICES", gasket._CHILD_VERTICES[rows])
    monkeypatch.setattr(gasket, "_CHILD_SIDES", gasket._CHILD_SIDES[rows])


def count_integrations(monkeypatch):
    """The list that gets one entry per ``SurfaceModel._integrate`` call from now on."""
    calls = []
    integrate = SurfaceModel._integrate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return integrate(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceModel, "_integrate", counting)
    return calls


class TestMultiIndex:
    @pytest.mark.parametrize("branching", [3, 2])
    def test_code_roundtrip(self, monkeypatch, branching):
        keep_children(monkeypatch, range(1, branching + 1))
        for n in (1, 2, 5):
            for code in range(branching**n):
                assert mi_code(mi_from_code(code, n)) == code
        # the first digit is the most significant
        assert mi_from_code(branching, 2) == (2, 1)
        assert mi_from_code(branching**5 - 1, 5) == (branching,) * 5

    @pytest.mark.parametrize("branching, names", [(3, "{1,2,3}"), (2, "{1,2}")], ids=["3", "2"])
    def test_bad_digit(self, monkeypatch, branching, names):
        keep_children(monkeypatch, range(1, branching + 1))
        # 1.5 and 2.9 were truncated to digits and True read as 1
        for bad in (0, branching + 1, 1.5, 2.9, True):
            with pytest.raises(DomainError, match=re.escape(f"multi-index digits must be in {names}: (1, {bad})")):
                mi_code((1, bad))


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
        diams = system.level(10).diams
        assert len(diams) == 3**10
        np.testing.assert_allclose(diams, flat_base.diam * 2.0**-10, rtol=1e-12)

    def test_nu_value(self, sphere_system, sphere_base):
        r = sphere_base.diam
        assert sphere_system.nu == pytest.approx(0.5 * (1 + r * r))

    def test_one_level_refused(self, flat_system):
        # a system of the base alone has no map to certify; numpy's error
        # from the checks used to stand in for this one
        message = "a system needs the base and at least one level, not 1 level(s)"
        with pytest.raises(DomainError, match=re.escape(message)):
            TriangleSystem(flat_system.base, flat_system.delta, flat_system.levels[:1])

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

    @staticmethod
    def solved_level_by_level(base, depth):
        # each level's sides shot by their own solve, then its midpoints
        # started from those directions and its midlines shot alone
        surface, verts, sides = base.surface, base.vertices[None], np.asarray(base.side_lengths)[None]
        levels = []
        for _ in range(depth):
            starts, ends = verts[:, [1, 2, 0]].reshape(-1, 2), verts[:, [2, 0, 1]].reshape(-1, 2)
            mids = surface.midpoint_many(starts, ends, surface.log_many(starts, ends)).reshape(-1, 3, 2)
            midlines = surface.distance_many(mids[:, [1, 2, 0]].reshape(-1, 2), mids[:, [2, 0, 1]].reshape(-1, 2))
            levels.append(_children(verts, sides, mids, midlines.reshape(-1, 3)))
            verts, sides = levels[-1].vertices, levels[-1].side_lengths
        return levels

    @pytest.mark.parametrize("scene", ["scenes/sphere_small.json", "scenes/hyperbolic_small.json", "perfbench/scenes/custom_bump.json"])
    @pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
    def test_levels_match_solves_level_by_level(self, scene, table):
        # a geodesic's result does not depend on its batch, so shooting each
        # level's sides with its parents' midlines moves no bit; a base
        # without a table has its own sides shot first
        config = SceneConfig.from_path(Path(__file__).parents[1] / scene)
        base = config.base_triangle()
        if not table:
            base = GeodesicTriangleRegion(base.surface, base.vertices, base.side_lengths)
        system = build_system(base, 4, config.delta)
        assert (base.directions is None) is (not table)
        for built, solved in zip(system.levels[1:], self.solved_level_by_level(base, 4), strict=True):
            assert built.vertices.tobytes() == solved.vertices.tobytes()
            assert built.side_lengths.tobytes() == solved.side_lengths.tobytes()

    def test_child_band_failure_names_the_cell(self, sphere_base, monkeypatch):
        # level 2's sides are shot with level 1's midlines, before level 2's
        # band test; a failing level-2 cell still stops the build by name
        band_failures = gasket._band_failures

        def failing(sides, half):
            angles, bad = band_failures(sides, half)
            return angles, np.array([4]) if len(sides) == 9 else bad

        monkeypatch.setattr(gasket, "_band_failures", failing)
        with pytest.raises(NondegeneracyError, match=re.escape("cell 22 fails 0.2-non-degeneracy")) as err:
            build_system(sphere_base, 4, delta=0.4)
        assert err.value.cell == (2, 2)

    def test_flat_build_shoots_midlines_alone(self, monkeypatch):
        # the flat midpoints read no directions, so no child side is shot
        config = SceneConfig.from_path(Path(__file__).parents[1] / "scenes" / "flat_unit.json")
        base = config.base_triangle()
        rows = []
        log_many = SurfaceModel.log_many

        def counting(self, pts, targets, **kwargs):
            rows.append(len(pts))
            return log_many(self, pts, targets, **kwargs)

        monkeypatch.setattr(SurfaceModel, "log_many", counting)
        build_system(base, 8, config.delta)
        assert rows == [3 * 3**n for n in range(8)]


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
        # the law's constant of the base's maps bounds every pair, sampled or not
        c = calibrate_gauge(system)
        assert c > 0
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
            assert abs(ratio - 0.5) <= 0.5 * c * r2

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
        # the frames solved from the level arrays give the maps of the
        # parent built as a region from the same arrays
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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: apply_f(s, [(1,)], [0.0, 0.01]), "apply_f needs chart points of shape (N, 2), not (2,)"),
            (lambda s: apply_f(s, [(1,)], [[0.0, 0.0, 0.0]]), "apply_f needs chart points of shape (N, 2), not (1, 3)"),
            (
                lambda s: s.base.phi_many(1, [0.1, 0.2, 0.3], [0.5, 0.5]),
                "phi_many needs ts and ss of one length, or numbers, not (3,) and (2,)",
            ),
            (lambda s: s.base.phi_many(1.0, [0.5], [0.5]), "vertex index must be the int 1, 2 or 3, not 1.0"),
            (lambda s: s.base.phi_many(True, [0.5], [0.5]), "vertex index must be the int 1, 2 or 3, not True"),
            (
                lambda s: s.base.invert_phi_many(1, [0.0, 0.0, 0.0]),
                "invert_phi_many needs chart points of shape (N, 2), not (3,)",
            ),
            (lambda s: s.base.invert_phi_many(4, [[0.0, 0.0]]), "vertex index must be the int 1, 2 or 3, not 4"),
            (
                lambda s: apply_f(s, [(1,)], [[0.0, 0.0], [1.0]]),
                "apply_f needs chart points of shape (N, 2): setting an array element with a sequence",
            ),
            (
                lambda s: apply_f(s, [(1,)], [["a", "b"]]),
                "apply_f needs chart points of shape (N, 2): could not convert string to float: 'a'",
            ),
            (
                lambda s: s.base.phi_many(1, ["a"], [0.5]),
                "phi_many needs ts and ss of one length, or numbers: could not convert string to float: 'a'",
            ),
            (
                lambda s: s.base.invert_phi_many(1, [[0.0, 0.0], [1.0]]),
                "invert_phi_many needs chart points of shape (N, 2): setting an array element with a sequence",
            ),
        ],
        ids=[
            "apply-f-1d", "apply-f-3-columns", "phi-lengths", "phi-float-vertex", "phi-bool-vertex", "invert-1d", "invert-vertex",
            "apply-f-ragged", "apply-f-text", "phi-text", "invert-ragged",
        ],
    )
    def test_misshaped_input_is_a_domain_error(self, sphere_system, call, message):
        # these leaked numpy's IndexError and ValueError, or read 1.0 as a row;
        # a ragged or non-numeric list failed in numpy's conversion
        with pytest.raises(DomainError, match=re.escape(message)):
            call(sphere_system)

    def test_no_points(self, sphere_system):
        assert apply_f(sphere_system, [(1,), (2, 3)], []).shape == (2, 0, 2)
        # a numpy int names a vertex, and numbers are one point
        point = sphere_system.base.phi_many(np.int64(2), 0.5, 0.5)
        assert point.tobytes() == sphere_system.base.phi_many(2, [0.5], [0.5]).tobytes()


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
        dev, diam = audit_similarity(flat_system, [(1, 3, 2)], seed=4)
        assert dev.tolist() == [0.0]
        assert diam.tolist() == [flat_system.level(2).diams[mi_code((1, 3))]]

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**60, 10**400], ids=["-1", "2**32", "2**60", "10**400"])
    def test_seed_range(self, flat_system, seed):
        # the lattice shift scales the seed as a binary64: from 2**60 on every
        # seed read one shift, and 10**400 overflowed
        message = f"seed must be in 0..4294967295, not {seed}"
        with pytest.raises(DomainError, match=re.escape(message)):
            audit_similarity(flat_system, [(1,)], seed=seed)
        with pytest.raises(DomainError, match=re.escape(message)):
            audit_sweep(flat_system, seed=seed)
        assert audit_similarity(flat_system, [(1,)], seed=2**32 - 1)[0].tolist() == [0.0]

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
        dev, diam = audit_sweep(sphere_system, cells_per_level=6, seed=2)[:2]
        assert len(dev) and np.all(dev <= gasket._envelopes(sphere_system, *gasket._level_sample(sphere_system, 6)))

    def test_quadratic_decay_across_depths(self, sphere_system):
        # deviations shrink with the parent diameter, roughly quadratically
        devs = {}
        for n in (1, 3, 5):
            (dev,), (diam,) = audit_similarity(sphere_system, [(1,) * n], seed=6)
            devs[n] = (diam, dev)
        (d1, v1), (d5, v5) = devs[1], devs[5]
        slope = math.log(v1 / v5) / math.log(d1 / d5)
        assert slope >= 1.8

    def test_single_audit_matches_sweep(self, sphere_system):
        dev, diam = audit_sweep(sphere_system, cells_per_level=2, seed=3)[:2]
        cells = sweep_cells(sphere_system.depth, 2)
        # a copy that was never audited measures each cell alone
        fresh = system_from_json(system_to_json(sphere_system))
        for row in range(0, len(cells), 3):
            alone = audit_similarity(fresh, [cells[row]], seed=3)
            assert (alone[0].tolist(), alone[1].tolist()) == ([dev[row]], [diam[row]])

    def test_envelope_follows_gauge(self, sphere_base, monkeypatch):
        system = build_system(sphere_base, 2, delta=0.4)
        dev = audit_sweep(system, cells_per_level=2, seed=5)[0]
        cells = gasket._level_sample(system, 2)
        first = gasket._audit_check(system, 2, dev)
        envelope = gasket._envelopes(system, *cells)
        monkeypatch.setattr(system.surface, "curvature_bound", 1e-9)
        second = gasket._audit_check(system, 2, dev)
        # the same deviations, measured against envelopes about 1e9 times smaller
        assert np.all(dev > 0)
        assert first.value == float(np.max(dev / envelope))
        assert second.value == float(np.max(dev / gasket._envelopes(system, *cells))) > 1e8 * first.value
        assert first.passed and not second.passed

    def test_row_cap_does_not_change_results(self, sphere_base, monkeypatch):
        def run():
            system = build_system(sphere_base, 3, delta=0.4)
            # every cell of levels 1 and 2 in one audit, as many passes as the cap needs
            whole = audit_similarity(system, [mi_from_code(code, n) for n in (1, 2) for code in range(3**n)], seed=4)
            dev, diam = audit_sweep(system, cells_per_level=3, seed=4)[:2]
            nest = nesting_check(system, cells_per_level=3)
            # points of cell 1, the first the apex of child 12, which skips the inversion
            verts = system.level(1).vertices[0]
            xs = [verts[1], *(w @ verts for w in ([0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]))]
            images = apply_f(system, [(1, 1), (1, 2), (1, 3)], xs)
            return [a.tolist() for a in whole], dev.tolist(), diam.tolist(), nest, images.tolist()

        wide = run()
        monkeypatch.setattr(gasket, "_STACK_ROWS", 5)
        assert run() == wide

    def test_gauge_calibration_margin(self, sphere_system):
        # the law's envelope holds with a margin on cells and pairs that no fit saw
        dev = audit_sweep(sphere_system, cells_per_level=4, seed=9)[0]
        worst = np.max(dev / gasket._envelopes(sphere_system, *gasket._level_sample(sphere_system, 4)))
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
        check = controlled_moran_check(flat_system)
        # the spread (max - min) * diam(base) of the ratios is at most
        # twice the band factor's excess over 1
        assert check.value - 1.0 <= 0.5e-12

    def test_depth_one_vacuous(self, flat_base, sphere_system):
        system = build_system(flat_base, 1, delta=0.5)
        check = controlled_moran_check(system)
        assert check.passed and check.value == 1.0
        # on a curved system the factor is exactly 1 only when no pair fits
        base, delta = sphere_system.base, sphere_system.delta
        assert controlled_moran_check(TriangleSystem(base, delta, sphere_system.levels[:2])).value == 1.0
        assert controlled_moran_check(TriangleSystem(base, delta, sphere_system.levels[:3])).value > 1.0

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


def law_deviations(sides, apex, curvature, t1, s1, t2, s2):
    """The second-order law's d(f x, f y)/d(x, y) - 1/2 = -(3/16) K F2/F0 of
    the pairs (t1, s1), (t2, s2), evaluated pair by pair in the planar
    comparison triangle of ``sides`` at vertex ``apex``: a runs to the vertex
    after the next and b to the next, as in ``triangles._frames``."""
    la, lb, c = sides[(apex + 1) % 3], sides[(apex + 2) % 3], sides[apex]
    cos = (la * la + lb * lb - c * c) / (2 * la * lb)
    a, b = np.array([la, 0.0]), lb * np.array([cos, math.sqrt(1 - cos * cos)])
    e = b - a
    a_perp = a - e * (e @ a) / (e @ e)

    def point(t, s):
        line = (1 - t)[:, None] * a + t[:, None] * b
        bend = (e @ e / 3) * (t * (1 - t))[:, None] * a_perp
        return s[:, None] * line, s[:, None] ** 3 * bend, line

    x0, x2, l1 = point(t1, s1)
    y0, y2, l2 = point(t2, s2)
    f0 = np.sum((x0 - y0) ** 2, axis=1)
    cross = l1[:, 0] * l2[:, 1] - l1[:, 1] * l2[:, 0]
    f2 = 2 * np.sum((x0 - y0) * (x2 - y2), axis=1) - (s1 * s2 * cross) ** 2 / 3
    return -3 / 16 * curvature * f2 / f0


# ROADMAP item 12's skew base, taken as a planar triangle
SKEW = np.array([(0.0, 0.11), (-0.10, -0.05), (0.07, -0.03)])
SKEW_SIDES = np.hypot(*(SKEW[[1, 2, 0]] - SKEW[[2, 0, 1]]).T)

CURVED_SCENES = ["scenes/sphere_small.json", "scenes/hyperbolic_small.json", "perfbench/scenes/custom_bump.json"]


@pytest.fixture(scope="module")
def depth6():
    """Each scene of ``CURVED_SCENES`` built at depth 6."""
    configs = {scene: SceneConfig.from_path(Path(__file__).parents[1] / scene) for scene in CURVED_SCENES}
    return {scene: build_system(config.base_triangle(), 6, config.delta) for scene, config in configs.items()}


def spread_pairs(seed):
    """The audit's pairs before it sampled near pairs on s = 1, spread over
    the whole cell: the 72 pairs of a lattice of 9 anchors over (t, s), 27
    pairs 0.03 apart at s <= 0.93 and 400 seeded Kronecker pairs (508 with
    the 9 coincident anchor pairs, which that audit left out)."""
    lattice = [0.1, 0.5, 0.9]
    anchors = [
        (t1, s1, t2, s2) for t1 in lattice for s1 in lattice for t2 in lattice for s2 in lattice if (t1, s1) != (t2, s2)
    ]
    near = [(t, s, t + dt, s + ds) for t in lattice for s in lattice for dt, ds in ((0.03, 0), (0, 0.03), (0.03, 0.03))]
    alphas = np.sqrt([2, 3, 5, 7]) - [1, 1, 2, 2]
    offsets = np.modf(np.arange(1, 5) * 0.381966011250105 * (seed + 1))[0]
    kronecker = np.modf(np.arange(1, 401)[:, None] * alphas + offsets)[0]
    return np.vstack([anchors, near, kronecker])


class TestSecondOrderLaw:
    @pytest.mark.parametrize("side", [1.0, 0.3, 0.02])
    def test_equilateral_constant(self, side):
        # the midline law's 3/32, at t = 1/2, from each apex
        shape = gasket._shape_constants(np.full((3, 3), side), np.arange(3))
        assert np.all(np.abs(shape - 3 / 32) <= 1e-15), shape

    def test_sup_is_the_near_coincident_limit(self):
        # no pair of the skew triangle, near or far, exceeds C; pairs a
        # 1e-4 step apart on s = 1 reach it
        shape = gasket._shape_constants(np.tile(SKEW_SIDES, (3, 1)), np.arange(3))
        np.testing.assert_allclose(shape, [0.0762, 0.0642, 0.0936], atol=5e-5)
        rng = np.random.default_rng(3)
        t1, s1, t2, s2 = rng.uniform(0, 1, (4, 20_000))
        t = np.linspace(0, 1, 401)
        dt, ds = rng.normal(size=(2, 401))
        step = 1e-4 / np.hypot(dt, ds)
        near = (t, np.ones(401), np.clip(t + step * dt, 0, 1), 1 - step * np.abs(ds))
        for apex in range(3):
            far = np.abs(law_deviations(SKEW_SIDES, apex, 1.0, t1, s1, t2, s2)) / SKEW_SIDES.max() ** 2
            close = np.abs(law_deviations(SKEW_SIDES, apex, 1.0, *near)) / SKEW_SIDES.max() ** 2
            assert np.max(far) <= shape[apex] and np.max(close) <= shape[apex]
        # one direction at each t only, so the near pairs come within 10% of the sup
        assert np.max(close) >= 0.9 * shape[2]

    @pytest.mark.parametrize("name", ["sphere", "hyperbolic"])
    def test_law_matches_the_audit(self, request, name):
        # on the audit's own pairs, at diam 0.02, where the remainder is small
        surface = request.getfixturevalue(name)
        system = build_system(equilateral_base(surface, 0.02, 0.5), 1, delta=0.4)
        (dev,), (diam,) = audit_similarity(system, [(1,)], seed=7)
        law = np.max(np.abs(law_deviations(system.base.side_lengths, 0, 1.0, *gasket._audit_parameter_grid(7).T)))
        assert diam == pytest.approx(0.02, rel=1e-4)
        assert abs(dev / law - 1) <= 1e-3, (dev / diam**2, law / diam**2)
        # and the module's constant and envelope hold both
        cell = np.array([1]), np.array([0])
        assert law <= gasket._shape_constants(system.base.side_lengths[None], np.array([0]))[0] * diam**2
        assert dev <= gasket._envelopes(system, *cell)[0]

    @pytest.mark.parametrize("scene", CURVED_SCENES)
    def test_near_pairs_read_the_sup(self, depth6, scene, monkeypatch):
        # calibrate_gauge's claim, not proved there, that the sup lies at
        # near pairs on s = 1: in every sampled cell, 499 pairs spread over
        # the cell read at most 0.9 of the audit's near pairs (0.85 measured)
        system = depth6[scene]
        near = audit_sweep(system)[0]
        assert gasket._audit_check(system, 12, near).passed
        monkeypatch.setattr(gasket, "_audit_parameter_grid", spread_pairs)
        spread = audit_sweep(system)[0]
        assert len(near) == 3 + 9 + 4 * 12 and np.all(spread <= 0.9 * near), np.max(spread / near)

    @pytest.mark.parametrize("scene", CURVED_SCENES[:2])
    def test_two_percent_smaller_constant_fails(self, depth6, scene, monkeypatch):
        # the near pairs read 0.99 of the envelope on the sphere and the disk,
        # so a C 2% too small fails them; the spread pairs read 0.84
        system = depth6[scene]
        dev = audit_sweep(system)[0]
        honest = gasket._audit_check(system, 12, dev)
        shape_constants = gasket._shape_constants
        monkeypatch.setattr(gasket, "_shape_constants", lambda sides, apexes: 0.98 * shape_constants(sides, apexes))
        smaller = gasket._audit_check(system, 12, dev)
        assert honest.passed and 0.98 <= honest.value <= 1 and not smaller.passed, (honest.value, smaller.value)

    @pytest.mark.parametrize("scene", CURVED_SCENES)
    def test_every_cell_within_envelope(self, scene):
        # every cell of every level at depth 5, against its own shape's envelope;
        # the fitted constant read 1/1.5 = 0.667 by construction
        config = SceneConfig.from_path(Path(__file__).parents[1] / scene)
        system = build_system(config.base_triangle(), 5, config.delta)
        levels, codes = gasket._level_sample(system, 3**5)
        assert len(codes) == sum(3**n for n in range(1, 6))
        dev = audit_sweep(system, cells_per_level=3**5)[0]
        over = dev / gasket._envelopes(system, levels, codes)
        for n in range(1, 6):
            worst = np.max(over[levels == n])
            assert 0.5 < worst < 1 and abs(worst - 2 / 3) > 1e-3, (n, worst)


class TestKernelWork:
    def test_build_and_calibrate_rhs_rows(self, monkeypatch):
        # RHS rows (geodesic ODE states evaluated) of build plus calibration,
        # counted without timing anything.  The fixed 0.1 first step and a
        # Jacobian per Newton iteration took 4,485,813 rows here, most of them
        # in the calibration's audit of levels 1 to 3; the whole-interval
        # first step and one finite-difference Jacobian per solve took 2.29 M;
        # the Christoffel seed and Jacobian, with no Jacobian pass, about
        # 1.51 M.  The derived gauge constant solves nothing, which leaves
        # the build's 3,684 rows.  Shooting each level's sides with its
        # parents' midlines solves the same rows in 343 RHS calls, not 431.
        rows = []
        rhs = SurfaceModel._ode_rhs

        def counting(self, y, out):
            rows.append(y.shape[1])
            return rhs(self, y, out)

        monkeypatch.setattr(SurfaceModel, "_ode_rhs", counting)
        scene = SceneConfig.from_path(Path(__file__).parents[1] / "scenes" / "sphere_small.json")
        system = build_system(scene.base_triangle(), 3, scene.delta)
        built = sum(rows)
        calibrate_gauge(system)
        assert sum(rows) == built <= 3_684
        assert len(rows) <= 343

    def test_calibration_solves_nothing(self, sphere_system, monkeypatch):
        calls = count_integrations(monkeypatch)
        fresh = system_from_json(system_to_json(sphere_system))
        assert calibrate_gauge(fresh) > 0
        assert calls == []

    @pytest.mark.parametrize(
        "scene, most", [("sphere_small", (48, 58, 19)), ("flat_unit", (0, 0, 0)), ("custom_bump", (18, 18, 5))]
    )
    def test_pipeline_steps(self, scene, most, tmp_path, monkeypatch, capsys):
        # integrator steps of build, verify and measure at depth 5, and at
        # the benchmark's depth 4 for its bump.  Solving
        # each triangle's side directions once, and filling the audit passes
        # in level order, took the sphere from 397, 260 and 40 steps to
        # 332, 217 and 40; one cell sample for both verify checks took verify
        # to 197.  The third-order shooting seed, the second-order starting
        # Jacobian and each Newton pass started at its row's last first
        # accepted step took them to 240, 142 and 26.  Deriving the gauge
        # constant instead of fitting it on an audit of levels 1 to 3 took
        # build to 78.  Solving the nesting check's first iterates in the
        # audit's passes took verify to 101.  Shooting each level's sides
        # with its parents' midlines took build to 60.  Auditing 84 near
        # pairs on s = 1 and s = 1/2 in place of 208 pairs spread over the
        # cell, in one pass instead of two, took verify to 73; the bump took
        # 22, 23 and 7.  Each base-scale log solve then spent about 10 steps
        # on its seed before two Newton passes of 8; taking the first Newton
        # step from the residual that a rejected whole-interval first trial
        # predicts took the sphere to 45, 55 and 17 and the bump to 17, 17
        # and 4.  The flat model takes none.
        steps = []
        step = SurfaceModel._step

        def counting(self, b):
            steps[-1] += 1
            return step(self, b)

        monkeypatch.setattr(SurfaceModel, "_step", counting)
        folder, depth = ("perfbench/scenes", "4") if scene == "custom_bump" else ("scenes", "5")
        out = str(tmp_path / "system.json")
        thirds = [repr(1 / 3), repr(1 / 3), repr(1 - 2 / 3)]
        for argv in (
            ["build", str(Path(__file__).parents[1] / folder / f"{scene}.json"), "--depth", depth, "--out", out],
            ["verify", out, "--seed", "0", "--cells-per-level", "2"],
            ["measure", out, "--weights", *thirds, "--iters", "2"],
        ):
            steps.append(0)
            assert main(argv) == 0
        capsys.readouterr()
        assert all(n <= bound for n, bound in zip(steps, most)), steps

    @pytest.mark.parametrize(
        "scene, depth, most",
        [("scenes/sphere_small.json", 5, 18), ("perfbench/scenes/custom_bump.json", 4, 12)],
    )
    def test_build_passes(self, scene, depth, most, tmp_path, monkeypatch, capsys):
        # integrator passes of build.  A solve of each level's sides of its
        # own, seed and Newton passes, took the sphere to 26 and the bump to
        # 17; they now ride the solve of the parents' midlines
        calls = count_integrations(monkeypatch)
        argv = ["build", str(Path(__file__).parents[1] / scene), "--depth", str(depth), "--out", str(tmp_path / "s.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) <= most

    @pytest.mark.parametrize(
        "scene, depth, most",
        [("scenes/sphere_small.json", 5, 17), ("perfbench/scenes/custom_bump.json", 4, 8)],
    )
    def test_verify_passes(self, scene, depth, most, tmp_path, monkeypatch, capsys):
        # integrator passes of verify.  The nesting check's own side exp,
        # three cross-log and t-exp passes took the sphere to 22 and the
        # bump to 12; its first iterates now ride the audit's passes
        config = SceneConfig.from_path(Path(__file__).parents[1] / scene)
        out = tmp_path / "system.json"
        out.write_text(system_to_json(build_system(config.base_triangle(), depth, config.delta)))
        calls = count_integrations(monkeypatch)
        assert main(["verify", str(out), "--seed", "7", "--cells-per-level", "2"]) == 0
        capsys.readouterr()
        assert len(calls) <= most


class TestDirectionTables:
    @staticmethod
    def assert_fresh(surface, frames):
        # each frame's side directions, bitwise those of a new solve
        apex, p_j, p_k, w_to_k, w_to_j = frames
        assert w_to_k.tobytes() == surface.log_many(apex, p_k).tobytes()
        assert w_to_j.tobytes() == surface.log_many(apex, p_j).tobytes()

    def test_frames_match_fresh_solves(self, sphere_base, monkeypatch):
        system = build_system(sphere_base, 4, delta=0.4)
        base = sphere_base.vertices
        assert sphere_base.side_lengths.tobytes() == sphere_base.surface.distance_many(base[[1, 2, 0]], base[[2, 0, 1]]).tobytes()
        levels = np.repeat([1, 2, 3, 4], [3, 9, 5, 4])
        codes = np.concatenate([np.arange(3), np.arange(9), [0, 4, 13, 20, 26], [1, 40, 41, 80]])
        read_back = system_from_json(system_to_json(system))
        for stored in (system, read_back):
            _, frames = gasket._parent_frames(stored, levels, codes)
            # the apex frames, then those at each parent's vertex 1
            verts = gasket._parents(stored, levels, codes)[0]
            apexes = verts[np.arange(len(codes)), gasket._apexes(codes)]
            assert frames[0].tobytes() == np.concatenate([apexes, verts[:, 0]]).tobytes()
            self.assert_fresh(stored.surface, frames)
        # each call solves its own tables: no solve is shared between calls or systems
        solves = []
        log_many = SurfaceModel.log_many

        def counting(self, pts, targets, **kwargs):
            solves.append(len(pts))
            return log_many(self, pts, targets, **kwargs)

        monkeypatch.setattr(SurfaceModel, "log_many", counting)
        gasket._parent_frames(system_from_json(system_to_json(system)), levels, codes)
        gasket._parent_frames(read_back, levels, codes)
        # 1 + 3 + 5 + 3 parents, six directions each, in one solve a call
        assert solves == [6 * 12] * 2

    def test_audit_passes_fill_in_level_order(self, flat_base, monkeypatch):
        # 84 pairs, 336 rows a cell and 3 first nesting iterates: 20 cells
        # fit in 7,000 rows, so the first pass takes levels 1 to 3 and the
        # first 5 cells of level 4, the second the rest
        system = build_system(flat_base, 5, delta=0.5)
        passes = []
        pair_distances = gasket._pair_distances

        def recording(surface, frames, cells, *rest):
            passes.append(len(cells))
            return pair_distances(surface, frames, cells, *rest)

        monkeypatch.setattr(gasket, "_pair_distances", recording)
        audit_sweep(system, cells_per_level=6, seed=0)
        assert passes == [20, 7]


SHARED_PASS_SCENES = [
    "scenes/flat_unit.json", "scenes/sphere_small.json", "scenes/hyperbolic_small.json",
    "perfbench/scenes/custom_bump.json",
]


@pytest.fixture(scope="module")
def stored_depth4():
    """The export of each scene of ``SHARED_PASS_SCENES`` built at depth 4."""
    texts = {}
    for scene in SHARED_PASS_SCENES:
        config = SceneConfig.from_path(Path(__file__).parents[1] / scene)
        texts[scene] = system_to_json(build_system(config.base_triangle(), 4, config.delta))
    return texts


class TestSharedPasses:
    """The audit's passes solve the nesting check's first iterates, which
    ``certify`` hands to the nesting check."""

    @pytest.mark.parametrize("cells_per_level", [2, 12])
    @pytest.mark.parametrize("scene", SHARED_PASS_SCENES)
    def test_certify_equals_standalone_checks(self, stored_depth4, scene, cells_per_level):
        # each check alone on a fresh copy, the nesting check solving all it reads
        text = stored_depth4[scene]
        records = gasket.certify(system_from_json(text), seed=5, cells_per_level=cells_per_level)
        assert records[0] == nesting_check(system_from_json(text), cells_per_level=cells_per_level)
        alone = system_from_json(text)
        dev = audit_sweep(alone, cells_per_level=cells_per_level, seed=5)[0]
        assert records[3] == gasket._audit_check(alone, cells_per_level, dev)
        assert all(check.passed for check in records)

    @pytest.mark.parametrize("cells_per_level", [2, 12])
    def test_nesting_after_the_audit_makes_no_pass(self, stored_depth4, cells_per_level, monkeypatch):
        system = system_from_json(stored_depth4["scenes/sphere_small.json"])
        audited = audit_sweep(system, cells_per_level=cells_per_level, seed=5)
        _, codes = gasket._level_sample(system, cells_per_level)
        # the 2N frames, apex and vertex 1, and three first iterates a cell
        assert len(audited[2][0]) == 2 * len(codes) and audited[3].shape == (3 * len(codes), 2)
        calls = count_integrations(monkeypatch)
        check = nesting_check(system, cells_per_level=cells_per_level, audited=audited)
        assert calls == [] and check.passed

    def test_flat_audit_solves_no_first_iterate(self, stored_depth4):
        # flat inversion keeps its exact path, with residual 0
        system = system_from_json(stored_depth4["scenes/flat_unit.json"])
        audited = audit_sweep(system, seed=5)
        assert audited[3] is None
        assert nesting_check(system, audited=audited).detail == "max residual factor 0.000e+00"

    def test_nesting_solves_what_a_failed_audit_left(self, stored_depth4, monkeypatch):
        # 12 cells a level at depth 4 make 3 + 9 + 12 + 12 cells, in passes of
        # 8; the second raises, so the sweep hands nothing over and the
        # nesting check solves all it reads itself
        text = stored_depth4["scenes/sphere_small.json"]
        alone = nesting_check(system_from_json(text))
        calls = []
        pair_distances = gasket._pair_distances

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ChartEscapeError(0.5)
            return pair_distances(*args)

        monkeypatch.setattr(gasket, "_pair_distances", failing)
        records = gasket.certify(system_from_json(text))
        assert len(calls) == 2
        audit = records[3]
        assert (audit.passed, audit.detail) == (False, "error: geodesic left the chart domain near parameter t=0.5")
        assert records[0] == alone


    @staticmethod
    def state(obj):
        """Each attribute of ``obj``: arrays, also those of level lists and
        dicts, as their bytes; other objects by identity, numbers as they are."""

        def frozen(value):
            if isinstance(value, np.ndarray):
                return value.dtype, value.shape, value.tobytes()
            if isinstance(value, LevelArrays):
                return frozen(value.vertices), frozen(value.side_lengths)
            if isinstance(value, (list, tuple)):
                return [frozen(v) for v in value]
            if isinstance(value, dict):
                return {key: frozen(v) for key, v in value.items()}
            return value if isinstance(value, (int, float, str, type(None))) else id(value)

        return {key: frozen(value) for key, value in vars(obj).items()}

    def test_results_do_not_depend_on_call_history(self, stored_depth4):
        # a system keeps no solver state: maps, audits of other cells and a
        # standalone nesting check leave it as it was, and certify as on a new copy
        text = stored_depth4["scenes/sphere_small.json"]
        system = system_from_json(text)
        before = self.state(system), self.state(system.base)
        xs = system.base.phi_many(1, [0.2, 0.5, 0.9], [0.4, 0.9, 0.7])
        apply_f(system, [(1,), (3,)], xs)
        outside = [mi_from_code(1, 3), mi_from_code(1, 4)]
        levels, codes = gasket._level_sample(system, 12)
        assert not {(3, 1), (4, 1)} & set(zip(levels.tolist(), codes.tolist()))
        audit_similarity(system, outside, seed=3)
        nesting_check(system)
        records = gasket.certify(system, seed=5)
        assert (self.state(system), self.state(system.base)) == before
        assert records == gasket.certify(system_from_json(text), seed=5)


class TestNondegeneracySweep:
    def test_curved_systems(self, sphere_system, hyperbolic_system):
        for system in (sphere_system, hyperbolic_system):
            rep = nondegeneracy_sweep(system)
            assert rep.passed


def flat_corner_system(eu, depth):
    """The flat corner system with ratio 1/2 to ``depth``, built from
    ``LevelArrays`` through ``_children``: each midpoint is the exact mean of
    its side's ends and each midline half the parent's side, so no solver runs."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    # side i joins the two vertices other than vertex i
    sides = np.hypot(*(verts[[2, 0, 1]] - verts[[1, 2, 0]]).T)
    levels = [LevelArrays(vertices=verts[None].copy(), side_lengths=sides[None].copy())]
    for _ in range(depth):
        lv = levels[-1]
        mids = (lv.vertices[:, [1, 2, 0]] + lv.vertices[:, [2, 0, 1]]) / 2
        levels.append(_children(lv.vertices, lv.side_lengths, mids, lv.side_lengths / 2))
    return TriangleSystem(GeodesicTriangleRegion(eu, verts, sides), 0.5, levels)


class TestFlatCornerSystem:
    def test_certified_and_stored(self, eu):
        system = flat_corner_system(eu, 6)
        assert system.depth == len(system.levels) - 1 == 6
        back = system_from_json(system_to_json(system))
        checks = gasket.certify(system)
        assert [(c.name, c.passed) for c in checks] == [
            ("nesting", True), ("nu-contraction", True), ("non-degeneracy", True),
            ("similarity-audits", True), ("ratio-products", True), ("controlled-moran", True),
        ]
        assert gasket.certify(back) == checks


class TestCornerSubsets:
    """Sub-systems keeping two of the three corner maps, made by cutting the
    child tables alone (``keep_children``)."""

    def test_flat_side(self, flat_base, monkeypatch):
        # corners 1 and 2 keep the side from vertex 1 to vertex 2, of dimension 1
        keep_children(monkeypatch, (1, 2))
        system = build_system(flat_base, 6, delta=0.5)
        assert [len(lv) for lv in system.levels] == [2**n for n in range(7)]
        # covers of exactly 2^n cells of diameter 2^-n, so slope 1 up to the fit's rounding
        estimate = box_dimension_estimate(system, 0, 6)
        assert [(r.count, r.epsilon) for r in estimate.records] == [(2**n, 2.0**-n) for n in range(7)]
        assert estimate.slope == pytest.approx(1.0, abs=1e-15)
        checks = gasket.certify(system)
        assert [(c.name, c.passed) for c in checks] == [
            ("nesting", True), ("nu-contraction", True), ("non-degeneracy", True),
            ("similarity-audits", True), ("ratio-products", True), ("controlled-moran", True),
        ]

    def test_sphere_maps_take_parent_vertices_to_cells(self, sphere_base, monkeypatch):
        # the map onto a cell has its apex at the parent vertex the cell keeps,
        # here vertex 3 for digit 2, so it sends parent vertex j to the cell's vertex j
        keep_children(monkeypatch, (1, 3))
        system = build_system(sphere_base, 2, delta=0.4)
        for n in (1, 2):
            parents = system.level(n - 1)
            for p in range(len(parents)):
                cells = [mi_from_code(p, n - 1) + (d,) for d in (1, 2)]
                images = apply_f(system, cells, parents.vertices[p])
                error = np.hypot(*(images - system.level(n).vertices[2 * p : 2 * p + 2]).T)
                assert np.max(error) <= 1e-9 * parents.diams[p], (n, p)

    @pytest.mark.parametrize("digits", [(1, 2), (1, 3), (2, 3)], ids=["12", "13", "23"])
    def test_stored_and_read_back(self, sphere_base, monkeypatch, digits):
        keep_children(monkeypatch, digits)
        system = build_system(sphere_base, 4, delta=0.4)
        text = system_to_json(system)
        # one midline per child: 2^(n-1) parents of two children on level n
        levels = json.loads(text)["levels"]
        assert [len(base64.b64decode(entry["midlines"])) for entry in levels] == [8 * 2**n for n in range(1, 5)]
        back = system_from_json(text)
        assert len(back.levels) == len(system.levels)
        for built, read in zip(system.levels, back.levels):
            assert built.vertices.tobytes() == read.vertices.tobytes()
            assert built.side_lengths.tobytes() == read.side_lengths.tobytes()


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
            (("meta", "depth"), "meta.depth"),
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

    def test_kind_follows_spec(self):
        # a built-in name is its own kind, and a document is custom
        for name in (EUCLIDEAN, SPHERE, HYPERBOLIC):
            surface = make_surface(name)
            assert (surface.kind, surface.spec, surface.flat) == (name, name, name == EUCLIDEAN)
        path = Path(__file__).parents[1] / "perfbench" / "scenes" / "custom_bump.json"
        doc = SceneConfig.from_path(path).surface_spec
        surface = make_surface(doc)
        assert (surface.kind, surface.spec, surface.flat) == (CUSTOM, doc, False)

    def test_deterministic(self, sphere_base):
        s1 = build_system(sphere_base, 3, delta=0.4)
        s2 = build_system(sphere_base, 3, delta=0.4)
        assert system_to_json(s1) == system_to_json(s2)

    def test_svg_valid_xml(self, flat_system):
        svg = render_svg(flat_system, 4)
        xml.dom.minidom.parseString(svg)
        assert svg.count("<polygon") == 3**4
