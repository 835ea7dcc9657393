import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geogasket.errors import ConvexityGuardError, DegenerateTriangleError
from geogasket.triangles import (
    GeodesicTriangleRegion,
    _phi_rows,
    is_delta_nondegenerate,
    planar_angles_batch,
)

# side-length triples that satisfy the strict triangle inequality with margin
valid_sides = st.tuples(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
).filter(lambda s: 2 * max(s) < sum(s) * 0.999)


def planar_angles(*sides):
    return planar_angles_batch(np.array([sides], dtype=float))[0]


def edge_quotient(sides):
    return float(np.max(sides) / np.min(sides))


def vertex_angle(tri, i):
    """Angle at vertex i between the log-map directions to the other two."""
    p = tri.vertices[i]
    wj, wk = (tri.surface.log_many([p], [tri.vertices[j]])[0] for j in ((i + 1) % 3, (i + 2) % 3))
    cos = tri.surface.inner(p, wj, wk)[0] / (tri.surface.norm(p, wj)[0] * tri.surface.norm(p, wk)[0])
    return math.acos(min(1.0, max(-1.0, cos)))


class TestPlanarAngles:
    def test_equilateral(self):
        angles = planar_angles(1, 1, 1)
        np.testing.assert_allclose(angles, math.pi / 3, atol=1e-14)

    def test_right_triangle(self):
        angles = planar_angles(5, 3, 4)
        assert angles[0] == pytest.approx(math.pi / 2, abs=1e-13)

    def test_obtuse_with_half_angle_oracle(self):
        a, b, c = 1.9, 1.0, 1.0
        angles = planar_angles(a, b, c)
        assert angles[0] == pytest.approx(math.acos((1 + 1 - 3.61) / 2.0), abs=1e-12)
        # independent half-angle identity: sin^2(a/2) = (s-b)(s-c)/(bc)
        s = 0.5 * (a + b + c)
        half = math.asin(math.sqrt((s - b) * (s - c) / (b * c)))
        assert angles[0] == pytest.approx(2 * half, abs=1e-12)

    @given(valid_sides)
    @settings(max_examples=200, deadline=None)
    def test_angle_sum_is_pi(self, sides):
        angles = planar_angles(*sides)
        assert float(np.sum(angles)) == pytest.approx(math.pi, abs=1e-10)

    def test_degenerate_rejected(self):
        # the law of cosines alone would clamp to a flat angle; the side check rejects
        with pytest.raises(DegenerateTriangleError):
            is_delta_nondegenerate((1, 1, 2.5), 0.5)


class TestNondegeneracy:
    def test_equilateral_passes(self):
        ok, _ = is_delta_nondegenerate((1, 1, 1), 0.5)
        assert ok

    def test_needle_fails(self):
        ok, angles = is_delta_nondegenerate((1.99, 1, 1), 0.5)
        assert not ok
        assert angles[0] > math.pi - 0.5

    def test_boundary_delta(self):
        # the equilateral angle sits exactly at the boundary; any delta
        # measurably above pi/3 must fail
        ok, _ = is_delta_nondegenerate((1, 1, 1), math.pi / 3 + 1e-9)
        assert not ok

    def test_edge_quotient_examples(self):
        ok, _ = is_delta_nondegenerate((1, 1, 1), 0.5)
        assert ok and edge_quotient((1, 1, 1)) == 1.0
        delta = math.pi / 4 - 0.01
        ok, _ = is_delta_nondegenerate((1, 1, math.sqrt(2)), delta)
        assert ok
        assert edge_quotient((1, 1, math.sqrt(2))) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert edge_quotient((1, 1, math.sqrt(2))) <= 1 / math.sin(delta)

    def test_edge_quotient_requires_nondegenerate(self):
        # a needle has a quotient within 1/sin(delta) and is still rejected
        ok, _ = is_delta_nondegenerate((1.99, 1, 1), 0.5)
        assert not ok and edge_quotient((1.99, 1, 1)) <= 1 / math.sin(0.5)

    @given(valid_sides, st.floats(0.05, 0.6))
    @settings(max_examples=300, deadline=None)
    def test_edge_quotient_property(self, sides, delta):
        # law of sines: every angle in (delta, pi - delta) bounds the side
        # quotient by 1/sin(delta)
        ok, _ = is_delta_nondegenerate(sides, delta)
        if ok:
            assert edge_quotient(sides) <= 1 / math.sin(delta)

    def test_perturbation_stability_sweep(self):
        # side factors within 1 +/- eps keep a delta-non-degenerate triangle
        # delta/2-non-degenerate, at the conservative budget
        # eps = delta sin(delta/2) sin(delta/4) sin(delta)^2 / 128
        delta = 0.5
        eps = delta * math.sin(delta / 2) * math.sin(delta / 4) * math.sin(delta) ** 2 / 128.0
        rng = np.random.default_rng(17)
        count = 0
        while count < 1000:
            sides = rng.uniform(0.2, 1.0, 3)
            if 2 * np.max(sides) >= np.sum(sides):
                continue
            ok, _ = is_delta_nondegenerate(sides, delta)
            if not ok:
                continue
            count += 1
            perturbed = sides * rng.uniform(1 - eps, 1 + eps, 3)
            ok_half, _ = is_delta_nondegenerate(perturbed, delta / 2)
            assert ok_half, (sides, perturbed)


class TestRegionAndPhi:
    def test_guard_on_curved(self, sphere):
        with pytest.raises(ConvexityGuardError):
            GeodesicTriangleRegion.from_vertices(sphere, (0, 0), (0.3, 0), (0.15, 0.26))

    def test_phi_endpoints(self, sphere_base):
        s = 0.37
        apex, p_j, p_k = sphere_base.vertices
        sp = sphere_base.surface
        w_k = sp.log_many(apex[None, :], p_k[None, :])[0]
        expected0 = sp.exp_many(apex[None, :], (s * w_k)[None, :])[0]
        got0 = sphere_base.phi_many(1, [0.0], [s])[0]
        assert np.allclose(got0, expected0, atol=1e-9)
        w_j = sp.log_many(apex[None, :], p_j[None, :])[0]
        expected1 = sp.exp_many(apex[None, :], (s * w_j)[None, :])[0]
        got1 = sphere_base.phi_many(1, [1.0], [s])[0]
        assert np.allclose(got1, expected1, atol=1e-9)

    def test_phi_flat_center(self, flat_base):
        p1, p2, p3 = flat_base.vertices
        got = flat_base.phi_many(1, [0.5], [0.5])[0]
        expected = (p1 + (p2 + p3) / 2.0) / 2.0
        assert np.allclose(got, expected, atol=1e-14)

    def test_phi_cross_length_rauch(self, sphere):
        tri = GeodesicTriangleRegion.from_vertices(
            sphere, (0.0, 0.0), (0.1, 0.01), (0.04, 0.09)
        )
        r = tri.diam
        a1 = tri.side_lengths[0]
        for s in (0.25, 0.5, 0.75):
            cross = sphere.distance_many(tri.phi_many(1, [0.0], [s]), tri.phi_many(1, [1.0], [s]))[0]
            ratio = cross / (s * a1)
            assert 1 - r * r < ratio < 1 + r * r

    def test_slice_unit_parameter_reproduces_base(self, sphere, sphere_base):
        # at s = 1 the apex-1 parametrization runs along the opposite side
        ends = sphere_base.phi_many(1, [0.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(ends, sphere_base.vertices[[2, 1]], atol=1e-8)
        side = sphere.distance_many(ends[:1], ends[1:])[0]
        assert side == pytest.approx(sphere_base.side_lengths[0], abs=1e-8)

    def test_invert_phi_roundtrip(self, sphere_base):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t, s = rng.uniform(0.05, 0.95), rng.uniform(0.1, 1.0)
            x = sphere_base.phi_many(1, [t], [s])
            t2, s2, resid = sphere_base.invert_phi_many(1, x, tol=1e-11)
            assert resid[0] <= 1e-11
            assert (t2[0], s2[0]) == pytest.approx((t, s), abs=1e-7)

    def test_invert_phi_flat_containment(self, flat_base):
        # points outside the closed triangle, one of them by 1e-11 in
        # chart-barycentric coordinates, keep parameters in the closed square
        # and end above any tolerance; a point inside is recovered exactly
        apex, p_j, p_k = flat_base.vertices
        inside = flat_base.phi_many(1, [0.3], [0.6])[0]
        xs = [[2.0, 2.0], [-1.0, 0.2], apex + 0.5 * (p_k - apex) - 1e-11 * (p_j - apex), inside]
        ts, ss, resid = flat_base.invert_phi_many(1, xs)
        assert np.all((ts >= 0) & (ts <= 1) & (ss >= 0) & (ss <= 1))
        assert np.all(resid[:3] > 1e-9)
        assert resid[3] == 0 and (ts[3], ss[3]) == pytest.approx((0.3, 0.6), abs=1e-12)

    def test_repeated_cross_geodesics_shot_once(self, sphere_base, monkeypatch):
        # rows with the same apex frame and s lie on one cross geodesic
        frames = sphere_base._frame_table()
        rows = np.array([0, 0, 1, 2, 0, 1, 0])
        ts = np.array([0.1, 0.8, 0.5, 0.3, 0.4, 0.9, 0.6])
        ss = np.array([0.3, 0.3, 0.5, 0.3, 0.7, 0.5, 0.3])
        alone = np.vstack([
            _phi_rows(sphere_base.surface, frames, rows[[i]], ts[[i]], ss[[i]]) for i in range(len(rows))
        ])
        shot = []
        log_many = sphere_base.surface.log_many

        def counting(pts, targets, **kwargs):
            shot.append(len(pts))
            return log_many(pts, targets, **kwargs)

        monkeypatch.setattr(sphere_base.surface, "log_many", counting)
        pts = _phi_rows(sphere_base.surface, frames, rows, ts, ss)
        assert shot == [4]
        assert np.array_equal(pts, alone)

    def test_vertex_angles_sum_flat(self, flat_base):
        total = sum(vertex_angle(flat_base, i) for i in (0, 1, 2))
        assert total == pytest.approx(math.pi, abs=1e-9)

    def test_vertex_angles_sphere_excess(self, sphere_base):
        total = sum(vertex_angle(sphere_base, i) for i in (0, 1, 2))
        assert total > math.pi
