"""Metric properties of the geodesic distance, and the cover witnesses
(``CoverRecord``) the box-dimension regression builds from cell diameters."""

import math

import numpy as np
import pytest

from geogasket.dimension import box_dimension_estimate, dimension_report_csv
from geogasket.errors import DomainError
from geogasket.metric_core import CoverRecord
from geogasket.triangles import GeodesicTriangleRegion


def distance_table(surface, pts):
    n = len(pts)
    ii, jj = np.divmod(np.arange(n * n), n)
    return surface.distance_many(pts[ii], pts[jj]).reshape(n, n)


class TestDiameter:
    def test_unit_square_corners(self, eu):
        tri = GeodesicTriangleRegion.from_vertices(eu, (0, 0), (1, 0), (0, 1))
        assert tri.diam == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_spherical_triangle_samples(self, sphere, sphere_base, closed_form_distance):
        rng = np.random.default_rng(11)
        pts = sphere_base.phi_many(1, rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
        ii, jj = np.triu_indices(len(pts), k=1)
        solver = sphere.distance_many(pts[ii], pts[jj])
        # independent oracle: closed-form pair distances
        closed = np.array([closed_form_distance(sphere, pts[i], pts[j]) for i, j in zip(ii, jj)])
        # a geodesic triangle in a convex domain is as wide as its longest side
        assert 0.0 < np.max(solver) <= sphere_base.diam + 1e-9
        np.testing.assert_allclose(solver, closed, atol=1e-9)

    def test_validate_accepts_geodesic_table(self, sphere, hyperbolic):
        # a table of 12 points: symmetric, and the triangle inequality holds
        # on every triple
        rng = np.random.default_rng(2)
        for surface in (sphere, hyperbolic):
            table = distance_table(surface, rng.uniform(-0.2, 0.2, size=(12, 2)))
            assert np.max(np.abs(table - table.T)) <= 1e-9 * np.max(table)
            slack = 1e-9 * np.max(table)
            assert np.all(table[:, None, :] <= table[:, :, None] + table[None, :, :] + slack)


class TestBoxCount:
    def test_single_cell(self, flat_system):
        est = box_dimension_estimate(flat_system, 0, 4)
        assert est.levels_used[0] == 0
        assert est.records[0] == CoverRecord(epsilon=flat_system.base.diam, count=1)
        for eps, count in ((0.0, 1), (-0.5, 1), (0.5, 0)):
            with pytest.raises(DomainError):
                CoverRecord(epsilon=eps, count=count)

    def test_gasket_cells(self, flat_system):
        est = box_dimension_estimate(flat_system, 2, 8)
        for n, rec in zip(est.levels_used, est.records):
            assert rec.epsilon == pytest.approx(2.0**-n * flat_system.base.diam, rel=1e-12)
            assert rec.count == 3**n

    def test_count_nonincreasing_in_epsilon(self, sphere_system):
        records = box_dimension_estimate(sphere_system, 2, 6).records
        by_eps = sorted(records, key=lambda r: r.epsilon)
        assert all(a.count >= b.count for a, b in zip(by_eps, by_eps[1:]))
        assert len({r.epsilon for r in records}) == len(records)


def test_cover_csv_format(flat_system):
    est = box_dimension_estimate(flat_system, 2, 8)
    lines = dimension_report_csv(flat_system, est).strip().split("\n")
    assert lines[0] == "epsilon,count,sum"
    assert len(lines) == len(est.records) + 1
    for line, rec in zip(lines[1:], est.records):
        eps, count, _ = line.split(",")
        # 17 significant digits: the epsilon reads back exactly
        assert eps == f"{rec.epsilon:.17g}" and float(eps) == rec.epsilon
        assert int(count) == rec.count
