import itertools
import math

import numpy as np
import pytest

from geogasket.errors import CapacityError, DomainError
from geogasket.gasket import apply_f
from geogasket.measures import (
    EXACT_LIMIT,
    DiscreteMeasure,
    cell_masses,
    kr_distance,
    pushforward_fixpoint,
    resample_to_centroids,
    trace_ratios,
)


def uniform_measure(surface, pts):
    pts = np.asarray(pts, dtype=float)
    return DiscreteMeasure(surface, pts, np.full(len(pts), 1.0 / len(pts)))


class TestKRDistance:
    def test_identity(self, eu):
        mu = uniform_measure(eu, [(0, 0), (1, 0), (0.5, 0.5)])
        assert kr_distance(mu, mu).value == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self, eu):
        m1 = DiscreteMeasure.point_mass(eu, (0.0, 0.0))
        m2 = DiscreteMeasure.point_mass(eu, (3.0, 4.0))
        assert kr_distance(m1, m2).value == pytest.approx(5.0, abs=1e-10)

    def test_three_atom_permutation_oracle(self, eu):
        # uniform equal-size supports: the optimum is a best assignment
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.uniform(0, 1, size=(3, 2))
            b = rng.uniform(0, 1, size=(3, 2))
            lp = kr_distance(uniform_measure(eu, a), uniform_measure(eu, b)).value
            oracle = min(
                sum(np.hypot(*(a[i] - b[p[i]])) for i in range(3)) / 3.0
                for p in itertools.permutations(range(3))
            )
            assert lp == pytest.approx(oracle, abs=1e-10)

    def test_two_atom_endpoint_oracle(self, eu):
        # with 2x2 supports the plan has one free mass; the optimum sits at
        # an endpoint of its feasible interval
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.uniform(0, 1, size=(2, 2))
            b = rng.uniform(0, 1, size=(2, 2))
            w1 = rng.uniform(0.2, 0.8)
            w2 = rng.uniform(0.2, 0.8)
            mu = DiscreteMeasure(eu, a, np.array([w1, 1 - w1]))
            nu = DiscreteMeasure(eu, b, np.array([w2, 1 - w2]))
            d = np.array([[np.hypot(*(a[i] - b[j])) for j in range(2)] for i in range(2)])
            lo = max(0.0, w1 + w2 - 1.0)
            hi = min(w1, w2)
            def plan_cost(g11):
                return (
                    g11 * d[0, 0]
                    + (w1 - g11) * d[0, 1]
                    + (w2 - g11) * d[1, 0]
                    + (1 - w1 - w2 + g11) * d[1, 1]
                )
            oracle = min(plan_cost(lo), plan_cost(hi))
            assert kr_distance(mu, nu).value == pytest.approx(oracle, abs=1e-10)

    def test_metric_axioms(self, eu):
        rng = np.random.default_rng(7)
        measures = [
            uniform_measure(eu, rng.uniform(0, 1, size=(4, 2))) for _ in range(3)
        ]
        d01 = kr_distance(measures[0], measures[1]).value
        d10 = kr_distance(measures[1], measures[0]).value
        d02 = kr_distance(measures[0], measures[2]).value
        d12 = kr_distance(measures[1], measures[2]).value
        assert d01 == pytest.approx(d10, abs=1e-9)
        assert d02 <= d01 + d12 + 1e-9
        assert d01 > 0

    def test_geodesic_ground_distance(self, sphere, closed_form_distance):
        m1 = DiscreteMeasure.point_mass(sphere, (0.0, 0.0))
        m2 = DiscreteMeasure.point_mass(sphere, (0.1, 0.05))
        expected = closed_form_distance(sphere, (0.0, 0.0), (0.1, 0.05))
        assert kr_distance(m1, m2).value == pytest.approx(expected, abs=1e-8)

    def test_over_exact_limit_raises(self, eu):
        # the dense LP is the only path, on the flat model too
        rng = np.random.default_rng(9)
        big = uniform_measure(eu, rng.uniform(0, 1, size=(EXACT_LIMIT + 1, 2)))
        small = uniform_measure(eu, [(0.5, 0.5)])
        for mu, nu in ((big, small), (small, big)):
            with pytest.raises(CapacityError, match=f"{EXACT_LIMIT} atoms a side"):
                kr_distance(mu, nu)


class TestPushforward:
    def test_single_map_contracts_to_vertex(self, flat_system):
        point = np.array([0.4, 0.3])
        for _ in range(14):
            point = apply_f(flat_system, [(1,)], [point])[0, 0]
        vertex = flat_system.base.vertices[0]
        assert np.hypot(*(point - vertex)) <= 2.0**-13

    def test_zero_iterations_echoes_seed(self, flat_system):
        seed = DiscreteMeasure.point_mass(flat_system.surface, (0.4, 0.3))
        report = pushforward_fixpoint(flat_system, (1 / 3, 1 / 3, 1 / 3), 0, seed)
        assert report.trace_values == []
        np.testing.assert_allclose(report.final.points, seed.points)

    def test_flat_trace_halves(self, flat_system):
        centroid = flat_system.base.vertices.mean(axis=0)
        seed = DiscreteMeasure.point_mass(flat_system.surface, centroid)
        report = pushforward_fixpoint(
            flat_system, (1 / 3, 1 / 3, 1 / 3), 6, seed, atom_budget=2000
        )
        ratios = trace_ratios(report.trace_values)
        assert ratios and all(r <= 0.55 for r in ratios)

    def test_trace_monotone_after_first(self, flat_system):
        centroid = flat_system.base.vertices.mean(axis=0)
        seed = DiscreteMeasure.point_mass(flat_system.surface, centroid)
        report = pushforward_fixpoint(
            flat_system, (0.5, 0.3, 0.2), 8, seed, atom_budget=2000
        )
        vals = report.trace_values
        assert all(a >= b - 1e-12 for a, b in zip(vals[1:], vals[2:]))

    def test_weights_validated(self, flat_system):
        seed = DiscreteMeasure.point_mass(flat_system.surface, (0.4, 0.3))
        with pytest.raises(DomainError):
            pushforward_fixpoint(flat_system, (0.5, 0.5, 0.5), 2, seed)

    def test_nan_weights_rejected(self, eu, flat_system):
        # every comparison with NaN is false, so the checks must be accepting ones
        with pytest.raises(DomainError, match="nonnegative"):
            DiscreteMeasure(eu, [[0, 0], [1, 0]], [math.nan, 0.5])
        seed = DiscreteMeasure.point_mass(flat_system.surface, (0.4, 0.3))
        with pytest.raises(DomainError, match="positive"):
            pushforward_fixpoint(flat_system, (math.nan, 0.5, 0.5), 2, seed)

    def test_invariant_masses_weighted(self, flat_system):
        weights = (0.5, 0.25, 0.25)
        centroid = flat_system.base.vertices.mean(axis=0)
        seed = DiscreteMeasure.point_mass(flat_system.surface, centroid)
        report = pushforward_fixpoint(flat_system, weights, 8, seed, atom_budget=2000)
        masses = cell_masses(report.final, flat_system, 2)
        for code in range(9):
            expected = weights[code // 3] * weights[code % 3]
            assert masses[code] == pytest.approx(expected, abs=2e-3)

    def test_resample_preserves_cell_masses(self, flat_system):
        rng = np.random.default_rng(2)
        ts = rng.uniform(0.05, 0.95, 200)
        ss = rng.uniform(0.05, 1.0, 200)
        pts = flat_system.base.phi_many(1, ts, ss)
        mu = uniform_measure(flat_system.surface, pts)
        snapped = resample_to_centroids(mu, flat_system, 3)
        np.testing.assert_allclose(
            cell_masses(mu, flat_system, 2), cell_masses(snapped, flat_system, 2),
            atol=1e-12,
        )

    def test_curved_batch_matches_apply_f(self, sphere_system):
        base = sphere_system.base
        pts = base.phi_many(1, [0.2, 0.5, 0.9], [0.3, 0.6, 0.95])
        seed = DiscreteMeasure(sphere_system.surface, pts, np.full(3, 1 / 3))
        report = pushforward_fixpoint(sphere_system, (0.2, 0.3, 0.5), 1, seed)
        expected = np.array(
            [apply_f(sphere_system, [(d,)], [p])[0, 0] for d in (1, 2, 3) for p in pts]
        )
        assert np.array_equal(report.final.points, np.unique(expected, axis=0))

    def test_curved_small_pushforward(self, sphere_system):
        centroid = sphere_system.base.vertices.mean(axis=0)
        seed = DiscreteMeasure.point_mass(sphere_system.surface, centroid)
        report = pushforward_fixpoint(
            sphere_system, (1 / 3, 1 / 3, 1 / 3), 3, seed, atom_budget=100
        )
        ratios = trace_ratios(report.trace_values)
        assert ratios and all(r <= 0.6 for r in ratios)
