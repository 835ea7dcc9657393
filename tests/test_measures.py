import itertools
import math

import numpy as np
import pytest

from geogasket.errors import CapacityError, DomainError
from geogasket.gasket import apply_f
from geogasket.measures import (
    EXACT_LIMIT,
    DiscreteMeasure,
    kr_distance,
    product_masses,
    pushforward_fixpoint,
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


def iterate(system, weights, n):
    """Push-forward iterate n from a point mass at base vertex 1: mass
    m(I) at vertex 1 of each depth-n cell I."""
    return DiscreteMeasure(system.surface, system.level(n).vertices[:, 0], product_masses(weights, n))


class TestPushforward:
    def test_single_map_contracts_to_vertex(self, flat_system):
        point = np.array([0.4, 0.3])
        for _ in range(14):
            point = apply_f(flat_system, [(1,)], [point])[0, 0]
        vertex = flat_system.base.vertices[0]
        assert np.hypot(*(point - vertex)) <= 2.0**-13

    def test_zero_iterations_echoes_seed(self, flat_system):
        report = pushforward_fixpoint(flat_system, (1 / 3, 1 / 3, 1 / 3), 0)
        assert report.upper == [] and report.lower == [] and not report.converged
        assert report.masses.tolist() == [1.0]

    def test_flat_trace_halves(self, flat_system):
        # U_n = sum_I m(I) diam(I) = 2^-n on the unit flat base
        report = pushforward_fixpoint(flat_system, (1 / 3, 1 / 3, 1 / 3), 6)
        np.testing.assert_allclose(report.upper, 0.5 ** np.arange(6), rtol=1e-14, atol=0)
        ratios = trace_ratios(report.upper)
        assert len(ratios) == 5 and all(abs(r - 0.5) <= 1e-12 for r in ratios)

    def test_trace_monotone_after_first(self, flat_system):
        report = pushforward_fixpoint(flat_system, (0.5, 0.3, 0.2), 8)
        vals = report.upper
        assert len(vals) == 8 and all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < lo <= up for lo, up in zip(report.lower, report.upper))

    def test_weights_validated(self, flat_system):
        with pytest.raises(DomainError):
            pushforward_fixpoint(flat_system, (0.5, 0.5, 0.5), 2)

    def test_nan_weights_rejected(self, eu, flat_system):
        # every comparison with NaN is false, so the checks must be accepting ones
        with pytest.raises(DomainError, match="nonnegative"):
            DiscreteMeasure(eu, [[0, 0], [1, 0]], [math.nan, 0.5])
        with pytest.raises(DomainError, match="positive"):
            pushforward_fixpoint(flat_system, (math.nan, 0.5, 0.5), 2)

    def test_iterations_above_depth_rejected(self, flat_system):
        with pytest.raises(DomainError, match="9 iterations need cells of depth 9, but the system is stored to depth 8"):
            pushforward_fixpoint(flat_system, (1 / 3, 1 / 3, 1 / 3), 9)

    def test_invariant_masses_weighted(self, flat_system):
        # each depth-2 cell holds its product mass, summed up the tree
        weights = (0.5, 0.25, 0.25)
        report = pushforward_fixpoint(flat_system, weights, 8)
        masses = report.masses.reshape(9, -1).sum(axis=1)
        for code in range(9):
            expected = weights[code // 3] * weights[code % 3]
            assert masses[code] == pytest.approx(expected, abs=1e-15)

    def test_curved_batch_matches_apply_f(self, sphere_system):
        # f_i(v1) is vertex 1 of cell i, so iterate 1's atoms are the maps'
        # images of the seed
        v1 = sphere_system.base.vertices[0]
        images = apply_f(sphere_system, [(1,), (2,), (3,)], [v1])[:, 0]
        np.testing.assert_allclose(images, sphere_system.level(1).vertices[:, 0], rtol=0, atol=1e-9)

    def test_curved_small_pushforward(self, sphere_system):
        report = pushforward_fixpoint(sphere_system, (1 / 3, 1 / 3, 1 / 3), 3)
        ratios = trace_ratios(report.upper)
        assert len(ratios) == 2 and all(0.45 <= r <= 0.55 for r in ratios)

    @pytest.mark.parametrize("name", ["flat_system", "sphere_system"])
    def test_bracket_contains_exact_transport(self, name, request):
        # lower <= the exact LP transport distance <= upper, between
        # successive iterates up to depth 3
        system = request.getfixturevalue(name)
        weights = (0.5, 0.3, 0.2)
        report = pushforward_fixpoint(system, weights, 3)
        for n in range(3):
            exact = kr_distance(iterate(system, weights, n), iterate(system, weights, n + 1)).value
            assert report.lower[n] - 1e-9 <= exact <= report.upper[n] + 1e-9
