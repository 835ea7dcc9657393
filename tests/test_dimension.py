import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geogasket.dimension import (
    GaugeSpec,
    RatioList,
    box_dimension_estimate,
    dimension_report_csv,
    gauge_admissible,
    hausdorff_upper_sum,
    solve_moran,
)
from geogasket.errors import DomainError
from geogasket.gasket import build_system, calibrate_gauge
from geogasket.triangles import GeodesicTriangleRegion


def bisect_moran_oracle(lams, lo=0.0, hi=50.0, iters=200):
    """Independent plain-bisection root finder for the exponent equation."""
    def f(s):
        return sum(l**s for l in lams) - 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assert_complete_prefix_code(members):
    """No member is a prefix of another, and the Kraft sum of 3^-|I| is 1,
    so the family is prefix-free and exhaustive."""
    assert all(a[: len(b)] != b for a in members for b in members if a != b)
    assert sum(3.0 ** -len(m) for m in members) == pytest.approx(1.0, abs=1e-12)


class TestSolveMoran:
    def test_classical_gasket(self):
        sol = solve_moran((0.5, 0.5, 0.5))
        assert abs(sol.s - 1.584962500721156) <= 1e-12
        assert sol.residual <= 1e-12

    def test_two_halves(self):
        assert solve_moran((0.5, 0.5)).s == pytest.approx(1.0, abs=1e-13)

    def test_golden_case_with_oracle(self):
        # x + x^2 = 1 with x = 2^-s gives x = (sqrt(5)-1)/2
        sol = solve_moran((0.5, 0.25))
        x = (math.sqrt(5.0) - 1.0) / 2.0
        assert sol.s == pytest.approx(-math.log2(x), abs=1e-12)
        assert sol.s == pytest.approx(bisect_moran_oracle([0.5, 0.25]), abs=1e-11)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            solve_moran(())

    def test_single_ratio(self):
        assert solve_moran((0.7,)).s == 0.0

    @given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_oracle_agreement(self, lams):
        sol = solve_moran(tuple(lams))
        assert sol.s == pytest.approx(bisect_moran_oracle(lams), abs=1e-10)

    @given(st.lists(st.floats(0.1, 0.9), min_size=2, max_size=4), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_ratios(self, lams, idx):
        idx = idx % len(lams)
        bumped = list(lams)
        bumped[idx] = min(0.95, bumped[idx] * 1.1 + 1e-3)
        s1 = solve_moran(tuple(lams)).s
        s2 = solve_moran(tuple(bumped)).s
        assert s2 > s1

    @given(st.integers(2, 7), st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_uniform_closed_form(self, k, lam):
        sol = solve_moran((lam,) * k)
        assert sol.s == pytest.approx(math.log(k) / math.log(1 / lam), abs=1e-12)


# x-ranges for the decay-integral quadrature at a = 0.8, nu = 0.545; the log
# forms need a nu^x < 1, that is x > log(1.25) / log(1 / 0.545) = -0.367
POWER_RANGES = [(-1.0, 0.5), (0.5, 3.0), (1.0, 7.0), (2.5, 20.0), (0.0, 40.0)]
LOG_RANGES = [(-0.3, 0.5), (0.5, 3.0), (1.0, 7.0), (2.5, 20.0), (0.0, 40.0)]


class TestGauges:
    def test_square_gauge_integral(self):
        report = gauge_admissible(GaugeSpec("power", alpha=2.0), 1.0, 0.5)
        assert report.admissible
        assert report.integral == pytest.approx(1.0 / (8.0 * math.log(2.0)), abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slow_log_family_admissible(self, n):
        assert gauge_admissible(GaugeSpec("logpower", n=n), 1.0, 0.5).admissible

    def test_harmonic_log_inadmissible(self):
        assert not gauge_admissible(GaugeSpec("neglog_power", beta=1.0), 1.0, 0.5).admissible

    @pytest.mark.parametrize("gauge, expected", [
        (GaugeSpec("logpower", n=150), 250.758),
        (GaugeSpec("logpower", n=200), 334.392),
        (GaugeSpec("logpower", n=1000), 1672.549),
        (GaugeSpec("neglog_power", beta=1.004), 417.190),
    ], ids=["logpower-150", "logpower-200", "logpower-1000", "neglog-1.004"])
    def test_slowly_convergent_admissible(self, gauge, expected):
        # beta barely above 1 still converges: c^(1-beta) / ((beta-1) |log nu|)
        a, nu = 0.3, 0.55
        beta = gauge.params["beta"]
        c = -math.log(nu) - math.log(a)
        report = gauge_admissible(gauge, a, nu)
        assert report.admissible
        assert report.integral == pytest.approx(c ** (1 - beta) / ((beta - 1) * -math.log(nu)), rel=1e-12)
        assert report.integral == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_beta_at_most_one_inadmissible(self, beta):
        report = gauge_admissible(GaugeSpec("neglog_power", beta=beta), 0.3, 0.55)
        assert not report.admissible
        assert report.integral == math.inf

    @pytest.mark.parametrize("form, param", [("neglog_power", {"beta": 2.0}), ("logpower", {"n": 1})])
    def test_log_form_outside_domain(self, form, param):
        # -log(a nu) <= 0 leaves the log forms undefined
        with pytest.raises(DomainError, match="only defined below 1"):
            gauge_admissible(GaugeSpec(form, **param), 2.0, 0.5)

    @pytest.mark.parametrize("form, param", [
        ("power", {"alpha": 2.0}), ("neglog_power", {"beta": 2.0}), ("logpower", {"n": 1}),
    ])
    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_a_rejected(self, form, param, a):
        with pytest.raises(DomainError, match="need a in"):
            gauge_admissible(GaugeSpec(form, **param), a, 0.5)

    @pytest.mark.parametrize("gauge, phi, ranges", [
        (GaugeSpec("power", alpha=2.0), lambda y: y * y, POWER_RANGES),
        (GaugeSpec("power", alpha=0.7), lambda y: y**0.7, POWER_RANGES),
        (GaugeSpec("neglog_power", beta=2.0), lambda y: (-math.log(y)) ** -2, LOG_RANGES),
        (GaugeSpec("neglog_power", beta=1.3), lambda y: (-math.log(y)) ** -1.3, LOG_RANGES),
        (GaugeSpec("logpower", n=1), lambda y: (-math.log(y)) ** (-5 / 3), LOG_RANGES),
        (GaugeSpec("logpower", n=3), lambda y: (-math.log(y)) ** (-9 / 7), LOG_RANGES),
    ], ids=["power-2", "power-0.7", "neglog-2", "neglog-1.3", "logpower-1", "logpower-3"])
    def test_tail_matches_quadrature(self, gauge, phi, ranges):
        # phi is written out here, so the oracle shares nothing with the closed form
        from scipy.integrate import quad

        a, nu = 0.8, 0.545
        for x1, x2 in ranges:
            ref = quad(lambda x: phi(a * nu**x), x1, x2, epsabs=0, epsrel=1e-13, limit=200)[0]
            assert gauge.tail(a, nu, x1) - gauge.tail(a, nu, x2) == pytest.approx(ref, rel=1e-9)


def moran_sum(members, ratios, s):
    """Sum over digit strings of the product of their digits' ratios, to the power s."""
    return sum(math.prod(ratios[d - 1] for d in index) ** s for index in members)


class TestSimpleFamilies:
    """Moran sums over simple families: first-crossing families read from
    the stored cell diameters, and hand-written prefix codes."""

    def test_flat_uniform_threshold(self, flat_system, first_crossing):
        family = first_crossing(flat_system, 2.0**-3 * flat_system.base.diam)
        assert len(family) == 27
        assert all(len(m) == 3 for m in family)

    def test_flat_intermediate_threshold(self, flat_system, first_crossing):
        family = first_crossing(flat_system, 0.3 * flat_system.base.diam)
        assert len(family) == 9

    def test_sphere_family_valid(self, sphere_system, first_crossing):
        family = first_crossing(sphere_system, 0.21 * sphere_system.base.diam)
        assert_complete_prefix_code(family)
        lengths = {len(m) for m in family}
        assert len(lengths) >= 1

    def test_depth_exhausted(self, flat_system, first_crossing):
        # a threshold below the stored depth's diameters reads past the last level
        with pytest.raises(DomainError, match="level 9 outside stored depth 8"):
            first_crossing(flat_system, 2.0**-12 * flat_system.base.diam)

    def test_uniform_family_sum_exact(self):
        members = tuple(
            (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
        )
        s = solve_moran((0.5, 0.5, 0.5)).s
        assert moran_sum(members, (0.5, 0.5, 0.5), s) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_family_sum(self):
        members = ((1,), (2,), (3, 1), (3, 2), (3, 3))
        assert_complete_prefix_code(members)
        s = solve_moran((0.5, 0.5, 0.5)).s
        assert moran_sum(members, (0.5, 0.5, 0.5), s) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_families_detected(self):
        # on the classical gasket a complete prefix code sums to 1; a family
        # that misses a branch sums below 1, one with a nested member above
        s = solve_moran((0.5, 0.5, 0.5)).s
        incomplete = ((1,), (2,))
        nested = ((1,), (2,), (3,), (3, 1))
        assert moran_sum(incomplete, (0.5, 0.5, 0.5), s) == pytest.approx(2 / 3, abs=1e-12)
        assert moran_sum(nested, (0.5, 0.5, 0.5), s) == pytest.approx(10 / 9, abs=1e-12)
        for family in (incomplete, nested):
            with pytest.raises(AssertionError):
                assert_complete_prefix_code(family)

    def test_random_ratio_sums(self, flat_system, first_crossing):
        rng = np.random.default_rng(31)
        thresholds = [0.4, 0.21, 0.1, 0.06]
        for _ in range(50):
            lams = tuple(rng.uniform(0.2, 0.8, size=3))
            s = solve_moran(lams).s
            threshold = flat_system.base.diam * thresholds[int(rng.integers(0, 4))]
            family = first_crossing(flat_system, threshold)
            assert abs(moran_sum(family, lams, s) - 1.0) <= 1e-10


class TestHausdorffUpperSum:
    def test_flat_constant_in_depth(self, flat_system):
        s = math.log(3.0) / math.log(2.0)
        base = flat_system.base.diam**s
        for n in range(0, 9):
            assert hausdorff_upper_sum(flat_system, s, n) == pytest.approx(base, rel=1e-9)

    def test_sphere_bounded_by_product_envelope(self, sphere_system):
        # level-n cells are at most d 2^-n prod_{i<n} (1 + c (d nu^i)^2) across,
        # and the product is at most exp(sum_i c (d nu^i)^2) = exp(c d^2 / (1 - nu^2))
        s = math.log(3.0) / math.log(2.0)
        c = calibrate_gauge(sphere_system)
        d, nu = sphere_system.base.diam, sphere_system.nu
        cap = (math.exp(c * d * d / (1.0 - nu * nu)) * d) ** s
        for n in range(1, sphere_system.depth + 1):
            assert hausdorff_upper_sum(sphere_system, s, n) <= cap


class TestBoxDimension:
    def test_flat_exact_slope(self, flat_system):
        est = box_dimension_estimate(flat_system, 2, 8)
        assert est.slope == pytest.approx(math.log(3) / math.log(2), abs=1e-10)

    def test_exactly_self_similar_system_fits_every_level(self, eu):
        # a rotated flat triangle: the residuals are rounding, about 1e-15, and
        # no level is dropped on their account
        base = GeodesicTriangleRegion.from_vertices(
            eu, (0.0, 0.0), (0.9620864258312992, -0.2727447693928444), (0.7172471119591812, 0.696818900709656)
        )
        est = box_dimension_estimate(build_system(base, 8, delta=0.5), 2, 8)
        assert est.levels_used == list(range(2, 9)) and len(est.records) == 7
        assert est.slope == pytest.approx(math.log(3) / math.log(2), abs=1e-10)

    def test_insufficient_levels(self, flat_system):
        with pytest.raises(DomainError):
            box_dimension_estimate(flat_system, 3, 5)

    def test_full_subdivision_harness_fills_area(self, flat_base, split_cells):
        # keep all four children: counts 4^n with halved diameters -> slope 2
        levels = [[flat_base]]
        for _ in range(6):
            nxt = []
            for tri in levels[-1]:
                c1, c2, c3, center = split_cells(tri)
                nxt.extend([c1, c2, c3, center])
            levels.append(nxt)
        xs = []
        ys = []
        for n, tris in enumerate(levels):
            xs.append(-math.log(max(t.diam for t in tris)))
            ys.append(math.log(len(tris)))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_report_serialization(self, flat_system):
        est = box_dimension_estimate(flat_system, 2, 8)
        csv_text = dimension_report_csv(flat_system, est)
        assert csv_text.startswith("epsilon,count,sum")
