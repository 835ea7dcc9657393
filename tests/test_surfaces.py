import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from geogasket import expressions, surfaces
from geogasket.errors import ChartEscapeError, DomainError, ExpressionError, ShootingConvergenceError
from geogasket.expressions import compile_expression
from geogasket.surfaces import (
    DEFAULT_SHOOT_TOL,
    _Batch,
    euclidean_surface,
    surface_from_json,
)
from geogasket.triangles import CONVEXITY_GUARD, GeodesicTriangleRegion

ROOT = Path(__file__).resolve().parents[1]


class TestExpMap:
    def test_euclidean_straight_line(self, eu):
        q = eu.exp_many([(0.0, 0.0)], [(0.7, 0.0)])[0]
        assert tuple(q) == pytest.approx((0.7, 0.0), abs=1e-15)

    def test_t_zero_identity(self, sphere):
        p = (0.11, -0.07)
        q = sphere.exp_many([p], [(0.0, 0.0)])[0]
        assert tuple(q) == p

    def test_sphere_quarter_turn_from_pole(self, sphere, closed_form_distance):
        # metric norm 1 at the chart origin means chart components 0.5
        q = sphere.exp_many([(0.0, 0.0)], [(0.5 * (math.pi / 2), 0.0)])[0]
        d = closed_form_distance(sphere, (0.0, 0.0), q)
        assert abs(d - math.pi / 2) <= 1e-8

    def test_escape_raises(self, eu):
        with pytest.raises(ChartEscapeError):
            eu.exp_many([(0.0, 0.0)], [(200.0, 0.0)])

    @pytest.mark.parametrize(
        "pts, vels, expected",
        [
            ([(49.0, 0.0)], [(2.0, 0.0)], 0.5),
            # crosses u = -50 at 1/4 and v = 50 at 1/2
            ([(-49.0, 45.0)], [(-4.0, 10.0)], 0.25),
            # crosses u = 50 at 1/2 and v = -50 at 1/4
            ([(45.0, -49.0)], [(10.0, -4.0)], 0.25),
            # the earliest crossing over the rows; the row that stays inside has none
            ([(0.0, 0.0), (49.0, 0.0), (0.0, -48.0)], [(1.0, 1.0), (2.0, 0.0), (0.0, -8.0)], 0.25),
        ],
        ids=["one_bound", "u_first", "v_first", "rows"],
    )
    def test_flat_exit_parameter(self, eu, pts, vels, expected):
        # the flat chart is [-50, 50]^2
        with pytest.raises(ChartEscapeError) as info:
            eu.exp_many(pts, vels)
        assert info.value.exit_parameter == expected
        assert f"t={expected:.6g}" in str(info.value)

    @pytest.mark.parametrize(
        "pt, vel", [((0.0, 0.0), (math.nan, 0.0)), ((math.inf, 0.0), (0.1, 0.0))], ids=["nan_velocity", "inf_point"]
    )
    def test_non_finite_state_raises(self, sphere, pt, vel):
        # a NaN error estimate rejects every step, so without the check t never advances
        with pytest.raises(DomainError, match="step size underflow: non-finite state"):
            sphere.exp_many([pt], [vel])


class TestBatchIndependence:
    """A geodesic's result must not depend on the batch that solves it."""

    BUMP = {
        "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "metric": {
            "E": "exp(-(u*u + v*v)/8)",
            "F": "0",
            "G": "exp(-(u*u + v*v)/8)",
        },
    }

    @staticmethod
    def mixed_batch():
        # short and long geodesics together, so step sizes differ per row
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.3, 0.3, size=(24, 2))
        vels = rng.uniform(-0.5, 0.5, size=(24, 2))
        vels *= np.geomspace(1e-4, 1.0, 24)[:, None]
        return pts, vels

    @pytest.mark.parametrize("kind", ["sphere", "bump"])
    def test_exp_many_rows_equal_alone(self, kind, request):
        surface = (
            surface_from_json(self.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        pts, vels = self.mixed_batch()
        batch = surface.exp_many(pts, vels)
        alone = np.vstack([surface.exp_many(p[None], w[None]) for p, w in zip(pts, vels)])
        assert np.array_equal(batch, alone)

    # the seed reads Christoffel symbols per row, so every model is checked
    @pytest.mark.parametrize("kind", ["sphere", "bump", "hyperbolic", "eu"])
    def test_log_many_rows_equal_alone(self, kind, request):
        surface = (
            surface_from_json(self.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        pts, vels = self.mixed_batch()
        targets = surface.exp_many(pts, vels)
        batch = surface.log_many(pts, targets)
        alone = np.vstack([surface.log_many(p[None], q[None]) for p, q in zip(pts, targets)])
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("kind", ["sphere", "bump"])
    def test_reused_stage_equals_fresh_evaluation(self, kind, request):
        surface = (
            surface_from_json(self.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        pts, vels = self.mixed_batch()
        y = np.concatenate([pts, vels], axis=1).T.copy()
        # reference: every step evaluates its first stage afresh
        fresh = _Batch(y.copy(), np.ones(y.shape[1]))
        while fresh.n:
            surface._ode_rhs(fresh.y[:, :fresh.n], fresh.k[0, :, :fresh.n])
            surface._step(fresh)
        assert np.array_equal(surface._integrate(y, np.ones(y.shape[1])), fresh.out)

    @pytest.mark.parametrize("kind", ["sphere", "bump"])
    def test_one_column_view_equals_contiguous(self, kind, request):
        # a wide batch ends with one live column.  As a (4, 1) view of the
        # wide block its rows would lie a block width apart, and numpy 2.4.6
        # negates such a view in place wrongly: with b = np.arange(16.).reshape(2, 8)
        # and a = b[:, :1], np.negative(a, out=a) gives [-0, -1], not [-0, -8].
        # negative is the only unary ufunc of the kernel that does, and it is
        # why the kernel must never hand numpy a strided column: that column
        # must get the bits of the same column integrated alone
        surface = (
            surface_from_json(self.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        pts, vels = self.mixed_batch()
        # the longest geodesic last, so that it runs on alone for several steps
        y = np.concatenate([pts, vels], axis=1)[[*range(12, 19), 23]].T.copy()
        wide, alone = _Batch(y.copy(), np.ones(8)), _Batch(y[:, -1:].copy(), np.ones(1))
        for b in (wide, alone):
            surface._ode_rhs(b.y, b.k[0])
        steps = 0  # the wide batch's steps on one live column
        while alone.n:
            steps += wide.n == 1
            surface._step(wide)
            surface._step(alone)
            col = wide.rows == 7
            assert np.array_equal(wide.t[col], alone.t) and np.array_equal(wide.h[col], alone.h)
            assert np.array_equal(wide.y[:, col], alone.y)
            assert np.array_equal(wide.k[0][:, col], alone.k[0])
        assert steps > 1 and wide.n == 0
        assert np.array_equal(wide.out[:, -1], alone.out[:, 0])

    @pytest.mark.parametrize("kind", ["sphere", "bump"])
    def test_rhs_sees_contiguous_states(self, kind, request, monkeypatch):
        # a strided view of the live columns would cost numpy more per call
        # and reach the in-place ufunc fault above
        surface = (
            surface_from_json(self.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        rhs = surface._ode_rhs
        widths = []

        def checking(y, out):
            assert y.flags.c_contiguous and out.flags.c_contiguous
            widths.append(y.shape[1])
            return rhs(y, out)

        monkeypatch.setattr(surface, "_ode_rhs", checking)
        surface.exp_many(*self.mixed_batch())
        assert len(set(widths)) > 1

    def test_rhs_evaluations_per_step(self, sphere, monkeypatch):
        counts = {"rhs": 0, "steps": 0}
        rhs, step = sphere._ode_rhs, sphere._step

        def counting_rhs(*args):
            counts["rhs"] += 1
            return rhs(*args)

        def counting_step(*args):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(sphere, "_ode_rhs", counting_rhs)
        monkeypatch.setattr(sphere, "_step", counting_step)
        sphere.exp_many([[0.1, -0.2]], [[0.9, 0.7]])
        assert counts["steps"] > 5
        assert counts["rhs"] == 1 + 6 * counts["steps"]

    def test_escape_inside_mixed_batch(self, sphere):
        pts, vels = self.mixed_batch()
        vels[7] = (3.0, 0.0)  # runs past the chart edge toward the south pole
        with pytest.raises(ChartEscapeError):
            sphere.exp_many(pts, vels)

    def test_shooting_stall_raises(self, sphere):
        # the long first row is the worst one after a single iteration
        worst = "after 1 iterations, shooting from (0.0, 0.0) to (0.5, 0.3)"
        with pytest.raises(ShootingConvergenceError, match=re.escape(worst)) as info:
            sphere.log_many([[0.0, 0.0], [0.1, 0.1]], [[0.5, 0.3], [0.12, 0.1]], max_iter=1)
        err = info.value
        assert (err.point, err.target, err.iterations) == ((0.0, 0.0), (0.5, 0.3), 1)
        assert err.residual > DEFAULT_SHOOT_TOL
        assert f"residual {err.residual:.3e}" in str(err)

    def test_step_underflow_names_state(self, sphere, monkeypatch):
        # an error target no step can meet shrinks h from the start, at t = 0
        monkeypatch.setattr(surfaces, "DEFAULT_ATOL", 1e-100)
        monkeypatch.setattr(surfaces, "DEFAULT_RTOL", 0.0)
        stalled = "step size underflow: stalled at [0.1, -0.2, 0.9, 0.7] at t = 0"
        with pytest.raises(DomainError, match=re.escape(stalled)):
            sphere.exp_many([[0.1, -0.2]], [[0.9, 0.7]])


class TestKernelWork:
    """How many RHS evaluations and exp passes a geodesic solve costs.

    ``log_many`` runs each of its passes through ``_exp``, ``exp_many``'s
    body, so the passes are counted there."""

    @staticmethod
    def count_calls(monkeypatch, surface, name):
        """The length of the first argument of each call of ``surface.name``."""
        lengths = []
        method = getattr(surface, name)

        def counting(*args):
            lengths.append(len(args[0]))
            return method(*args)

        monkeypatch.setattr(surface, name, counting)
        return lengths

    def test_short_geodesic_one_step(self, sphere, monkeypatch):
        # the whole-interval first step is accepted: 1 + 6 evaluations.  A
        # geodesic five times as long needs four steps at this tolerance.
        calls = self.count_calls(monkeypatch, sphere, "_ode_rhs")
        sphere.exp_many([[0.01, 0.02]], [[0.01, 0.006]])
        assert len(calls) == 7

    def test_batch_block_holds_ten_slabs(self):
        # nine working arrays and the end states; scratch reuses dead stages
        batch = _Batch(np.zeros((4, 5)), np.ones(5))
        assert batch._block.shape == (10, 20)
        assert not hasattr(batch, "scratch")

    def test_no_jacobian_pass(self, sphere, monkeypatch):
        pts, targets = [[0.01, 0.02], [0.1, 0.1]], [[0.05, 0.03], [0.12, 0.1]]
        rows = self.count_calls(monkeypatch, sphere, "_exp")
        sphere.log_many(pts, targets)
        # the seed pass, then one pass per iteration; the Jacobian costs none
        assert rows[0] == 2
        assert max(rows) <= 2
        assert len(rows) <= 3

    # exp_many passes and RHS calls of these solves.  Shooting from the chart
    # chord with a finite-difference Jacobian pass at the seed took (15, 2,103),
    # (8, 626) and (5, 275); the second-order seed and Jacobian from the
    # symbols at p + d/3, with each pass started at the step its row's last
    # pass first accepted, took (6, 738), (5, 341) and (3, 141) (the
    # first-order ones took (7, 937), (5, 395) and (4, 220)); the first
    # Newton step taken from a rejected first trial's predicted residual
    # takes these
    GUARD_WORK = {"sphere": (6, 618), "hyperbolic": (5, 269), "bump": (3, 99)}

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic", "bump"])
    def test_shooting_cost_at_convexity_guard(self, kind, request, monkeypatch):
        surface = (
            surface_from_json(TestBatchIndependence.BUMP)
            if kind == "bump"
            else request.getfixturevalue(kind)
        )
        # 200 geodesics of metric length CONVEXITY_GUARD, starting anywhere in
        # the middle half of the chart, in every direction
        rng = np.random.default_rng(0)
        half = surface.chart[1] / 2
        pts = rng.uniform(-half, half, size=(200, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, 200)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        vels = CONVEXITY_GUARD * dirs / surface.norm(pts, dirs)[:, None]
        targets = surface.exp_many(pts, vels)
        passes = self.count_calls(monkeypatch, surface, "_exp")
        calls = self.count_calls(monkeypatch, surface, "_ode_rhs")
        back = surface.log_many(pts, targets)
        assert np.max(np.abs(back - vels)) <= 2e-11
        assert len(passes) <= self.GUARD_WORK[kind][0]
        assert len(calls) <= self.GUARD_WORK[kind][1]

    def test_long_geodesics_do_not_stall(self, sphere, hyperbolic, monkeypatch):
        # past the guard the starting Jacobian is furthest off: a first-order
        # one held fixed takes 11 (sphere) and 12 (disk) passes here, with the
        # secant update 5 and 6; the second-order one takes 4 and 6 passes,
        # 110 and 147 integrator steps.  Steps are counted, not passes: the
        # seed's first trial is a pass of one step, which the sphere's row
        # follows with the rest of its seed (5 passes, 110 steps) and the
        # disk's with a Newton pass from its predicted residual (6, 131)
        for surface, p, q, most in ((sphere, (0.0, 0.0), (0.5, 0.3), 110), (hyperbolic, (-0.3, 0.2), (0.1, -0.2), 147)):
            steps = []
            step = surface._step

            def counting(b):
                steps.append(b.n)
                return step(b)

            monkeypatch.setattr(surface, "_step", counting)
            surface.log_many([p], [q])
            assert len(steps) <= most

    def test_base_side_three_passes(self, sphere, monkeypatch):
        # a side of the sphere scene's base triangle: the seed pass and two
        # Newton passes (the first-order seed and Jacobian took four)
        vertices = json.loads((ROOT / "scenes" / "sphere_small.json").read_text())["vertices"]
        passes = self.count_calls(monkeypatch, sphere, "_exp")
        sphere.log_many(vertices[:1], vertices[1:2])
        assert len(passes) <= 3


class TestLogMap:
    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
    def test_seed_residual_fourth_order(self, kind, request):
        # the seed's residual |exp_p(w0) - q| is O(|d|^4): halving every d
        # divides the worst of 200 by 16 in the limit (8 for a third-order one).
        # An infinite tolerance returns the seed.
        surface = request.getfixturevalue(kind)
        rng = np.random.default_rng(4)
        half = surface.chart[1] / 2
        pts = rng.uniform(-half, half, (200, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, 200)
        d = 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
        worst = []
        for chord in (d, d / 2):
            w = surface.log_many(pts, pts + chord, tol=math.inf)
            worst.append(np.max(np.hypot(*(surface.exp_many(pts, w) - pts - chord).T)))
        assert worst[0] >= 12 * worst[1]

    @pytest.mark.parametrize(
        "p, q", [((0.09, -1.19), (1.58, -0.33)), ((1.34, -0.26), (0.3, -1.62))], ids=["estimate", "outside"]
    )
    def test_uninformative_trial_continues_seed(self, sphere, p, q, monkeypatch):
        # the seed's whole-interval trial is rejected and predicts nothing:
        # its end point's error estimate exceeds the residual it predicts,
        # or that end point lies outside the chart
        calls = []
        exp = sphere._exp

        def recording(pts, vels, steps, *predict):
            calls.append(vels.copy())
            return exp(pts, vels, steps, *predict)

        monkeypatch.setattr(sphere, "_exp", recording)
        with pytest.raises(ChartEscapeError) as info:
            sphere.log_many([p], [q])
        seed = calls[0]
        end, err, est = exp(np.array([p]), seed, np.ones(1), True)
        residual = np.hypot(*(end - q).T)
        assert err[0] > 1 and (est[0] >= residual[0] or not sphere.contains(end)[0])
        # so the row resumes its seed, with no Newton step, and leaves the
        # chart where the seed's own integration does
        assert len(calls) == 2 and np.array_equal(calls[1], seed)
        with pytest.raises(ChartEscapeError) as alone:
            exp(np.array([p]), seed, np.ones(1))
        assert info.value.exit_parameter == alone.value.exit_parameter

    def test_same_point_zero(self, sphere):
        w = sphere.log_many([(0.2, 0.1)], [(0.2, 0.1)])[0]
        assert np.allclose(w, 0.0)

    def test_euclidean_difference(self, eu):
        w = eu.log_many([(1.0, 2.0)], [(4.0, 6.0)])[0]
        np.testing.assert_allclose(w, [3.0, 4.0])

    def test_flat_seed_exact(self, eu):
        # the Christoffel symbols vanish, so the seed is the chord bit for bit
        rng = np.random.default_rng(7)
        pts = rng.uniform(-20.0, 20.0, size=(500, 2))
        targets = rng.uniform(-20.0, 20.0, size=(500, 2))
        assert np.array_equal(eu.log_many(pts, targets), targets - pts)

    @pytest.mark.parametrize(
        "pt, target",
        [((math.inf, 0.0), (0.1, 0.0)), ((math.nan, 0.0), (0.1, 0.0)), ((0.0, 0.0), (math.inf, 0.0))],
        ids=["inf_point", "nan_point", "inf_target"],
    )
    def test_non_finite_input_raises(self, sphere, pt, target):
        # the seed's Christoffel symbols are NaN; numpy must not warn before the integrator names it
        with pytest.raises(DomainError, match="non-finite state"):
            sphere.log_many([pt], [target])

    def test_sphere_equator_points(self, sphere):
        # chart points (cos t, sin t) sit on the equator at longitude t
        p = (1.0, 0.0)
        q = (math.cos(0.5), math.sin(0.5))
        w = sphere.log_many([p], [q])[0]
        norm = float(sphere.norm(np.array([p]), w[None, :])[0])
        assert abs(norm - 0.5) <= 1e-8


class TestGeodesicBetween:
    def test_degenerate_flagged(self, eu, sphere):
        for surface in (eu, sphere):
            assert surface.distance_many([(0.1, 0.1)], [(0.1, 0.1)])[0] == 0.0
            w = surface.log_many([(0.1, 0.1)], [(0.1, 0.1)])[0]
            assert np.all(w == 0.0)

    def test_euclidean_three_four_five(self, eu):
        assert eu.distance_many([(0.0, 0.0)], [(3.0, 4.0)])[0] == pytest.approx(5.0, abs=1e-12)

    def test_hyperbolic_closed_form(self, hyperbolic):
        d = hyperbolic.distance_many([(0.0, 0.0)], [(0.5, 0.0)])[0]
        assert d == pytest.approx(2.0 * math.atanh(0.5), abs=1e-8)

    def test_constant_speed(self, sphere):
        # the geodesic exp(p, t w), w = log(p, q), covers t of the length by time t
        p, q = (0.01, 0.02), (0.25, -0.1)
        length = sphere.distance_many([p], [q])[0]
        w = sphere.log_many([p], [q])[0]
        assert float(sphere.norm(p, w)[0]) == pytest.approx(length, abs=1e-8 * length)
        for t in (0.25, 0.5, 0.75):
            x = sphere.exp_many([p], [t * w])[0]
            assert sphere.distance_many([p], [x])[0] == pytest.approx(t * length, abs=1e-8 * length)
            assert sphere.distance_many([x], [q])[0] == pytest.approx((1 - t) * length, abs=1e-8 * length)


class TestMidpoint:
    def test_euclidean_mean(self, eu):
        m = eu.midpoint_many([(0.0, 0.0)], [(2.0, 4.0)])[0]
        assert tuple(m) == (1.0, 2.0)

    def test_sphere_equator_symmetry(self, sphere):
        p = (1.0, 0.0)
        q = (math.cos(0.8), math.sin(0.8))
        m = sphere.midpoint_many([p], [q])[0]
        expected = (math.cos(0.4), math.sin(0.4))
        assert tuple(m) == pytest.approx(expected, abs=1e-8)

    def test_hyperbolic_closed_form(self, hyperbolic):
        m = hyperbolic.midpoint_many([(0.0, 0.0)], [(0.5, 0.0)])[0]
        assert m[0] == pytest.approx(math.tanh(math.atanh(0.5) / 2.0), abs=1e-8)
        assert m[1] == pytest.approx(0.0, abs=1e-10)

    def test_solved_logs_skip_the_solve(self, eu, sphere, monkeypatch):
        pts, targets = np.array([[0.1, 0.2], [-0.3, 0.0]]), np.array([[0.3, -0.1], [0.2, 0.4]])
        logs = sphere.log_many(pts, targets)
        plain = sphere.midpoint_many(pts, targets)
        monkeypatch.setattr(sphere, "log_many", None)
        assert sphere.midpoint_many(pts, targets, logs).tobytes() == plain.tobytes()
        # the flat midpoint is the chord's, whatever logs it is given
        assert eu.midpoint_many(pts, targets, np.full((2, 2), np.nan)).tolist() == (0.5 * (pts + targets)).tolist()


class TestRoundTripAndSymmetry:
    @pytest.mark.parametrize("kind", ["eu", "sphere", "hyperbolic"])
    def test_round_trip(self, kind, request):
        surface = request.getfixturevalue(kind)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.15, 0.15, size=(100, 2))
        vels = rng.uniform(-0.2, 0.2, size=(100, 2))
        targets = surface.exp_many(pts, vels)
        back = surface.log_many(pts, targets)
        err = np.linalg.norm(back - vels, axis=1)
        scale = np.linalg.norm(vels, axis=1)
        assert np.all(err <= 1e-7 * np.maximum(scale, 1e-6))

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
    def test_distance_symmetry(self, kind, request):
        surface = request.getfixturevalue(kind)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.2, 0.2, size=(50, 2))
        qts = rng.uniform(-0.2, 0.2, size=(50, 2))
        d1 = surface.distance_many(pts, qts)
        d2 = surface.distance_many(qts, pts)
        assert np.all(np.abs(d1 - d2) <= 1e-9 * np.maximum(d1, 1e-12))


def variation_norm(tri, t, s, h):
    """Metric norm of the central difference, with step h, of the
    parametrization at vertex 1 in its family parameter s: the Jacobi
    field of the geodesics from the apex."""
    lo, mid, hi = tri.phi_many(1, [t] * 3, [s - h, s, s + h])
    return float(tri.surface.norm(mid[None], ((hi - lo) / (2.0 * h))[None])[0])


class TestJacobiField:
    def test_flat_norm_independent_of_s(self, eu):
        tri = GeodesicTriangleRegion.from_vertices(eu, (0, 0), (1, 0), (0.4, 0.8))
        n1 = variation_norm(tri, 0.3, 0.4, 1e-5)
        n2 = variation_norm(tri, 0.3, 0.8, 1e-5)
        assert n1 / n2 == pytest.approx(1.0, abs=1e-7)

    def test_sphere_ratio_quadratic_bound(self, sphere):
        tri = GeodesicTriangleRegion.from_vertices(
            sphere, (0.01, 0.0), (0.1, 0.01), (0.05, 0.08)
        )
        r = tri.diam
        n1 = variation_norm(tri, 0.4, 0.5, 1e-5)
        n2 = variation_norm(tri, 0.4, 0.9, 1e-5)
        dev = abs(n1 / n2 - 1.0)
        fitted_c = dev / (r * r)
        # the fitted constant is reported; it must stay modest
        assert fitted_c <= 2.0, f"fitted C = {fitted_c}"

    def test_richardson_h_squared(self, sphere):
        tri = GeodesicTriangleRegion.from_vertices(
            sphere, (0.01, 0.0), (0.15, 0.02), (0.06, 0.12)
        )
        n_h = variation_norm(tri, 0.5, 0.5, 8e-5)
        n_h2 = variation_norm(tri, 0.5, 0.5, 4e-5)
        n_h4 = variation_norm(tri, 0.5, 0.5, 2e-5)
        # the parametrization is smooth in s at these steps: successive
        # halvings shrink the difference by about 4
        d1 = abs(n_h - n_h2)
        d2 = abs(n_h2 - n_h4)
        assert d2 <= 0.5 * d1 + 1e-12

    def test_parameter_domain(self, eu):
        # the parametrization is defined on [0, 1]^2 only, so a step past s = 1 is refused
        tri = GeodesicTriangleRegion.from_vertices(eu, (0, 0), (1, 0), (0.4, 0.8))
        with pytest.raises(DomainError, match="t in \\[0,1\\], s in \\[0,1\\]"):
            variation_norm(tri, 0.3, 1.0, 1e-5)
        with pytest.raises(DomainError):
            variation_norm(tri, 1.2, 0.5, 1e-5)


def general_christoffels(e, f, g, e_u, e_v, f_u, f_v, g_u, g_v):
    """Second-kind symbols of a metric (E, F, G) from its first partials."""
    w2 = 2.0 * (e * g - f * f)
    return (
        (g * e_u - 2 * f * f_u + f * e_v) / w2,
        (g * e_v - f * g_u) / w2,
        (2 * g * f_v - g * g_u - f * g_v) / w2,
        (2 * e * f_u - e * e_v - f * e_u) / w2,
        (e * g_u - f * e_v) / w2,
        (e * g_v - 2 * f * f_v + f * g_u) / w2,
    )


class TestChristoffels:
    @staticmethod
    def sphere_factor(u, v):
        # E = G = 4 / d^2 with d = 1 + u^2 + v^2
        d = 1.0 + u * u + v * v
        base = -16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    @staticmethod
    def disk_factor(u, v):
        # E = G = 4 / d^2 with d = 1 - u^2 - v^2
        d = 1.0 - u * u - v * v
        base = 16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
    def test_closed_form_equals_general_formula(self, kind, request):
        surface = request.getfixturevalue(kind)
        factor = self.sphere_factor if kind == "sphere" else self.disk_factor
        u_min, u_max, v_min, v_max = surface.chart
        rng = np.random.default_rng(5)
        u = rng.uniform(u_min, u_max, 10**4)
        v = rng.uniform(v_min, v_max, 10**4)
        e, e_u, e_v = factor(u, v)
        zero = np.zeros_like(e)
        expected = general_christoffels(e, zero, e, e_u, e_v, zero, zero, e_u, e_v)
        got = surface.christoffels(u, v)
        assert len(got) == 6
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        assert all(np.array_equal(a, b) for a, b in zip(surface.metric(u, v), (e, zero, e)))

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
    def test_acceleration_equals_general_formula(self, kind, request):
        # u'' = -G1(w, w) and v'' = -G2(w, w) with the general formula's
        # symbols, to 1e-12 of the sum of the magnitudes of their terms
        surface = request.getfixturevalue(kind)
        factor = self.sphere_factor if kind == "sphere" else self.disk_factor
        u_min, u_max, v_min, v_max = surface.chart
        rng = np.random.default_rng(8)
        u, v = rng.uniform(u_min, u_max, 10**4), rng.uniform(v_min, v_max, 10**4)
        p, q = rng.uniform(-2.0, 2.0, (2, 10**4)) * np.geomspace(1e-6, 1.0, 10**4)
        e, e_u, e_v = factor(u, v)
        zero = np.zeros_like(e)
        c = general_christoffels(e, zero, e, e_u, e_v, zero, zero, e_u, e_v)
        out = np.empty((4, 10**4))
        surface.acceleration(np.array([u, v, p, q]), out)
        for acc, (c11, c12, c22) in zip(out[2:], (c[:3], c[3:])):
            terms = (c11 * p * p, 2 * c12 * p * q, c22 * q * q)
            scale = sum(np.abs(t) for t in terms)
            assert np.all(np.abs(acc + sum(terms)) <= 1e-12 * scale)

    def test_compiled_equals_general_formula(self):
        # a metric with every entry varying, F included, against the general
        # formula on central differences of the evaluated expressions
        texts = {"E": "2 + sin(u*v)", "F": "u*v/4 - 0.1*exp(v)", "G": "1 + u**2 + cosh(v)/3"}
        surface = surface_from_json({"chart": TestBatchIndependence.BUMP["chart"], "metric": texts})
        e_fn, f_fn, g_fn = (compile_expression(texts[k]) for k in "EFG")
        rng = np.random.default_rng(2)
        u, v = rng.uniform(-0.9, 0.9, 1000), rng.uniform(-0.9, 0.9, 1000)
        h = 1e-5

        def partials(fn):
            return (fn(u + h, v) - fn(u - h, v)) / (2 * h), (fn(u, v + h) - fn(u, v - h)) / (2 * h)

        expected = general_christoffels(e_fn(u, v), f_fn(u, v), g_fn(u, v), *partials(e_fn), *partials(f_fn), *partials(g_fn))
        for a, b in zip(surface.christoffels(u, v), expected):
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic", "bump"])
    def test_rhs_reads_closed_form_only(self, kind, request, monkeypatch):
        # a built-in model's acceleration comes from its closed-form gradient
        # of log lam alone; a custom metric's, from its symbols, compiled from
        # its expressions once, at load, and read once per evaluation
        surface = (
            surface_from_json(TestBatchIndependence.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        counts = {"christoffels": 0, "metric": 0}
        for name in counts:
            method = getattr(surface, name)

            def counting(*args, _name=name, _method=method):
                counts[_name] += 1
                return _method(*args)

            monkeypatch.setattr(surface, name, counting)
        states = np.array([[0.1, -0.2, 0.3, 0.4], [0.0, 0.05, -0.2, 0.1]]).T.copy()
        surface._ode_rhs(states, np.empty_like(states))
        assert counts == {"christoffels": int(kind == "bump"), "metric": 0}


    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic", "bump"])
    def test_partials_equal_central_differences(self, kind, request):
        # d/du of the six symbols, then d/dv, against central differences of
        # christoffels with step 1e-6, on random points of the whole chart
        surface = (
            surface_from_json(TestBatchIndependence.BUMP) if kind == "bump" else request.getfixturevalue(kind)
        )
        u_min, u_max, v_min, v_max = surface.chart
        rng = np.random.default_rng(3)
        u, v = rng.uniform(u_min, u_max, 1000), rng.uniform(v_min, v_max, 1000)
        h = 1e-6
        symbols = surface.christoffels
        expected = np.concatenate([
            (np.array(symbols(u + h, v)) - np.array(symbols(u - h, v))) / (2 * h),
            (np.array(symbols(u, v + h)) - np.array(symbols(u, v - h))) / (2 * h),
        ])
        got = np.array(surface.christoffel_partials(u, v))
        assert got.shape == (12, 1000)
        assert np.all(np.abs(got - expected) <= 1e-8 * np.maximum(1.0, np.abs(expected)))


class TestCustomSurface:
    DOC = {
        "name": "gentle-bump",
        "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "metric": {
            "E": "exp(-(u*u + v*v)/8)",
            "F": "0",
            "G": "exp(-(u*u + v*v)/8)",
        },
    }

    def test_loads_and_measures(self):
        surface = surface_from_json(json.dumps(self.DOC))
        assert surface.kind == "custom"
        d = surface.distance_many([(0.0, 0.0)], [(0.2, 0.0)])[0]
        # conformal factor ~1 near the origin
        assert d == pytest.approx(0.2, rel=2e-3)

    def test_compiled_curvature(self):
        surface = surface_from_json(self.DOC)
        # K = -lap(log lambda)/lambda^2 with log lambda = -(u^2+v^2)/16
        rng = np.random.default_rng(4)
        u, v = rng.uniform(-1.0, 1.0, (2, 10**4))
        expected = 0.25 * np.exp((u * u + v * v) / 8.0)
        np.testing.assert_allclose(surface.curvature(u, v), expected, rtol=1e-12, atol=0)

    def test_declared_curvature_cross_checked(self):
        # the bump's own K passes; the same K off by 1e-6, still within
        # |K| <= 1, fails at the first grid point
        exact = "0.25 * exp((u*u + v*v)/8)"
        assert surface_from_json(dict(self.DOC, curvature=exact)).kind == "custom"
        with pytest.raises(DomainError, match=r"declared curvature 0\.3210066752 differs .* at \(-1, -1\)$"):
            surface_from_json(dict(self.DOC, curvature=f"1.000001 * {exact}"))

    def test_round_trip(self):
        surface = surface_from_json(self.DOC)
        w = surface.log_many([(0.1, 0.0)], [(0.3, 0.2)])[0]
        q = surface.exp_many([(0.1, 0.0)], [w])[0]
        assert tuple(q) == pytest.approx((0.3, 0.2), abs=1e-8)

    def test_equal_texts_evaluated_once(self, monkeypatch):
        # E and G are the same text, so one metric call takes one exp
        runs = []

        def exp(x):
            runs.append(x)
            return np.exp(x)

        monkeypatch.setitem(expressions._FUNCS, "exp", exp)
        surface = surface_from_json(self.DOC)
        runs.clear()
        e, f, g = surface.metric(np.array([0.1, 0.3]), np.array([0.2, -0.1]))
        assert len(runs) == 1
        assert np.array_equal(e, g) and f.tolist() == [0.0, 0.0]

    def test_shared_evaluator_keeps_geodesics(self):
        # bitwise the geodesics and distances of the same metric with G spelled
        # as another tree than E, so that the two share only u*u and v*v
        surface = surface_from_json(self.DOC)
        apart = surface_from_json(dict(self.DOC, metric=dict(self.DOC["metric"], G="exp(-(v*v + u*u)/8)")))
        pts, vels = TestBatchIndependence.mixed_batch()
        targets = surface.exp_many(pts, vels)
        assert np.array_equal(targets, apart.exp_many(pts, vels))
        assert np.array_equal(surface.distance_many(pts, targets), apart.distance_many(pts, targets))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("chart", 5),
            ("metric", [1]),
            ("metric", {"E": 1.0, "F": "0", "G": "1"}),
            ("chart", {"u_min": "-1", "u_max": 1.0, "v_min": -1.0, "v_max": 1.0}),
            ("curvature", 0.25),
            ("chart", {"u_min": -1.0, "u_max": 10**400, "v_min": -1.0, "v_max": 1.0}),
            ("name", 5),
            # a built-in kind name must not turn a custom metric into that surface
            ("kind", "sphere_unit"),
            # a misplaced entry inside chart or metric is not ignored
            ("metric", {"E": "1", "F": "0", "G": "1", "K": "7"}),
            ("chart", {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0, "w_max": 3}),
        ],
        ids=["chart", "metric", "E", "u_min", "curvature", "u_max_huge", "name", "kind", "metric_K", "chart_w_max"],
    )
    def test_malformed_document(self, key, value):
        with pytest.raises(DomainError):
            surface_from_json(dict(self.DOC, **{key: value}))

    @pytest.mark.parametrize("field", ["metric.E", "metric.F", "metric.G", "curvature"])
    def test_expression_error_names_field(self, field):
        doc = dict(self.DOC, metric=dict(self.DOC["metric"]), curvature="0.25 * exp((u*u + v*v)/8)")
        if field == "curvature":
            doc["curvature"] = "exp(-(u*u + v*v)/8"
        else:
            doc["metric"][field[-1]] = "exp(-(u*u + v*v)/8"
        with pytest.raises(ExpressionError) as err:
            surface_from_json(doc)
        assert str(err.value) == f"{field}: '(' was never closed (line 1, column 4)"
        assert (err.value.line, err.value.column) == (1, 4)

    def test_curvature_bound_enforced(self):
        doc = {
            "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
            "metric": {"E": "exp(-4*(u*u+v*v))", "F": "0", "G": "exp(-4*(u*u+v*v))"},
        }
        with pytest.raises(DomainError):
            surface_from_json(doc)


class TestCustomSphere:
    """The unit sphere's stereographic metric entered as a custom surface."""

    TEXT = "4/(1+u*u+v*v)**2"
    DOC = {
        "chart": {"u_min": -1.8, "u_max": 1.8, "v_min": -1.8, "v_max": 1.8},
        "metric": {"E": TEXT, "F": "0", "G": TEXT},
    }

    def test_compiled_curvature_is_one(self):
        # Gauss's formula on the compiled symbols and their partials
        surface = surface_from_json(self.DOC)
        rng = np.random.default_rng(8)
        u, v = rng.uniform(-1.8, 1.8, (2, 10**4))
        np.testing.assert_allclose(surface.curvature(u, v), 1.0, rtol=0, atol=1e-12)

    def test_sheared_chart_curvature_is_one(self):
        # the same sphere in the chart (u + 0.3 v, v): F is not 0, K still 1
        text = "4/(1+(u+0.3*v)**2+v*v)**2"
        doc = {"chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
               "metric": {"E": text, "F": f"0.3*{text}", "G": f"1.09*{text}"}}
        surface = surface_from_json(doc)
        rng = np.random.default_rng(9)
        u, v = rng.uniform(-1.0, 1.0, (2, 10**4))
        np.testing.assert_allclose(surface.curvature(u, v), 1.0, rtol=0, atol=1e-12)

    def test_symbols_equal_closed_form(self, sphere):
        surface = surface_from_json(self.DOC)
        rng = np.random.default_rng(5)
        u, v = rng.uniform(-1.8, 1.8, 10**4), rng.uniform(-1.8, 1.8, 10**4)
        for a, b in zip(surface.christoffels(u, v), sphere.christoffels(u, v)):
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)

    def test_distances_equal_closed_form(self, sphere, closed_form_distance):
        surface = surface_from_json(self.DOC)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.8, 0.8, size=(40, 2))
        targets = pts + rng.uniform(-0.2, 0.2, size=(40, 2))
        expected = [closed_form_distance(sphere, p, q) for p, q in zip(pts, targets)]
        np.testing.assert_allclose(surface.distance_many(pts, targets), expected, rtol=0, atol=1e-10)
