"""Riemannian 2D chart surfaces with geodesic oracles.

A surface is a chart rectangle with a first fundamental form (E, F, G),
Gaussian curvature, and geodesic operations: exponential map by adaptive
Dormand-Prince integration of the geodesic ODE, logarithm map by Newton
shooting, distances, midpoints and finite-difference variation fields.

The geodesic ODE reads the Christoffel symbols once per right-hand-side
evaluation.  The built-in models are conformal and supply them in closed
form from the conformal factor and its gradient; a custom metric gets them
from central differences of its expressions.

All geodesic solvers are vectorized: every entry point (``exp_many``,
``log_many``, ...) operates on ``(N, 2)`` arrays of chart coordinates, one
geodesic per row.  On the flat model exp and midpoints are exact affine
arithmetic and the shooting seed is already the log map; the ODE path is
reserved for curved charts so that curved results can be checked against
closed forms.
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

from .errors import ChartEscapeError, DomainError, ShootingConvergenceError
from .expressions import compile_expression

EUCLIDEAN = "euclidean"
SPHERE = "sphere_unit"
HYPERBOLIC = "hyperbolic_poincare"
CUSTOM = "custom"

# Integration tolerances for the embedded 4(5) scheme.  Downstream
# certification bounds are O(r^2) with r >= 1e-2, so the integrator noise
# floor sits several orders below anything we assert.
DEFAULT_ATOL = 1e-11
DEFAULT_RTOL = 1e-10

# Shooting residual target in chart distance.  Tighter than strictly needed
# for the O(r^2) bounds; keeps deep subdivision vertices accurate enough for
# the 1e-9 projection cross-checks.
DEFAULT_SHOOT_TOL = 1e-11
DEFAULT_SHOOT_MAXITER = 60

_FD_METRIC_STEP = 1e-6


# Dormand-Prince RK45 tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


def _non_finite_state(state, t) -> DomainError:
    return DomainError(
        f"geodesic integrator step size underflow: non-finite state from {state.tolist()} at t = {t:.6g}"
    )


def _combine(coeffs, k):
    """Stage combination sum_i coeffs[i] k[i], evaluated row-wise.

    Spelled out term by term rather than as a matrix product, whose
    summation order may depend on the batch size.
    """
    acc = coeffs[0] * k[0]
    for c, ki in zip(coeffs[1:], k[1:]):
        if c:
            acc += c * ki
    return acc


class SurfaceModel:
    """A 2D chart with metric, curvature and geodesic oracle.

    Parameters
    ----------
    kind : str
        One of ``euclidean``, ``sphere_unit``, ``hyperbolic_poincare``,
        ``custom``.
    chart : tuple
        ``(u_min, u_max, v_min, v_max)`` open rectangle.
    metric : callable
        ``metric(u, v) -> (E, F, G)`` vectorized over arrays.
    christoffels : callable or None
        ``(u, v) -> (G1_11, G1_12, G1_22, G2_11, G2_12, G2_22)`` in closed
        form; when None they come from central differences of the metric,
        and the curvature bound is checked with a looser tolerance.
    curvature : callable
        ``(u, v) -> K`` vectorized.
    closed_form_distance : callable or None
        Exact geodesic distance for built-ins, used as an oracle.
    spec : str, dict or None
        The built-in name or custom document ``make_surface`` builds it from.
    """

    def __init__(
        self,
        kind,
        chart,
        metric,
        curvature,
        christoffels=None,
        closed_form_distance=None,
        name=None,
        spec=None,
        atol=DEFAULT_ATOL,
        rtol=DEFAULT_RTOL,
        check_grid=21,
    ):
        self.kind = kind
        self.chart = tuple(float(x) for x in chart)
        if not (self.chart[0] < self.chart[1] and self.chart[2] < self.chart[3]):
            raise DomainError("chart rectangle is empty")
        self._metric = metric
        self._christoffels = christoffels
        self._curvature = curvature
        self._closed_form_distance = closed_form_distance
        self.name = name or kind
        self.spec = spec
        self.atol = atol
        self.rtol = rtol
        self.flat = kind == EUCLIDEAN
        self._check_admissible(check_grid)

    # -- validation ----------------------------------------------------

    def _check_admissible(self, grid):
        u_min, u_max, v_min, v_max = self.chart
        us = np.linspace(u_min, u_max, grid)
        vs = np.linspace(v_min, v_max, grid)
        uu, vv = np.meshgrid(us, vs)
        # the checks below reject non-finite values, so numpy need not warn of them
        with np.errstate(all="ignore"):
            e, f, g = self.metric(uu.ravel(), vv.ravel())
            # accepting comparisons, so that NaN fails them
            if not (np.all(e > 0) and np.all(e * g - f * f > 0)):
                raise DomainError("metric is not positive definite on the chart grid")
            k = self.curvature(uu.ravel(), vv.ravel())
        tol = 1e-9 if self._christoffels is not None else 1e-4
        if not np.all(np.abs(k) <= 1.0 + tol):
            raise DomainError(
                f"|K| exceeds 1 on the chart grid (max {np.max(np.abs(k)):.6g})"
            )

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u_min, u_max, v_min, v_max = self.chart
        return (
            (pts[:, 0] > u_min)
            & (pts[:, 0] < u_max)
            & (pts[:, 1] > v_min)
            & (pts[:, 1] < v_max)
        )

    # -- metric plumbing -----------------------------------------------

    def metric(self, u, v):
        return self._metric(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    def curvature(self, u, v):
        return self._curvature(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    def christoffels(self, u, v):
        """Second-kind Christoffel symbols, six arrays.

        Order: G1_11, G1_12, G1_22, G2_11, G2_12, G2_22.  The model's closed
        form when it has one; otherwise the general formula on central
        differences of the metric.
        """
        if self._christoffels is not None:
            return self._christoffels(u, v)
        e, f, g = self.metric(u, v)
        h = _FD_METRIC_STEP
        eu1, fu1, gu1 = self.metric(u + h, v)
        eu0, fu0, gu0 = self.metric(u - h, v)
        ev1, fv1, gv1 = self.metric(u, v + h)
        ev0, fv0, gv0 = self.metric(u, v - h)
        inv = 0.5 / h
        e_u, e_v = (eu1 - eu0) * inv, (ev1 - ev0) * inv
        f_u, f_v = (fu1 - fu0) * inv, (fv1 - fv0) * inv
        g_u, g_v = (gu1 - gu0) * inv, (gv1 - gv0) * inv
        w2 = 2.0 * (e * g - f * f)
        g1_11 = (g * e_u - 2 * f * f_u + f * e_v) / w2
        g2_11 = (2 * e * f_u - e * e_v - f * e_u) / w2
        g1_12 = (g * e_v - f * g_u) / w2
        g2_12 = (e * g_u - f * e_v) / w2
        g1_22 = (2 * g * f_v - g * g_u - f * g_v) / w2
        g2_22 = (e * g_v - 2 * f * f_v + f * g_u) / w2
        return g1_11, g1_12, g1_22, g2_11, g2_12, g2_22

    def inner(self, pts, w1, w2):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w1 = np.atleast_2d(np.asarray(w1, dtype=float))
        w2 = np.atleast_2d(np.asarray(w2, dtype=float))
        e, f, g = self.metric(pts[:, 0], pts[:, 1])
        return (
            e * w1[:, 0] * w2[:, 0]
            + f * (w1[:, 0] * w2[:, 1] + w1[:, 1] * w2[:, 0])
            + g * w1[:, 1] * w2[:, 1]
        )

    def norm(self, pts, w):
        return np.sqrt(np.maximum(self.inner(pts, w, w), 0.0))

    # -- geodesic ODE --------------------------------------------------

    def _ode_rhs(self, y):
        u, v, p, q = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        g1_11, g1_12, g1_22, g2_11, g2_12, g2_22 = self.christoffels(u, v)
        out = np.empty_like(y)
        out[:, 0] = p
        out[:, 1] = q
        out[:, 2] = -(g1_11 * p * p + 2 * g1_12 * p * q + g1_22 * q * q)
        out[:, 3] = -(g2_11 * p * p + 2 * g2_12 * p * q + g2_22 * q * q)
        return out

    def _integrate(self, y):
        """Adaptive embedded RK4(5) over t in [0, 1] for a batch, in place.

        Every row carries its own time and step size and accepts or rejects
        its own step (Hairer, Norsett & Wanner, Solving ODEs I, II.4); only
        unfinished rows are evaluated.  All arithmetic is row-wise, so a
        trajectory gives bitwise the same result alone as in any batch.
        The first stage is evaluated once; after that each step reuses the
        last stage of the row's previous accepted step (FSAL, Dormand & Prince
        1980), so a trajectory of n steps costs 1 + 6 n evaluations.
        """
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            # checked before the first RHS call, which would warn on such a state
            raise _non_finite_state(y[~finite][0], 0.0)
        t = np.zeros(len(y))
        h = np.full(len(y), 0.1)
        k1 = self._ode_rhs(y)
        live = np.arange(len(y))
        while len(live):
            live = self._step(y, t, h, k1, live)
        return y

    def _step(self, y, t, h, k1, live):
        """One step of the unfinished rows ``live``; returns those still unfinished.

        ``k1`` holds every row's first stage, the RHS at its current state;
        accepted rows replace theirs with the seventh stage.  That stage is
        exactly the RHS at the new state: its coefficients are the 5th-order
        weights, ``_combine`` skips their zero terms, and the stage is summed
        and added to ``yl`` in the same order as ``y5``, so both are the same
        floats.  A function of its own, so that the stages of a step are freed
        before the next step allocates its own.
        """
        full = len(live) == len(y)
        yl = y if full else y[live]
        rest = 1.0 - t[live]
        last = h[live] >= rest
        hl = np.where(last, rest, h[live])[:, None]
        k = [k1 if full else k1[live]]
        for i in range(1, 7):
            stage = _combine(_DP_A[i], k)
            stage *= hl
            stage += yl
            k.append(self._ode_rhs(stage))
        y5 = yl + hl * _combine(_DP_B5, k)
        scale = self.atol + self.rtol * np.maximum(np.abs(yl), np.abs(y5))
        e = hl * _combine(_DP_E, k) / scale
        err = np.sqrt((e[:, 0] ** 2 + e[:, 1] ** 2 + e[:, 2] ** 2 + e[:, 3] ** 2) / 4)
        if not np.all(np.isfinite(err)):
            # a NaN estimate would reject the step forever, and h never shrinks
            bad = live[~np.isfinite(err)][0]
            raise _non_finite_state(y[bad], t[bad])
        ok = err <= 1.0
        acc = live[ok]
        t[acc] = np.where(last[ok], 1.0, t[acc] + hl[ok, 0])
        y[acc] = y5[ok]
        k1[acc] = k[6][ok]
        out = ~self.contains(y5[ok, :2])
        if np.any(out):
            raise ChartEscapeError(float(t[acc[out][0]]))
        factor = np.where(err > 0, 0.9 * np.maximum(err, 1e-300) ** -0.2, 5.0)
        h[live] = hl[:, 0] * np.clip(factor, 0.2, 5.0)
        live = live[t[live] < 1.0]
        if np.any(h[live] < 1e-14):
            raise DomainError("geodesic integrator step size underflow")
        return live

    def _flat_exit_parameter(self, pts, disp) -> float:
        """Earliest boundary-crossing fraction of straight chart segments."""
        u_min, u_max, v_min, v_max = self.chart
        best = 1.0
        for p, d in zip(pts, disp):
            for coord, lo, hi in ((0, u_min, u_max), (1, v_min, v_max)):
                if d[coord] > 0 and p[coord] + d[coord] > hi:
                    best = min(best, (hi - p[coord]) / d[coord])
                elif d[coord] < 0 and p[coord] + d[coord] < lo:
                    best = min(best, (lo - p[coord]) / d[coord])
        return best

    # -- batched geodesic operations ------------------------------------

    def exp_many(self, pts, vels, t=1.0):
        """Geodesic endpoints exp_p(t w) for a batch of (p, w)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vels = np.atleast_2d(np.asarray(vels, dtype=float))
        pts, vels = np.broadcast_arrays(pts, vels)
        if self.flat or t == 0.0:
            out = pts + t * vels
            bad = ~self.contains(out)
            if np.any(bad):
                raise ChartEscapeError(self._flat_exit_parameter(pts[bad], t * vels[bad]))
            return out
        y = self._integrate(np.concatenate([pts, t * vels], axis=1))
        return y[:, :2].copy()

    def log_many(self, pts, targets, tol=DEFAULT_SHOOT_TOL, max_iter=DEFAULT_SHOOT_MAXITER):
        """Initial velocities w with exp_p(w) = q, batched Newton shooting.

        Seeded from the chart chord, which is exact on the flat model; the
        2x2 Jacobian is finite-differenced and refreshed each iteration (the
        problems are tiny and well conditioned on convex working domains).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        pts, targets = np.broadcast_arrays(pts, targets)
        w = targets - pts
        res = self.exp_many(pts, w) - targets
        res_norm = np.hypot(res[:, 0], res[:, 1])
        active = res_norm > tol
        for iteration in range(max_iter):
            if not np.any(active):
                return w
            idx = slice(None) if np.all(active) else np.flatnonzero(active)
            w[idx] -= self._newton_step(pts[idx], w[idx], res[idx], targets[idx])
            res[idx] = self.exp_many(pts[idx], w[idx]) - targets[idx]
            res_norm = np.hypot(res[:, 0], res[:, 1])
            active = res_norm > tol
        raise ShootingConvergenceError(float(np.max(res_norm)), max_iter)

    def _newton_step(self, pts, w, res, targets):
        """Shooting update for velocities w with residuals res = exp(w) - q.

        The 2x2 Jacobian of exp is finite-differenced row by row; both
        perturbed velocity sets go through one ``exp_many`` pass of 2N rows,
        which gives the same columns as two passes, since rows are solved
        independently.
        """
        n = len(w)
        eps = 1e-7 * (np.hypot(w[:, 0], w[:, 1]) + 1e-3)
        base = res + targets
        w_eps = np.vstack([w, w])
        w_eps[:n, 0] += eps
        w_eps[n:, 1] += eps
        x = self.exp_many(np.vstack([pts, pts]), w_eps)
        cols = (x - np.vstack([base, base])) / np.concatenate([eps, eps])[:, None]
        (j11, j21), (j12, j22) = cols[:n].T, cols[n:].T
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dw1 = (j22 * res[:, 0] - j12 * res[:, 1]) / det
        dw2 = (-j21 * res[:, 0] + j11 * res[:, 1]) / det
        return np.column_stack([dw1, dw2])

    def distance_many(self, pts, targets, **kwargs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = self.log_many(pts, targets, **kwargs)
        return self.norm(pts, w)

    def midpoint_many(self, pts, targets, **kwargs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if self.flat:
            return 0.5 * (pts + targets)
        w = self.log_many(pts, targets, **kwargs)
        return self.exp_many(pts, w, 0.5)

    def closed_form_distance(self, p, q):
        """Exact distance for built-in models; None when unavailable."""
        if self._closed_form_distance is None:
            return None
        return float(
            self._closed_form_distance(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        )


def jacobi_field(phi, t, s, h, surface):
    """Central-difference variation field of a triangle parametrization.

    ``phi(t, s)`` must return a chart point; the derivative with respect to
    the family parameter s is estimated with step h and its norm is taken in
    the surface metric at phi(t, s).
    Returns ``(vector, norm)``.
    """
    if h <= 0 or h > 1e-4:
        raise DomainError("step h must lie in (0, 1e-4]")
    if not (0 < s - h and s + h <= 1.0):
        raise DomainError("s +/- h must stay inside (0, 1]")
    if not (0.0 <= t <= 1.0):
        raise DomainError("t must lie in [0, 1]")
    hi = np.asarray(phi(t, s + h), dtype=float)
    lo = np.asarray(phi(t, s - h), dtype=float)
    vec = (hi - lo) / (2.0 * h)
    at = np.asarray(phi(t, s), dtype=float)
    norm = float(surface.norm(at[None, :], vec[None, :])[0])
    return vec, norm


# -- built-in models ---------------------------------------------------


def _conformal_surface(kind, half_width, factor, k, dist) -> SurfaceModel:
    """Model of ds^2 = lam^2 (du^2 + dv^2), curvature k, on a square chart.

    ``factor(u, v)`` returns lam^2 and its partials in u and v.  With
    E = G = lam^2 and F = 0 the general Christoffel formula reduces to the
    symbols a, b, -a, -b, a, b below, the same floats for nonzero partials.
    """

    def metric(u, v):
        e = factor(u, v)[0]
        return e, np.zeros_like(e), e

    def christoffels(u, v):
        e, e_u, e_v = factor(u, v)
        w2 = 2.0 * (e * e)
        a = (e * e_u) / w2
        b = (e * e_v) / w2
        return a, b, -a, -b, a, b

    def curvature(u, v):
        return np.full_like(u, k)

    chart = (-half_width, half_width, -half_width, half_width)
    return SurfaceModel(
        kind, chart, metric, curvature, christoffels=christoffels, closed_form_distance=dist, spec=kind
    )


def euclidean_surface() -> SurfaceModel:
    def factor(u, v):
        z = np.zeros_like(np.asarray(u, dtype=float))
        return z + 1.0, z, z

    def dist(p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])

    return _conformal_surface(EUCLIDEAN, 50.0, factor, 0.0, dist)


def _sphere_embed(p):
    rho2 = p[0] * p[0] + p[1] * p[1]
    denom = 1.0 + rho2
    return np.array([2 * p[0] / denom, 2 * p[1] / denom, (1 - rho2) / denom])


def unit_sphere_surface() -> SurfaceModel:
    """Unit sphere under stereographic projection from the south pole.

    The chart origin is the north pole; the unit chart circle is the
    equator.  ds^2 = 4 (du^2 + dv^2) / (1 + u^2 + v^2)^2, K = +1.
    """

    def factor(u, v):
        d = 1.0 + u * u + v * v
        base = -16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    def dist(p, q):
        chord = np.linalg.norm(_sphere_embed(p) - _sphere_embed(q))
        return 2.0 * math.asin(min(1.0, chord / 2.0))

    return _conformal_surface(SPHERE, 1.8, factor, 1.0, dist)


def poincare_disk_surface() -> SurfaceModel:
    """Poincare disk, chart restricted to the square of half width 0.7
    inside the unit disk.

    ds^2 = 4 (du^2 + dv^2) / (1 - u^2 - v^2)^2, K = -1.
    """

    def factor(u, v):
        d = 1.0 - u * u - v * v
        base = 16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    def dist(p, q):
        dp = 1.0 - p[0] * p[0] - p[1] * p[1]
        dq = 1.0 - q[0] * q[0] - q[1] * q[1]
        delta2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        return 2.0 * math.asinh(math.sqrt(delta2 / (dp * dq)))

    return _conformal_surface(HYPERBOLIC, 0.7, factor, -1.0, dist)


def _brioschi_curvature(metric, step=1e-4):
    """Gaussian curvature from metric samples alone (finite differences)."""

    def curvature(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        h = step

        def m(du, dv):
            return metric(u + du * h, v + dv * h)

        e0, f0, g0 = m(0, 0)
        e_u = (m(1, 0)[0] - m(-1, 0)[0]) / (2 * h)
        e_v = (m(0, 1)[0] - m(0, -1)[0]) / (2 * h)
        g_u = (m(1, 0)[2] - m(-1, 0)[2]) / (2 * h)
        g_v = (m(0, 1)[2] - m(0, -1)[2]) / (2 * h)
        f_u = (m(1, 0)[1] - m(-1, 0)[1]) / (2 * h)
        f_v = (m(0, 1)[1] - m(0, -1)[1]) / (2 * h)
        e_vv = (m(0, 1)[0] - 2 * e0 + m(0, -1)[0]) / (h * h)
        g_uu = (m(1, 0)[2] - 2 * g0 + m(-1, 0)[2]) / (h * h)
        f_uv = (m(1, 1)[1] - m(1, -1)[1] - m(-1, 1)[1] + m(-1, -1)[1]) / (4 * h * h)

        a = -0.5 * e_vv + f_uv - 0.5 * g_uu
        det1 = (
            a * (e0 * g0 - f0 * f0)
            - 0.5 * e_u * ((f_v - 0.5 * g_u) * g0 - f0 * 0.5 * g_v)
            + (f_u - 0.5 * e_v) * ((f_v - 0.5 * g_u) * f0 - e0 * 0.5 * g_v)
        )
        det2 = (
            0.0 * (e0 * g0 - f0 * f0)
            - 0.5 * e_v * (0.5 * e_v * g0 - f0 * 0.5 * g_u)
            + 0.5 * g_u * (0.5 * e_v * f0 - e0 * 0.5 * g_u)
        )
        w = e0 * g0 - f0 * f0
        return (det1 - det2) / (w * w)

    return curvature


_CHART_KEYS = ("u_min", "u_max", "v_min", "v_max")
_METRIC_KEYS = ("E", "F", "G")


def surface_from_json(doc) -> SurfaceModel:
    """Build a custom surface from a JSON document (dict or JSON text).

    Expected keys: ``chart`` with u_min/u_max/v_min/v_max, ``metric`` with
    expression strings E, F, G, and optionally ``curvature`` as an
    expression (finite-difference Brioschi curvature is used otherwise) and
    ``name``.  Any other key, at the top level or inside ``chart`` or
    ``metric``, is an error.
    """
    import json as _json

    if isinstance(doc, str):
        doc = _json.loads(doc)
    if not isinstance(doc, dict):
        raise DomainError("custom surface document must be an object")
    extra = doc.keys() - {"chart", "metric", "curvature", "name"}
    if extra:
        raise DomainError(f"custom surface has unknown keys {sorted(extra)}")
    try:
        chart, exprs = doc["chart"], doc["metric"]
        if not (isinstance(chart, dict) and isinstance(exprs, dict)):
            raise DomainError("custom surface 'chart' and 'metric' must be objects")
        for field, obj, keys in (("chart", chart, _CHART_KEYS), ("metric", exprs, _METRIC_KEYS)):
            extra = obj.keys() - keys
            if extra:
                raise DomainError(f"custom surface {field} has unknown keys {sorted(extra)}")
        rect = tuple(chart[k] for k in _CHART_KEYS)
        sources = [*(exprs[k] for k in _METRIC_KEYS), doc.get("curvature", "")]
    except KeyError as exc:
        raise DomainError(f"custom surface document missing key: {exc}") from exc
    # abs(x) compares an int exactly, so 10**400 fails as Infinity does
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in rect):
        raise DomainError(f"custom surface chart bounds must be finite numbers: {rect}")
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise DomainError("custom surface name must be a string")
    if not all(isinstance(x, str) for x in sources):
        raise DomainError("custom surface metric and curvature expressions must be strings")
    e_fn, f_fn, g_fn = (compile_expression(x) for x in sources[:3])

    def metric(u, v):
        return e_fn(u, v), f_fn(u, v), g_fn(u, v)

    if "curvature" in doc:
        k_fn = compile_expression(doc["curvature"])

        def curvature(u, v):
            return k_fn(u, v)

    else:
        curvature = _brioschi_curvature(metric)

    return SurfaceModel(CUSTOM, rect, metric, curvature, name=name, spec=copy.deepcopy(doc))


_BUILTIN_FACTORIES = {
    EUCLIDEAN: euclidean_surface,
    SPHERE: unit_sphere_surface,
    HYPERBOLIC: poincare_disk_surface,
}


def make_surface(spec) -> SurfaceModel:
    """Surface from a built-in kind name or a custom-metric JSON document."""
    if isinstance(spec, SurfaceModel):
        return spec
    if isinstance(spec, str) and spec in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[spec]()
    if isinstance(spec, dict):
        return surface_from_json(spec)
    raise DomainError(f"unknown surface spec: {spec!r}")
