"""Riemannian 2D chart surfaces with geodesic oracles.

A surface is a chart rectangle with a first fundamental form (E, F, G),
Gaussian curvature, and geodesic operations: exponential map by adaptive
Dormand-Prince integration of the geodesic ODE, logarithm map by secant
shooting, distances and midpoints.

The geodesic ODE reads the Christoffel symbols once per right-hand-side
evaluation.  The built-in models are conformal and supply them and their
constant curvature in closed form; a custom metric gets its entries,
symbols and curvature exactly, from the functions that
``expressions.compile_metric`` compiles from its E, F and G when the
surface is built.

All geodesic solvers are vectorized: every entry point (``exp_many``,
``log_many``, ...) operates on ``(N, 2)`` arrays of chart coordinates, one
geodesic per row.  On the flat model exp and midpoints are exact affine
arithmetic and the shooting seed is already the log map; the ODE path is
reserved for curved charts so that curved results can be checked against
closed forms.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .errors import ChartEscapeError, DomainError, ExpressionError, ShootingConvergenceError, json_numbers, json_object
from .expressions import compile_expression, compile_metric

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


def _step_underflow(reason, state, t) -> DomainError:
    return DomainError(
        f"geodesic integrator step size underflow: {reason} {state.tolist()} at t = {t:.6g}"
    )


def _combine(coeffs, k, out, scratch):
    """Stage combination sum_i coeffs[i] k[i] into ``out``, column-wise.

    Spelled out term by term rather than as a matrix product, whose
    summation order may depend on the batch size; each product goes
    through ``scratch`` before it is added.
    """
    np.multiply(coeffs[0], k[0], out=out)
    for c, ki in zip(coeffs[1:], k[1:]):
        if c:
            np.multiply(c, ki, out=scratch)
            out += scratch


def _solve_2x2(jac, res):
    """Solutions d of jac d = res for ``(2, 2, N)`` matrices and ``(N, 2)`` vectors."""
    (j11, j12), (j21, j22) = jac
    det = j11 * j22 - j12 * j21
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    d1 = (j22 * res[:, 0] - j12 * res[:, 1]) / det
    d2 = (-j21 * res[:, 0] + j11 * res[:, 1]) / det
    return np.column_stack([d1, d2])


class _Batch:
    """Storage of one ``_integrate`` call, allocated once for its batch.

    States are columns of ``(4, N)`` arrays, rows u, v, p, q, so the states
    of the first n columns are the view ``[:, :n]``.  The first ``n`` columns
    hold the unfinished geodesics and ``rows`` the input row of each column.
    A finished column is copied to ``out`` and its place refilled from the
    unfinished tail, so no step gathers its live columns.  Every geodesic's
    first trial step spans the whole interval, h = 1: the step controller
    shrinks it where the error estimate asks, and a short geodesic finishes
    in one step.
    """

    def __init__(self, y):
        size = y.shape[1]
        self.y = y  # current states, overwritten
        self.t = np.zeros(size)
        self.h = np.ones(size)
        self.rows = np.arange(size)
        self.n = size
        # one block, so that the allocator's adaptive thresholds keep its
        # pages for the next call of the same size instead of returning them
        block = np.empty((12, 4, size))
        self.k = block[:7]  # stages; k[0] is the RHS at the current state
        self.trial = block[7]  # stage argument; after the 7th, the new state
        self.scratch = block[8:11]
        self.out = block[11]  # end states, in input row order

    def first(self, mask):
        """The column, of those in ``mask``, with the earliest input row."""
        cols = np.flatnonzero(mask)
        return cols[np.argmin(self.rows[cols])]

    def retire(self, done):
        """Store the columns ``done`` (a mask over the first n) and compact the rest."""
        n = self.n
        self.out[:, self.rows[:n][done]] = self.y[:, :n][:, done]
        m = n - np.count_nonzero(done)
        holes = np.flatnonzero(done[:m])
        movers = m + np.flatnonzero(~done[m:])
        for a in (self.y, self.k[0]):
            a[:, holes] = a[:, movers]
        for a in (self.t, self.h, self.rows):
            a[holes] = a[movers]
        self.n = m


def _chart_grid(chart):
    """The 21 x 21 grid over the closed ``chart`` rectangle on which surfaces are checked, as two flat arrays."""
    u_min, u_max, v_min, v_max = chart
    uu, vv = np.meshgrid(np.linspace(u_min, u_max, 21), np.linspace(v_min, v_max, 21))
    return uu.ravel(), vv.ravel()


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
    curvature : callable
        ``(u, v) -> K`` vectorized.
    christoffels : callable
        ``(u, v) -> (G1_11, G1_12, G1_22, G2_11, G2_12, G2_22)``, six arrays
        of the shape of u and v: a built-in model's closed form, or the
        function compiled from a custom metric's expressions.
    spec : str, dict or None
        The built-in name or custom document ``make_surface`` builds it from.

    The metric must be positive definite, the symbols finite and |K| at
    most 1 on ``_chart_grid``, or ``DomainError`` is raised.
    """

    def __init__(self, kind, chart, metric, curvature, christoffels, spec=None):
        self.kind = kind
        self.chart = tuple(float(x) for x in chart)
        if not (self.chart[0] < self.chart[1] and self.chart[2] < self.chart[3]):
            raise DomainError("chart rectangle is empty")
        self._metric = metric
        self._christoffels = christoffels
        self._curvature = curvature
        self.spec = spec
        self.flat = kind == EUCLIDEAN
        self._check_admissible()

    # -- validation ----------------------------------------------------

    def _check_admissible(self):
        uu, vv = _chart_grid(self.chart)
        # the checks below reject non-finite values, so numpy need not warn of them
        with np.errstate(all="ignore"):
            e, f, g = self.metric(uu, vv)
            # accepting comparisons, so that NaN fails them
            if not (np.all(e > 0) and np.all(e * g - f * f > 0)):
                raise DomainError("metric is not positive definite on the chart grid")
            finite = np.isfinite(self.christoffels(uu, vv)).all(axis=0)
            if not finite.all():
                i = np.argmin(finite)
                raise DomainError(
                    f"Christoffel symbols are not finite on the chart grid at ({uu[i]:.6g}, {vv[i]:.6g})"
                )
            k = self.curvature(uu, vv)
        finite = np.isfinite(k)
        if not finite.all():
            i = np.argmin(finite)
            raise DomainError(f"curvature is not finite on the chart grid at ({uu[i]:.6g}, {vv[i]:.6g})")
        if not np.all(np.abs(k) <= 1.0 + 1e-9):
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

        Order: G1_11, G1_12, G1_22, G2_11, G2_12, G2_22.  A built-in
        model's closed form, or a custom metric's exact symbols.
        """
        return self._christoffels(u, v)

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

    def _ode_rhs(self, y, out):
        """Geodesic ODE right-hand side of the ``(4, n)`` states ``y``, into ``out``.

        Each acceleration is -((c11 p) p + ((2 c12) p) q + (c22 q) q), summed
        in that order; rows 0 and 1 of ``out`` serve as scratch before they
        receive p and q.
        """
        u, v, p, q = y
        c = self.christoffels(u, v)
        for acc, tmp, (c11, c12, c22) in ((out[2], out[0], c[:3]), (out[3], out[1], c[3:])):
            np.multiply(c11, p, out=acc)
            acc *= p
            np.multiply(2, c12, out=tmp)
            tmp *= p
            tmp *= q
            acc += tmp
            np.multiply(c22, q, out=tmp)
            tmp *= q
            acc += tmp
            np.negative(acc, out=acc)
        out[0] = p
        out[1] = q

    def _integrate(self, y):
        """Adaptive embedded RK4(5) over t in [0, 1] for ``(4, N)`` states ``y``.

        Returns the end states in the same layout; ``y`` is overwritten.
        Every geodesic carries its own time and step size and accepts or
        rejects its own step (Hairer, Norsett & Wanner, Solving ODEs I, II.4);
        only unfinished ones are evaluated.  All arithmetic is column-wise, so
        a trajectory gives bitwise the same result alone as in any batch.
        The first stage is evaluated once; after that each step reuses the
        last stage of the geodesic's previous accepted step (FSAL, Dormand &
        Prince 1980), so a trajectory of n steps costs 1 + 6 n evaluations;
        the first trial step spans the whole interval (see ``_Batch``).
        Numpy stays silent in the stage evaluations: a trial step may reach
        further than the geodesic's own steps, and a non-finite error
        estimate, from such a step or from a non-finite starting state,
        raises ``DomainError`` naming the state it came from.
        """
        batch = _Batch(y)
        with np.errstate(all="ignore"):
            self._ode_rhs(batch.y, batch.k[0])
            while batch.n:
                self._step(batch)
        return batch.out

    def _step(self, b):
        """One step of the ``b.n`` unfinished columns of batch ``b``.

        ``k[0]`` holds every column's first stage, the RHS at its current
        state; accepted columns replace theirs with the seventh stage.  The
        seventh stage's argument is the 5th-order solution: its coefficients
        are the 5th-order weights, and ``_combine`` skips their zero terms.
        So that stage is exactly the RHS at the new state.
        """
        n = b.n
        y, t, h, k, trial = b.y[:, :n], b.t[:n], b.h[:n], b.k[:, :, :n], b.trial[:, :n]
        e, w1, w2 = b.scratch[:, :, :n]
        rest = 1.0 - t
        last = h >= rest
        hl = np.where(last, rest, h)
        for i in range(1, 7):
            _combine(_DP_A[i], k, trial, w1)
            trial *= hl
            trial += y
            self._ode_rhs(trial, k[i])
        _combine(_DP_E, k, e, w1)
        e *= hl
        np.abs(y, out=w1)
        np.abs(trial, out=w2)
        scale = np.maximum(w1, w2, out=w1)
        scale *= DEFAULT_RTOL
        scale += DEFAULT_ATOL
        e /= scale
        np.square(e, out=e)
        err = e[0] + e[1]
        err += e[2]
        err += e[3]
        err /= 4
        np.sqrt(err, out=err)
        if not np.all(np.isfinite(err)):
            # a NaN estimate would reject the step forever, and h never shrinks
            bad = b.first(~np.isfinite(err))
            raise _step_underflow("non-finite state from", y[:, bad], t[bad])
        ok = err <= 1.0
        np.copyto(t, np.where(last, 1.0, t + hl), where=ok)
        np.copyto(y, trial, where=ok)
        np.copyto(k[0], k[6], where=ok)
        out = ok & ~self.contains(trial[:2].T)
        if np.any(out):
            raise ChartEscapeError(float(t[b.first(out)]))
        factor = np.where(err > 0, 0.9 * np.maximum(err, 1e-300) ** -0.2, 5.0)
        h[:] = hl * np.clip(factor, 0.2, 5.0)
        live = t < 1.0
        if not live.all():
            b.retire(~live)
        stalled = b.h[:b.n] < 1e-14
        if np.any(stalled):
            col = b.first(stalled)
            raise _step_underflow("stalled at", b.y[:, col], b.t[col])

    def _flat_exit_parameter(self, pts, disp) -> float:
        """Earliest boundary-crossing fraction of straight chart segments."""
        u_min, u_max, v_min, v_max = self.chart
        lo, hi = np.array([u_min, v_min]), np.array([u_max, v_max])
        ends = pts + disp
        # per coordinate, the bound the segment heads for, if it passes it
        crosses = np.where(disp > 0, ends > hi, (disp < 0) & (ends < lo))
        bound = np.where(disp > 0, hi, lo)
        fractions = np.divide(bound - pts, disp, out=np.ones_like(disp), where=crosses)
        return float(np.min(fractions, initial=1.0))

    # -- batched geodesic operations ------------------------------------

    def exp_many(self, pts, vels):
        """Geodesic endpoints exp_p(w) for a batch of (p, w)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vels = np.atleast_2d(np.asarray(vels, dtype=float))
        pts, vels = np.broadcast_arrays(pts, vels)
        if self.flat:
            out = pts + vels
            bad = ~self.contains(out)
            if np.any(bad):
                raise ChartEscapeError(self._flat_exit_parameter(pts[bad], vels[bad]))
            return out
        y = np.empty((4, len(pts)))
        y[:2] = pts.T
        y[2:] = vels.T
        return self._integrate(y)[:2].T.copy()

    def log_many(self, pts, targets, tol=DEFAULT_SHOOT_TOL, max_iter=DEFAULT_SHOOT_MAXITER):
        """Initial velocities w with exp_p(w) = q, batched secant shooting.

        With d = q - p and the Christoffel symbols Gamma read once per row at
        m = p + d/3, the normal-coordinate expansion exp_p(w) = p + w
        - Gamma_p(w, w)/2 + O(|w|^3) (do Carmo, Riemannian Geometry, ch. 3)
        gives the seed w0 = d + Gamma_m(d, d)/2 (at m, Gamma also cancels the
        third-order term's derivative part) and the Jacobian J = I - Gamma_m(w0, .), so no exp
        pass is spent on a Jacobian.  Each iteration corrects J by Broyden's
        secant update (Dennis & Schnabel, Numerical Methods for Unconstrained
        Optimization, 8.1), so long geodesics do not stall.  On the flat model
        Gamma is 0 and the seed q - p is exact.  Rows stop once their residual
        is within ``tol``; a row still above it after ``max_iter`` iterations
        raises ``ShootingConvergenceError`` naming the worst one.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        pts, targets = np.broadcast_arrays(pts, targets)
        # silent, as the integrator is: it names a non-finite seed's state
        with np.errstate(all="ignore"):
            d = targets - pts
            m = pts + d / 3
            # gamma[i] holds (G^i_11, G^i_12, G^i_22); gamma_dot(w)[i, j] = G^i_jk w^k
            gamma = np.array(self.christoffels(m[:, 0], m[:, 1])).reshape(2, 3, -1)

            def gamma_dot(w):
                return gamma[:, :2] * w[:, 0] + gamma[:, 1:] * w[:, 1]

            g = gamma_dot(d)
            w = d + 0.5 * (g[:, 0] * d[:, 0] + g[:, 1] * d[:, 1]).T
            jac = np.eye(2)[:, :, None] - gamma_dot(w)
        res = self.exp_many(pts, w) - targets
        res_norm = np.hypot(res[:, 0], res[:, 1])
        active = res_norm > tol
        if not np.any(active):
            return w
        for _ in range(max_iter):
            idx = slice(None) if np.all(active) else np.flatnonzero(active)
            step = _solve_2x2(jac[:, :, idx], res[idx])
            w[idx] -= step
            res[idx] = self.exp_many(pts[idx], w[idx]) - targets[idx]
            # Broyden: J step was the old residual, so J += r (-step)^T / |step|^2
            jac[:, :, idx] -= res[idx].T[:, None] * (step.T / np.sum(step * step, axis=1))
            res_norm = np.hypot(res[:, 0], res[:, 1])
            active = res_norm > tol
            if not np.any(active):
                return w
        worst = np.argmax(res_norm)
        point, target = tuple(pts[worst].tolist()), tuple(targets[worst].tolist())
        raise ShootingConvergenceError(float(res_norm[worst]), max_iter, point, target)

    def distance_many(self, pts, targets):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = self.log_many(pts, targets)
        return self.norm(pts, w)

    def midpoint_many(self, pts, targets):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if self.flat:
            return 0.5 * (pts + targets)
        w = self.log_many(pts, targets)
        return self.exp_many(pts, 0.5 * w)


# -- built-in models ---------------------------------------------------


def _conformal_surface(kind, half_width, factor, k) -> SurfaceModel:
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
    return SurfaceModel(kind, chart, metric, curvature, christoffels=christoffels, spec=kind)


def euclidean_surface() -> SurfaceModel:
    def factor(u, v):
        z = np.zeros_like(np.asarray(u, dtype=float))
        return z + 1.0, z, z

    return _conformal_surface(EUCLIDEAN, 50.0, factor, 0.0)


def unit_sphere_surface() -> SurfaceModel:
    """Unit sphere under stereographic projection from the south pole.

    The chart origin is the north pole; the unit chart circle is the
    equator.  ds^2 = 4 (du^2 + dv^2) / (1 + u^2 + v^2)^2, K = +1.
    """

    def factor(u, v):
        d = 1.0 + u * u + v * v
        base = -16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    return _conformal_surface(SPHERE, 1.8, factor, 1.0)


def poincare_disk_surface() -> SurfaceModel:
    """Poincare disk, chart restricted to the square of half width 0.7
    inside the unit disk.

    ds^2 = 4 (du^2 + dv^2) / (1 - u^2 - v^2)^2, K = -1.
    """

    def factor(u, v):
        d = 1.0 - u * u - v * v
        base = 16.0 / (d * d * d)
        return 4.0 / (d * d), base * u, base * v

    return _conformal_surface(HYPERBOLIC, 0.7, factor, -1.0)


_CHART_KEYS = ("u_min", "u_max", "v_min", "v_max")
_METRIC_KEYS = ("E", "F", "G")


def surface_from_json(doc) -> SurfaceModel:
    """Build a custom surface from a JSON document (dict or JSON text).

    Expected keys: ``chart`` with u_min/u_max/v_min/v_max, ``metric`` with
    expression strings E, F, G, and optionally ``name`` and ``curvature``.
    Any other key, at the top level or inside ``chart`` or ``metric``, is an
    error.  The metric, its Christoffel symbols and its curvature are
    compiled from E, F and G once, here.  A declared ``curvature``
    expression is a cross-check: it must equal the compiled K within
    1e-9 max(1, |K|) on ``_chart_grid``, or ``DomainError`` names the point.
    An ``ExpressionError`` starts with the expression it is in.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    json_object(doc, ("chart", "metric"), "custom surface", optional=("curvature", "name"))
    chart = json_object(doc["chart"], _CHART_KEYS, "custom surface chart", optional=())
    exprs = json_object(doc["metric"], _METRIC_KEYS, "custom surface metric", optional=())
    rect = json_numbers([chart[k] for k in _CHART_KEYS], (4,), "custom surface chart bounds")
    sources = [*(exprs[k] for k in _METRIC_KEYS), doc.get("curvature", "")]
    if not isinstance(doc.get("name", ""), str):
        raise DomainError("custom surface name must be a string")
    if not all(isinstance(x, str) for x in sources):
        raise DomainError("custom surface metric and curvature expressions must be strings")
    try:
        declared = compile_expression(sources[3]) if "curvature" in doc else None
    except ExpressionError as exc:
        exc.args = (f"curvature: {exc}",)
        raise
    metric, christoffels, curvature = compile_metric(*sources[:3])
    surface = SurfaceModel(CUSTOM, rect, metric, curvature, christoffels, spec=copy.deepcopy(doc))
    if declared is not None:
        uu, vv = _chart_grid(surface.chart)
        with np.errstate(all="ignore"):
            k, stated = curvature(uu, vv), declared(uu, vv)
            off = ~(np.abs(stated - k) <= 1e-9 * np.maximum(1.0, np.abs(k)))
        if off.any():
            i = np.argmax(off)
            raise DomainError(
                f"declared curvature {stated[i]:.10g} differs from the metric's {k[i]:.10g} "
                f"at ({uu[i]:.6g}, {vv[i]:.6g})"
            )
    return surface


_BUILTIN_FACTORIES = {
    EUCLIDEAN: euclidean_surface,
    SPHERE: unit_sphere_surface,
    HYPERBOLIC: poincare_disk_surface,
}


def make_surface(spec) -> SurfaceModel:
    """Surface from a built-in kind name or a custom-metric JSON document."""
    if isinstance(spec, str) and spec in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[spec]()
    if isinstance(spec, dict):
        return surface_from_json(spec)
    raise DomainError(f"surface must be one of {', '.join(_BUILTIN_FACTORIES)} or a custom surface object, not {spec!r}")
