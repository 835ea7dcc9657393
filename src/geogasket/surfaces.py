"""Riemannian 2D chart surfaces with geodesic oracles.

A surface is a chart rectangle with a first fundamental form (E, F, G),
Gaussian curvature, and geodesic operations: exponential map by adaptive
Dormand-Prince integration of the geodesic ODE, logarithm map by
Newton-Broyden shooting, distances and midpoints.

The geodesic ODE's right-hand side calls one acceleration callable per
evaluation.  The built-in models are conformal, ds^2 = lam^2 (du^2 + dv^2):
each supplies lam^2, the gradient (a, b) of log lam and its constant
curvature in closed form, and its symbols (a, b, -a, -b, a, b), their
partials (from the Hessian of log lam) and its accelerations are built
from that one gradient.  A custom metric gets its entries, symbols, their
partials and curvature exactly, from the functions that
``expressions.compile_metric`` compiles from its E, F and G when the
surface is built, and its acceleration is the quadratic form of the
symbols.

The log map's shooting starts from the normal-coordinate expansion of exp
carried one order further than the symbols alone give: a third-order seed,
whose residual is O(|d|^4) in the chord d, and a second-order starting
Jacobian, which reads the symbols' partials (see ``SurfaceModel.log_many``).
Each Newton pass starts a row at the first step its previous pass accepted.

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


# Dormand-Prince RK45 tableau; the geodesic ODE is autonomous, so no nodes.
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
    through ``scratch`` before it is added.  ``np.add.reduce`` over the
    stage axis is excluded too: numpy fixes no order for a reduction's
    sum (it may sum in pairwise blocks chosen by the memory layout), so
    a column's bits could follow its batch's shape.
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


def _symbol_matrices(gamma, w):
    """The ``(2, 2, N)`` matrices Gamma(w, .), [i, j] = G^i_jk w^k, of the
    ``(2, 3, N)`` symbols ``gamma`` ([i] = G^i_11, G^i_12, G^i_22) and the
    ``(N, 2)`` vectors ``w``."""
    return gamma[:, :2] * w[:, 0] + gamma[:, 1:] * w[:, 1]


def _apply(mat, x):
    """The ``(N, 2)`` products of ``(2, 2, N)`` matrices and ``(N, 2)`` vectors."""
    return (mat[:, 0] * x[:, 0] + mat[:, 1] * x[:, 1]).T


def _starting_jacobian(gamma, partials, w):
    """The second-order Jacobian of exp at ``w`` (see ``SurfaceModel.log_many``)
    as ``(2, 2, N)`` matrices, from the ``(2, 3, N)`` symbols ``gamma`` and
    their ``(2, 2, 3, N)`` partials, [r] the partials along coordinate r."""
    gw = _symbol_matrices(gamma, w)
    gww = _apply(gw, w)
    # column r: the partial of Gamma(w, w) along coordinate r
    dww = np.stack([_apply(_symbol_matrices(dg, w), w).T for dg in partials], axis=1)
    # Gamma(w, Gamma(w, .)): the product gw gw, entry-wise in N, so that no row's bits follow its batch
    square = gw[:, :1] * gw[0] + gw[:, 1:] * gw[1]
    return np.eye(2)[:, :, None] - gw - dww / 6 + (_symbol_matrices(gamma, gww) + 2 * square) / 3


class _Batch:
    """Storage of one ``_integrate`` call, allocated once for its batch.

    States are columns of ``(4, n)`` arrays, rows u, v, p, q, one column per
    unfinished geodesic, and ``rows`` holds the input row of each column.
    Every such array (states, the seven stages, trial and error estimate)
    is the first 4n values of its own slab, so numpy sees only contiguous
    arrays whatever the number of live columns; the state slab is the
    caller's ``y``, and the block holds the other nine and ``out``.  No
    slab is kept for scratch: ``_step`` writes each stage combination's
    products through the stage about to be evaluated, the error
    estimate's through k[1], whose error weight is 0, and |y| and |trial|
    into k[2] and k[3], which that step reads no more.  A finished column
    is copied to ``out`` at its input row, and the live columns are packed
    into the smaller shape.  Each geodesic's first trial step is its entry
    of ``steps`` (input row order; 1 is the whole interval), and ``steps``
    then holds the first step each geodesic accepts.
    The step controller shrinks a step where the error estimate asks, and
    a short geodesic finishes in one step.
    """

    def __init__(self, y, steps):
        size = y.shape[1]
        self._states = y.reshape(-1)  # current states, overwritten
        # one block, so that the allocator's adaptive thresholds keep its
        # pages for the next call of the same size instead of returning them
        self._block = np.empty((10, 4 * size))
        self.out = self._block[9].reshape(4, size)  # end states, in input row order
        self.t = np.zeros(size)
        # each row's first trial step, then its first accepted one, in input row order
        self.steps = steps
        self.h = self.steps.copy()
        self.rows = np.arange(size)
        self._shape(size)

    def _shape(self, n):
        """View the first 4n values of each slab as ``(4, n)``."""
        self.n = n
        self.y = self._states[: 4 * n].reshape(4, n)
        work = self._block[:9, : 4 * n].reshape(9, 4, n)
        self.k = work[:7]  # stages; k[0] is the RHS at the current state
        self.trial = work[7]  # stage argument; after the 7th, the new state
        self.err = work[8]  # the error estimate

    def first(self, mask):
        """The column, of those in ``mask``, with the earliest input row."""
        cols = np.flatnonzero(mask)
        return cols[np.argmin(self.rows[cols])]

    def retire(self, done):
        """Store the columns ``done`` (a mask) and pack the rest."""
        self.out[:, self.rows[done]] = self.y[:, done]
        live = ~done
        old = self.y, self.k[0]
        self.t, self.h, self.rows = self.t[live], self.h[live], self.rows[live]
        self._shape(len(self.rows))
        # row by row, in order, so that only one row's live values are
        # copied at a time: a packed row overlaps no old row after its own
        for old_rows, new_rows in zip(old, (self.y, self.k[0])):
            for src, dst in zip(old_rows, new_rows):
                dst[...] = src[live]


def _chart_grid(chart):
    """The 21 x 21 grid over the closed ``chart`` rectangle on which surfaces are checked, as two flat arrays."""
    u_min, u_max, v_min, v_max = chart
    uu, vv = np.meshgrid(np.linspace(u_min, u_max, 21), np.linspace(v_min, v_max, 21))
    return uu.ravel(), vv.ravel()


class SurfaceModel:
    """A 2D chart with metric, curvature and geodesic oracle.

    Parameters
    ----------
    spec : str or dict
        The built-in name or custom document ``make_surface`` builds it
        from; ``kind`` is that name, or ``custom`` for a document.
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
    christoffel_partials : callable
        ``(u, v) -> twelve arrays``: the u-partials of the six symbols, in
        the order above, then their v-partials.
    acceleration : callable or None
        ``acceleration(y, out)`` writes the geodesic accelerations u'' and v''
        of the ``(4, n)`` states ``y`` (rows u, v, p, q) into rows 2 and 3 of
        the ``(4, n)`` array ``out``, whose rows 0 and 1 it may use as
        scratch.  By default, the quadratic form of ``christoffels``.

    The metric must be positive definite, the symbols finite and |K| at
    most 1 on ``_chart_grid``, or ``DomainError`` is raised.
    ``curvature_bound`` is the largest |K| on that grid, the kappa of the
    audit's envelope (``gasket.calibrate_gauge``).
    """

    def __init__(self, spec, chart, metric, curvature, christoffels, christoffel_partials, acceleration=None):
        self.spec = spec
        self.kind = spec if isinstance(spec, str) else CUSTOM
        self.chart = tuple(float(x) for x in chart)
        if not (self.chart[0] < self.chart[1] and self.chart[2] < self.chart[3]):
            raise DomainError("chart rectangle is empty")
        self._metric = metric
        self._christoffels = christoffels
        self._christoffel_partials = christoffel_partials
        self._curvature = curvature
        self.acceleration = self._symbol_acceleration if acceleration is None else acceleration
        self.flat = self.kind == EUCLIDEAN
        self.curvature_bound = self._check_admissible()

    # -- validation ----------------------------------------------------

    def _check_admissible(self) -> float:
        """``DomainError`` unless the surface is admissible (see the class);
        returns the largest |K| on ``_chart_grid``."""
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
        kappa = float(np.max(np.abs(k)))
        if not kappa <= 1.0 + 1e-9:
            raise DomainError(f"|K| exceeds 1 on the chart grid (max {kappa:.6g})")
        return kappa

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

    def christoffel_partials(self, u, v):
        """The symbols' first partials, twelve arrays: d/du of G1_11, ...,
        G2_22, then d/dv of the same six."""
        return self._christoffel_partials(u, v)

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

    def _symbol_acceleration(self, y, out):
        """Accelerations of the ``(4, n)`` states ``y`` into rows 2 and 3 of
        ``out``, from the symbols read once: each is
        -((c11 p) p + ((2 c12) p) q + (c22 q) q), summed in that order; rows
        0 and 1 of ``out`` serve as scratch.
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

    def _ode_rhs(self, y, out):
        """Geodesic ODE right-hand side of the ``(4, n)`` states ``y``, into
        ``out``: the model's ``acceleration`` into rows 2 and 3, then the
        velocities p and q into rows 0 and 1, which served it as scratch.
        """
        self.acceleration(y, out)
        out[0] = y[2]
        out[1] = y[3]

    def _integrate(self, y, steps):
        """Adaptive embedded RK4(5) over t in [0, 1] for ``(4, N)`` states ``y``.

        Returns the end states in the same layout.  ``steps`` holds each
        geodesic's first trial step, and each is overwritten with the first
        step its geodesic accepted (see ``_Batch``).  ``y`` is overwritten:
        it is the batch's state slab, whose first 4n values hold the n
        unfinished states (see ``_Batch``).
        Every geodesic carries its own time and step size and accepts or
        rejects its own step (Hairer, Norsett & Wanner, Solving ODEs I, II.4);
        only unfinished ones are evaluated.  All arithmetic is column-wise, so
        a trajectory gives bitwise the same result alone as in any batch.
        The first stage is evaluated once; after that each step reuses the
        last stage of the geodesic's previous accepted step (FSAL, Dormand &
        Prince 1980), so a trajectory of n steps costs 1 + 6 n evaluations.
        Numpy stays silent in the stage evaluations: a trial step may reach
        further than the geodesic's own steps, and a non-finite error
        estimate, from such a step or from a non-finite starting state,
        raises ``DomainError`` naming the state it came from.
        """
        batch = _Batch(y, steps)
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
        y, t, h, k, trial, e = b.y, b.t, b.h, b.k, b.trial, b.err
        rest = 1.0 - t
        last = h >= rest
        hl = np.where(last, rest, h)
        for i in range(1, 7):
            # k[i] is free until the RHS writes it
            _combine(_DP_A[i], k, trial, k[i])
            trial *= hl
            trial += y
            self._ode_rhs(trial, k[i])
        # k[1], whose error weight is 0, and k[2] and k[3] are read no more
        _combine(_DP_E, k, e, k[1])
        e *= hl
        np.abs(y, out=k[2])
        np.abs(trial, out=k[3])
        scale = np.maximum(k[2], k[3], out=k[2])
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
        opening = ok & (t == 0.0)
        b.steps[b.rows[opening]] = hl[opening]
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
        stalled = b.h < 1e-14
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
        return self._exp(pts, vels, np.ones(len(pts)))

    def _exp(self, pts, vels, steps):
        """``exp_many`` of ``(n, 2)`` arrays, each row started at its entry
        of ``steps``, which then holds the first step the row accepted."""
        if self.flat:
            out = pts + vels
            bad = ~self.contains(out)
            if np.any(bad):
                raise ChartEscapeError(self._flat_exit_parameter(pts[bad], vels[bad]))
            return out
        y = np.empty((4, len(pts)))
        y[:2] = pts.T
        y[2:] = vels.T
        return self._integrate(y, steps)[:2].T.copy()

    def log_many(self, pts, targets, tol=DEFAULT_SHOOT_TOL, max_iter=DEFAULT_SHOOT_MAXITER):
        """Initial velocities w with exp_p(w) = q, batched Newton-Broyden shooting.

        The normal-coordinate expansion of exp (do Carmo, Riemannian
        Geometry, ch. 3) differentiates the geodesic equation x'' =
        -Gamma(x', x') twice: exp_p(w) = p + w - Gamma_p(w, w)/2
        - (d_w Gamma)_p(w, w)/6 + Gamma_p(w, Gamma_p(w, w))/3 + O(|w|^4).
        With d = q - p, the symbols are read once per row at m = p + d/3,
        where Gamma_p(w, w)/2 = Gamma_m(w, w)/2 - (d_d Gamma)(w, w)/6 + O(|w|^4)
        cancels the derivative term.  Inverting what is left gives the seed
        w0 = d + Gamma_m(d, d)/2 + Gamma_m(d, Gamma_m(d, d))/6, whose residual
        is O(|d|^4), and differentiating the expansion in w, with the same
        cancellation, gives the starting Jacobian
        J delta = delta - Gamma_m(w, delta) - (d_delta Gamma)_m(w, w)/6
        + [Gamma_m(delta, Gamma_m(w, w)) + 2 Gamma_m(w, Gamma_m(w, delta))]/3,
        second order in w, from the model's ``christoffel_partials`` at m.
        J is formed after the seed pass, for the rows still above ``tol``,
        so no exp pass is spent on it.  Each iteration corrects J by
        Broyden's secant update (Dennis & Schnabel, Numerical Methods for
        Unconstrained Optimization, 8.1), so long geodesics do not stall.
        The seed pass starts each geodesic at the whole-interval step, so a
        short one finishes in one step; each later pass starts a row at the
        first step its previous pass accepted.  On the flat model Gamma is 0
        and the seed q - p is exact.  Rows stop once their residual is within
        ``tol``; a row still above it after ``max_iter`` iterations raises
        ``ShootingConvergenceError`` naming the worst one.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        pts, targets = np.broadcast_arrays(pts, targets)
        # silent, as the integrator is: it names a non-finite seed's state
        with np.errstate(all="ignore"):
            d = targets - pts
            m = pts + d / 3
            # gamma[i] holds (G^i_11, G^i_12, G^i_22)
            gamma = np.array(self.christoffels(m[:, 0], m[:, 1])).reshape(2, 3, -1)
            g = _symbol_matrices(gamma, d)
            gdd = _apply(g, d)
            w = d + 0.5 * gdd + _apply(g, gdd) / 6
        steps = np.ones(len(pts))
        res = self._exp(pts, w, steps) - targets
        res_norm = np.hypot(res[:, 0], res[:, 1])
        active = res_norm > tol
        if not np.any(active):
            return w
        idx = np.flatnonzero(active)
        jac = np.empty((2, 2, len(pts)))
        with np.errstate(all="ignore"):
            partials = np.array(self.christoffel_partials(m[idx, 0], m[idx, 1])).reshape(2, 2, 3, -1)
            jac[:, :, idx] = _starting_jacobian(gamma[:, :, idx], partials, w[idx])
        for _ in range(max_iter):
            idx = slice(None) if np.all(active) else np.flatnonzero(active)
            step = _solve_2x2(jac[:, :, idx], res[idx])
            w[idx] -= step
            h0 = steps[idx]
            res[idx] = self._exp(pts[idx], w[idx], h0) - targets[idx]
            steps[idx] = h0
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

    def midpoint_many(self, pts, targets, logs=None):
        """Geodesic midpoints exp_p(log_p(q) / 2); ``logs``, the rows' log_p(q)
        when already solved, saves that solve.  The flat model reads neither."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if self.flat:
            return 0.5 * (pts + targets)
        w = self.log_many(pts, targets) if logs is None else logs
        return self.exp_many(pts, 0.5 * w)


# -- built-in models ---------------------------------------------------


def _conformal_surface(kind, half_width, lam2, factor, k) -> SurfaceModel:
    """Model of ds^2 = lam^2 (du^2 + dv^2), curvature k, on a square chart.

    ``lam2(u, v)`` returns lam^2 and ``factor(u, v)``, as a new array, the c
    of grad log lam = (a, b) = c (u, v).  With E = G = lam^2 and F = 0 the
    general Christoffel formula reduces to the symbols a, b, -a, -b, a, b,
    and the geodesic equations to u'' = -(a s + b m) and v'' = b s - a m,
    with s = p^2 - q^2 and m = 2 p q.  Each built-in c is a function of
    u^2 + v^2 whose gradient is c^2 (u, v), so the symbols' partials come
    from the Hessian of log lam: a_u = c + c^2 u^2, a_v = b_u = c^2 u v and
    b_v = c + c^2 v^2.
    """

    def metric(u, v):
        e = lam2(u, v)
        return e, np.zeros_like(e), e

    def grad(u, v):
        c = factor(u, v)
        return c * u, c * v

    def christoffels(u, v):
        a, b = grad(u, v)
        return a, b, -a, -b, a, b

    def christoffel_partials(u, v):
        c = factor(u, v)
        c2 = c * c
        a_u, a_v, b_v = c + c2 * u * u, c2 * u * v, c + c2 * v * v
        return a_u, a_v, -a_u, -a_v, a_u, a_v, a_v, b_v, -a_v, -b_v, a_v, b_v

    def acceleration(y, out):
        # from -s and -m, so that u'' = a (-s) + b (-m) and v'' = a (-m) - b (-s)
        # need no negation; rows 0 and 1 of out hold them
        u, v, p, q = y
        a, b = grad(u, v)
        ns, nm, acc_u, acc_v = out
        np.multiply(q, q, out=ns)
        np.multiply(p, p, out=nm)
        ns -= nm
        np.multiply(p, q, out=nm)
        nm *= -2.0
        np.multiply(a, ns, out=acc_u)
        np.multiply(a, nm, out=acc_v)
        np.multiply(b, ns, out=a)
        acc_v -= a
        b *= nm
        acc_u += b

    def curvature(u, v):
        return np.full_like(u, k)

    chart = (-half_width, half_width, -half_width, half_width)
    return SurfaceModel(kind, chart, metric, curvature, christoffels, christoffel_partials, acceleration)


def euclidean_surface() -> SurfaceModel:
    def lam2(u, v):
        return np.ones_like(np.asarray(u, dtype=float))

    def factor(u, v):
        return np.zeros_like(np.asarray(u, dtype=float))

    return _conformal_surface(EUCLIDEAN, 50.0, lam2, factor, 0.0)


def unit_sphere_surface() -> SurfaceModel:
    """Unit sphere under stereographic projection from the south pole.

    The chart origin is the north pole; the unit chart circle is the
    equator.  ds^2 = 4 (du^2 + dv^2) / (1 + u^2 + v^2)^2, K = +1, and
    grad log lam = c (u, v) with c = -2 / (1 + u^2 + v^2).
    """

    def lam2(u, v):
        d = 1.0 + u * u + v * v
        return 4.0 / (d * d)

    def factor(u, v):
        return -2.0 / (1.0 + u * u + v * v)

    return _conformal_surface(SPHERE, 1.8, lam2, factor, 1.0)


def poincare_disk_surface() -> SurfaceModel:
    """Poincare disk, chart restricted to the square of half width 0.7
    inside the unit disk.

    ds^2 = 4 (du^2 + dv^2) / (1 - u^2 - v^2)^2, K = -1, and
    grad log lam = c (u, v) with c = 2 / (1 - u^2 - v^2).
    """

    def lam2(u, v):
        d = 1.0 - u * u - v * v
        return 4.0 / (d * d)

    def factor(u, v):
        return 2.0 / (1.0 - u * u - v * v)

    return _conformal_surface(HYPERBOLIC, 0.7, lam2, factor, -1.0)


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
    metric, christoffels, curvature, christoffel_partials = compile_metric(*sources[:3])
    surface = SurfaceModel(copy.deepcopy(doc), rect, metric, curvature, christoffels, christoffel_partials)
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
