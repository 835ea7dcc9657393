"""Geodesic triangle regions, their parametrization and its inversion.

A triangle region is three chart vertices joined by minimal geodesics,
with cached side lengths.  The family parametrization ``phi(t, s)`` sweeps
the region by cross geodesics between points at fractional arclength s on
the two sides leaving a chosen apex; ``t`` is the affine parameter along
each cross geodesic.

Planar comparison angles, computed from the side lengths alone, drive the
delta-non-degeneracy tests used throughout subdivision certification.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvexityGuardError, DegenerateTriangleError, DomainError
from .surfaces import SurfaceModel, _solve_2x2

# Curved-surface working-domain guard.  |K| <= 1 puts the conjugate-point
# scale at pi; triangles are kept an order of magnitude below it so the
# convexity hypothesis holds with margin.
CONVEXITY_GUARD = 0.4


def _check_sides(a1, a2, a3):
    sides = np.array([a1, a2, a3], dtype=float)
    # accepting comparisons, so that NaN fails them
    if not np.all(sides > 0):
        raise DegenerateTriangleError(f"side lengths must be positive: {sides}")
    s = np.sort(sides)
    if not s[2] < s[0] + s[1]:
        raise DegenerateTriangleError(
            f"strict triangle inequality fails for sides {tuple(sides)}"
        )
    return sides


def planar_angles_batch(sides: np.ndarray) -> np.ndarray:
    """Vectorized planar comparison angles for an (N, 3) side-length array."""
    a = sides[:, 0]
    b = sides[:, 1]
    c = sides[:, 2]
    with np.errstate(invalid="raise"):
        al1 = np.arccos(np.clip((b * b + c * c - a * a) / (2 * b * c), -1, 1))
        al2 = np.arccos(np.clip((a * a + c * c - b * b) / (2 * a * c), -1, 1))
        al3 = np.arccos(np.clip((a * a + b * b - c * c) / (2 * a * b), -1, 1))
    return np.stack([al1, al2, al3], axis=1)


def is_delta_nondegenerate(sides, delta):
    """True when every planar comparison angle lies in (delta, pi - delta).

    Returns ``(flag, angles)``, angle i opposite side i, from the same law
    of cosines as every cell's test.
    """
    if not (0 < delta < math.pi / 2):
        raise DomainError("delta must lie in (0, pi/2)")
    angles = planar_angles_batch(_check_sides(*sides)[None, :])[0]
    flag = bool(np.all(angles > delta) and np.all(angles < math.pi - delta))
    return flag, angles


# Iteration limit of the parameter recovery behind invert_phi_many.
INVERT_MAXITER = 60


def _chart_coords(apex, p_j, p_k, xs):
    """Chart-barycentric coordinates (a, b) with
    xs = apex + a (p_k - apex) + b (p_j - apex).

    The frame points are either single (2,) points or (N, 2) rows matching xs.
    """
    e_k = p_k - apex
    e_j = p_j - apex
    det = e_k[..., 0] * e_j[..., 1] - e_k[..., 1] * e_j[..., 0]
    rhs = xs - apex
    a = (rhs[:, 0] * e_j[..., 1] - rhs[:, 1] * e_j[..., 0]) / det
    b = (e_k[..., 0] * rhs[:, 1] - e_k[..., 1] * rhs[:, 0]) / det
    return a, b


def _frames(surface, apex, p_j, p_k):
    """Apex frame table (apex, p_j, p_k, w_to_k, w_to_j), one frame per row.

    The side directions w_to_k = log(apex, p_k) and w_to_j = log(apex, p_j)
    of all frames come out of one solve.
    """
    n = len(apex)
    w = surface.log_many(np.vstack([apex, apex]), np.vstack([p_k, p_j]))
    return apex, p_j, p_k, w[:n], w[n:]


def _side_points(surface, frames, rows, ss):
    """exp(apex, s w_to_k) and exp(apex, s w_to_j) for the distinct (frames[rows], ss).

    Returns the two point arrays, one row per distinct (frame, s) pair in
    sorted order, and each input row's index into them.
    """
    apex, _, _, w_to_k, w_to_j = frames
    order = np.lexsort((ss, rows))
    r, s = rows[order], ss[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (s[1:] != s[:-1])
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    r, s = r[first], s[first, None]
    n = len(r)
    sides = surface.exp_many(
        np.vstack([apex[r], apex[r]]), np.vstack([w_to_k[r] * s, w_to_j[r] * s])
    )
    return sides[:n], sides[n:], inv


def _phi_rows(surface, frames, rows, ts, ss):
    """Parametrization points, point i in the apex frame frames[rows[i]].

    Point i is the one at parameter ts[i] on the cross geodesic between
    exp(apex, ss[i] w_to_k) and exp(apex, ss[i] w_to_j).  Points with the
    same frame and s share that geodesic, which is shot once.  Every
    geodesic is solved independently, so the points of many cells can share
    one pass.
    """
    side_a, side_b, inv = _side_points(surface, frames, rows, ss)
    w_cross = surface.log_many(side_a, side_b)
    return surface.exp_many(side_a[inv], w_cross[inv] * ts[:, None])


def _pair_distances(surface, frames, cells, ts, ss):
    """Distances d(x, y) and d(f x, f y), as an array (2, len(cells), pairs).

    ``cells`` are rows of the frame table; ``ts`` and ``ss`` list the
    parameters of x, y, f x and f y of every pair.  On curved charts all
    points of all cells go through one parametrization pass, and both
    distance sets through one shooting solve.  On the flat model each
    distance is the norm of the displacement phi(x) - phi(y) in the apex
    frame; the halved-parameter displacement is then exactly half of the
    other in floating point, so flat deviations vanish identically.
    """
    m, n = len(cells), len(ts) // 4
    if surface.flat:
        apex, p_j, p_k = frames[:3]
        e_k = (p_k - apex)[cells][:, None, None, :]
        e_j = (p_j - apex)[cells][:, None, None, :]
        # [x, y] parameters of the pair sets [(x, y), (f x, f y)]
        t, s = ts.reshape(2, 2, n), ss.reshape(2, 2, n)
        ca = s[:, 0] * (1 - t[:, 0]) - s[:, 1] * (1 - t[:, 1])
        cb = s[:, 0] * t[:, 0] - s[:, 1] * t[:, 1]
        dx = ca[..., None] * e_k + cb[..., None] * e_j
        return np.hypot(dx[..., 0], dx[..., 1]).transpose(1, 0, 2)
    pts = _phi_rows(surface, frames, np.repeat(cells, 4 * n), np.tile(ts, m), np.tile(ss, m))
    pts = pts.reshape(m, 4, n, 2)
    starts = np.concatenate([pts[:, 0], pts[:, 2]]).reshape(-1, 2)
    ends = np.concatenate([pts[:, 1], pts[:, 3]]).reshape(-1, 2)
    return surface.distance_many(starts, ends).reshape(2, m, n)


def _invert_rows(surface, frames, rows, xs, tol, max_iter=INVERT_MAXITER, image_scale=None):
    """Recover (t, s) with _phi_rows(surface, frames, rows, t, s) = xs.

    Seeded from chart-barycentric coordinates, then a damped quasi-Newton
    iteration with the chart-chord Jacobian: the parametrization is a mild
    distortion of affine coordinates on the working domains, so the fixed
    flat Jacobian contracts.  A point whose residual did not decrease takes
    a half step.  Only unconverged points are evaluated; ``tol`` may be one
    value or one per point.  Returns (T, S, residuals, images): the images
    are the points at (T, image_scale * S), evaluated in the same passes,
    or None without ``image_scale``.

    The flat model is exact: a point whose chart-barycentric coordinates
    lie in [-1e-12, 1 + 1e-12] has residual 0 and its image is the exact
    homothety; any other point has residual inf, since its distance from
    the region can fall below any tolerance a caller applies, where flat
    containment allows rounding slack only.
    """
    apex, p_j, p_k = frames[:3]
    a, b = _chart_coords(apex[rows], p_j[rows], p_k[rows], xs)
    ss = a + b
    safe = np.where(np.abs(ss) < 1e-300, 1.0, ss)
    ts = np.clip(np.where(np.abs(ss) < 1e-300, 0.0, b / safe), 0.0, 1.0)
    ss = np.clip(ss, 1e-12, 1.0)
    if surface.flat:
        inside = (a >= -1e-12) & (b >= -1e-12) & (a + b <= 1 + 1e-12)
        images = None if image_scale is None else apex[rows] + image_scale * (xs - apex[rows])
        return ts, ss, np.where(inside, 0.0, np.inf), images
    tol = np.broadcast_to(tol, (len(xs),))
    e_k = (p_k - apex)[rows]
    e_j = (p_j - apex)[rows]
    resid = np.full(len(xs), np.inf)
    images = None if image_scale is None else np.empty_like(xs)
    live = np.arange(len(xs))
    for _ in range(max_iter):
        if image_scale is None:
            cur = _phi_rows(surface, frames, rows[live], ts[live], ss[live])
        else:
            m = len(live)
            both = _phi_rows(
                surface,
                frames,
                np.concatenate([rows[live], rows[live]]),
                np.concatenate([ts[live], ts[live]]),
                np.concatenate([ss[live], image_scale * ss[live]]),
            )
            cur, images[live] = both[:m], both[m:]
        r = cur - xs[live]
        res = np.hypot(r[:, 0], r[:, 1])
        prev = resid[live]
        resid[live] = res
        keep = res > tol[live]
        live, r, res, prev = live[keep], r[keep], res[keep], prev[keep]
        if not len(live):
            break
        t, s = ts[live], ss[live]
        d_dt = s[:, None] * (e_j[live] - e_k[live])
        d_ds = (1 - t)[:, None] * e_k[live] + t[:, None] * e_j[live]
        # the (2, 2, N) chord Jacobian, columns d/dt and d/ds
        dt, ds = _solve_2x2(np.stack([d_dt.T, d_ds.T], axis=1), r).T
        damp = np.where(res < prev, 1.0, 0.5)
        ts[live] = np.clip(t - damp * dt, 0.0, 1.0)
        ss[live] = np.clip(s - damp * ds, 1e-12, 1.0)
    return ts, ss, resid, images


def _triangle_vertices(surface, vertices) -> np.ndarray:
    """Three points inside the chart of ``surface``, as a read-only (3, 2) float array."""
    try:
        verts = np.array(vertices, dtype=float)
    except ValueError as exc:
        raise DomainError(f"a triangle needs three chart points: {exc}") from exc
    if verts.shape != (3, 2):
        raise DomainError(f"a triangle needs three chart points, shape (3, 2), not {verts.shape}")
    if not surface.contains(verts).all():
        raise DomainError(f"base vertices must lie inside the chart {surface.chart}, not {verts.tolist()}")
    verts.flags.writeable = False
    return verts


def _apex_row(vertex_index) -> int:
    """Row of apex ``vertex_index`` in a region's frame table."""
    if vertex_index not in (1, 2, 3):
        raise DomainError("vertex index must be 1, 2 or 3")
    return vertex_index - 1


class GeodesicTriangleRegion:
    """A triangle region bounded by three minimal geodesics.

    Side ``i`` joins the two vertices other than ``p_i``; orientation is
    side1: p2->p3, side2: p3->p1, side3: p1->p2.  The diameter of a
    geodesic triangle in a convex domain is its longest side.
    """

    def __init__(self, surface: SurfaceModel, vertices, side_lengths):
        self.surface = surface
        self.vertices = _triangle_vertices(surface, vertices)
        self.side_lengths = np.asarray(side_lengths, dtype=float)
        _check_sides(*self.side_lengths)
        if not surface.flat and self.diam > CONVEXITY_GUARD:
            raise ConvexityGuardError(
                f"triangle diameter {self.diam:.4g} exceeds the curved-surface "
                f"guard {CONVEXITY_GUARD}"
            )
        self._frame_cache = None

    @classmethod
    def from_vertices(cls, surface, p1, p2, p3) -> "GeodesicTriangleRegion":
        pts = _triangle_vertices(surface, (p1, p2, p3))
        return cls(surface, pts, surface.distance_many(pts[[1, 2, 0]], pts[[2, 0, 1]]))

    @property
    def diam(self) -> float:
        return float(np.max(self.side_lengths))

    # -- parametrization ----------------------------------------------

    def _frame_table(self):
        """Cached frame table of apexes 1, 2, 3 (rows 0, 1, 2), see _frames."""
        if self._frame_cache is None:
            v = self.vertices
            self._frame_cache = _frames(self.surface, v, v[[1, 2, 0]], v[[2, 0, 1]])
        return self._frame_cache

    def phi_many(self, vertex_index: int, ts, ss) -> np.ndarray:
        """Batched parametrization points for arrays of (t, s)."""
        ts = np.asarray(ts, dtype=float)
        ss = np.asarray(ss, dtype=float)
        if np.any((ts < 0) | (ts > 1)) or np.any((ss < 0) | (ss > 1)):
            raise DomainError("parameters must satisfy t in [0,1], s in [0,1]")
        row = _apex_row(vertex_index)
        n = max(len(np.atleast_1d(ts)), len(np.atleast_1d(ss)))
        ts = np.broadcast_to(np.atleast_1d(ts), (n,))
        ss = np.broadcast_to(np.atleast_1d(ss), (n,))
        rows = np.full(n, row)
        return _phi_rows(self.surface, self._frame_table(), rows, ts, ss)

    def invert_phi_many(self, vertex_index: int, xs, tol=1e-9, max_iter=INVERT_MAXITER):
        """Vectorized parameter recovery; returns (T, S, residuals).

        Parameters are clamped to the closed square, so points outside the
        region end with a nonzero residual rather than an error.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        rows = np.full(len(xs), _apex_row(vertex_index))
        return _invert_rows(self.surface, self._frame_table(), rows, xs, tol, max_iter)[:3]
