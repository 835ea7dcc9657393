"""Geodesic triangle regions and comparison-triangle geometry.

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvexityGuardError,
    DegenerateTriangleError,
    DomainError,
    InversionError,
)
from .surfaces import SurfaceModel, SurfacePoint, _as_point_array

# Curved-surface working-domain guard.  |K| <= 1 puts the conjugate-point
# scale at pi; triangles are kept an order of magnitude below it so the
# convexity hypothesis holds with margin.
CONVEXITY_GUARD = 0.4

PLANE = "plane"


def _check_sides(a1, a2, a3):
    sides = np.array([a1, a2, a3], dtype=float)
    if np.any(sides <= 0):
        raise DegenerateTriangleError(f"side lengths must be positive: {sides}")
    s = np.sort(sides)
    if s[2] >= s[0] + s[1]:
        raise DegenerateTriangleError(
            f"strict triangle inequality fails for sides {tuple(sides)}"
        )
    return sides


def _clamped_arccos(x, slack=1e-9):
    if x > 1.0 + slack or x < -1.0 - slack:
        raise DomainError(f"law-of-cosines value {x!r} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, x)))


@dataclass(frozen=True)
class ComparisonAngles:
    """Angles of the comparison triangle with the same side lengths.

    ``alpha_i`` sits opposite side ``a_i``; all angles in radians.
    """

    space: str
    alpha1: float
    alpha2: float
    alpha3: float

    @property
    def alphas(self) -> np.ndarray:
        return np.array([self.alpha1, self.alpha2, self.alpha3])


def planar_comparison_angles(a1, a2, a3) -> ComparisonAngles:
    """Law-of-cosines angles of the Euclidean comparison triangle."""
    a, b, c = _check_sides(a1, a2, a3)
    al1 = _clamped_arccos((b * b + c * c - a * a) / (2 * b * c))
    al2 = _clamped_arccos((a * a + c * c - b * b) / (2 * a * c))
    al3 = _clamped_arccos((a * a + b * b - c * c) / (2 * a * b))
    return ComparisonAngles(PLANE, al1, al2, al3)


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

    Returns ``(flag, ComparisonAngles)``.
    """
    if not (0 < delta < math.pi / 2):
        raise DomainError("delta must lie in (0, pi/2)")
    angles = planar_comparison_angles(*sides)
    flag = bool(
        np.all(angles.alphas > delta) and np.all(angles.alphas < math.pi - delta)
    )
    return flag, angles


# Iteration limit of the parameter recovery behind invert_phi.
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
        jdet = d_dt[:, 0] * d_ds[:, 1] - d_dt[:, 1] * d_ds[:, 0]
        jdet = np.where(np.abs(jdet) < 1e-300, 1e-300, jdet)
        dt = (r[:, 0] * d_ds[:, 1] - r[:, 1] * d_ds[:, 0]) / jdet
        ds = (d_dt[:, 0] * r[:, 1] - d_dt[:, 1] * r[:, 0]) / jdet
        damp = np.where(res < prev, 1.0, 0.5)
        ts[live] = np.clip(t - damp * dt, 0.0, 1.0)
        ss[live] = np.clip(s - damp * ds, 1e-12, 1.0)
    return ts, ss, resid, images


class GeodesicTriangleRegion:
    """A triangle region bounded by three minimal geodesics.

    Side ``i`` joins the two vertices other than ``p_i``; orientation is
    side1: p2->p3, side2: p3->p1, side3: p1->p2.  The diameter of a
    geodesic triangle in a convex domain is its longest side.
    """

    def __init__(self, surface: SurfaceModel, vertices, side_lengths):
        self.surface = surface
        self.vertices = tuple(
            SurfacePoint(float(p[0]), float(p[1]))
            for p in (_as_point_array(v) for v in vertices)
        )
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
        pts = np.vstack([_as_point_array(p) for p in (p1, p2, p3)])
        starts = pts[[1, 2, 0]]
        ends = pts[[2, 0, 1]]
        lengths = surface.distance_many(starts, ends)
        return cls(surface, pts, lengths)

    @property
    def diam(self) -> float:
        return float(np.max(self.side_lengths))

    def vertex_array(self) -> np.ndarray:
        return np.vstack([p.as_array() for p in self.vertices])

    # -- parametrization ----------------------------------------------

    def _apex_frame(self, vertex_index: int):
        if vertex_index not in (1, 2, 3):
            raise DomainError("vertex index must be 1, 2 or 3")
        i = vertex_index - 1
        j = (i + 1) % 3  # plays p2 of the apex frame
        k = (i + 2) % 3  # plays p3 of the apex frame
        pts = self.vertex_array()
        return pts[i], pts[j], pts[k]

    def _frame_table(self):
        """Cached frame table of apexes 1, 2, 3 (rows 0, 1, 2), see _frames."""
        if self._frame_cache is None:
            pts = self.vertex_array()
            self._frame_cache = _frames(self.surface, pts, pts[[1, 2, 0]], pts[[2, 0, 1]])
        return self._frame_cache

    def phi_many(self, vertex_index: int, ts, ss) -> np.ndarray:
        """Batched parametrization points for arrays of (t, s)."""
        ts = np.asarray(ts, dtype=float)
        ss = np.asarray(ss, dtype=float)
        if np.any((ts < 0) | (ts > 1)) or np.any((ss < 0) | (ss > 1)):
            raise DomainError("parameters must satisfy t in [0,1], s in [0,1]")
        self._apex_frame(vertex_index)
        n = max(len(np.atleast_1d(ts)), len(np.atleast_1d(ss)))
        ts = np.broadcast_to(np.atleast_1d(ts), (n,))
        ss = np.broadcast_to(np.atleast_1d(ss), (n,))
        rows = np.full(n, vertex_index - 1)
        return _phi_rows(self.surface, self._frame_table(), rows, ts, ss)

    def phi(self, vertex_index: int, t: float, s: float) -> SurfacePoint:
        """Point on the cross geodesic at parameters (t, s) from the apex."""
        out = self.phi_many(vertex_index, [t], [s])[0]
        return SurfacePoint(float(out[0]), float(out[1]))

    def invert_phi(self, vertex_index: int, x, tol=1e-9, max_iter=INVERT_MAXITER):
        """Recover (t, s) with phi(t, s) = x; returns (t, s, residual).

        Raises InversionError when the recovery stalls above ``tol``.
        """
        x = _as_point_array(x)
        ts, ss, resid = self.invert_phi_many(vertex_index, x[None, :], tol, max_iter)
        if resid[0] > tol:
            raise InversionError(
                f"parameter recovery stalled at residual {resid[0]:.3e} for x={tuple(x.tolist())}"
            )
        return float(ts[0]), float(ss[0]), float(resid[0])

    def invert_phi_many(self, vertex_index: int, xs, tol=1e-9, max_iter=INVERT_MAXITER):
        """Vectorized parameter recovery; returns (T, S, residuals).

        Parameters are clamped to the closed square, so points outside the
        region end with a nonzero residual rather than an error.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self._apex_frame(vertex_index)
        rows = np.full(len(xs), vertex_index - 1)
        return _invert_rows(self.surface, self._frame_table(), rows, xs, tol, max_iter)[:3]
