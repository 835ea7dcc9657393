"""Geodesic triangle regions, their parametrization and its inversion.

A triangle region is three chart vertices joined by minimal geodesics,
with their side lengths and, when known, side directions.  The family
parametrization ``phi(t, s)`` sweeps the region by cross geodesics between
points at fractional arclength s on the two sides leaving a chosen apex;
``t`` is the affine parameter along each cross geodesic.

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


def _band_failures(sides: np.ndarray, half: float):
    """Planar comparison angles of an (N, 3) side array, and the indices of
    the cells whose angles leave the open band (half, pi - half)."""
    angles = planar_angles_batch(sides)
    bad = np.any((angles <= half) | (angles >= math.pi - half), axis=1)
    return angles, np.flatnonzero(bad)


def is_delta_nondegenerate(sides, delta):
    """True when every planar comparison angle lies in (delta, pi - delta).

    Returns ``(flag, angles)``, angle i opposite side i, from the band test
    of every cell.
    """
    if not (0 < delta < math.pi / 2):
        raise DomainError("delta must lie in (0, pi/2)")
    angles, bad = _band_failures(_check_sides(*sides)[None, :], delta)
    return not len(bad), angles[0]


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


def _direction_table(surface, verts) -> np.ndarray:
    """Side directions of the triangles ``verts`` (N, 3, 2), out of one solve.

    Entry [p, a, 0] of the (N, 3, 2, 2) table is log(v_a, v_a+1) and entry
    [p, a, 1] is log(v_a, v_a+2), vertex indices mod 3, so row a holds both
    side directions at vertex a.
    """
    starts = np.repeat(verts, 2, axis=1).reshape(-1, 2)
    ends = verts[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
    return surface.log_many(starts, ends).reshape(len(verts), 3, 2, 2)


def _side_logs(table):
    """log(v_i+1, v_i+2), the direction of side i = 0, 1, 2, of each
    triangle of a direction table, as a (..., 3, 2) array."""
    return table[..., [1, 2, 0], 0, :]


def _frames(verts, table, apexes):
    """Apex frame table (apex, p_j, p_k, w_to_k, w_to_j), one frame per row.

    Frame r sits at vertex apexes[r] of the triangle verts[r] with direction
    table table[r] (see _direction_table): p_j and p_k are the next two
    vertices, w_to_k = log(apex, p_k) and w_to_j = log(apex, p_j).
    """
    rows = np.arange(len(apexes))
    apex, p_j, p_k = (verts[rows, (apexes + k) % 3] for k in range(3))
    return apex, p_j, p_k, table[rows, apexes, 1], table[rows, apexes, 0]


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


def _pair_distances(surface, frames, cells, ts, ss, more):
    """Distances d(x, y) and d(f x, f y), as an array (2, len(cells), pairs),
    and the points of ``more``.

    ``cells`` are rows of the frame table; ``ts`` and ``ss`` list the
    parameters of x, y, f x and f y of every pair.  On curved charts each
    distinct (t, s) of every cell goes once through one parametrization
    pass, and both distance sets through one shooting solve.  ``more`` is
    (rows, ts, ss) of further points of the frame table, solved in that
    pass; ``_phi_rows`` of them is the second result.  On the flat
    model each distance is the norm of the displacement phi(x) - phi(y) in
    the apex frame; the halved-parameter displacement is then exactly half
    of the other in floating point, so flat deviations vanish identically;
    ``more`` is not solved there, and the second result is None.
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
        return np.hypot(dx[..., 0], dx[..., 1]).transpose(1, 0, 2), None
    uniq, inv = np.unique(np.column_stack([ts, ss]), axis=0, return_inverse=True)
    k = m * len(uniq)
    more_rows, more_ts, more_ss = more
    pts = _phi_rows(
        surface,
        frames,
        np.concatenate([np.repeat(cells, len(uniq)), more_rows]),
        np.concatenate([np.tile(uniq[:, 0], m), more_ts]),
        np.concatenate([np.tile(uniq[:, 1], m), more_ss]),
    )
    pts, extra = pts[:k].reshape(m, len(uniq), 2)[:, inv.ravel()].reshape(m, 4, n, 2), pts[k:]
    starts = np.concatenate([pts[:, 0], pts[:, 2]]).reshape(-1, 2)
    ends = np.concatenate([pts[:, 1], pts[:, 3]]).reshape(-1, 2)
    return surface.distance_many(starts, ends).reshape(2, m, n), extra


def _invert_rows(surface, frames, rows, xs, tol, image_scale=None, start=None):
    """Recover (t, s) with _phi_rows(surface, frames, rows, t, s) = xs.

    Seeded from ``start``, an (N, 2) array of (t, s) with s in [1e-12, 1],
    or by default from chart-barycentric coordinates, then a damped
    quasi-Newton iteration with the chart-chord Jacobian: the
    parametrization is a mild distortion of affine coordinates on the
    working domains, so the fixed flat Jacobian contracts.  A point whose
    residual did not decrease takes a half step.  Only unconverged points
    are evaluated; ``tol`` may be one value or one per point.  Returns
    (T, S, residuals, images): the images are the points at
    (T, image_scale * S), evaluated in the same passes, or None without
    ``image_scale``.

    The flat model is exact and ignores ``start``: a point whose
    chart-barycentric coordinates lie in [-1e-12, 1 + 1e-12] has residual 0
    and its image is the exact homothety; any other point has residual inf,
    since its distance from the region can fall below any tolerance a
    caller applies, where flat containment allows rounding slack only.
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
    if start is not None:
        ts, ss = start.T.copy()
    tol = np.broadcast_to(tol, (len(xs),))
    e_k = (p_k - apex)[rows]
    e_j = (p_j - apex)[rows]
    resid = np.full(len(xs), np.inf)
    images = None if image_scale is None else np.empty_like(xs)
    live = np.arange(len(xs))
    for _ in range(INVERT_MAXITER):
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


def _floats(values, need: str) -> np.ndarray:
    """``values`` as a new float array, or DomainError saying ``need``."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{need}: {exc}") from exc


def _triangle_vertices(surface, vertices) -> np.ndarray:
    """Three points inside the chart of ``surface``, as a read-only (3, 2) float array."""
    verts = _floats(vertices, "a triangle needs three chart points")
    if verts.shape != (3, 2):
        raise DomainError(f"a triangle needs three chart points, shape (3, 2), not {verts.shape}")
    if not surface.contains(verts).all():
        raise DomainError(f"base vertices must lie inside the chart {surface.chart}, not {verts.tolist()}")
    verts.flags.writeable = False
    return verts


def _points(xs, what: str) -> np.ndarray:
    """``xs`` as an (N, 2) float array, ``[]`` as none, or DomainError naming ``what``."""
    pts = _floats(xs, f"{what} needs chart points of shape (N, 2)")
    pts = pts.reshape(0, 2) if pts.shape == (0,) else pts
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"{what} needs chart points of shape (N, 2), not {pts.shape}")
    return pts


def _apex_row(vertex_index) -> int:
    """Row of apex ``vertex_index`` in a region's frame table."""
    if not (np.issubdtype(type(vertex_index), np.integer) and vertex_index in (1, 2, 3)):
        raise DomainError(f"vertex index must be the int 1, 2 or 3, not {vertex_index!r}")
    return int(vertex_index) - 1


class GeodesicTriangleRegion:
    """A triangle region bounded by three minimal geodesics.

    Side ``i`` joins the two vertices other than ``p_i``; orientation is
    side1: p2->p3, side2: p3->p1, side3: p1->p2.  The diameter of a
    geodesic triangle in a convex domain is its longest side.
    ``directions`` is the region's (3, 2, 2) side-direction table, see
    ``_direction_table``, or None, when each parametrization solves its own.
    """

    def __init__(self, surface: SurfaceModel, vertices, side_lengths, directions=None):
        self.surface = surface
        self.vertices = _triangle_vertices(surface, vertices)
        self.side_lengths = np.asarray(side_lengths, dtype=float)
        _check_sides(*self.side_lengths)
        if not surface.flat and self.diam > CONVEXITY_GUARD:
            raise ConvexityGuardError(
                f"triangle diameter {self.diam:.4g} exceeds the curved-surface "
                f"guard {CONVEXITY_GUARD}"
            )
        self.directions = directions

    @classmethod
    def from_vertices(cls, surface, p1, p2, p3) -> "GeodesicTriangleRegion":
        """The region of three chart points; one solve gives its direction
        table, and side i is the length of the direction from vertex i + 1
        to vertex i + 2."""
        pts = _triangle_vertices(surface, (p1, p2, p3))
        table = _direction_table(surface, pts[None])[0]
        return cls(surface, pts, surface.norm(pts[[1, 2, 0]], _side_logs(table)), table)

    @property
    def diam(self) -> float:
        return float(np.max(self.side_lengths))

    # -- parametrization ----------------------------------------------

    def _frame_table(self):
        """Frame table of apexes 1, 2, 3 (rows 0, 1, 2), see _frames."""
        table = _direction_table(self.surface, self.vertices[None])[0] if self.directions is None else self.directions
        return _frames(np.broadcast_to(self.vertices, (3, 3, 2)), np.broadcast_to(table, (3, 3, 2, 2)), np.arange(3))

    def phi_many(self, vertex_index: int, ts, ss) -> np.ndarray:
        """Batched parametrization points for (t, s), each a number or a
        1-D array, two arrays of one length."""
        need = "phi_many needs ts and ss of one length, or numbers"
        ts, ss = np.atleast_1d(_floats(ts, need), _floats(ss, need))
        if ts.ndim != 1 or ss.ndim != 1 or len(ts) != len(ss) and 1 not in (len(ts), len(ss)):
            raise DomainError(f"{need}, not {ts.shape} and {ss.shape}")
        if np.any((ts < 0) | (ts > 1)) or np.any((ss < 0) | (ss > 1)):
            raise DomainError("parameters must satisfy t in [0,1], s in [0,1]")
        ts, ss = np.broadcast_arrays(ts, ss)
        return _phi_rows(self.surface, self._frame_table(), np.full(len(ts), _apex_row(vertex_index)), ts, ss)

    def invert_phi_many(self, vertex_index: int, xs, tol=1e-9):
        """Vectorized parameter recovery of the points ``xs``, (N, 2), or
        one point (2,); returns (T, S, residuals).

        Parameters are clamped to the closed square, so points outside the
        region end with a nonzero residual rather than an error.
        """
        xs = _floats(xs, "invert_phi_many needs chart points of shape (N, 2)")
        xs = _points(xs.reshape(1, 2) if xs.shape == (2,) else xs, "invert_phi_many")
        return _invert_rows(self.surface, self._frame_table(), np.full(len(xs), _apex_row(vertex_index)), xs, tol)[:3]
