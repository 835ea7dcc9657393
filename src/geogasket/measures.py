"""Finitely supported measures, transport distances, and the push-forward
fixed point of the subdivision maps.

The Lipschitz-dual distance is computed as the optimal-transport primal
with geodesic ground costs, solved exactly as a linear program (HiGHS).
The dense cost matrix bounds the support: over ``EXACT_LIMIT`` atoms a
side raises ``CapacityError`` on every model.  The push-forward keeps its
iterates under its atom budget by snapping atoms to cell centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .gasket import TriangleSystem, apply_f
from .triangles import _chart_coords

WEIGHT_TOL = 1e-12
# atoms per side of the dense transport LP
EXACT_LIMIT = 1000
# resampling snaps atoms to depth-10 cells, about 1e-3 of the base's diameter
MERGE_DEPTH = 10


@dataclass
class DiscreteMeasure:
    """A probability measure supported on finitely many chart points."""

    surface: object
    points: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[1:] != (2,):
            raise DomainError(f"points must be an (N, 2) array of chart points, not {self.points.shape}")
        if len(self.points) != len(self.weights):
            raise DomainError("points and weights must have matching lengths")
        # accepting comparisons, so that NaN fails them
        if not np.all(self.weights >= -WEIGHT_TOL):
            raise DomainError("weights must be nonnegative")
        if not abs(float(np.sum(self.weights)) - 1.0) <= WEIGHT_TOL:
            raise DomainError("weights must sum to 1")

    @classmethod
    def point_mass(cls, surface, p) -> "DiscreteMeasure":
        return cls(surface, [p], [1.0])

    def __len__(self) -> int:
        return len(self.points)

    def deduped(self) -> "DiscreteMeasure":
        """Merge exactly coincident atoms, summing weights."""
        uniq, inverse = np.unique(self.points, axis=0, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse, self.weights)
        return DiscreteMeasure(self.surface, uniq, w)


@dataclass(frozen=True)
class KRResult:
    value: float


def _ground_costs(surface, pts1, pts2):
    n1, n2 = len(pts1), len(pts2)
    rows = np.repeat(np.arange(n1), n2)
    cols = np.tile(np.arange(n2), n1)
    d = surface.distance_many(pts1[rows], pts2[cols])
    return d.reshape(n1, n2)


def _transport_lp(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    # scipy loads here, not at import, so that commands without a transport LP skip it
    from scipy import sparse
    from scipy.optimize import linprog

    n1, n2 = cost.shape
    row_idx = np.repeat(np.arange(n1), n2)
    col_idx = np.tile(np.arange(n2), n1)
    nvar = n1 * n2
    a_rows = sparse.csr_matrix(
        (np.ones(nvar), (row_idx, np.arange(nvar))), shape=(n1, nvar)
    )
    a_cols = sparse.csr_matrix(
        (np.ones(nvar), (col_idx, np.arange(nvar))), shape=(n2, nvar)
    )
    # drop one redundant constraint to keep the system full rank
    a_eq = sparse.vstack([a_rows, a_cols[:-1]])
    b_eq = np.concatenate([w1, w2[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise DomainError(f"transport LP failed: {res.message}")
    return float(res.fun)


def kr_distance(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> KRResult:
    """Lipschitz-dual distance between finitely supported measures.

    Computed as the optimal-transport primal with geodesic ground costs, by
    an exact LP; a support over ``EXACT_LIMIT`` distinct atoms on either
    side raises ``CapacityError``.
    """
    if getattr(mu1.surface, "kind", None) != getattr(mu2.surface, "kind", None):
        raise DomainError("measures live on different surfaces")
    mu1 = mu1.deduped()
    mu2 = mu2.deduped()
    if max(len(mu1), len(mu2)) > EXACT_LIMIT:
        raise CapacityError(
            f"exact transport limited to {EXACT_LIMIT} atoms a side ({len(mu1)}x{len(mu2)})"
        )
    cost = _ground_costs(mu1.surface, mu1.points, mu2.points)
    return KRResult(value=_transport_lp(cost, mu1.weights, mu2.weights))


# -- push-forward fixed point -------------------------------------------------


def _descend_cells(system: TriangleSystem, pts: np.ndarray, depth: int) -> np.ndarray:
    """Depth-d cell code of each point by barycentric digit descent.

    Ties on shared boundaries resolve to the lowest digit (closed cells).
    Chart-coordinate barycentric tests are exact on the flat model and an
    O(r^2)-accurate proxy on curved charts.
    """
    n = len(pts)
    codes = np.zeros(n, dtype=np.int64)
    for level in range(depth):
        verts = system.level(level).vertices[codes]
        b2, b3 = _chart_coords(verts[:, 0], verts[:, 2], verts[:, 1], pts)
        b1 = 1.0 - b2 - b3
        bary = np.stack([b1, b2, b3], axis=1)
        digit = np.argmax(bary, axis=1)
        codes = codes * 3 + digit
    return codes


def cell_masses(measure: DiscreteMeasure, system: TriangleSystem, depth: int) -> np.ndarray:
    """Total weight landing in each depth-d cell (array of length 3^d)."""
    codes = _descend_cells(system, measure.points, depth)
    masses = np.zeros(3**depth)
    np.add.at(masses, codes, measure.weights)
    return masses


def resample_to_centroids(measure: DiscreteMeasure, system: TriangleSystem, depth: int) -> DiscreteMeasure:
    """Snap atoms to depth-d cell centroids, summing weights."""
    codes = _descend_cells(system, measure.points, depth)
    verts = system.level(depth).vertices
    centroids = verts.mean(axis=1)
    uniq, inverse = np.unique(codes, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inverse, measure.weights)
    return DiscreteMeasure(measure.surface, centroids[uniq], w)


@dataclass
class PushforwardReport:
    final: DiscreteMeasure
    trace_values: list
    converged: bool


def pushforward_fixpoint(
    system: TriangleSystem,
    weights,
    iterations: int,
    seed: DiscreteMeasure,
    atom_budget: int = 2000,
) -> PushforwardReport:
    """Iterate mu -> sum_i a_i (f_i)_* mu over maps 1, 2, 3 and trace
    the transport distance between successive iterates.

    An iterate over the atom budget snaps to the centroids of depth-MERGE_DEPTH
    cells (fewer if the stored depth or the budget is smaller), weights summed.
    """
    weights = np.asarray(weights, dtype=float)
    if not (weights.shape == (3,) and np.all(weights > 0) and abs(float(np.sum(weights)) - 1.0) <= WEIGHT_TOL):
        raise DomainError(f"weights must be three positives summing to 1 within {WEIGHT_TOL:g}, not {weights.tolist()}")
    merge_depth = min(system.depth, MERGE_DEPTH)
    while 3**merge_depth > atom_budget and merge_depth > 1:
        merge_depth -= 1

    current = seed.deduped()
    values = []
    for _ in range(iterations):
        images = apply_f(system, [(1,), (2,), (3,)], current.points).reshape(-1, 2)
        ws = np.concatenate([a * current.weights for a in weights])
        nxt = DiscreteMeasure(system.surface, images, ws).deduped()
        if len(nxt) > atom_budget:
            nxt = resample_to_centroids(nxt, system, merge_depth)
        values.append(kr_distance(current, nxt).value)
        current = nxt
    converged = bool(values and values[-1] <= 1e-12)
    return PushforwardReport(final=current, trace_values=values, converged=converged)


def trace_ratios(values) -> list:
    """Ratios of successive positive trace entries (converged tail skipped)."""
    out = []
    for prev, nxt in zip(values, values[1:]):
        if prev > 1e-15:
            out.append(nxt / prev)
    return out
