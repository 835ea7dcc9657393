"""Finitely supported measures, transport distances, and the push-forward
fixed point of the subdivision maps.

The Lipschitz-dual distance is computed as the optimal-transport primal
with geodesic ground costs: an exact LP (HiGHS) for small supports, and a
nearest-atom greedy transport (upper bound, flagged, with a dual lower
bound for the gap) beyond the exact limit on the flat model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import CapacityError, DomainError
from .gasket import TriangleSystem, apply_f, mi_validate
from .triangles import _chart_coords

WEIGHT_TOL = 1e-12


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
    exact: bool
    duality_gap: float | None = None


def _ground_costs(surface, pts1, pts2):
    n1, n2 = len(pts1), len(pts2)
    rows = np.repeat(np.arange(n1), n2)
    cols = np.tile(np.arange(n2), n1)
    d = surface.distance_many(pts1[rows], pts2[cols])
    return d.reshape(n1, n2)


def _transport_lp(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
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


def _dual_lower_bound(surface, mu1, mu2, anchors):
    """Best anchor-distance test function: a valid 1-Lipschitz lower bound."""
    best = 0.0
    for anchor in anchors:
        f1 = surface.distance_many(np.tile(anchor, (len(mu1.points), 1)), mu1.points)
        f2 = surface.distance_many(np.tile(anchor, (len(mu2.points), 1)), mu2.points)
        best = max(best, abs(float(f1 @ mu1.weights) - float(f2 @ mu2.weights)))
    return best


def _greedy_transport_flat(mu1, mu2) -> float:
    """Nearest-atom greedy transport plan cost (an upper bound on the LP)."""
    from scipy.spatial import cKDTree

    supply = mu1.weights.copy()
    demand = mu2.weights.copy()
    tree = cKDTree(mu2.points)
    cost = 0.0
    order = np.argsort(-supply)
    k = min(len(mu2), 8)
    for i in order:
        s = supply[i]
        if s <= 0:
            continue
        dists, idxs = tree.query(mu1.points[i], k=k)
        dists = np.atleast_1d(dists)
        idxs = np.atleast_1d(idxs)
        for d, j in zip(dists, idxs):
            if s <= 0:
                break
            take = min(s, demand[j])
            if take > 0:
                cost += take * d
                demand[j] -= take
                s -= take
        supply[i] = s
    # whatever remains is matched by global nearest available atoms
    rem_i = np.where(supply > 1e-15)[0]
    rem_j = np.where(demand > 1e-15)[0]
    for i in rem_i:
        s = supply[i]
        for j in rem_j:
            if s <= 0:
                break
            take = min(s, demand[j])
            if take > 0:
                cost += take * float(np.hypot(*(mu1.points[i] - mu2.points[j])))
                demand[j] -= take
                s -= take
    return cost


def kr_distance(mu1: DiscreteMeasure, mu2: DiscreteMeasure, exact_limit: int = 1000) -> KRResult:
    """Lipschitz-dual distance between finitely supported measures.

    Computed as the optimal-transport primal with geodesic ground costs:
    exact LP for supports up to ``exact_limit`` atoms a side; beyond that a
    greedy upper bound with an anchor-dual lower bound is returned with the
    approximation flag set.
    """
    if mu1.surface is not mu2.surface and getattr(mu1.surface, "kind", None) != getattr(
        mu2.surface, "kind", None
    ):
        raise DomainError("measures live on different surfaces")
    mu1 = mu1.deduped()
    mu2 = mu2.deduped()
    if len(mu1) <= exact_limit and len(mu2) <= exact_limit:
        cost = _ground_costs(mu1.surface, mu1.points, mu2.points)
        return KRResult(value=_transport_lp(cost, mu1.weights, mu2.weights), exact=True)
    if not mu1.surface.flat:
        raise CapacityError(
            "exact transport limited to "
            f"{exact_limit} atoms a side on curved surfaces ({len(mu1)}x{len(mu2)})"
        )
    upper = _greedy_transport_flat(mu1, mu2)
    anchors = [mu1.points[0], mu1.points.mean(axis=0), mu2.points.mean(axis=0)]
    lower = _dual_lower_bound(mu1.surface, mu1, mu2, anchors)
    return KRResult(value=upper, exact=False, duality_gap=upper - lower)


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
    trace: list
    trace_values: list
    iterations: int
    resampled_at: list
    converged: bool


def pushforward_fixpoint(
    system: TriangleSystem,
    weights,
    iterations: int,
    seed: DiscreteMeasure,
    digits=(1, 2, 3),
    atom_budget: int = 20000,
    merge_tol: float = 1e-3,
    resampling: bool = True,
    exact_limit: int = 1000,
) -> PushforwardReport:
    """Iterate mu -> sum_i a_i (f_i)_* mu and trace successive distances.

    When the atom count would exceed the budget, atoms snap to
    depth-ceil(log2(1/merge_tol)) cell centroids with weights summed
    (capped by the stored depth); with resampling disabled this raises
    instead.  The trace records the transport distance between successive
    iterates.
    """
    digits = tuple(mi_validate(digits))
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(digits):
        raise DomainError("one weight per map is required")
    if not (np.all(weights > 0) and abs(float(np.sum(weights)) - 1.0) <= WEIGHT_TOL):
        raise DomainError("weights must be positive and sum to 1")
    merge_depth = min(system.depth, max(1, math.ceil(math.log2(1.0 / merge_tol))))
    while 3**merge_depth > atom_budget and merge_depth > 1:
        merge_depth -= 1

    current = seed.deduped()
    trace = []
    resampled_at = []
    for m in range(iterations):
        images = apply_f(system, [(digit,) for digit in digits], current.points)
        ws = [a * current.weights for a in weights]
        nxt = DiscreteMeasure(
            system.surface, images.reshape(-1, 2), np.concatenate(ws)
        ).deduped()
        if len(nxt) > atom_budget:
            if not resampling:
                raise CapacityError(
                    f"iterate {m + 1} has {len(nxt)} atoms over the budget "
                    f"{atom_budget} and resampling is disabled"
                )
            nxt = resample_to_centroids(nxt, system, merge_depth)
            resampled_at.append(m + 1)
        trace.append(kr_distance(current, nxt, exact_limit=exact_limit))
        current = nxt
    values = [t.value for t in trace]
    converged = bool(values and values[-1] <= 1e-12)
    return PushforwardReport(
        final=current,
        trace=trace,
        trace_values=values,
        iterations=iterations,
        resampled_at=resampled_at,
        converged=converged,
    )


def trace_ratios(values) -> list:
    """Ratios of successive positive trace entries (converged tail skipped)."""
    out = []
    for prev, nxt in zip(values, values[1:]):
        if prev > 1e-15:
            out.append(nxt / prev)
    return out
