"""The push-forward fixed point of the subdivision maps on the cell tree.

``pushforward_fixpoint`` solves no LP.  Its seed is a point mass at base
vertex 1, and f_I(v1) is vertex 1 of cell I, so iterate n of
mu -> sum_i a_i (f_i)_* mu puts mass m(I) = a_(i_1) ... a_(i_n) on vertex 1
of each depth-n cell I (Hutchinson 1981, Indiana Univ. Math. J. 30).  The
iterates are held as those depth-n cell masses, and the transport distance
between iterates n and n+1 is bracketed in O(3^n):

- above by U_n = sum_I m(I) diam(I), the cost of moving each cell's mass
  inside the cell: the tree bound sum_C diam(parent C) |dm(C)| (Le et al.
  2019, "Tree-Sliced Variants of Wasserstein Distances", NeurIPS);
- below by L_n = |int g dmu_n - int g dmu_(n+1)| for the 1-Lipschitz
  g = d(., base vertex 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gasket import TriangleSystem

WEIGHT_TOL = 1e-12


def _transport_lp(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """The optimal transport cost between weights ``w1`` and ``w2`` under
    the ground costs ``cost``, by an exact LP (HiGHS).

    No command calls it: it is the kernel of the tests' exact transport
    oracle.  It stays in the package only because the benchmark's tracer
    wraps it by this name; it moves to the tests when the benchmark stops
    naming it.
    """
    # scipy is a test dependency, so it loads here and not at import
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


# -- push-forward fixed point -------------------------------------------------


def product_masses(weights, depth: int) -> np.ndarray:
    """Depth-d cell masses m(iI) = a_i m(I), in cell-code order (first digit
    most significant), from m = 1 on the base."""
    masses = np.ones(1)
    for _ in range(depth):
        masses = np.outer(weights, masses).ravel()
    return masses


@dataclass(frozen=True)
class PushforwardReport:
    """The last iterate's depth-n cell masses, and the transport bracket
    lower[k] <= d(mu_k, mu_{k+1}) <= upper[k] for k < n."""

    masses: np.ndarray
    upper: list
    lower: list


def pushforward_fixpoint(system: TriangleSystem, weights, iterations: int) -> PushforwardReport:
    """Iterate mu -> sum_i a_i (f_i)_* mu from a point mass at base vertex 1
    and bracket the transport distance between successive iterates.

    Iterate n has mass ``product_masses(weights, n)[c]`` at vertex 1 of
    depth-n cell c, so ``iterations`` may not exceed the stored depth.
    """
    weights = np.asarray(weights, dtype=float)
    if not (weights.shape == (3,) and np.all(weights > 0) and abs(float(np.sum(weights)) - 1.0) <= WEIGHT_TOL):
        raise DomainError(f"weights must be three positives summing to 1 within {WEIGHT_TOL:g}, not {weights.tolist()}")
    if iterations > system.depth:
        raise DomainError(
            f"{iterations} iterations need cells of depth {iterations}, but the system is stored to depth {system.depth}"
        )
    # vertex 1 of cell I1 is vertex 1 of I, so the deepest iterate's atoms hold
    # every iterate's: iterate n's are every 3^(iterations - n)-th of them
    atoms = system.level(iterations).vertices[:, 0]
    g = system.surface.distance_many(atoms, system.base.vertices[1])
    masses = [product_masses(weights, n) for n in range(iterations + 1)]
    integrals = [float(m @ g[:: 3 ** (iterations - n)]) for n, m in enumerate(masses)]
    upper = [float(m @ system.level_diams(n)) for n, m in enumerate(masses[:-1])]
    lower = [abs(a - b) for a, b in zip(integrals, integrals[1:])]
    return PushforwardReport(masses=masses[-1], upper=upper, lower=lower)


def trace_ratios(values) -> list:
    """Ratios of successive trace entries."""
    return [nxt / prev for prev, nxt in zip(values, values[1:])]
