"""Geodesic-midpoint subdivision systems and their certification.

Subdividing a geodesic triangle by joining the midpoints of its sides with
minimal geodesics and discarding the middle triangle yields three corner
cells; repeating this produces the cell family indexed by digit strings
over {1, 2, 3}.  Digit i always names the child containing vertex i of its
parent.  Cells are stored per level as flat arrays (vertices, side
lengths), so deep flat systems stay cheap and curved levels are built with
batched geodesic solves.

The audits measure how far each subdivision map is from a strict
half-ratio similarity, check side-quotient drift and diameter products over
index concatenation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeogasketError, InversionError, NondegeneracyError, SceneValidationError
from .surfaces import SurfaceModel, make_surface
from .triangles import (
    GeodesicTriangleRegion,
    _frames,
    _invert_rows,
    _pair_distances,
    is_delta_nondegenerate,
    planar_angles_batch,
)

# Rows of one stacked parametrization or inversion pass.  Cells are grouped
# to stay below it, which bounds the solver's working memory; results do not
# depend on it, since every row is solved independently.
_STACK_ROWS = 7000

# -- multi-indices ------------------------------------------------------


def mi_validate(index) -> tuple:
    digits = tuple(int(d) for d in index)
    if any(d not in (1, 2, 3) for d in digits):
        raise DomainError(f"multi-index digits must be in {{1,2,3}}: {index!r}")
    return digits


def mi_code(index) -> int:
    """Lexicographic cell code at the index's level (first digit most
    significant)."""
    code = 0
    for d in mi_validate(index):
        code = code * 3 + (d - 1)
    return code

def mi_from_code(code: int, length: int) -> tuple:
    digits = []
    for _ in range(length):
        digits.append(code % 3 + 1)
        code //= 3
    return tuple(reversed(digits))


def mi_str(index) -> str:
    return "".join(str(d) for d in index) or "(base)"


def _nonempty_indices(cells, what: str) -> list:
    """``cells`` as validated digit tuples, none of them empty."""
    cells = [mi_validate(index) for index in cells]
    if not all(cells):
        raise DomainError(f"{what} needs a nonempty multi-index")
    return cells


# -- level storage -------------------------------------------------------


@dataclass
class LevelArrays:
    """All cells of one subdivision level, as flat arrays."""

    vertices: np.ndarray  # (N, 3, 2)
    side_lengths: np.ndarray  # (N, 3)

    def __post_init__(self):
        # stored cells never change, which the per-system audit memo relies on
        self.vertices.flags.writeable = False
        self.side_lengths.flags.writeable = False

    @property
    def diams(self) -> np.ndarray:
        return np.max(self.side_lengths, axis=1)

    def __len__(self) -> int:
        return len(self.vertices)


def _subdivide_arrays(surface: SurfaceModel, verts: np.ndarray, sides: np.ndarray):
    """One subdivision step for a whole level.

    Returns (children_vertices (N,3,3,2) by digit, children_sides (N,3,3)).
    Child d keeps vertex d of its parent; its other two vertices are side
    midpoints, and its side opposite vertex d is the midline joining them.
    """
    n = len(verts)
    starts = verts[:, [1, 2, 0], :].reshape(3 * n, 2)
    ends = verts[:, [2, 0, 1], :].reshape(3 * n, 2)
    mids = surface.midpoint_many(starts, ends).reshape(n, 3, 2)
    m_starts = mids[:, [1, 2, 0], :].reshape(3 * n, 2)
    m_ends = mids[:, [2, 0, 1], :].reshape(3 * n, 2)
    midline = surface.distance_many(m_starts, m_ends).reshape(n, 3)

    child_verts = np.empty((n, 3, 3, 2))
    child_sides = np.empty((n, 3, 3))
    for d in range(3):
        for slot in range(3):
            if slot == d:
                child_verts[:, d, slot, :] = verts[:, d, :]
            else:
                third = 3 - d - slot
                child_verts[:, d, slot, :] = mids[:, third, :]
        child_sides[:, d, :] = sides / 2.0
        child_sides[:, d, d] = midline[:, d]
    return child_verts, child_sides


# -- the system ----------------------------------------------------------


class TriangleSystem:
    """The family of subdivision cells of a base triangle up to a depth."""

    def __init__(self, base: GeodesicTriangleRegion, depth, delta, levels, gauge_c=None):
        self.base = base
        self.surface = base.surface
        self.depth = int(depth)
        self.delta = float(delta)
        self.levels = levels
        self.gauge_c = gauge_c
        r = base.diam
        # the flat model is the classical IFS: contraction is exactly 1/2;
        # the quadratic correction term is curvature-driven
        self.nu = 0.5 if base.surface.flat else 0.5 * (1.0 + r * r)
        # (index, n_pairs, seed) -> (max deviation, pairs used, parent diameter)
        self._audits = {}

    def level(self, n: int) -> LevelArrays:
        if not (0 <= n <= self.depth):
            raise DomainError(f"level {n} outside stored depth {self.depth}")
        return self.levels[n]

    def level_diams(self, n: int) -> np.ndarray:
        return self.level(n).diams

    def cell(self, index) -> GeodesicTriangleRegion:
        digits = mi_validate(index)
        if not digits:
            return self.base
        lv = self.level(len(digits))
        code = mi_code(digits)
        return GeodesicTriangleRegion(
            self.surface, lv.vertices[code], lv.side_lengths[code]
        )

    def cell_diam(self, index) -> float:
        digits = mi_validate(index)
        if not digits:
            return self.base.diam
        return float(self.level(len(digits)).diams[mi_code(digits)])

    def indices(self, n: int):
        for code in range(3**n):
            yield mi_from_code(code, n)


def _band_failures(sides: np.ndarray, delta: float):
    """Planar comparison angles of an (N, 3) side array, and the indices of
    the cells whose angles leave the open band (delta/2, pi - delta/2)."""
    half = delta / 2.0
    angles = planar_angles_batch(sides)
    bad = np.any((angles <= half) | (angles >= math.pi - half), axis=1)
    return angles, np.flatnonzero(bad)


def build_system(
    base: GeodesicTriangleRegion,
    depth: int,
    delta: float,
) -> TriangleSystem:
    """Build all cells to the requested depth.

    The base must be delta-non-degenerate; every produced cell is required
    to stay delta/2-non-degenerate, and the first failing cell is named in
    the raised error.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    ok, angles = is_delta_nondegenerate(base.side_lengths, delta)
    if not ok:
        raise NondegeneracyError(
            (), f"base triangle is not {delta}-non-degenerate (angles {angles})"
        )
    levels = [
        LevelArrays(
            vertices=base.vertices[None, :, :],
            side_lengths=np.array(base.side_lengths, dtype=float)[None, :],
        )
    ]
    surface = base.surface
    for n in range(depth):
        lv = levels[-1]
        cv, cs = _subdivide_arrays(surface, lv.vertices, lv.side_lengths)
        new_verts = cv.reshape(len(lv) * 3, 3, 2)
        new_sides = cs.reshape(len(lv) * 3, 3)
        _, bad = _band_failures(new_sides, delta)
        if len(bad):
            cell = mi_from_code(int(bad[0]), n + 1)
            raise NondegeneracyError(
                cell,
                f"cell {mi_str(cell)} fails {delta / 2}-non-degeneracy "
                f"(sides {new_sides[bad[0]]})",
            )
        levels.append(LevelArrays(vertices=new_verts, side_lengths=new_sides))
    return TriangleSystem(base, depth, delta, levels)


# -- subdivision maps ----------------------------------------------------


def apply_f(system: TriangleSystem, cells, xs, tol_factor: float = 1e-7) -> np.ndarray:
    """Images of the parent points ``xs`` under the map onto each of ``cells``.

    The map onto a cell recovers the parametrization coordinates (t, s) of
    a point in the parent (apex chosen by the last digit) and returns the
    point at (t, s/2); on the flat model this is exactly the half-ratio
    homothety at the apex.  Returns an array of shape (len(cells),
    len(xs), 2).  The images come out of the inversion passes themselves,
    one pass per group of rows.  Raises InversionError naming the cell when
    a recovery residual exceeds ``tol_factor`` times the parent diameter.
    """
    cells = _nonempty_indices(cells, "apply_f")
    parents = [system.cell(digits[:-1]) for digits in cells]
    # each parent's table holds its three apex frames; row 3 p + d - 1 is the
    # frame of apex d of parent p
    frames = tuple(np.concatenate(f) for f in zip(*(p._frame_table() for p in parents)))
    n = len(xs)
    x = np.tile(xs, (len(cells), 1))
    rows = np.repeat([3 * p + d[-1] - 1 for p, d in enumerate(cells)], n)
    apex = frames[0][rows]
    tol = np.repeat([tol_factor * p.diam for p in parents], n)
    out = apex.copy()
    rest = np.flatnonzero(~np.all(x == apex, axis=1))
    for lo in range(0, len(rest), _STACK_ROWS):
        r = rest[lo:lo + _STACK_ROWS]
        _, _, resid, out[r] = _invert_rows(
            system.surface, frames, rows[r], x[r], tol[r], image_scale=0.5
        )
        bad = np.flatnonzero(resid > tol[r])
        if len(bad):
            row = bad[0]
            raise InversionError(
                f"apply_f recovery residual {resid[row]:.3e} exceeds {tol[r][row]:.3e} "
                f"on cell {mi_str(cells[r[row] // n])}"
            )
    return out.reshape(len(cells), n, 2)


# -- similarity audits ----------------------------------------------------

_KRONECKER_ALPHAS = np.array(
    [math.sqrt(2) - 1, math.sqrt(3) - 1, math.sqrt(5) - 2, math.sqrt(7) - 2]
)


def _low_discrepancy(n: int, seed: int) -> np.ndarray:
    """Deterministic Kronecker sequence in [0, 1)^4."""
    offsets = np.modf(np.arange(1, 5) * 0.381966011250105 * (seed + 1))[0]
    steps = np.arange(1, n + 1)[:, None] * _KRONECKER_ALPHAS[None, :]
    return np.modf(steps + offsets[None, :])[0]


def _audit_parameter_grid(n_pairs: int, seed: int) -> np.ndarray:
    """Sampling lattice for dilation audits.

    A fixed coarse lattice over (t, s)^2 anchors the maximum-deviation
    estimate (identical across seeds), and a seeded Kronecker fill adds
    coverage between the anchors.
    """
    levels = np.array([0.1, 0.5, 0.9])
    anchors = np.array(
        [(t1, s1, t2, s2) for t1 in levels for s1 in levels for t2 in levels for s2 in levels]
    )
    # near-coincident probes capture the local dilation extremes that
    # moderate-distance pairs average away
    eps = 0.03
    local = []
    for t in levels:
        for s in levels:
            local.append((t, s, min(t + eps, 1.0), s))
            local.append((t, s, t, min(s + eps, 1.0)))
            local.append((t, s, min(t + eps, 1.0), min(s + eps, 1.0)))
    return np.vstack([anchors, np.array(local), _low_discrepancy(n_pairs, seed)])


@dataclass
class SimilarityAudit:
    """Measured dilation deviation of one subdivision map.

    ``max_ratio_deviation`` is the worst |d(f x, f y)/d(x, y) - 1/2| over
    the sampled pairs; the audit passes when it stays within the quadratic
    envelope lam * c * diam(parent)^2.
    """

    index: tuple
    lam: float
    max_ratio_deviation: float
    envelope: float
    passed: bool
    pairs_used: int
    parent_diam: float


def _parent_arrays(system: TriangleSystem, cells):
    """Vertices (C, 3, 2) and diameters (C,) of the parents of ``cells``."""
    verts = np.empty((len(cells), 3, 2))
    diams = np.empty(len(cells))
    for r, digits in enumerate(cells):
        lv = system.level(len(digits) - 1)
        code = mi_code(digits[:-1])
        verts[r] = lv.vertices[code]
        diams[r] = np.max(lv.side_lengths[code])
    return verts, diams


def _audit_ratios(system: TriangleSystem, cells, n_pairs, seed):
    """Pair-dilation ratios d(f x, f y) / d(x, y) of the maps onto ``cells``.

    Returns one ratio array per cell and the parent diameters.  One
    side-direction solve serves the apexes of all cells, which then go
    through ``_pair_distances`` in stacked groups.
    """
    if n_pairs < 100:
        raise DomainError("the sampling budget must be at least 100 pairs")
    grid = _audit_parameter_grid(n_pairs, seed)
    t1, s1, t2, s2 = grid[:, 0], grid[:, 1], grid[:, 2], grid[:, 3]
    verts, diams = _parent_arrays(system, cells)
    rows = np.arange(len(cells))
    i = np.array([digits[-1] - 1 for digits in cells])
    apex, p_j, p_k = verts[rows, i], verts[rows, (i + 1) % 3], verts[rows, (i + 2) % 3]
    surface = system.surface
    n = len(grid)
    ts = np.concatenate([t1, t2, t1, t2])
    ss = np.concatenate([s1, s2, s1 / 2, s2 / 2])
    # fewest groups under the cap, with the cells spread evenly over them
    groups = -(-len(cells) // max(1, _STACK_ROWS // (4 * n)))
    group = -(-len(cells) // groups)
    frames = _frames(surface, apex, p_j, p_k)
    d = np.empty((len(cells), n))
    df = np.empty((len(cells), n))
    for lo in range(0, len(cells), group):
        g = rows[lo:lo + group]
        d[g], df[g] = _pair_distances(surface, frames, g, ts, ss)
    ratios = []
    for row, diam in enumerate(diams):
        mask = d[row] >= 1e-6 * diam
        if not np.any(mask):
            raise DomainError("all sampled audit pairs are degenerate")
        ratios.append(df[row][mask] / d[row][mask])
    return ratios, diams


def audit_similarity(system: TriangleSystem, cells, n_pairs: int = 100, seed: int = 0) -> list:
    """Audits of the maps onto ``cells`` against the current gauge.

    Each cell is measured once per system: its deviation, pairs used and
    parent diameter are memoized under (index, n_pairs, seed), and only
    cells missing from the memo go through ``_audit_ratios``.  A cell's
    measurement does not depend on the cells audited with it, and the level
    arrays are read-only, so a memoized entry is what a new measurement
    would give.  Envelopes and verdicts use the gauge of this call.
    """
    cells = _nonempty_indices(cells, "audit")
    memo = system._audits
    todo = [d for d in cells if (d, n_pairs, seed) not in memo]
    if todo:
        ratios, diams = _audit_ratios(system, todo, n_pairs, seed)
        for digits, r, diam in zip(todo, ratios, diams):
            memo[digits, n_pairs, seed] = (float(np.max(np.abs(r - 0.5))), int(len(r)), float(diam))
    c = system.gauge_c if system.gauge_c is not None else 0.0
    audits = []
    for digits in cells:
        dev, pairs, diam = memo[digits, n_pairs, seed]
        envelope = 0.5 * c * diam**2
        audits.append(
            SimilarityAudit(
                index=digits,
                lam=0.5,
                max_ratio_deviation=dev,
                envelope=envelope,
                passed=dev <= envelope,
                pairs_used=pairs,
                parent_diam=diam,
            )
        )
    return audits


def calibrate_gauge(system: TriangleSystem, max_parent_depth: int = 2, n_pairs: int = 100, seed: int = 0) -> float:
    """Fit the quadratic gauge constant on the shallow levels and freeze it.

    c is 1.5 times the worst deviation-to-envelope slope over all cells
    whose parent sits at depth <= max_parent_depth; deeper audits then test
    the frozen value.
    """
    cells = [
        index
        for n in range(1, min(max_parent_depth + 1, system.depth) + 1)
        for index in system.indices(n)
    ]
    worst = 0.0
    for audit in audit_similarity(system, cells, n_pairs, seed):
        slope = audit.max_ratio_deviation / (0.5 * audit.parent_diam**2)
        worst = max(worst, slope)
    system.gauge_c = 1.5 * worst
    return system.gauge_c


def audit_sweep(system: TriangleSystem, n_pairs: int = 100, cells_per_level: int = 12, seed: int = 0):
    """Audit a deterministic sample of cells at every level."""
    indices = []
    for n in range(1, system.depth + 1):
        total = 3**n
        if total <= cells_per_level:
            codes = range(total)
        else:
            codes = np.unique(
                np.linspace(0, total - 1, cells_per_level).astype(int)
            )
        indices.extend(mi_from_code(int(code), n) for code in codes)
    return audit_similarity(system, indices, n_pairs, seed)


# -- quotient drift and diameter products ---------------------------------


@dataclass
class RatioProductReport:
    max_drift: float
    bound: float
    violations: list
    passed: bool


def check_ratio_products(system: TriangleSystem) -> RatioProductReport:
    """Side-quotient drift of every cell against the product bound.

    The bound is L(r) = exp(2 r^2 / (1 - nu^2)) with r the base diameter
    and nu the diameter contraction factor; base quotients a_i/a_j may
    drift by at most this factor under repeated subdivision.
    """
    r = system.base.diam
    nu = system.nu
    bound = math.exp(2.0 * r * r / (1.0 - nu * nu))
    base_sides = np.asarray(system.base.side_lengths)
    violations = []
    max_drift = 1.0
    pairs = [(0, 1), (1, 2), (2, 0)]
    for n in range(1, system.depth + 1):
        sides = system.level(n).side_lengths
        for i, j in pairs:
            drift = (sides[:, i] / sides[:, j]) / (base_sides[i] / base_sides[j])
            drift = np.maximum(drift, 1.0 / drift)
            worst = float(np.max(drift))
            max_drift = max(max_drift, worst)
            bad = np.where(drift > bound)[0]
            for code in bad:
                violations.append((mi_from_code(int(code), n), (i + 1, j + 1)))
    return RatioProductReport(
        max_drift=max_drift, bound=bound, violations=violations, passed=not violations
    )


@dataclass
class ControlledMoranReport:
    min_ratio: float
    max_ratio: float
    center: float
    band_factor: float
    d_required: float
    d_supplied: float | None
    d_sufficient: bool | None
    small_cell_level: int | None
    pairs_checked: int


def controlled_moran_check(system: TriangleSystem, D: float | None = None, max_total: int | None = None) -> ControlledMoranReport:
    """Diameter-product control over concatenated indices.

    For index pairs (I, J) with |I| + |J| within the stored depth, the
    ratio diam(IJ) / (diam(I) diam(J)) must stay in a uniform band; on the
    flat model it is the constant 1/diam(base).
    """
    limit = system.depth if max_total is None else min(max_total, system.depth)
    min_ratio = math.inf
    max_ratio = -math.inf
    pairs_checked = 0
    diams = [system.level_diams(n) for n in range(system.depth + 1)]
    for m in range(1, limit):
        for k in range(1, limit - m + 1):
            dm = diams[m]
            dk = diams[k]
            dmk = diams[m + k]
            concat = dmk.reshape(3**m, 3**k)
            ratio = concat / (dm[:, None] * dk[None, :])
            min_ratio = min(min_ratio, float(np.min(ratio)))
            max_ratio = max(max_ratio, float(np.max(ratio)))
            pairs_checked += ratio.size
    if pairs_checked == 0:
        center = 1.0 / system.base.diam
        return ControlledMoranReport(
            min_ratio=math.nan,
            max_ratio=math.nan,
            center=center,
            band_factor=1.0,
            d_required=max(1.0, 1.0 / system.base.diam),
            d_supplied=D,
            d_sufficient=True if D is not None else None,
            small_cell_level=None,
            pairs_checked=0,
        )
    center = 1.0 / system.base.diam
    band_factor = max(max_ratio / center, center / min_ratio)
    d_required = max(max_ratio, 1.0 / min_ratio, 1.0)
    small_cell_level = None
    d_gate = D if D is not None else d_required
    for n in range(system.depth + 1):
        if float(np.max(diams[n])) < 1.0 / d_gate:
            small_cell_level = n
            break
    d_sufficient = None
    if D is not None:
        d_sufficient = bool(
            min_ratio >= 1.0 / D and max_ratio <= D and small_cell_level is not None
        )
    return ControlledMoranReport(
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        center=center,
        band_factor=band_factor,
        d_required=d_required,
        d_supplied=D,
        d_sufficient=d_sufficient,
        small_cell_level=small_cell_level,
        pairs_checked=pairs_checked,
    )


# -- structural checks -----------------------------------------------------


@dataclass
class NestingReport:
    checked: int
    max_residual_factor: float
    all_inside: bool


def nesting_check(system: TriangleSystem, cells_per_level: int = 12, tol_factor: float = 1e-7, seed: int = 0) -> NestingReport:
    """Child vertices must lie in the closed parent region.

    Membership is tested through the inverse parametrization; residuals
    are reported relative to the parent diameter.
    """
    rng = np.random.default_rng(seed)
    cells = []
    for n in range(1, system.depth + 1):
        total = 3**n
        if total <= cells_per_level:
            codes = np.arange(total)
        else:
            codes = rng.choice(total, size=cells_per_level, replace=False)
        cells.extend(mi_from_code(int(code), n) for code in codes)
    verts, diams = _parent_arrays(system, cells)
    xs = np.concatenate([system.level(len(d)).vertices[mi_code(d)] for d in cells])
    # one row per child vertex, in the frame of its parent's vertex 1
    rows = np.repeat(np.arange(len(cells)), 3)
    diam_rows = diams[rows]
    tol = tol_factor * diam_rows
    frames = _frames(system.surface, verts[:, 0], verts[:, 1], verts[:, 2])
    resid = np.empty(len(xs))
    for lo in range(0, len(xs), _STACK_ROWS):
        g = slice(lo, lo + _STACK_ROWS)
        _, _, resid[g], _ = _invert_rows(system.surface, frames, rows[g], xs[g], 0.05 * tol[g])
    worst = float(np.max(resid / np.maximum(diam_rows, 1e-300)))
    return NestingReport(
        checked=len(xs), max_residual_factor=max(worst, 0.0), all_inside=bool(np.all(resid <= tol))
    )


@dataclass
class ContractionReport:
    passed: bool
    worst_margin: float


def contraction_check(system: TriangleSystem) -> ContractionReport:
    """Every level-n cell diameter must be at most nu^n times the base's."""
    base = system.base.diam
    worst = 0.0
    ok = True
    for n in range(1, system.depth + 1):
        cap = system.nu**n * base
        worst_level = float(np.max(system.level_diams(n)))
        margin = worst_level / cap
        worst = max(worst, margin)
        ok = ok and worst_level <= cap * (1 + 1e-12)
    return ContractionReport(passed=ok, worst_margin=worst)


@dataclass
class NondegeneracySweepReport:
    passed: bool
    failures: list
    min_angle: float
    max_angle: float


def nondegeneracy_sweep(system: TriangleSystem, delta: float | None = None) -> NondegeneracySweepReport:
    """Check every stored cell against delta/2-non-degeneracy."""
    delta = system.delta if delta is None else delta
    failures = []
    mn = math.inf
    mx = -math.inf
    for n in range(1, system.depth + 1):
        angles, bad = _band_failures(system.level(n).side_lengths, delta)
        mn = min(mn, float(np.min(angles)))
        mx = max(mx, float(np.max(angles)))
        failures.extend(mi_from_code(int(c), n) for c in bad)
    return NondegeneracySweepReport(
        passed=not failures, failures=failures, min_angle=mn, max_angle=mx
    )


# -- serialization and rendering -------------------------------------------


def system_to_json(system: TriangleSystem) -> str:
    """Deterministic JSON export of a system; its surface must carry a spec."""
    if system.surface.spec is None:
        raise DomainError("the system's surface has no spec to store")
    meta = {
        "surface": system.surface.spec,
        "depth": system.depth,
        "delta": system.delta,
        "gauge_c": system.gauge_c,
        "base_vertices": system.base.vertices.tolist(),
        "base_side_lengths": [float(x) for x in system.base.side_lengths],
    }
    levels = []
    for n in range(1, system.depth + 1):
        lv = system.level(n)
        cells = []
        for code in range(len(lv)):
            cells.append(
                {
                    "vertices": lv.vertices[code].tolist(),
                    "side_lengths": lv.side_lengths[code].tolist(),
                }
            )
        levels.append({"depth": n, "cells": cells})
    return json.dumps({"meta": meta, "levels": levels}, sort_keys=True, indent=1)


def _is_int(x) -> bool:
    # an integer as JSON Schema counts one: 3 and 3.0, but not true
    return type(x) is int or (type(x) is float and x.is_integer())


def _object(doc, keys, field: str, optional=None) -> dict:
    """``doc`` if it is a JSON object holding every key of ``keys``; given
    ``optional``, also one holding no key outside ``keys`` and ``optional``."""
    if not isinstance(doc, dict):
        raise SceneValidationError(f"{field} must be an object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SceneValidationError(f"{field} lacks {', '.join(missing)}")
    extra = set() if optional is None else doc.keys() - {*keys, *optional}
    if extra:
        raise SceneValidationError(f"{field} has unknown keys {sorted(extra)}")
    return doc


def _numbers(value, shape: tuple, field: str) -> np.ndarray:
    """``value`` as a float array: finite JSON numbers (no bools) of exactly ``shape``."""
    try:
        arr = np.array(value, dtype=object)
        if arr.shape == shape and set(map(type, arr.flat)) <= {int, float}:
            out = arr.astype(float)
            if np.isfinite(out).all():
                return out
    except (ValueError, OverflowError):
        pass
    raise SceneValidationError(f"{field} must hold finite numbers of shape {shape}")


def system_from_json(text: str) -> TriangleSystem:
    """System of an export, checked as it is read; ``SceneValidationError`` names the field at fault."""
    doc = _object(json.loads(text), ("meta", "levels"), "system", optional=())
    keys = ("surface", "depth", "delta", "base_vertices", "base_side_lengths")
    meta = _object(doc["meta"], keys, "meta", optional=("gauge_c",))
    levels, depth = doc["levels"], meta["depth"]
    if not (isinstance(levels, list) and _is_int(depth) and depth == len(levels) and depth >= 1):
        raise SceneValidationError("levels must be a list of meta.depth levels, meta.depth a positive integer")
    delta = float(_numbers(meta["delta"], (), "meta.delta"))
    if not 0 < delta < math.pi / 2:
        raise SceneValidationError(f"meta.delta must lie in (0, pi/2), not {delta}")
    gauge_c = None if meta.get("gauge_c") is None else float(_numbers(meta["gauge_c"], (), "meta.gauge_c"))
    base_vertices = _numbers(meta["base_vertices"], (3, 2), "meta.base_vertices")
    base_sides = _numbers(meta["base_side_lengths"], (3,), "meta.base_side_lengths")
    try:
        surface = make_surface(meta["surface"])
        base = GeodesicTriangleRegion(surface, base_vertices, base_sides)
        if not surface.contains(base_vertices).all():
            raise DomainError(f"base vertices must lie inside the chart {surface.chart}")
    except GeogasketError as exc:
        raise SceneValidationError(f"meta: {exc}") from exc
    arrays = [LevelArrays(vertices=base_vertices[None], side_lengths=base_sides[None].copy())]
    for n, entry in enumerate(levels, start=1):
        cells = _object(entry, ("depth", "cells"), f"level {n}", optional=())["cells"]
        depth_ok = _is_int(entry["depth"]) and entry["depth"] == n
        if not (depth_ok and isinstance(cells, list) and len(cells) == 3**n):
            raise SceneValidationError(f"level {n} must have depth {n} and a list of {3**n} cells")
        for i, cell in enumerate(cells):
            if not (isinstance(cell, dict) and cell.keys() == {"vertices", "side_lengths"}):
                _object(cell, ("vertices", "side_lengths"), f"level {n} cell {i}", optional=())
        verts = _numbers([c["vertices"] for c in cells], (3**n, 3, 2), f"level {n} vertices")
        sides = _numbers([c["side_lengths"] for c in cells], (3**n, 3), f"level {n} side_lengths")
        if not surface.contains(verts.reshape(-1, 2)).all():
            raise SceneValidationError(f"level {n} vertices must lie inside the chart {surface.chart}")
        if np.any(sides <= 0):
            raise SceneValidationError(f"level {n} side_lengths must be positive")
        arrays.append(LevelArrays(vertices=verts, side_lengths=sides))
    return TriangleSystem(base, depth, delta, arrays, gauge_c=gauge_c)


def render_svg(system: TriangleSystem, level: int, size: int = 1024) -> str:
    """Stroke-only SVG of the cells at a level, in chart coordinates."""
    lv = system.level(level)
    pts = lv.vertices.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    pad = 0.05 * span
    scale = size / (span + 2 * pad)

    def to_px(p):
        x = (p[0] - lo[0] + pad) * scale
        y = size - (p[1] - lo[1] + pad) * scale
        return f"{x:.3f},{y:.3f}"

    polys = []
    for tri in lv.vertices:
        polys.append(
            f'<polygon points="{to_px(tri[0])} {to_px(tri[1])} {to_px(tri[2])}" '
            f'fill="none" stroke="black" stroke-width="0.5"/>'
        )
    body = "\n".join(polys)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f"{body}\n</svg>\n"
    )
