"""Geodesic-midpoint subdivision systems and their certification.

Subdividing a geodesic triangle by joining the midpoints of its sides with
minimal geodesics and discarding the middle triangle yields three corner
cells; repeating this produces the cell family indexed by digit strings
over {1, 2, 3}.  Digit i always names the child containing vertex i of its
parent.  Cells are held per level as flat arrays (vertices, side lengths),
so deep flat systems stay cheap and curved levels are built with batched
geodesic solves.  A level is the solver's side midpoints and midlines of
its parents put together by ``_children``; a stored system keeps only
those, and its reader rebuilds the levels with the same assembly.

The audits measure how far each subdivision map is from a strict
half-ratio similarity.  ``certify`` runs the six checks of the certificate
(nesting, contraction, non-degeneracy, the audits, side-quotient drift and
diameter products over index concatenation) and returns them as ``Check``
records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GeogasketError,
    InversionError,
    NondegeneracyError,
    SceneValidationError,
    binary64_text,
    is_json_int,
    json_binary64,
    json_numbers,
    json_object,
)
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

# Largest parameter-recovery residual, relative to the parent diameter, that
# apply_f accepts and the nesting check passes.
_INVERT_TOL = 1e-7

# -- multi-indices ------------------------------------------------------


def mi_validate(index) -> tuple:
    digits = tuple(int(d) for d in index)
    if any(d not in (1, 2, 3) for d in digits):
        raise DomainError(f"multi-index digits must be in {{1,2,3}}: {index!r}")
    return digits


def mi_code(index) -> int:
    """Lexicographic cell code at the index's level (first digit most
    significant)."""
    return sum((d - 1) * 3**k for k, d in enumerate(reversed(mi_validate(index))))


def mi_from_code(code: int, length: int) -> tuple:
    return tuple(code // 3**k % 3 + 1 for k in reversed(range(length)))


def mi_str(index) -> str:
    return "".join(str(d) for d in index) or "(base)"


def _cell_arrays(cells, what: str):
    """Digit tuples ``cells`` as the (levels, codes) arrays that carry cells
    inside this module, codes those of ``mi_code``, after checking that there
    is at least one cell and that each is a nonempty multi-index."""
    cells = [mi_validate(index) for index in cells]
    if not cells or not all(cells):
        raise DomainError(f"{what} needs at least one cell, each a nonempty multi-index")
    return np.array([len(digits) for digits in cells]), np.array([mi_code(digits) for digits in cells])


def _passes(count: int, rows_each: int) -> list:
    """Slices splitting ``count`` items of ``rows_each`` rows each into the
    fewest passes of at most ``_STACK_ROWS`` rows (at least one item a
    pass), with the items spread evenly; no pass for no item."""
    if count == 0:
        return []
    passes = -(-count // max(1, _STACK_ROWS // rows_each))
    size = -(-count // passes)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


# -- level storage -------------------------------------------------------


@dataclass
class LevelArrays:
    """All cells of one subdivision level, as flat arrays."""

    vertices: np.ndarray  # (N, 3, 2)
    side_lengths: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.vertices.flags.writeable = False
        self.side_lengths.flags.writeable = False

    @property
    def diams(self) -> np.ndarray:
        return np.max(self.side_lengths, axis=1)

    def __len__(self) -> int:
        return len(self.vertices)


def _solve_level(surface: SurfaceModel, verts: np.ndarray):
    """The geodesic solves of one subdivision step for a whole level.

    Returns the side midpoints (N, 3, 2), midpoint k on the side opposite
    vertex k, and the midlines (N, 3), midline k joining the two midpoints
    other than midpoint k.
    """
    n = len(verts)
    starts = verts[:, [1, 2, 0], :].reshape(3 * n, 2)
    ends = verts[:, [2, 0, 1], :].reshape(3 * n, 2)
    mids = surface.midpoint_many(starts, ends).reshape(n, 3, 2)
    m_starts = mids[:, [1, 2, 0], :].reshape(3 * n, 2)
    m_ends = mids[:, [2, 0, 1], :].reshape(3 * n, 2)
    midlines = surface.distance_many(m_starts, m_ends).reshape(n, 3)
    return mids, midlines


# Child d of a parent keeps the parent's vertex d; its other two vertices are
# the midpoints of the sides at d, its side opposite vertex d is midline d,
# and its other two sides are halves of the parent's.  Row d of each table
# picks child d's three entries from a parent's vertices followed by its
# midpoints, and from its halved sides followed by its midlines.
_CHILD_VERTICES = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_CHILD_SIDES = np.array([[3, 1, 2], [0, 4, 2], [0, 1, 5]])
# (child, vertex slot) of midpoints 0, 1 and 2 in the tables above
_MIDPOINT_CHILDREN = ([1, 0, 0], [2, 2, 1])
# (t, s) of the parent's vertices and midpoints, in the order of the first
# table, in the parametrization at the parent's vertex 1
_SLOT_PARAMETERS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 1.0], [0.0, 0.5], [1.0, 0.5]])


def _children(verts: np.ndarray, sides: np.ndarray, mids: np.ndarray, midlines: np.ndarray) -> LevelArrays:
    """The level below parents (verts, sides) with the given midpoints and
    midlines: child 3p + d - 1 of parent p is the one with digit d.

    Vertices are copies and sides exact halves or midlines, so the level
    carries no number beyond its parents' and the solved ones.
    """
    n = len(verts)
    points = np.concatenate([verts, mids], axis=1)
    lengths = np.concatenate([sides / 2.0, midlines], axis=1)
    return LevelArrays(
        vertices=points[:, _CHILD_VERTICES].reshape(3 * n, 3, 2),
        side_lengths=lengths[:, _CHILD_SIDES].reshape(3 * n, 3),
    )


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
        # the r² correction term is curvature-driven
        self.nu = 0.5 if base.surface.flat else 0.5 * (1.0 + r * r)

    def level(self, n: int) -> LevelArrays:
        if not (0 <= n <= self.depth):
            raise DomainError(f"level {n} outside stored depth {self.depth}")
        return self.levels[n]

    def level_diams(self, n: int) -> np.ndarray:
        return self.level(n).diams


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
        child = _children(lv.vertices, lv.side_lengths, *_solve_level(surface, lv.vertices))
        _, bad = _band_failures(child.side_lengths, delta)
        if len(bad):
            cell = mi_from_code(int(bad[0]), n + 1)
            raise NondegeneracyError(
                cell,
                f"cell {mi_str(cell)} fails {delta / 2}-non-degeneracy "
                f"(sides {child.side_lengths[bad[0]]})",
            )
        levels.append(child)
    return TriangleSystem(base, depth, delta, levels)


# -- subdivision maps ----------------------------------------------------


def _parent_frames(system: TriangleSystem, levels, codes, at_vertex1: bool = False):
    """Frame table of the parents of the cells (levels, codes), one frame
    per cell, and the parent diameters, read from the level arrays.

    Frame r has its apex at the vertex of cell r's parent named by the
    cell's last digit, or at vertex 1 given ``at_vertex1``; its rows are
    those of ``triangles._frames``.
    """
    verts = np.empty((len(codes), 3, 2))
    diams = np.empty(len(codes))
    parents = codes // 3
    # every level read before any index, in order of first appearance, so that
    # the first cell past the stored depth names the error
    parent_levels = {n: system.level(n - 1) for n in dict.fromkeys(levels.tolist())}
    for n, lv in parent_levels.items():
        at = np.flatnonzero(levels == n)
        verts[at] = lv.vertices[parents[at]]
        diams[at] = np.max(lv.side_lengths[parents[at]], axis=1)
    apexes = np.zeros(len(codes), dtype=int) if at_vertex1 else codes % 3
    rows = np.arange(len(codes))
    return _frames(system.surface, *(verts[rows, (apexes + k) % 3] for k in range(3))), diams


def apply_f(system: TriangleSystem, cells, xs) -> np.ndarray:
    """Images of the parent points ``xs`` under the map onto each of ``cells``.

    The map onto a cell recovers the parametrization coordinates (t, s) of
    a point in the parent (apex chosen by the last digit) and returns the
    point at (t, s/2); on the flat model this is exactly the half-ratio
    homothety at the apex.  Returns an array of shape (len(cells),
    len(xs), 2).  The images come out of the inversion passes themselves.
    Raises InversionError naming the cell when a recovery residual exceeds
    ``_INVERT_TOL`` times the parent diameter.
    """
    levels, codes = _cell_arrays(cells, "apply_f")
    frames, diams = _parent_frames(system, levels, codes)
    n = len(xs)
    x = np.tile(xs, (len(codes), 1))
    rows = np.repeat(np.arange(len(codes)), n)
    tol = _INVERT_TOL * diams[rows]
    out = frames[0][rows]
    rest = np.flatnonzero(~np.all(x == out, axis=1))
    resid = np.empty(len(rest))
    for g in _passes(len(rest), 1):
        r = rest[g]
        _, _, resid[g], out[r] = _invert_rows(system.surface, frames, rows[r], x[r], tol[r], image_scale=0.5)
    bad = np.flatnonzero(resid > tol[rest])
    if len(bad):
        row = rest[bad[0]]
        cell = mi_from_code(int(codes[row // n]), int(levels[row // n]))
        raise InversionError(
            f"apply_f recovery residual {resid[bad[0]]:.3e} exceeds {tol[row]:.3e} on cell {mi_str(cell)}"
        )
    return out.reshape(len(codes), n, 2)


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


def audit_similarity(system: TriangleSystem, cells, n_pairs: int = 100, seed: int = 0):
    """Dilation deviations of the maps onto ``cells``.

    Returns two arrays over ``cells``: the worst |d(f x, f y)/d(x, y) - 1/2|
    over the sampled pairs, and the parent diameter.  Pairs closer than
    1e-6 parent diameters are left out.  One side-direction solve serves
    the apexes of all cells, which then go through ``_pair_distances`` in
    stacked groups; a cell's result does not depend on the cells audited
    with it.
    """
    return _audit(system, *_cell_arrays(cells, "audit"), n_pairs, seed)


def _audit(system: TriangleSystem, levels, codes, n_pairs: int, seed: int):
    """``audit_similarity`` of the cells (levels, codes)."""
    if n_pairs < 100:
        raise DomainError("the sampling budget must be at least 100 pairs")
    grid = _audit_parameter_grid(n_pairs, seed)
    t1, s1, t2, s2 = grid.T
    frames, diams = _parent_frames(system, levels, codes)
    rows = np.arange(len(codes))
    n = len(grid)
    ts = np.concatenate([t1, t2, t1, t2])
    ss = np.concatenate([s1, s2, s1 / 2, s2 / 2])
    d, df = np.empty((2, len(codes), n))
    for g in _passes(len(codes), 4 * n):
        d[g], df[g] = _pair_distances(system.surface, frames, rows[g], ts, ss)
    kept = d >= 1e-6 * diams[:, None]
    if not np.all(np.any(kept, axis=1)):
        raise DomainError("all sampled audit pairs are degenerate")
    # a left-out pair reads as ratio 1/2, deviation 0
    ratios = np.divide(df, d, out=np.full_like(d, 0.5), where=kept)
    return np.max(np.abs(ratios - 0.5), axis=1), diams


def _level_sample(system: TriangleSystem, cells_per_level: int, pick):
    """(levels, codes) of a sample of every level, level by level: all cells
    of a level that has at most ``cells_per_level``, else the codes
    ``pick(3^n)`` returns."""
    codes = [np.arange(3**n) if 3**n <= cells_per_level else pick(3**n) for n in range(1, system.depth + 1)]
    return np.repeat(np.arange(1, system.depth + 1), [len(c) for c in codes]), np.concatenate(codes)


def calibrate_gauge(system: TriangleSystem, max_parent_depth: int = 2, n_pairs: int = 100, seed: int = 0) -> float:
    """Fit the constant of the square gauge phi(y) = y² on the shallow levels and freeze it.

    c is 1.5 times the worst deviation-to-envelope slope over all cells
    whose parent sits at depth <= max_parent_depth; deeper audits then test
    the frozen value.
    """
    top = range(1, min(max_parent_depth + 1, system.depth) + 1)
    if not top:
        raise DomainError("audit needs at least one cell, each a nonempty multi-index")
    codes = np.concatenate([np.arange(3**n) for n in top])
    dev, diam = _audit(system, np.repeat(top, [3**n for n in top]), codes, n_pairs, seed)
    system.gauge_c = 1.5 * max(0.0, float(np.max(dev / (0.5 * diam**2))))
    return system.gauge_c


def audit_sweep(system: TriangleSystem, n_pairs: int = 100, cells_per_level: int = 12, seed: int = 0):
    """``audit_similarity`` of a deterministic sample of cells at every
    level: up to ``cells_per_level`` codes evenly spaced over each level."""
    levels, codes = _level_sample(
        system, cells_per_level, lambda total: np.unique(np.linspace(0, total - 1, cells_per_level).astype(int))
    )
    return _audit(system, levels, codes, n_pairs, seed)


# -- the certificate ------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One certificate check: its verdict, the measured value and its bound.

    Each check's docstring says how ``value`` compares with ``bound`` when
    it passes, so ``bound - value`` is its margin in that direction.
    ``detail`` is the text ``verify`` prints after the name.
    """

    name: str
    passed: bool
    value: float
    bound: float
    detail: str


def nesting_check(system: TriangleSystem, cells_per_level: int = 12, seed: int = 0) -> Check:
    """Child vertices must lie in the closed parent region.

    Membership is tested through the inverse parametrization on a seeded
    sample of cells per level.  ``value`` is the worst residual relative to
    the parent diameter and ``bound`` is ``_INVERT_TOL``: passes when
    value <= bound.
    """
    rng = np.random.default_rng(seed)
    levels, codes = _level_sample(
        system, cells_per_level, lambda total: rng.choice(total, size=cells_per_level, replace=False)
    )
    # one row per child vertex, in the frame of its parent's vertex 1, seeded
    # at the parameters the vertex was subdivided at
    frames, diams = _parent_frames(system, levels, codes, at_vertex1=True)
    xs = np.concatenate([system.level(n).vertices[codes[levels == n]] for n in np.unique(levels)]).reshape(-1, 2)
    start = _SLOT_PARAMETERS[_CHILD_VERTICES[codes % 3]].reshape(-1, 2)
    rows = np.repeat(np.arange(len(codes)), 3)
    diam_rows = diams[rows]
    tol = _INVERT_TOL * diam_rows
    resid = np.empty(len(rows))
    for g in _passes(len(rows), 1):
        _, _, resid[g], _ = _invert_rows(system.surface, frames, rows[g], xs[g], 0.05 * tol[g], start=start[g])
    worst = max(float(np.max(resid / np.maximum(diam_rows, 1e-300))), 0.0)
    return Check("nesting", bool(np.all(resid <= tol)), worst, _INVERT_TOL, f"max residual factor {worst:.3e}")


def contraction_check(system: TriangleSystem) -> Check:
    """Every level-n cell diameter must be at most nu^n times the base's.

    ``value`` is the worst diameter over nu^n diam(base) and ``bound`` is
    1 + 1e-12, which allows rounding: passes when value <= bound.
    """
    base = system.base.diam
    worst = max(float(np.max(system.level_diams(n))) / (system.nu**n * base) for n in range(1, system.depth + 1))
    bound = 1 + 1e-12
    return Check("nu-contraction", worst <= bound, worst, bound, f"nu = {system.nu:.6g}, worst margin {worst:.6g}")


def nondegeneracy_sweep(system: TriangleSystem) -> Check:
    """Every stored cell must be delta/2-non-degenerate, for the system's delta.

    ``value`` is the smallest distance of a planar comparison angle from 0
    or pi, and ``bound`` is delta/2: passes when value > bound.
    """
    delta = system.delta
    passed = True
    mn = math.inf
    mx = -math.inf
    for n in range(1, system.depth + 1):
        angles, bad = _band_failures(system.level(n).side_lengths, delta)
        mn = min(mn, float(np.min(angles)))
        mx = max(mx, float(np.max(angles)))
        passed = passed and not len(bad)
    return Check(
        "non-degeneracy", passed, min(mn, math.pi - mx), delta / 2,
        f"angles in [{mn:.4f}, {mx:.4f}], delta/2 = {delta / 2:.4f}",
    )


def _audit_check(system: TriangleSystem, cells_per_level: int, seed: int) -> Check:
    """Every sampled subdivision map must stay within its gauge envelope.

    A system with no gauge constant is calibrated first.  ``value`` is the
    worst deviation over envelope of ``audit_sweep`` (inf for a deviation
    over a zero envelope) and ``bound`` is 1: passes when value <= bound.
    """
    if system.gauge_c is None:
        calibrate_gauge(system, seed=seed)
    dev, diam = audit_sweep(system, cells_per_level=cells_per_level, seed=seed)
    envelope = 0.5 * system.gauge_c * diam**2
    over = np.divide(dev, envelope, out=np.where(dev > 0, math.inf, 0.0), where=envelope > 0)
    worst = float(np.max(over))
    return Check(
        "similarity-audits", bool(np.all(dev <= envelope)), worst, 1.0,
        f"c = {system.gauge_c:.6g}, worst dev/envelope = {worst:.3f}",
    )


def check_ratio_products(system: TriangleSystem) -> Check:
    """Side-quotient drift of every cell against the product bound.

    The bound is L(r) = exp(2 r^2 / (1 - nu^2)) with r the base diameter
    and nu the diameter contraction factor; base quotients a_i/a_j may
    drift by at most this factor under repeated subdivision.  ``value`` is
    the worst drift, at least 1, and ``bound`` is L(r): passes when
    value <= bound.
    """
    r = system.base.diam
    nu = system.nu
    bound = math.exp(2.0 * r * r / (1.0 - nu * nu))
    base_sides = np.asarray(system.base.side_lengths)
    worst = 1.0
    # quotients a_1/a_2, a_2/a_3 and a_3/a_1
    base_quotients = base_sides / np.roll(base_sides, -1)
    for n in range(1, system.depth + 1):
        sides = system.level(n).side_lengths
        drift = (sides / np.roll(sides, -1, axis=1)) / base_quotients
        worst = max(worst, float(np.max(np.maximum(drift, 1.0 / drift))))
    return Check("ratio-products", worst <= bound, worst, bound, f"max drift {worst:.6g} vs L(r) = {bound:.6g}")


# The proof-level slack of the controlled Moran structure: diameter
# products may stray from 1/diam(base) by this factor either way.
MORAN_BAND = 4.0


def controlled_moran_check(system: TriangleSystem, max_total: int | None = None) -> Check:
    """Diameter-product control over concatenated indices.

    For index pairs (I, J) with |I| + |J| within the stored depth (or
    ``max_total``), the ratio diam(IJ) / (diam(I) diam(J)) must stay in a
    uniform band around 1/diam(base); on the flat model it is that
    constant.  ``value`` is the band factor, the largest factor by which a
    ratio strays from 1/diam(base) (1 when no pair fits the depth), and
    ``bound`` is ``MORAN_BAND``: passes when value <= bound.
    """
    limit = system.depth if max_total is None else min(max_total, system.depth)
    center = 1.0 / system.base.diam
    lo = math.inf
    hi = -math.inf
    diams = [system.level_diams(n) for n in range(system.depth + 1)]
    for m in range(1, limit):
        for k in range(1, limit - m + 1):
            ratio = diams[m + k].reshape(3**m, 3**k) / (diams[m][:, None] * diams[k][None, :])
            lo = min(lo, float(np.min(ratio)))
            hi = max(hi, float(np.max(ratio)))
    if limit < 2:  # no pair fits the depth
        band, d_required = 1.0, max(1.0, center)
    else:
        band, d_required = max(hi / center, center / lo), max(hi, 1.0 / lo, 1.0)
    return Check(
        "controlled-moran", band <= MORAN_BAND, band, MORAN_BAND,
        f"band factor {band:.4f} around 1/diam = {center:.4f}, D >= {d_required:.4f}",
    )


def certify(system: TriangleSystem, seed: int = 0, cells_per_level: int = 12) -> list:
    """The six checks of the certificate, in ``verify``'s order.

    ``seed`` and ``cells_per_level`` set the sampled cells of the nesting
    check and the audit sweep.  A check that raises a ``GeogasketError``
    becomes a failing ``Check`` whose detail is ``error: <message>``, with
    NaN value and bound.
    """
    checks = (
        ("nesting", lambda: nesting_check(system, cells_per_level=cells_per_level, seed=seed)),
        ("nu-contraction", lambda: contraction_check(system)),
        ("non-degeneracy", lambda: nondegeneracy_sweep(system)),
        ("similarity-audits", lambda: _audit_check(system, cells_per_level, seed)),
        ("ratio-products", lambda: check_ratio_products(system)),
        ("controlled-moran", lambda: controlled_moran_check(system)),
    )
    results = []
    for name, run in checks:
        try:
            results.append(run())
        except GeogasketError as exc:
            results.append(Check(name, False, math.nan, math.nan, f"error: {exc}"))
    return results


# -- serialization and rendering -------------------------------------------


def system_to_json(system: TriangleSystem) -> str:
    """Deterministic one-line JSON export of a system, keys sorted; its
    surface must carry a spec.

    ``meta`` is plain JSON.  Entry n - 1 of ``levels`` holds what the solver
    produced for level n, each parent's ``midpoints`` (3^(n-1), 3, 2) and
    ``midlines`` (3^(n-1), 3), read back out of its children; each array is
    one string, the padded base64 of its little-endian binary64 values in C
    order, so the reader gets every bit back.
    """
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
    for lv in system.levels[1:]:
        verts = lv.vertices.reshape(-1, 3, 3, 2)
        sides = lv.side_lengths.reshape(-1, 3, 3)
        levels.append({
            "midlines": binary64_text(np.diagonal(sides, axis1=1, axis2=2)),
            "midpoints": binary64_text(verts[:, _MIDPOINT_CHILDREN[0], _MIDPOINT_CHILDREN[1]]),
        })
    # no indent, so that json uses its C encoder
    return json.dumps({"meta": meta, "levels": levels}, sort_keys=True)


def system_from_json(text: str) -> TriangleSystem:
    """System of an export of ``system_to_json``, checked as it is read;
    ``SceneValidationError`` names the field at fault.

    Each level array must be a base64 string of exactly its shape's count of
    finite binary64 values, every midpoint inside the chart and every
    midline positive.  Files that store the arrays as JSON number lists, as
    before this encoding, fail on ``level 1 midpoints``.
    """
    doc = json_object(json.loads(text), ("meta", "levels"), "system", optional=())
    keys = ("surface", "depth", "delta", "base_vertices", "base_side_lengths")
    meta = json_object(doc["meta"], keys, "meta", optional=("gauge_c",))
    levels, depth = doc["levels"], meta["depth"]
    if not (isinstance(levels, list) and is_json_int(depth) and depth == len(levels) and depth >= 1):
        raise SceneValidationError("levels must be a list of meta.depth levels, meta.depth a positive integer")
    delta = float(json_numbers(meta["delta"], (), "meta.delta"))
    if not 0 < delta < math.pi / 2:
        raise SceneValidationError(f"meta.delta must lie in (0, pi/2), not {delta}")
    gauge_c = None if meta.get("gauge_c") is None else float(json_numbers(meta["gauge_c"], (), "meta.gauge_c"))
    base_vertices = json_numbers(meta["base_vertices"], (3, 2), "meta.base_vertices")
    base_sides = json_numbers(meta["base_side_lengths"], (3,), "meta.base_side_lengths")
    try:
        surface = make_surface(meta["surface"])
        base = GeodesicTriangleRegion(surface, base_vertices, base_sides)
    except GeogasketError as exc:
        raise SceneValidationError(f"meta: {exc}") from exc
    arrays = [LevelArrays(vertices=base_vertices[None], side_lengths=base_sides[None].copy())]
    for n, entry in enumerate(levels, start=1):
        entry = json_object(entry, ("midlines", "midpoints"), f"level {n}", optional=())
        mids = json_binary64(entry["midpoints"], (3 ** (n - 1), 3, 2), f"level {n} midpoints")
        midlines = json_binary64(entry["midlines"], (3 ** (n - 1), 3), f"level {n} midlines")
        if not surface.contains(mids.reshape(-1, 2)).all():
            raise SceneValidationError(f"level {n} midpoints must lie inside the chart {surface.chart}")
        if np.any(midlines <= 0):
            raise SceneValidationError(f"level {n} midlines must be positive")
        parents = arrays[-1]
        arrays.append(_children(parents.vertices, parents.side_lengths, mids, midlines))
    return TriangleSystem(base, depth, delta, arrays, gauge_c=gauge_c)


# Width and height of a rendered SVG, in pixels.
_SVG_SIZE = 1024


def render_svg(system: TriangleSystem, level: int) -> str:
    """Stroke-only SVG of the cells at a level, in chart coordinates."""
    size = _SVG_SIZE
    lv = system.level(level)
    pts = lv.vertices.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    pad = 0.05 * span
    scale = size / (span + 2 * pad)

    # pixel coordinates x0, y0, x1, y1, x2, y2 of each cell
    px = np.empty((len(lv.vertices), 6))
    px[:, 0::2] = (lv.vertices[:, :, 0] - lo[0] + pad) * scale
    px[:, 1::2] = size - (lv.vertices[:, :, 1] - lo[1] + pad) * scale
    polygon = (
        '<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f" '
        'fill="none" stroke="black" stroke-width="0.5"/>'
    )
    body = "\n".join([polygon % tuple(row) for row in px.tolist()])
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f"{body}\n</svg>\n"
    )
