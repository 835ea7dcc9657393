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
half-ratio similarity, against an envelope that the second-order law
derives from the metric and the stored sides, with no geodesic solve.  In
normal coordinates at a cell's apex the metric gives d(X, Y)² = |X - Y|²
- (K/3) |X ∧ Y|² + O(r⁵) (do Carmo, *Riemannian Geometry*, ch. 3 and 10;
Karcher 1977, CPAM 30), and the cross geodesics of the parametrization bend
by K s³ D(t); the map (t, s) -> (t, s/2) then scales distances by
1/2 - (3/16) K F2/F0 + O(K² d⁴), whose sup over the cell is C(shape) |K|
diam², C a number of the parent's shape alone (3/32 for an equilateral
one).  ``calibrate_gauge`` has the details.  ``certify`` runs the six
checks of the certificate (nesting, contraction, non-degeneracy, the
audits, side-quotient drift and diameter products over index
concatenation) and returns them as ``Check`` records.
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
    _band_failures,
    _direction_table,
    _frames,
    _invert_rows,
    _pair_distances,
    _points,
    _side_logs,
    is_delta_nondegenerate,
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
    digits = tuple(index)
    names = range(1, len(_CHILD_VERTICES) + 1)
    if not all(np.issubdtype(type(d), np.integer) and d in names for d in digits):
        raise DomainError(f"multi-index digits must be in {{{','.join(map(str, names))}}}: {index!r}")
    return tuple(map(int, digits))


def mi_code(index) -> int:
    """Lexicographic cell code at the index's level (first digit most
    significant), in base the number of children."""
    b = len(_CHILD_VERTICES)
    return sum((d - 1) * b**k for k, d in enumerate(reversed(mi_validate(index))))


def mi_from_code(code: int, length: int) -> tuple:
    b = len(_CHILD_VERTICES)
    return tuple(code // b**k % b + 1 for k in reversed(range(length)))


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
    """Slices splitting ``count`` items of ``rows_each`` rows each, in their
    order, into passes of at most ``_STACK_ROWS`` rows (at least one item a
    pass): each pass takes as many items as fit, the last the rest; no pass
    for no item.

    A pass costs the integrator steps of its longest geodesics, and cells
    come level by level, shallow levels with the longest geodesics first, so
    filling the passes in order keeps the shallow cells in as few passes as
    possible and never costs more steps than spreading the cells evenly.
    """
    size = max(1, _STACK_ROWS // rows_each)
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


def _side_ends(points: np.ndarray):
    """Start and end rows (3N, 2) of the sides of the triangles ``points``
    (N, 3, 2): side k runs from point k + 1 to point k + 2, indices mod 3."""
    return points[:, [1, 2, 0]].reshape(-1, 2), points[:, [2, 0, 1]].reshape(-1, 2)


def _solve_level(surface: SurfaceModel, verts: np.ndarray, logs=None, more: bool = False):
    """The geodesic solves of one subdivision step for a whole level.

    Returns the side midpoints (N, 3, 2), midpoint k on the side opposite
    vertex k, the midlines (N, 3), midline k joining the two midpoints
    other than midpoint k, and the side directions of the level below or
    None.  Side directions are log rows (3N, 2) in the order of
    ``_side_ends``; given the level's, the midpoints start from them, and
    without them its sides are shot first.  Given ``more``, the solve that
    shoots the midlines shoots the children's sides too, so each level below
    the first starts its midpoints from directions shot with its parents'
    midlines; a geodesic's result does not depend on its batch.  The flat
    model's midpoints read no directions, so it shoots none.
    """
    n = len(verts)
    mids = surface.midpoint_many(*_side_ends(verts), logs).reshape(n, 3, 2)
    starts, ends = _side_ends(mids)
    if more and not surface.flat:
        child_starts, child_ends = _side_ends(_child_vertices(verts, mids))
        starts, ends = np.concatenate([starts, child_starts]), np.concatenate([ends, child_ends])
    w = surface.log_many(starts, ends)
    midlines = surface.norm(starts[: 3 * n], w[: 3 * n]).reshape(n, 3)
    return mids, midlines, w[3 * n :] if len(w) > 3 * n else None


# The tree: a parent has one child per row of these tables, digit d naming
# row d.  Child d keeps the parent's vertex d; its other two vertices are the
# midpoints of the sides at d, its side opposite vertex d is midline d, and
# its other two sides are halves of the parent's.  Row d of each table picks
# child d's three entries from a parent's vertices followed by its
# midpoints, and from its halved sides followed by its midlines.
_CHILD_VERTICES = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_CHILD_SIDES = np.array([[3, 1, 2], [0, 4, 2], [0, 1, 5]])
# (t, s) of the parent's vertices and midpoints, in the order of the first
# table, in the parametrization at the parent's vertex 1; the apex's s = 0
# is stored as the 1e-12 that ``triangles._invert_rows`` clips s to
_SLOT_PARAMETERS = np.array([[0.0, 1e-12], [1.0, 1.0], [0.0, 1.0], [0.5, 1.0], [0.0, 0.5], [1.0, 0.5]])


def _child_vertices(verts: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Vertices (BN, 3, 2) of the children of parents ``verts`` with
    midpoints ``mids``, in the order of ``_children``."""
    return np.concatenate([verts, mids], axis=1)[:, _CHILD_VERTICES].reshape(-1, 3, 2)


def _children(verts: np.ndarray, sides: np.ndarray, mids: np.ndarray, midlines: np.ndarray) -> LevelArrays:
    """The level below parents (verts, sides) with the given midpoints and
    midlines: child Bp + d - 1 of parent p, B children each, has digit d.

    Vertices are copies and sides exact halves or midlines, so the level
    carries no number beyond its parents' and the solved ones.
    """
    lengths = np.concatenate([sides / 2.0, midlines], axis=1)
    return LevelArrays(
        vertices=_child_vertices(verts, mids),
        side_lengths=lengths[:, _CHILD_SIDES].reshape(-1, 3),
    )


# -- the system ----------------------------------------------------------


class TriangleSystem:
    """The family of subdivision cells of a base triangle: ``levels[n]``
    holds level n, from the base at level 0 to ``depth = len(levels) - 1``,
    which must be at least 1, or ``DomainError`` is raised.  It keeps no
    solver state: every check solves what it reads from these arrays.
    """

    def __init__(self, base: GeodesicTriangleRegion, delta, levels):
        if len(levels) < 2:
            raise DomainError(f"a system needs the base and at least one level, not {len(levels)} level(s)")
        self.base = base
        self.surface = base.surface
        self.depth = len(levels) - 1
        self.delta = float(delta)
        self.levels = levels
        r = base.diam
        # the flat model is the classical IFS: contraction is exactly 1/2;
        # the r² correction term is curvature-driven
        self.nu = 0.5 if base.surface.flat else 0.5 * (1.0 + r * r)

    def level(self, n: int) -> LevelArrays:
        if not (0 <= n <= self.depth):
            raise DomainError(f"level {n} outside stored depth {self.depth}")
        return self.levels[n]


def build_system(
    base: GeodesicTriangleRegion,
    depth: int,
    delta: float,
) -> TriangleSystem:
    """Build all cells to the requested depth.

    The base must be delta-non-degenerate; every produced cell is required
    to stay delta/2-non-degenerate, and the first failing cell is named in
    the raised error.  Level 1's midpoints start from the base's direction
    table, or from its sides shot first when it has none, and every later
    level's from the directions shot with the previous level's midlines
    (see ``_solve_level``): one ``exp`` pass and one shooting solve a level.
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
    logs = None if base.directions is None else _side_logs(base.directions)
    for n in range(depth):
        lv = levels[-1]
        mids, midlines, logs = _solve_level(base.surface, lv.vertices, logs, more=n + 1 < depth)
        child = _children(lv.vertices, lv.side_lengths, mids, midlines)
        _, bad = _band_failures(child.side_lengths, delta / 2)
        if len(bad):
            cell = mi_from_code(int(bad[0]), n + 1)
            raise NondegeneracyError(
                cell,
                f"cell {mi_str(cell)} fails {delta / 2}-non-degeneracy "
                f"(sides {child.side_lengths[bad[0]]})",
            )
        levels.append(child)
    return TriangleSystem(base, delta, levels)


# -- subdivision maps ----------------------------------------------------


def _apexes(codes) -> np.ndarray:
    """The parent vertex that each cell's row of the child tables keeps."""
    return np.min(_CHILD_VERTICES, axis=1)[codes % len(_CHILD_VERTICES)]


def _parents(system: TriangleSystem, levels, codes):
    """Vertices (N, 3, 2) and side lengths (N, 3) of the parents of the
    cells (levels, codes), read from the level arrays."""
    verts = np.empty((len(codes), 3, 2))
    sides = np.empty((len(codes), 3))
    parents = codes // len(_CHILD_VERTICES)
    # every level read before any index, in order of first appearance, so that
    # the first cell past the stored depth names the error
    parent_levels = {n: system.level(n - 1) for n in dict.fromkeys(levels.tolist())}
    for n, lv in parent_levels.items():
        at = np.flatnonzero(levels == n)
        verts[at] = lv.vertices[parents[at]]
        sides[at] = lv.side_lengths[parents[at]]
    return verts, sides


def _parent_frames(system: TriangleSystem, levels, codes):
    """Diameters and frame table, 2N rows of ``triangles._frames``, of the
    parents of the N cells (levels, codes), from the level arrays and one
    direction-table solve of the distinct parents: row r sits at the parent
    vertex that cell r's row of the child tables keeps, row N + r at vertex
    1 of cell r's parent."""
    verts, sides = _parents(system, levels, codes)
    parents = np.column_stack([levels, codes // len(_CHILD_VERTICES)])
    # one row of each parent, whose cells share its vertices
    _, first, which = np.unique(parents, axis=0, return_index=True, return_inverse=True)
    table = _direction_table(system.surface, verts[first])[which.ravel()]
    apexes = np.concatenate([_apexes(codes), np.zeros(len(codes), dtype=int)])
    return np.max(sides, axis=1), _frames(np.concatenate([verts, verts]), np.concatenate([table, table]), apexes)


def apply_f(system: TriangleSystem, cells, xs) -> np.ndarray:
    """Images of the parent points ``xs`` under the map onto each of ``cells``.

    The map onto a cell recovers the parametrization coordinates (t, s) of
    a point in the parent (apex chosen by the last digit) and returns the
    point at (t, s/2); on the flat model this is exactly the half-ratio
    homothety at the apex.  Returns an array of shape (len(cells),
    len(xs), 2) for ``xs`` of shape (N, 2).  The images come out of the
    inversion passes themselves.  Raises InversionError naming the cell when
    a recovery residual exceeds ``_INVERT_TOL`` times the parent diameter.
    """
    levels, codes = _cell_arrays(cells, "apply_f")
    xs = _points(xs, "apply_f")
    diams, frames = _parent_frames(system, levels, codes)
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

# The audit's near-pair step eps, directions (dt, ds), and pencils (s, t count)
_NEAR_STEP = 0.01
_NEAR_DIRECTIONS = np.array([[1.0, 0.0], [0.5**0.5, 0.5**0.5], [0.0, 1.0], [-(0.5**0.5), 0.5**0.5]])
_PENCILS = ((1.0, 17), (0.5, 5))


def _audit_parameter_grid(seed: int) -> np.ndarray:
    """The audit's pairs (t1, s1, t2, s2), near-coincident on s = 1, where
    the law puts its sup (``calibrate_gauge``): each (t, s) of a pencil's
    lattice paired with (t + eps dt, s - eps ds) for each direction, a step
    out of [0, 1] taken with -dt.  17 t on s = 1 and a coarse interior set
    of 5 t on s = 1/2 give 84 pairs at seed 0 on 11 distinct s, one cross
    geodesic each; ``seed`` shifts the t lattices by up to half a spacing.

    eps.  A near pair reads the stretch over a chord of length eps, so the
    sup falls short of the law's by a share about eps: 0.3%, 1% and 3% at
    eps = 0.003, 0.01 and 0.03 on the depth-6 sphere; below 2%, a 2%
    smaller C fails it.  A shooting error about the solver's tolerance tau
    moves a pair's ratio by about tau/(eps d) in a parent of diameter d, a
    share tau/(eps C kappa d³) of the envelope, eight-fold a level.  At
    eps = 0.003 it takes level 12 of ``sphere_small`` to 1.029 of the
    envelope; at 0.01, to 0.997.
    """
    shift = (seed * 0.6180339887498949 + 0.5) % 1.0 - 0.5
    pairs = []
    for s, count in _PENCILS:
        t = np.repeat(np.clip((np.arange(count) + shift) / (count - 1), 0.0, 1.0), len(_NEAR_DIRECTIONS))
        dt, ds = np.tile(_NEAR_STEP * _NEAR_DIRECTIONS, (count, 1)).T
        dt = np.where((t + dt < 0) | (t + dt > 1), -dt, dt)
        pairs.append(np.column_stack([t, np.full_like(t, s), t + dt, s - ds]))
    return np.unique(np.vstack(pairs), axis=0)


def audit_similarity(system: TriangleSystem, cells, seed: int = 0):
    """Dilation deviations of the maps onto ``cells``.

    Returns two arrays over ``cells``: the worst |d(f x, f y)/d(x, y) - 1/2|
    over the pairs of ``_audit_parameter_grid``, and the parent diameter.
    A pair of coinciding points, which only a degenerate parent has, raises
    DomainError.  One side-direction solve serves the apexes of all cells,
    which then go through ``_pair_distances`` in stacked groups; a cell's
    result does not depend on the cells audited with it.  ``seed`` must lie
    in 0..2**32 - 1.
    """
    return _audit(system, *_cell_arrays(cells, "audit"), seed)[:2]


def _audit(system: TriangleSystem, levels, codes, seed: int):
    """``audit_similarity`` of the N cells (levels, codes), then their
    parents' frame table (``_parent_frames``) and the first nesting iterates
    of their vertices, (3N, 2), which each group's parametrization pass also
    solves (see ``nesting_check``), or None on the flat model."""
    # the lattice shift scales seed as a binary64, whose fraction thins past this range
    if not 0 <= seed <= 2**32 - 1:
        raise DomainError(f"the audit seed must be in 0..{2**32 - 1}, not {seed}")
    t1, s1, t2, s2 = _audit_parameter_grid(seed).T
    diams, frames = _parent_frames(system, levels, codes)
    m, n = len(codes), len(t1)
    rows = np.arange(m)
    # the parameters of each cell's vertices in its parent's frame at vertex 1
    start = _SLOT_PARAMETERS[_CHILD_VERTICES[codes % len(_CHILD_VERTICES)]]
    ts = np.concatenate([t1, t2, t1, t2])
    ss = np.concatenate([s1, s2, s1 / 2, s2 / 2])
    d, df = np.empty((2, m, n))
    firsts = []
    for g in _passes(m, 4 * n + 3):
        seeds = (np.repeat(m + rows[g], 3), *start[g].reshape(-1, 2).T)
        (d[g], df[g]), first = _pair_distances(system.surface, frames, rows[g], ts, ss, seeds)
        firsts.append(first)
    if not np.all(d > 0):
        raise DomainError("an audit pair of coinciding points: a parent is degenerate")
    first = None if system.surface.flat else np.concatenate(firsts)
    return np.max(np.abs(df / d - 0.5), axis=1), diams, frames, first


def _level_sample(system: TriangleSystem, cells_per_level: int):
    """(levels, codes) of the cells that the nesting check and the audit sweep
    read, level by level: up to ``cells_per_level`` codes evenly spaced over
    each level, the first included and, from 2 codes a level on, the last,
    so a small level is read whole, from no more than its cells however
    large ``cells_per_level`` is; with 1, only code 0 of each level."""
    sizes = [len(lv) for lv in system.levels[1:]]
    codes = [np.unique(np.linspace(0, size - 1, min(cells_per_level, size)).astype(int)) for size in sizes]
    return np.repeat(np.arange(1, system.depth + 1), [len(c) for c in codes]), np.concatenate(codes)


# -- the second-order law ---------------------------------------------------

# Relative remainder of the law per unit of kappa diam², measured, not
# derived: twice the largest |audited - law| / (C kappa diam²) over
# kappa diam², 0.059, read on the former audit grid (lattice, near and seed-7
# Kronecker pairs at s <= 0.93) for the maps of levels 1 to 3 of nine base
# shapes (equilateral, skew, off-centre and six random ones, every planar
# angle above 0.45) at diameters 0.1 to 0.38, on the sphere and the disk;
# below diameter 0.05 rounding dominates.  On the near pairs of
# ``_audit_parameter_grid`` such shapes read up to 0.124, about theta.
_LAW_REMAINDER = 0.12

# The t at which the pencil's stretch is evaluated before one parabola step
# refines the best of them; the step takes the sup to about 1e-10 relative.
_LAW_T = np.linspace(0.0, 1.0, 65)


def _stretch(p, h2, c, t):
    """The larger |eigenvalue| of the second-order pencil at (t, s = 1), of
    planar triangles with side c opposite the apex, apex height h over it
    (h2 = h²) and offset p of a along it (see ``_shape_constants``),
    broadcast over the arrays given."""
    u = p + t * c
    w = t * (1 - t)
    beta = 2 * w * c * c - (h2 + u * u) / 3 - 2 * (1 - 2 * t) * c * u / 3
    q = c * c * h2 * (1 + 2 * w) / 9
    return (np.abs(beta) + np.sqrt(beta * beta + 4 * q)) / 2


def _shape_constants(sides, apexes) -> np.ndarray:
    """C of the corner map at vertex apexes[r] of the planar triangle with
    side lengths sides[r]: (3/16) sup |F2/F0| / diam² (see
    ``calibrate_gauge``).

    As in ``triangles._frames``, a runs from the apex to the vertex after
    the next and b to the next one, so |a| = la is side apex + 1,
    |b| = lb side apex + 2, and c = |b - a| the apex's own side.  The line
    through a and b lies at height h from the apex (h2 = h²), a sits at the
    offset p = <a, b - a>/c along it, and l(t) at u = p + t c.
    """
    rows = np.arange(len(sides))
    c, la, lb = (sides[rows, (apexes + k) % 3][:, None] for k in range(3))
    p = (lb * lb - la * la - c * c) / (2 * c)
    h2 = la * la - p * p
    lam = _stretch(p, h2, c, _LAW_T)
    k = np.clip(np.argmax(lam, axis=1), 1, len(_LAW_T) - 2)
    y0, y1, y2 = (lam[rows, k + j] for j in (-1, 0, 1))
    # the vertex of the parabola through the best grid point and its neighbours
    bend = y0 - 2 * y1 + y2
    step = np.divide(y0 - y2, 2 * bend, out=np.zeros_like(bend), where=bend < 0)
    peak = _stretch(p[:, 0], h2[:, 0], c[:, 0], np.clip(_LAW_T[k] + step * _LAW_T[1], 0.0, 1.0))
    return 3 / 16 * np.maximum(np.max(lam, axis=1), peak) / np.max(sides, axis=1) ** 2


def _envelopes(system: TriangleSystem, levels, codes) -> np.ndarray:
    """The law's bound C kappa (1 + theta) diam² on the deviation of the map
    onto each cell (levels, codes), C and diam its parent's: all zero where
    kappa is 0, without evaluating C."""
    kappa = system.surface.curvature_bound
    if kappa == 0:
        return np.zeros(len(codes))
    _, sides = _parents(system, levels, codes)
    diam2 = np.max(sides, axis=1) ** 2
    return _shape_constants(sides, _apexes(codes)) * kappa * (1 + _LAW_REMAINDER * kappa * diam2) * diam2


def calibrate_gauge(system: TriangleSystem) -> float:
    """The gauge constant c of the base's corner maps, the largest of
    2 C kappa (1 + theta): a level-1 cell passes the audit when its
    deviation is at most c diam(base)² / 2.  Derived, with no geodesic solve.

    The law.  Take normal coordinates at the apex A of the map's parent,
    and the side vectors a and b from the apex in the parent's planar
    comparison triangle (its three stored sides).  The parametrization's
    cross geodesic from s a to s b solves x'' = -Γ(x', x'), and
    Γ(v, v) = -(2/3) K (v <v, x> - x |v|²) to first order, so it bends by
    K s³ D(t) with D(t) = (|b - a|²/3) t (1 - t) a⊥, a⊥ the part of a normal
    to b - a.  With l(t) = (1 - t) a + t b and X(t, s) = s l(t) + K s³ D(t),
    d(X1, X2)² = F0 + K F2 + O(K² d⁶), where

        F0 = |s1 l1 - s2 l2|²,
        F2 = 2 <s1 l1 - s2 l2, s1³ D1 - s2³ D2> - (1/3) s1² s2² (l1 × l2)².

    F0 is of degree 2 in s and F2 of degree 4, so halving s gives
    d(f x, f y)/d(x, y) = 1/2 - (3/16) K F2/F0 + O(K² d⁴).

    Its sup.  sup |F2/F0| over pairs is the near-coincident limit (not
    proved here; on the depth-6 sphere, disk and bump, 499 pairs spread
    over the cell read at most 0.85 of the audit's near pairs): the larger
    |eigenvalue| of the pencil of the two 2 x 2 quadratic forms in
    (dt, ds) at (t, s).  It scales as s², so it lies on s = 1, where the
    forms are F0: [[c², c u], [c u, h² + u²]] and F2: c² h² [[-1/3,
    (1 - 2t)/3], [(1 - 2t)/3, 2 t (1 - t)]], c = |b - a|, h the apex's
    height over b - a and u the offset of l(t) along it (``_stretch``).  Only
    a max over t is left, taken on a grid (``_shape_constants``), and
    C(shape) = (3/16) sup |F2/F0| / diam².  An equilateral parent gives
    C = 3/32 at t = 1/2 at each apex.

    The envelope.  A map passes when its deviation is at most
    C kappa (1 + theta) diam² (``_envelopes``), kappa the largest |K| on
    ``surfaces._chart_grid`` (``SurfaceModel.curvature_bound``) and
    theta = ``_LAW_REMAINDER`` kappa diam² a measured bound of the law's
    relative remainder.  On a chart of kappa 0, c is 0 and C is never
    evaluated.  Rounding is not in theta: the audit's near pairs read 0.99
    of the envelope on the sphere and the disk, and rounding takes that
    past 1 from level 13 of ``sphere_small`` on.
    """
    codes = np.arange(len(_CHILD_VERTICES))
    return 2 * float(np.max(_envelopes(system, np.ones_like(codes), codes))) / system.base.diam**2


def audit_sweep(system: TriangleSystem, cells_per_level: int = 12, seed: int = 0):
    """``audit_similarity`` of ``_level_sample``'s cells; ``seed`` sets the
    sampled pairs, not the cells.  Returns the deviations and parent
    diameters, then what ``nesting_check`` reads as ``audited``: the
    parents' frame table (``_parent_frames``) and, on curved charts, the
    first nesting iterates that the sweep's passes solve (None if flat)."""
    return _audit(system, *_level_sample(system, cells_per_level), seed)


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


def nesting_check(system: TriangleSystem, cells_per_level: int = 12, audited=None) -> Check:
    """Child vertices must lie in the closed parent region.

    Membership is tested through the inverse parametrization on
    ``_level_sample``'s cells, the audit sweep's.  ``value`` is the worst
    residual relative to the parent diameter and ``bound`` is
    ``_INVERT_TOL``: passes when value <= bound.

    Each vertex's inversion starts in the frame of its parent's vertex 1,
    at the parameters the vertex was subdivided at.  ``audited``, the result
    of ``audit_sweep`` at the same ``cells_per_level``, gives the frames and
    the first iterates; then only the vertices whose first residual is above
    the inversion's tolerance go through ``triangles._invert_rows``.
    Without it every vertex does, in frames the check solves itself, to the
    same residuals.
    """
    levels, codes = _level_sample(system, cells_per_level)
    _, diams, frames, first = audited or (None, *_parent_frames(system, levels, codes), None)
    vertex1 = tuple(column[len(codes) :] for column in frames)  # the frames at each parent's vertex 1
    xs = np.concatenate([system.level(n).vertices[codes[levels == n]] for n in np.unique(levels)]).reshape(-1, 2)
    rows = np.repeat(np.arange(len(codes)), 3)
    diam_rows = diams[rows]
    tol = _INVERT_TOL * diam_rows
    # without first iterates every vertex goes on
    resid = np.full(len(xs), np.inf) if first is None else np.hypot(*(first - xs).T)
    rest = np.flatnonzero(resid > 0.05 * tol)
    start = _SLOT_PARAMETERS[_CHILD_VERTICES[codes % len(_CHILD_VERTICES)]].reshape(-1, 2)
    for g in _passes(len(rest), 1):
        at = rest[g]
        _, _, resid[at], _ = _invert_rows(system.surface, vertex1, rows[at], xs[at], 0.05 * tol[at], start=start[at])
    worst = max(float(np.max(resid / np.maximum(diam_rows, 1e-300))), 0.0)
    return Check("nesting", bool(np.all(resid <= tol)), worst, _INVERT_TOL, f"max residual factor {worst:.3e}")


def contraction_check(system: TriangleSystem) -> Check:
    """Every level-n cell diameter must be at most nu^n times the base's.

    ``value`` is the worst diameter over nu^n diam(base) and ``bound`` is
    1 + 1e-12, which allows rounding: passes when value <= bound.
    """
    base = system.base.diam
    worst = max(float(np.max(system.level(n).diams)) / (system.nu**n * base) for n in range(1, system.depth + 1))
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
        angles, bad = _band_failures(system.level(n).side_lengths, delta / 2)
        mn = min(mn, float(np.min(angles)))
        mx = max(mx, float(np.max(angles)))
        passed = passed and not len(bad)
    return Check(
        "non-degeneracy", passed, min(mn, math.pi - mx), delta / 2,
        f"angles in [{mn:.4f}, {mx:.4f}], delta/2 = {delta / 2:.4f}",
    )


def _audit_check(system: TriangleSystem, cells_per_level: int, dev) -> Check:
    """Every sampled subdivision map must stay within the second-order
    law's envelope, ``_envelopes``.

    ``dev`` is the deviations of ``audit_sweep`` at ``cells_per_level``.
    ``value`` is the worst deviation over envelope (inf for a deviation over
    a zero envelope) and ``bound`` is 1: passes when value <= bound.
    """
    envelope = _envelopes(system, *_level_sample(system, cells_per_level))
    over = np.divide(dev, envelope, out=np.where(dev > 0, math.inf, 0.0), where=envelope > 0)
    worst = float(np.max(over))
    return Check(
        "similarity-audits", bool(np.all(dev <= envelope)), worst, 1.0,
        f"kappa = {system.surface.curvature_bound:.6g}, worst dev/envelope = {worst:.3f}",
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


def controlled_moran_check(system: TriangleSystem) -> Check:
    """Diameter-product control over concatenated indices.

    For index pairs (I, J) with |I| + |J| within the stored depth, the
    ratio diam(IJ) / (diam(I) diam(J)) must stay in a uniform band around
    1/diam(base); on the flat model it is that constant.  ``value`` is the
    band factor, the largest factor by which a ratio strays from
    1/diam(base) (1 when no pair fits the depth), and ``bound`` is
    ``MORAN_BAND``: passes when value <= bound.
    """
    center = 1.0 / system.base.diam
    lo, hi = math.inf, -math.inf
    diams = [lv.diams for lv in system.levels]
    for m in range(1, system.depth):
        for k in range(1, system.depth - m + 1):
            ratio = diams[m + k].reshape(len(diams[m]), len(diams[k])) / (diams[m][:, None] * diams[k][None, :])
            lo = min(lo, float(np.min(ratio)))
            hi = max(hi, float(np.max(ratio)))
    if system.depth < 2:  # no pair fits the depth
        band, d_required = 1.0, max(1.0, center)
    else:
        band, d_required = max(hi / center, center / lo), max(hi, 1.0 / lo, 1.0)
    return Check(
        "controlled-moran", band <= MORAN_BAND, band, MORAN_BAND,
        f"band factor {band:.4f} around 1/diam = {center:.4f}, D >= {d_required:.4f}",
    )


def certify(system: TriangleSystem, seed: int = 0, cells_per_level: int = 12) -> list:
    """The six checks of the certificate, in ``verify``'s order.

    ``cells_per_level`` sets the cells that the nesting check and the audit
    sweep both read (``_level_sample``), and ``seed`` only the audit's
    sampled pairs.  The sweep runs first and hands the nesting check its
    frames and first iterates, so each stage of each group of cells is paid
    once (``nesting_check``).  A check that raises a ``GeogasketError``
    becomes a failing ``Check`` whose detail is ``error: <message>``, with
    NaN value and bound; when the sweep raised, the nesting check solves
    what it reads itself.
    """
    try:
        audited = audit_sweep(system, cells_per_level=cells_per_level, seed=seed)
        audit = _audit_check(system, cells_per_level, audited[0])
    except GeogasketError as exc:
        audited, audit = None, Check("similarity-audits", False, math.nan, math.nan, f"error: {exc}")
    checks = [
        ("nesting", lambda: nesting_check(system, cells_per_level, audited)),
        ("nu-contraction", lambda: contraction_check(system)),
        ("non-degeneracy", lambda: nondegeneracy_sweep(system)),
        ("similarity-audits", lambda: audit),
        ("ratio-products", lambda: check_ratio_products(system)),
        ("controlled-moran", lambda: controlled_moran_check(system)),
    ]
    records = []
    for name, check in checks:
        try:
            records.append(check())
        except GeogasketError as exc:
            records.append(Check(name, False, math.nan, math.nan, f"error: {exc}"))
    return records


# -- serialization and rendering -------------------------------------------


def system_to_json(system: TriangleSystem) -> str:
    """Deterministic one-line JSON export of a system, keys sorted.

    ``meta`` is plain JSON.  Entry n - 1 of ``levels`` holds what the solver
    produced for level n, read back out of each parent's children: its
    ``midpoints`` (P, 3, 2) and its children's ``midlines`` (P, B), in child
    order, for P parents of B children.  Each array is one string, the padded
    base64 of its little-endian binary64 values in C order.
    """
    meta = {
        "surface": system.surface.spec,
        "depth": system.depth,
        "delta": system.delta,
        "base_vertices": system.base.vertices.tolist(),
        "base_side_lengths": [float(x) for x in system.base.side_lengths],
    }
    # where midpoints 0 to 2 first sit, and each child's midline, in a parent's children laid end to end
    mid_places = np.argmax(_CHILD_VERTICES.ravel() == np.arange(3, 6)[:, None], axis=1)
    midline_places = np.flatnonzero(_CHILD_SIDES >= 3)
    levels = []
    for lv in system.levels[1:]:
        levels.append({
            "midlines": binary64_text(lv.side_lengths.reshape(-1, _CHILD_SIDES.size)[:, midline_places]),
            "midpoints": binary64_text(lv.vertices.reshape(-1, _CHILD_VERTICES.size, 2)[:, mid_places]),
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
    meta = json_object(doc["meta"], keys, "meta", optional=())
    levels, depth = doc["levels"], meta["depth"]
    if not (isinstance(levels, list) and is_json_int(depth) and depth == len(levels) and depth >= 1):
        raise SceneValidationError("levels must be a list of meta.depth levels, meta.depth a positive integer")
    delta = float(json_numbers(meta["delta"], (), "meta.delta"))
    if not 0 < delta < math.pi / 2:
        raise SceneValidationError(f"meta.delta must lie in (0, pi/2), not {delta}")
    base_vertices = json_numbers(meta["base_vertices"], (3, 2), "meta.base_vertices")
    base_sides = json_numbers(meta["base_side_lengths"], (3,), "meta.base_side_lengths")
    try:
        surface = make_surface(meta["surface"])
        base = GeodesicTriangleRegion(surface, base_vertices, base_sides)
    except GeogasketError as exc:
        raise SceneValidationError(f"meta: {exc}") from exc
    arrays = [LevelArrays(vertices=base_vertices[None], side_lengths=base_sides[None].copy())]
    numbers = np.max(_CHILD_SIDES, axis=1) - 3
    for n, entry in enumerate(levels, start=1):
        parents = arrays[-1]
        entry = json_object(entry, ("midlines", "midpoints"), f"level {n}", optional=())
        mids = json_binary64(entry["midpoints"], (len(parents), 3, 2), f"level {n} midpoints")
        stored = json_binary64(entry["midlines"], (len(parents), len(numbers)), f"level {n} midlines")
        if not surface.contains(mids.reshape(-1, 2)).all():
            raise SceneValidationError(f"level {n} midpoints must lie inside the chart {surface.chart}")
        if np.any(stored <= 0):
            raise SceneValidationError(f"level {n} midlines must be positive")
        midlines = np.zeros((len(parents), 3))
        midlines[:, numbers] = stored
        arrays.append(_children(parents.vertices, parents.side_lengths, mids, midlines))
    return TriangleSystem(base, delta, arrays)


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
    body = "\n".join([polygon] * len(px)) % tuple(px.ravel().tolist())
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f"{body}\n</svg>\n"
    )
