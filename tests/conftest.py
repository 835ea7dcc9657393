import base64
import math

import numpy as np
import pytest

from geogasket.gasket import _children, _solve_level, build_system, mi_code
from geogasket.surfaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    euclidean_surface,
    poincare_disk_surface,
    unit_sphere_surface,
)
from geogasket.triangles import GeodesicTriangleRegion


def read_level(doc, n):
    """Level n of a stored system document as writable arrays: midpoints
    (3^(n-1), 3, 2) and midlines (3^(n-1), 3), decoded from padded base64
    of little-endian binary64 in C order."""
    entry = doc["levels"][n - 1]
    mids, midlines = (
        np.frombuffer(base64.b64decode(entry[key], validate=True), "<f8").copy()
        for key in ("midpoints", "midlines")
    )
    return mids.reshape(-1, 3, 2), midlines.reshape(-1, 3)


def write_level(doc, n, mids, midlines):
    """Store ``mids`` and ``midlines`` as level n of ``doc``, encoded as
    ``read_level`` decodes them; any shape and any value is written."""
    entry = doc["levels"][n - 1]
    for key, values in (("midpoints", mids), ("midlines", midlines)):
        entry[key] = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _sphere_embed(p):
    # inverse stereographic projection from the south pole, onto the unit sphere in R^3
    rho2 = p[0] * p[0] + p[1] * p[1]
    denom = 1.0 + rho2
    return np.array([2 * p[0] / denom, 2 * p[1] / denom, (1 - rho2) / denom])


def _euclidean_dist(p, q):
    return math.hypot(q[0] - p[0], q[1] - p[1])


def _sphere_dist(p, q):
    chord = np.linalg.norm(_sphere_embed(p) - _sphere_embed(q))
    return 2.0 * math.asin(min(1.0, chord / 2.0))


def _hyperbolic_dist(p, q):
    dp = 1.0 - p[0] * p[0] - p[1] * p[1]
    dq = 1.0 - q[0] * q[0] - q[1] * q[1]
    delta2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    return 2.0 * math.asinh(math.sqrt(delta2 / (dp * dq)))


_CLOSED_FORM_DISTANCES = {EUCLIDEAN: _euclidean_dist, SPHERE: _sphere_dist, HYPERBOLIC: _hyperbolic_dist}


@pytest.fixture(scope="session")
def closed_form_distance():
    """The oracle ``(surface, p, q) -> d(p, q)``: the exact geodesic distance
    of a built-in model, independent of the ODE solver."""

    def dist(surface, p, q):
        return float(_CLOSED_FORM_DISTANCES[surface.kind](np.asarray(p, dtype=float), np.asarray(q, dtype=float)))

    return dist


@pytest.fixture(scope="session")
def eu():
    return euclidean_surface()


@pytest.fixture(scope="session")
def sphere():
    return unit_sphere_surface()


@pytest.fixture(scope="session")
def hyperbolic():
    return poincare_disk_surface()


def equilateral_base(surface, diam, chart_metric_scale):
    """Near-equilateral triangle around the chart origin with sides ~diam."""
    verts = []
    for ang in (90, 210, 330):
        a = math.radians(ang)
        w = np.array([math.cos(a), math.sin(a)]) * chart_metric_scale
        verts.append(surface.exp_many([(0.0, 0.0)], [w * (diam / math.sqrt(3))])[0])
    return GeodesicTriangleRegion.from_vertices(surface, *verts)


@pytest.fixture(scope="session")
def split_cells():
    """Splits a region into its three corner cells and the center cell."""

    def split(region):
        verts, sides = region.vertices[None], np.asarray(region.side_lengths)[None]
        mids, midlines, _ = _solve_level(region.surface, verts)
        level = _children(verts, sides, mids, midlines)
        corners = [GeodesicTriangleRegion(region.surface, v, s) for v, s in zip(level.vertices, level.side_lengths)]
        # the center's vertices are the side midpoints the corners share, its
        # sides the midlines (midline k opposite midpoint k)
        center = GeodesicTriangleRegion(region.surface, mids[0], midlines[0])
        return (*corners, center)

    return split


@pytest.fixture(scope="session")
def flat_base(eu):
    return GeodesicTriangleRegion.from_vertices(
        eu, (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)
    )


@pytest.fixture(scope="session")
def sphere_base(sphere):
    return equilateral_base(sphere, 0.3, 0.5)


@pytest.fixture(scope="session")
def hyperbolic_base(hyperbolic):
    return equilateral_base(hyperbolic, 0.3, 0.5)


@pytest.fixture(scope="session")
def flat_system(flat_base):
    return build_system(flat_base, 8, delta=0.5)


@pytest.fixture(scope="session")
def sphere_system(sphere_base):
    return build_system(sphere_base, 6, delta=0.4)


@pytest.fixture(scope="session")
def hyperbolic_system(hyperbolic_base):
    return build_system(hyperbolic_base, 6, delta=0.4)


@pytest.fixture(scope="session")
def first_crossing():
    """The first-crossing simple family of a system below a threshold: for
    each digit string, its first prefix whose stored cell diameter drops to
    the threshold, with a 1e-12 relative slack so that a threshold placed
    exactly at a subdivision scale selects that whole level.  A branch that
    never crosses within the stored depth raises the system's DomainError."""

    def family(system, threshold):
        cutoff = threshold * (1.0 + 1e-12)
        members = []
        stack = [()]
        while stack:
            index = stack.pop()
            if index and system.level(len(index)).diams[mi_code(index)] <= cutoff:
                members.append(index)
            else:
                stack.extend(index + (d,) for d in (3, 2, 1))
        return sorted(members)

    return family

