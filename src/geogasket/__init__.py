"""Geodesic Sierpinski gaskets on curved surfaces.

Build midpoint-subdivision triangle systems on 2D Riemannian charts,
certify the almost-similarity structure numerically, and estimate the
Hausdorff/box dimension of the limit set.
"""

from .dimension import (
    GaugeSpec,
    MoranSolution,
    RatioList,
    box_dimension_estimate,
    gauge_admissible,
    hausdorff_upper_sum,
    solve_moran,
)
from .gasket import (
    Check,
    TriangleSystem,
    apply_f,
    audit_similarity,
    audit_sweep,
    build_system,
    calibrate_gauge,
    certify,
    render_svg,
    system_from_json,
    system_to_json,
)
from .measures import pushforward_fixpoint
from .metric_core import CoverRecord
from .scene import SceneConfig
from .surfaces import (
    SurfaceModel,
    euclidean_surface,
    make_surface,
    poincare_disk_surface,
    surface_from_json,
    unit_sphere_surface,
)
from .triangles import (
    GeodesicTriangleRegion,
    is_delta_nondegenerate,
)

__version__ = "0.1.0"
