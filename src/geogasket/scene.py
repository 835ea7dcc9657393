"""Scene configuration: the validated input document for system builds."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dimension import GaugeSpec
from .errors import SceneValidationError
from .gasket import _is_int, _numbers, _object
from .surfaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SurfaceModel, make_surface
from .triangles import GeodesicTriangleRegion

SCENE_KEYS = ("surface", "vertices", "depth", "delta", "gauge", "seed", "tolerances")
GAUGE_FORMS = ("power", "logpower", "neglog_power", "table")


def _integer(value, field: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as an int: a JSON integer (3 or 3.0, not true) in [lo, hi] that a float holds."""
    number = float(_numbers(value, (), field))
    if not (_is_int(value) and lo <= number <= hi):
        raise SceneValidationError(f"{field} must be an integer in [{lo}, {hi}], not {value!r}")
    return int(value)


@dataclass
class SceneConfig:
    """Validated build configuration."""

    surface_spec: object
    vertices: np.ndarray
    depth: int
    delta: float
    gauge: dict = field(default_factory=lambda: {"form": "power", "alpha": 2.0})
    seed: int = 0
    audit_pairs: int = 100
    cells_per_level: int = 12

    @classmethod
    def from_doc(cls, doc) -> "SceneConfig":
        """Scene of a JSON document, checked as it is read; ``SceneValidationError`` names the field at fault.

        Every number must be a finite float64.  A custom surface needs
        ``chart`` and ``metric`` here; ``surface_from_json`` checks the rest
        when ``surface()`` builds it.
        """
        extra = _object(doc, SCENE_KEYS[:4], "scene").keys() - set(SCENE_KEYS)
        if extra:
            raise SceneValidationError(f"scene has unknown keys {sorted(extra)}")
        surface = doc["surface"]
        if isinstance(surface, dict):
            _object(surface, ("chart", "metric"), "surface")
        elif surface not in (EUCLIDEAN, SPHERE, HYPERBOLIC):
            raise SceneValidationError(
                f"surface must be {EUCLIDEAN}, {SPHERE}, {HYPERBOLIC} or an object with chart and metric"
            )
        vertices = _numbers(doc["vertices"], (3, 2), "vertices")
        depth = _integer(doc["depth"], "depth", 1, 14)
        delta = float(_numbers(doc["delta"], (), "delta"))
        if not 0 < delta < math.pi / 2:
            raise SceneValidationError(f"delta must lie in (0, pi/2), not {delta}")
        gauge = _object(doc.get("gauge", {"form": "power", "alpha": 2.0}), ("form",), "gauge")
        if gauge["form"] not in GAUGE_FORMS:
            raise SceneValidationError(f"gauge.form must be one of {', '.join(GAUGE_FORMS)}")
        for key in ("alpha", "beta"):
            if key in gauge:
                _numbers(gauge[key], (), f"gauge.{key}")
        if "n" in gauge:
            _integer(gauge["n"], "gauge.n")
        seed = _integer(doc.get("seed", 0), "seed", 0)
        tol = _object(doc.get("tolerances", {}), (), "tolerances")
        extra = tol.keys() - {"audit_pairs", "cells_per_level"}
        if extra:
            raise SceneValidationError(f"tolerances has unknown keys {sorted(extra)}")
        return cls(
            surface_spec=surface,
            vertices=vertices,
            depth=depth,
            delta=delta,
            gauge=gauge,
            seed=seed,
            audit_pairs=_integer(tol.get("audit_pairs", 100), "tolerances.audit_pairs", 100),
            cells_per_level=_integer(tol.get("cells_per_level", 12), "tolerances.cells_per_level", 1),
        )

    @classmethod
    def from_path(cls, path) -> "SceneConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SceneValidationError(f"cannot read scene {path}: {exc}") from exc
        return cls.from_doc(doc)

    def surface(self) -> SurfaceModel:
        return make_surface(self.surface_spec)

    def base_triangle(self, surface=None) -> GeodesicTriangleRegion:
        surface = surface or self.surface()
        return GeodesicTriangleRegion.from_vertices(surface, *self.vertices)

    def gauge_spec(self) -> GaugeSpec:
        params = {k: v for k, v in self.gauge.items() if k != "form"}
        return GaugeSpec(self.gauge["form"], **params)
