"""Scene configuration: the validated input document for system builds."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dimension import GaugeSpec
from .errors import SceneValidationError, json_integer, json_numbers, json_object
from .surfaces import SurfaceModel, make_surface
from .triangles import GeodesicTriangleRegion

SCENE_KEYS = ("surface", "vertices", "depth", "delta", "gauge", "seed", "tolerances")


@dataclass
class SceneConfig:
    """Validated build configuration; ``from_doc`` is where its defaults live."""

    surface_spec: object
    vertices: np.ndarray
    depth: int
    delta: float
    gauge: GaugeSpec
    seed: int
    audit_pairs: int
    cells_per_level: int

    @classmethod
    def from_doc(cls, doc) -> "SceneConfig":
        """Scene of a JSON document, checked as it is read; ``DomainError`` names the field at fault.

        Every number must be a finite float64.  The surface is checked by
        ``make_surface`` when ``surface()`` builds it, the base vertices by
        the base triangle, and the gauge by ``GaugeSpec``.
        """
        json_object(doc, SCENE_KEYS[:4], "scene", optional=SCENE_KEYS[4:])
        vertices = json_numbers(doc["vertices"], (3, 2), "vertices")
        depth = json_integer(doc["depth"], "depth", 1, 14)
        delta = float(json_numbers(doc["delta"], (), "delta"))
        if not 0 < delta < math.pi / 2:
            raise SceneValidationError(f"delta must lie in (0, pi/2), not {delta}")
        gauge = GaugeSpec(**json_object(doc.get("gauge", {"form": "power", "alpha": 2.0}), ("form",), "gauge"))
        seed = json_integer(doc.get("seed", 0), "seed", 0)
        tol = json_object(doc.get("tolerances", {}), (), "tolerances", optional=("audit_pairs", "cells_per_level"))
        return cls(
            surface_spec=doc["surface"],
            vertices=vertices,
            depth=depth,
            delta=delta,
            gauge=gauge,
            seed=seed,
            audit_pairs=json_integer(tol.get("audit_pairs", 100), "tolerances.audit_pairs", 100),
            cells_per_level=json_integer(tol.get("cells_per_level", 12), "tolerances.cells_per_level", 1),
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
