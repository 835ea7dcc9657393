"""Scene configuration: the validated input document for system builds."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from .dimension import GaugeSpec
from .errors import SceneValidationError
from .surfaces import SurfaceModel, make_surface
from .triangles import GeodesicTriangleRegion


def validate_scene_doc(doc: dict) -> None:
    with resources.files("geogasket.schemas").joinpath("scene.schema.json").open() as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise SceneValidationError(f"scene invalid at {path}: {exc.message}") from exc


@dataclass
class SceneConfig:
    """Validated build configuration."""

    surface_spec: object
    vertices: list
    depth: int
    delta: float
    gauge: dict = field(default_factory=lambda: {"form": "power", "alpha": 2.0})
    seed: int = 0
    audit_pairs: int = 100
    cells_per_level: int = 12

    @classmethod
    def from_doc(cls, doc: dict) -> "SceneConfig":
        validate_scene_doc(doc)
        tol = doc.get("tolerances", {})
        return cls(
            surface_spec=doc["surface"],
            vertices=doc["vertices"],
            depth=int(doc["depth"]),
            delta=float(doc["delta"]),
            gauge=doc.get("gauge", {"form": "power", "alpha": 2.0}),
            seed=int(doc.get("seed", 0)),
            audit_pairs=int(tol.get("audit_pairs", 100)),
            cells_per_level=int(tol.get("cells_per_level", 12)),
        )

    @classmethod
    def from_path(cls, path) -> "SceneConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
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
