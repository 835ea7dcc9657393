import copy
import json
import math
import warnings

import numpy as np
import pytest

from geogasket import gasket
from geogasket.cli import main
from geogasket.errors import SceneValidationError, ShootingConvergenceError
from geogasket.scene import SceneConfig

FLAT_SCENE = {
    "surface": "euclidean",
    "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]],
    "depth": 4,
    "delta": 0.5,
    "gauge": {"form": "power", "alpha": 2.0},
    "seed": 7,
}


@pytest.fixture()
def flat_scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(FLAT_SCENE))
    return str(path)


@pytest.fixture()
def sphere_scene_path(tmp_path, sphere_base):
    doc = {
        "surface": "sphere_unit",
        "vertices": sphere_base.vertices.tolist(),
        "depth": 4,
        "delta": 0.4,
        "seed": 3,
    }
    path = tmp_path / "sphere_scene.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSceneValidation:
    def test_valid_scene(self):
        cfg = SceneConfig.from_doc(FLAT_SCENE)
        assert cfg.depth == 4 and cfg.seed == 7
        assert (cfg.audit_pairs, cfg.cells_per_level) == (100, 12)
        assert cfg.vertices.tolist() == FLAT_SCENE["vertices"]

    def test_missing_field(self):
        doc = {k: v for k, v in FLAT_SCENE.items() if k != "delta"}
        with pytest.raises(SceneValidationError, match="scene lacks delta"):
            SceneConfig.from_doc(doc)

    def test_bad_vertex_shape(self):
        doc = dict(FLAT_SCENE, vertices=[[0, 0], [1, 0]])
        with pytest.raises(SceneValidationError, match="vertices must hold finite numbers"):
            SceneConfig.from_doc(doc)

    def test_integers_as_json_counts_them(self):
        # 4.0 is an integer, as it was under JSON Schema; true is not
        doc = dict(FLAT_SCENE, depth=4.0, seed=7.0, tolerances={"audit_pairs": 120.0, "cells_per_level": 3})
        cfg = SceneConfig.from_doc(doc)
        assert (cfg.depth, cfg.seed, cfg.audit_pairs, cfg.cells_per_level) == (4, 7, 120, 3)
        assert type(cfg.depth) is int and type(cfg.seed) is int
        for bad in (dict(doc, depth=4.5), dict(doc, seed=True), dict(doc, gauge={"form": "logpower", "n": 1.5})):
            with pytest.raises(SceneValidationError, match="must be an integer|must hold finite numbers"):
                SceneConfig.from_doc(bad)

    def test_custom_surface_scene(self):
        doc = dict(
            FLAT_SCENE,
            surface={
                "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
                "metric": {"E": "1", "F": "0", "G": "1"},
            },
            vertices=[[0.0, 0.0], [0.2, 0.0], [0.1, 0.17]],
        )
        cfg = SceneConfig.from_doc(doc)
        assert cfg.surface().kind == "custom"

    def test_gauge_spec_from_scene(self):
        cfg = SceneConfig.from_doc(FLAT_SCENE)
        gauge = cfg.gauge_spec()
        assert gauge(0.5) == pytest.approx(0.25)


class TestMoranCommand:
    def test_classical(self, capsys):
        assert main(["moran", "0.5", "0.5", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s = 1.5849625007211")

    def test_two(self, capsys):
        assert main(["moran", "0.5", "0.5"]) == 0
        assert "s = 1.000000000000000" in capsys.readouterr().out

    def test_out_of_range(self):
        assert main(["moran", "1.5"]) == 2

    def test_unparsable(self):
        assert main(["moran", "zebra"]) == 2


class TestBuildCommand:
    def test_flat_depth3(self, flat_scene_path, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "3", "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert len(doc["levels"][-1]["cells"]) == 27
        back = gasket.system_from_json(text)
        assert gasket.system_to_json(back) == json.dumps(doc, sort_keys=True, indent=1)

    def test_deterministic_bytes(self, flat_scene_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["build", flat_scene_path, "--depth", "3", "--out", str(out1)])
        main(["build", flat_scene_path, "--depth", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_convexity_guard_exit3(self, tmp_path, sphere):
        verts = []
        for ang in (90, 210, 330):
            a = math.radians(ang)
            w = np.array([math.cos(a), math.sin(a)]) * 0.5
            verts.append(sphere.exp_many([(0.0, 0.0)], [w], 0.5 / math.sqrt(3))[0].tolist())
        doc = {"surface": "sphere_unit", "vertices": verts, "depth": 2, "delta": 0.4}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["build", str(path), "--out", str(tmp_path / "o.json")]) == 3

    def test_degenerate_base_exit3(self, tmp_path):
        doc = dict(FLAT_SCENE, vertices=[[0, 0], [1, 0], [0.5, 0.01]])
        path = tmp_path / "needle.json"
        path.write_text(json.dumps(doc))
        assert main(["build", str(path), "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize(
        "surface, vertices",
        [
            ("euclidean", [[40.0, 0.0], [60.0, 0.0], [50.0, 17.32]]),
            ("sphere_unit", [[1.7, 0.0], [1.82, 0.0], [1.76, 0.1]]),
        ],
        ids=["euclidean", "sphere_unit"],
    )
    def test_vertex_outside_chart_exit3(self, tmp_path, capsys, surface, vertices):
        doc = dict(FLAT_SCENE, surface=surface, vertices=vertices, depth=2, delta=0.4)
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        capsys.readouterr()
        assert main(["build", str(path), "--out", str(out)]) == 3
        assert "construction failed: geodesic left the chart" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_scene_exit2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"surface\": \"euclidean\"}")
        assert main(["build", str(path), "--out", str(tmp_path / "o.json")]) == 2


class TestVerifyCommand:
    def test_flat_all_pass(self, flat_scene_path, tmp_path, capsys):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--out", out])
        capsys.readouterr()
        assert main(["verify", out]) == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 6
        assert "FAIL" not in text

    def test_sphere_all_pass(self, sphere_scene_path, tmp_path, capsys):
        out = str(tmp_path / "ssys.json")
        main(["build", sphere_scene_path, "--out", out])
        capsys.readouterr()
        assert main(["verify", out]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_truncated_exit2(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"meta": {')
        assert main(["verify", str(path)]) == 2

    def test_corrupted_system_exit4(self, flat_scene_path, tmp_path, capsys):
        out = tmp_path / "sys.json"
        main(["build", flat_scene_path, "--out", str(out)])
        doc = json.loads(out.read_text())
        # corrupt one stored side length so the contraction check fails
        doc["levels"][2]["cells"][5]["side_lengths"][0] *= 3.0
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 4
        text = capsys.readouterr().out
        assert "FAIL" in text and '"failures"' in text


class TestDimCommand:
    def test_flat_slope(self, flat_scene_path, tmp_path, capsys):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--depth", "8", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "rows.csv")
        svg_path = str(tmp_path / "cells.svg")
        code = main(["dim", out, "--levels", "2..8", "--csv", csv_path, "--svg", svg_path])
        assert code == 0
        text = capsys.readouterr().out
        slope = float(text.split("slope = ")[1].split()[0])
        assert slope == pytest.approx(math.log(3) / math.log(2), abs=1e-10)
        with open(csv_path) as fh:
            assert fh.readline().strip() == "epsilon,count,sum"
        import xml.dom.minidom

        xml.dom.minidom.parse(svg_path)

    def test_insufficient_levels_exit2(self, flat_scene_path, tmp_path):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--out", out])
        assert main(["dim", out, "--levels", "1..3"]) == 2


class TestMeasureCommand:
    def test_flat_equal_weights(self, flat_scene_path, tmp_path, capsys):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--out", out])
        capsys.readouterr()
        third = repr(1 / 3)
        code = main([
            "measure", out, "--weights", third, third, repr(1 - 2 / 3), "--iters", "6",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "kr trace:" in text and "invariance residual" in text

    def test_bad_weights_exit2(self, flat_scene_path, tmp_path):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--out", out])
        assert main(["measure", out, "--weights", "0.5", "0.5", "0.5"]) == 2



THIRDS = [repr(1 / 3), repr(1 / 3), repr(1 - 2 / 3)]
SYSTEM_ARGS = {
    "verify": [],
    "dim": ["--levels", "1..3"],
    "measure": ["--weights", *THIRDS, "--iters", "2"],
}


def _built_flat_system(scene_path, tmp_path):
    out = tmp_path / "sys.json"
    assert main(["build", scene_path, "--depth", "3", "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestMalformedSystem:
    """Stored systems that cannot be used: exit 2, naming the field at fault.
    Readable systems with a vertex outside its parent: exit 4."""

    @staticmethod
    def short_levels(doc):
        doc["levels"].pop()

    @staticmethod
    def missing_cell(doc):
        doc["levels"][1]["cells"].pop()

    @staticmethod
    def degenerate_base(doc):
        doc["meta"]["base_side_lengths"] = [1.0, 1.0, 3.0]

    @staticmethod
    def inf_vertex(doc):
        doc["levels"][2]["cells"][7]["vertices"][0][0] = math.inf

    @staticmethod
    def nan_side(doc):
        doc["levels"][2]["cells"][7]["side_lengths"][0] = math.nan

    @staticmethod
    def string_side(doc):
        doc["levels"][2]["cells"][7]["side_lengths"][0] = "0.125"

    @staticmethod
    def true_coordinate(doc):
        doc["levels"][2]["cells"][7]["vertices"][1][1] = True

    @staticmethod
    def top_level_list(doc):
        return [doc]

    @staticmethod
    def extra_nu(doc):
        # a file written before meta.nu was dropped
        doc["meta"]["nu"] = 0.5

    @staticmethod
    def extra_top_key(doc):
        doc["extra"] = 1

    @staticmethod
    def ragged_cell(doc):
        doc["levels"][1]["cells"][4]["vertices"][2] = [0.5]

    @staticmethod
    def levels_not_list(doc):
        doc["levels"] = {"1": doc["levels"][0]}

    @staticmethod
    def audits_key(doc):
        # a file written when build stored its audit sweep
        doc["audits"] = []

    @staticmethod
    def gauge_c_typo(doc):
        doc["meta"]["gauge_C"] = doc["meta"].pop("gauge_c")

    @staticmethod
    def zero_side(doc):
        doc["levels"][1]["cells"][4]["side_lengths"][2] = 0

    @staticmethod
    def delta_negative(doc):
        doc["meta"]["delta"] = -1.5

    @staticmethod
    def delta_zero(doc):
        doc["meta"]["delta"] = 0

    @staticmethod
    def delta_half_pi(doc):
        doc["meta"]["delta"] = math.pi / 2

    @staticmethod
    def base_outside_chart(doc):
        doc["meta"]["base_vertices"][1] = [60.0, 0.0]

    @staticmethod
    def vertex_outside_chart(doc):
        doc["levels"][2]["cells"][7]["vertices"][0] = [0.25, -50.0]

    @staticmethod
    def level_note(doc):
        doc["levels"][1]["note"] = 1

    @staticmethod
    def side_length_typo(doc):
        # a misspelt key next to the real one is not silently dropped
        doc["levels"][1]["cells"][4]["side_length"] = [9, 9, 9]

    @staticmethod
    def kind_in_custom_surface(doc):
        # a kind name next to a custom metric is an unknown key, not a surface switch
        doc["meta"]["surface"] = dict(BUMP_SURFACE, kind="euclidean")

    NAMED = {
        "short_levels": "levels",
        "missing_cell": "level 2",
        "degenerate_base": "meta",
        "inf_vertex": "level 3 vertices",
        "nan_side": "level 3 side_lengths",
        "string_side": "level 3 side_lengths",
        "true_coordinate": "level 3 vertices",
        "top_level_list": "system must be an object",
        "extra_nu": "meta has unknown keys ['nu']",
        "extra_top_key": "unknown keys ['extra']",
        "ragged_cell": "level 2 vertices",
        "levels_not_list": "levels must be a list",
        "audits_key": "system has unknown keys ['audits']",
        "gauge_c_typo": "meta has unknown keys ['gauge_C']",
        "zero_side": "level 2 side_lengths must be positive",
        "delta_negative": "meta.delta must lie in (0, pi/2)",
        "delta_zero": "meta.delta must lie in (0, pi/2)",
        "delta_half_pi": "meta.delta must lie in (0, pi/2)",
        "base_outside_chart": "meta: base vertices must lie inside the chart",
        "vertex_outside_chart": "level 3 vertices must lie inside the chart",
        "kind_in_custom_surface": "meta: custom surface has unknown keys ['kind']",
        "level_note": "level 2 has unknown keys ['note']",
        "side_length_typo": "level 2 cell 4 has unknown keys ['side_length']",
    }

    @pytest.mark.parametrize("offset", [0.2, 1e-11])
    def test_vertex_outside_parent_exit4(self, flat_scene_path, tmp_path, capsys, offset):
        # level-3 cell 9 (digits 2, 1, 1) is child 1 of level-2 cell 3; its
        # vertex 3 is the midpoint of the parent's side from vertex 1 to 3,
        # moved outside by ``offset`` in the parent's chart-barycentric
        # coordinates
        doc = _built_flat_system(flat_scene_path, tmp_path)
        p1, p2, p3 = np.array(doc["levels"][1]["cells"][3]["vertices"])
        doc["levels"][2]["cells"][9]["vertices"][2] = (p1 + 0.5 * (p3 - p1) - offset * (p2 - p1)).tolist()
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path), "--cells-per-level", "27"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL nesting")
        assert all(line.startswith("PASS") for line in lines[1:6])

    @pytest.mark.parametrize("command", sorted(SYSTEM_ARGS))
    @pytest.mark.parametrize("damage", list(NAMED))
    def test_exit2(self, flat_scene_path, tmp_path, capsys, command, damage):
        doc = _built_flat_system(flat_scene_path, tmp_path)
        doc = getattr(self, damage)(doc) or doc
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(path), *SYSTEM_ARGS[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load system")
        assert self.NAMED[damage] in err
        assert "Traceback" not in err


BUMP_SURFACE = {
    "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
    "metric": {"E": "exp(-(u*u + v*v)/8)", "F": "0", "G": "exp(-(u*u + v*v)/8)"},
    "curvature": "0.25 * exp((u*u + v*v)/8)",
}
BUMP_SCENE = {
    "surface": BUMP_SURFACE,
    "vertices": [[0.0, 0.0868], [-0.0752, -0.0434], [0.0752, -0.0434]],
    "depth": 2,
    "delta": 0.4,
    "seed": 7,
}


@pytest.fixture(scope="module")
def bump_system_doc():
    scene = SceneConfig.from_doc(BUMP_SCENE)
    system = gasket.build_system(scene.base_triangle(), 2, scene.delta)
    return json.loads(gasket.system_to_json(system))


class TestMalformedScene:
    """Scenes that cannot be built: exit 2 from ``build``, naming the field at fault."""

    @staticmethod
    def nan_vertex(doc):
        doc["vertices"][1][0] = math.nan

    @staticmethod
    def inf_vertex_sphere(doc):
        doc["surface"] = "sphere_unit"
        doc["vertices"][0][1] = math.inf

    @staticmethod
    def nan_delta(doc):
        doc["delta"] = math.nan

    @staticmethod
    def huge_seed(doc):
        doc["seed"] = 10**400

    @staticmethod
    def kind_surface(doc):
        doc["surface"] = {"kind": "sphere_unit"}

    @staticmethod
    def kind_in_custom_surface(doc):
        doc["surface"]["kind"] = "sphere_unit"

    @staticmethod
    def name_not_string(doc):
        doc["surface"]["name"] = 5

    @staticmethod
    def extra_top_key(doc):
        doc["extra"] = 1

    @staticmethod
    def extra_tolerance(doc):
        doc["tolerances"] = {"audit_pairs": 100, "extra": 1}

    @staticmethod
    def depth_true(doc):
        doc["depth"] = True

    @staticmethod
    def audit_pairs_99(doc):
        doc["tolerances"] = {"audit_pairs": 99}

    NAMED = {
        "nan_vertex": "vertices must hold finite numbers",
        "inf_vertex_sphere": "vertices must hold finite numbers",
        "nan_delta": "delta must hold finite numbers",
        "huge_seed": "seed must hold finite numbers",
        "kind_surface": "surface lacks chart, metric",
        "kind_in_custom_surface": "custom surface has unknown keys ['kind']",
        "name_not_string": "custom surface name must be a string",
        "extra_top_key": "scene has unknown keys ['extra']",
        "extra_tolerance": "tolerances has unknown keys ['extra']",
        "depth_true": "depth must hold finite numbers",
        "audit_pairs_99": "tolerances.audit_pairs must be an integer in [100, inf]",
    }

    @pytest.mark.parametrize("damage", list(NAMED))
    def test_exit2(self, tmp_path, capsys, damage):
        doc = copy.deepcopy(BUMP_SCENE)
        getattr(self, damage)(doc)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "sys.json"
        capsys.readouterr()
        assert main(["build", str(scene), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and self.NAMED[damage] in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_undecodable_exit2(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_bytes(b"\xff\xfe{")
        out = tmp_path / "sys.json"
        capsys.readouterr()
        assert main(["build", str(scene), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read scene")
        assert not out.exists()


class TestCustomSurfaceErrors:
    """A malformed custom surface is an input error, in a scene or a stored system."""

    @pytest.mark.parametrize(
        "path, value",
        [(("chart",), 5), (("metric",), [1]), (("metric", "E"), 1.0)],
        ids=["chart", "metric", "E"],
    )
    def test_stored_surface_exit2(self, bump_system_doc, tmp_path, capsys, path, value):
        gasket.system_from_json(json.dumps(bump_system_doc))
        doc = copy.deepcopy(bump_system_doc)
        node = doc["meta"]["surface"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load system")

    @pytest.mark.parametrize("command", ["build", "verify", "dim", "measure"])
    @pytest.mark.parametrize(
        "field, key, value", [("metric", "K", "7"), ("chart", "w_max", 3)], ids=["metric_K", "chart_w_max"]
    )
    def test_nested_unknown_key_exit2(self, bump_system_doc, tmp_path, capsys, command, field, key, value):
        # a misplaced entry, such as a curvature K inside the metric, is named, not ignored
        if command == "build":
            doc = copy.deepcopy(BUMP_SCENE)
            surface = doc["surface"]
            target, extra = tmp_path / "scene.json", ["--out", str(tmp_path / "o.json")]
        else:
            doc = copy.deepcopy(bump_system_doc)
            surface = doc["meta"]["surface"]
            target, extra = tmp_path / "sys.json", SYSTEM_ARGS[command]
        surface[field][key] = value
        target.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(target), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"custom surface {field} has unknown keys ['{key}']" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("metric", "E"), "exp(-(u*u + v*v)/8", "was never closed"),
            (("curvature",), "3.0", "|K| exceeds 1"),
            (("chart", "u_min"), 2.0, "chart rectangle is empty"),
            # NaN on the chart grid where u < 2, which every comparison rejects
            (("metric", "E"), "1 + sqrt(u - 2)", "not positive definite"),
        ],
        ids=["unclosed", "curvature", "empty_chart", "nan_metric"],
    )
    def test_build_scene_surface_exit2(self, tmp_path, capsys, path, value, message):
        doc = copy.deepcopy(BUMP_SCENE)
        node = doc["surface"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "sys.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["build", str(scene), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


class TestSolverErrors:
    def test_build_audit_failure_exit3(self, flat_scene_path, tmp_path, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise ShootingConvergenceError(1e-3, 50)

        monkeypatch.setattr(gasket, "calibrate_gauge", stall)
        out = tmp_path / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "3", "--out", str(out)]) == 3
        assert "construction failed: log-map shooting stalled" in capsys.readouterr().err
        assert not out.exists()

    def test_measure_capacity_exit2(self, flat_scene_path, tmp_path, capsys):
        # a budget of 3,000 keeps the 2,187-atom seventh iterate, and the
        # exact transport from 729 atoms to it is over the limit on every model
        out = tmp_path / "sys.json"
        out.write_text(json.dumps(_built_flat_system(flat_scene_path, tmp_path)))
        capsys.readouterr()
        argv = ["measure", str(out), "--weights", *THIRDS, "--iters", "7", "--atom-budget", "3000"]
        assert main(argv) == 2
        assert "error: exact transport limited to 1000 atoms a side (729x2187)" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, naming the path."""

    def test_build_out(self, flat_scene_path, tmp_path, capsys):
        bad = tmp_path / "missing" / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "2", "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--csv", "--svg"])
    def test_dim_artifact(self, flat_scene_path, tmp_path, capsys, option):
        _built_flat_system(flat_scene_path, tmp_path)
        bad = tmp_path / "missing" / "artifact"
        capsys.readouterr()
        assert main(["dim", str(tmp_path / "sys.json"), "--levels", "0..3", option, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ") and "Traceback" not in err


class TestOptionBounds:
    """Out-of-range integer options exit 2 before any work is done."""

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("build", "--depth", "0"),
            ("build", "--depth", "15"),
            ("verify", "--cells-per-level", "0"),
            ("verify", "--cells-per-level", "-1"),
            ("measure", "--atom-budget", "0"),
            ("verify", "--seed", "-1"),
            ("measure", "--iters", "-2"),
            ("measure", "--iters", "0"),
            ("measure", "--weights", "nan 0.5 0.5"),
        ],
    )
    def test_exit2(self, flat_scene_path, tmp_path, capsys, command, option, value):
        if command == "build":
            # a needle base, so that a depth that got past the parser fails
            # fast with exit 3 instead of building 3^15 cells
            target = tmp_path / "needle.json"
            target.write_text(json.dumps(dict(FLAT_SCENE, vertices=[[0, 0], [1, 0], [0.5, 0.01]])))
            extra = ["--out", str(tmp_path / "o.json")]
        else:
            _built_flat_system(flat_scene_path, tmp_path)
            target, extra = tmp_path / "sys.json", SYSTEM_ARGS[command]
        capsys.readouterr()
        argv = [command, str(target), *extra, option, *value.split()]
        if option == "--weights":
            # the three weights are checked together, after parsing
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: weights must be three positives")
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()
