import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import read_level, write_level

from geogasket import gasket
from geogasket.cli import main
from geogasket.errors import ChartEscapeError, InversionError, SceneValidationError, ShootingConvergenceError
from geogasket.scene import SceneConfig

ROOT = Path(__file__).resolve().parents[1]

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
        gauge = SceneConfig.from_doc(FLAT_SCENE).gauge
        assert (gauge.form, gauge.params) == ("power", {"alpha": 2.0})


class TestMoranCommand:
    def test_classical(self, capsys):
        assert main(["moran", "0.5", "0.5", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s = 1.5849625007211")

    def test_two(self, capsys):
        assert main(["moran", "0.5", "0.5"]) == 0
        assert "s = 1.000000000000000" in capsys.readouterr().out

    def test_out_of_range(self, capsys):
        assert main(["moran", "1.5"]) == 2
        assert capsys.readouterr().err == "error: ratios must lie in (0, 1): (1.5,)\n"

    def test_unparsable(self, capsys):
        assert main(["moran", "zebra"]) == 2
        assert capsys.readouterr().err == "error: could not convert string to float: 'zebra'\n"


class TestBuildCommand:
    def test_flat_depth3(self, flat_scene_path, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "3", "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        # each level is its parents' solved midpoints and midlines, with no
        # per-cell object and no depth key, each array one base64 string
        assert [sorted(level) for level in doc["levels"]] == [["midlines", "midpoints"]] * 3
        assert all(isinstance(x, str) for level in doc["levels"] for x in level.values())
        mids, midlines = read_level(doc, 3)
        assert mids.shape == (9, 3, 2) and midlines.shape == (9, 3)
        back = gasket.system_from_json(text)
        assert gasket.system_to_json(back) == text

    def test_indented_file_reads(self, flat_scene_path, tmp_path):
        # files written with indentation, as before the one-line format, still load
        out = tmp_path / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "3", "--out", str(out)]) == 0
        text = out.read_text()
        indented = json.dumps(json.loads(text), sort_keys=True, indent=1)
        a, b = gasket.system_from_json(text), gasket.system_from_json(indented)
        assert (a.depth, a.delta) == (b.depth, b.delta)
        for n in range(a.depth + 1):
            assert np.array_equal(a.level(n).vertices, b.level(n).vertices)
            assert np.array_equal(a.level(n).side_lengths, b.level(n).side_lengths)

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
            verts.append(sphere.exp_many([(0.0, 0.0)], [w * (0.5 / math.sqrt(3))])[0].tolist())
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
        # the base triangle checks its vertices before any geodesic is shot
        assert "construction failed: base vertices must lie inside the chart" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_scene_exit2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"surface\": \"euclidean\"}")
        assert main(["build", str(path), "--out", str(tmp_path / "o.json")]) == 2


VERIFY_ORDER = [
    "nesting", "nu-contraction", "non-degeneracy",
    "similarity-audits", "ratio-products", "controlled-moran",
]
# the check that passes above its bound; every other passes at or below it
PASS_ABOVE_BOUND = {"non-degeneracy"}
COMMITTED_SCENES = ["flat_unit", "hyperbolic_small", "sphere_small"]
EXPECTED_FAILURES = {
    "corrupt": ["nu-contraction", "non-degeneracy"],
    # a nonzero deviation over a zero envelope reads inf, not 0
    "zero_gauge": ["similarity-audits"],
}
# The plane as a custom metric: kappa is 0, so the audit's envelope is 0,
# while its geodesic solves leave rounding in the deviations.
CUSTOM_FLAT_SCENE = dict(
    FLAT_SCENE,
    surface={
        "chart": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0},
        "metric": {"E": "1", "F": "0", "G": "1"},
    },
    vertices=[[0.0, 0.0866], [-0.075, -0.0433], [0.075, -0.0433]],
    delta=0.4,
)


def _corrupted_flat_system(scene_path, out_dir):
    """A built flat system with one level-3 side tripled (the midline of
    cell 5, child 3 of level-2 cell 1), which fails the contraction and
    non-degeneracy checks."""
    out = out_dir / "sys.json"
    main(["build", scene_path, "--out", str(out)])
    doc = json.loads(out.read_text())
    mids, midlines = read_level(doc, 3)
    midlines[1][2] *= 3.0
    write_level(doc, 3, mids, midlines)
    path = out_dir / "corrupt.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def certified_files(tmp_path_factory):
    """The committed scenes built at depth 3, the corrupted flat system, and
    the plane as a custom metric, whose gauge constant is 0."""
    root = tmp_path_factory.mktemp("certified")
    scenes = Path(__file__).parents[1] / "scenes"
    paths = {}
    for name in COMMITTED_SCENES:
        paths[name] = root / f"{name}.json"
        assert main(["build", str(scenes / f"{name}.json"), "--depth", "3", "--out", str(paths[name])]) == 0
    scene = root / "flat_scene.json"
    scene.write_text(json.dumps(FLAT_SCENE))
    paths["corrupt"] = _corrupted_flat_system(str(scene), root)
    scene = root / "custom_flat_scene.json"
    scene.write_text(json.dumps(CUSTOM_FLAT_SCENE))
    paths["zero_gauge"] = root / "zero_gauge.json"
    assert main(["build", str(scene), "--depth", "3", "--out", str(paths["zero_gauge"])]) == 0
    return paths


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
        path = _corrupted_flat_system(flat_scene_path, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 4
        text = capsys.readouterr().out
        assert "FAIL" in text and '"failures"' in text

    def test_raising_check_fails_by_name(self, flat_scene_path, tmp_path, capsys, monkeypatch):
        _built_flat_system(flat_scene_path, tmp_path)

        def stalled(*args, **kwargs):
            raise InversionError("inversion stalled in cell 2.1")

        monkeypatch.setattr(gasket, "nesting_check", stalled)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "sys.json")]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL nesting: error: inversion stalled in cell 2.1"
        assert [line.split(":")[0] for line in lines[1:6]] == [f"PASS {name}" for name in VERIFY_ORDER[1:]]
        assert lines[6:] == ['{"failures": ["nesting"]}']

    def test_audit_error_leaves_nesting_its_own_solve(self, certified_files, capsys, monkeypatch):
        # the audit's shared pass raises: the audit fails by name, and the
        # nesting check solves its own first iterates and passes
        path = str(certified_files["sphere_small"])
        assert main(["verify", path]) == 0
        passing = capsys.readouterr().out.splitlines()

        def escaping(*args):
            raise ChartEscapeError(0.5)

        monkeypatch.setattr(gasket, "_pair_distances", escaping)
        assert main(["verify", path]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "FAIL similarity-audits: error: geodesic left the chart domain near parameter t=0.5"
        assert lines[:3] + lines[4:6] == passing[:3] + passing[4:6]
        assert lines[6:] == ['{"failures": ["similarity-audits"]}']

    def test_null_gauge_calibrates(self, flat_scene_path, tmp_path, capsys):
        # a file stores no gauge constant; verify derives the envelope from
        # meta and the stored sides, which is 0 on the flat chart
        doc = _built_flat_system(flat_scene_path, tmp_path)
        assert "gauge_c" not in doc["meta"]
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "sys.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in VERIFY_ORDER]
        assert lines[3] == "PASS similarity-audits: kappa = 0, worst dev/envelope = 0.000"

    @pytest.mark.parametrize("name", [*COMMITTED_SCENES, "corrupt", "zero_gauge"])
    def test_records_match_output(self, certified_files, name, capsys):
        path = certified_files[name]
        checks = gasket.certify(gasket.system_from_json(path.read_text()))
        assert [check.name for check in checks] == VERIFY_ORDER
        for check in checks:
            above = check.name in PASS_ABOVE_BOUND
            assert check.passed == (check.value > check.bound if above else check.value <= check.bound), check
        failures = [check.name for check in checks if not check.passed]
        assert failures == EXPECTED_FAILURES.get(name, [])
        capsys.readouterr()
        assert main(["verify", str(path)]) == (4 if failures else 0)
        lines = capsys.readouterr().out.splitlines()
        assert lines[:6] == [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]

    def test_huge_cells_per_level_reads_whole_levels(self, certified_files, capsys):
        # past 3^depth every level is read whole, and no level asks for more points
        path = str(certified_files["sphere_small"])
        outputs = []
        for cells in ("27", str(10**11)):
            capsys.readouterr()
            assert main(["verify", path, "--cells-per-level", cells]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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
            "measure", out, "--weights", third, third, repr(1 - 2 / 3), "--iters", "4",
        ])
        assert code == 0
        lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines() if ":" in line)
        upper = [float(x) for x in lines["kr trace"].split()]
        lower = [float(x) for x in lines["kr lower"].split()]
        assert len(upper) == len(lower) == 4 and all(lo <= up for lo, up in zip(lower, upper))
        assert lines["trace ratios"].split() == ["0.5000"] * 3

    def test_unequal_weights_residual(self, flat_scene_path, tmp_path, capsys):
        # the held masses summed up the tree must give digit i the weight of map i
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--depth", "2", "--out", out])
        capsys.readouterr()
        assert main(["measure", out, "--weights", "0.5", "0.3", "0.2", "--iters", "2"]) == 0
        (line,) = [x for x in capsys.readouterr().out.splitlines() if "invariance residual" in x]
        assert line.startswith("depth-2 invariance residual") and float(line.split(" = ")[1]) < 1e-15

    def test_bad_weights_exit2(self, flat_scene_path, tmp_path):
        out = str(tmp_path / "sys.json")
        main(["build", flat_scene_path, "--out", out])
        assert main(["measure", out, "--weights", "0.5", "0.5", "0.5"]) == 2

    @pytest.mark.parametrize(
        "scene, moves",
        [
            # the shortest great-circle arc between these two reaches u = 1.946,
            # past the chart edge u = 1.8
            ("sphere_small", {1: (1.79, -0.6), 2: (1.79, 0.6)}),
            ("hyperbolic_small", {1: (0.699, 0.699), 2: (-0.699, -0.699)}),
        ],
        ids=["sphere_small", "hyperbolic_small"],
    )
    def test_chart_escape_exit2(self, scene, moves, tmp_path):
        # the reader accepts the moved midpoints, but a geodesic to them leaves the chart
        system = _moved_midpoints(scene, moves, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = ["measure", system, "--weights", *THIRDS, "--iters", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "geogasket.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: geodesic left the chart domain")
        assert "Traceback" not in proc.stderr

    def test_inverted_bracket_exit4(self, tmp_path, capsys):
        # a midpoint moved out of its parent's diameter puts L_0 above U_0
        system = _moved_midpoints("sphere_small", {2: (1.7, 1.7)}, tmp_path)
        capsys.readouterr()
        assert main(["measure", system, "--weights", *THIRDS, "--iters", "2"]) == 4
        out, err = capsys.readouterr()
        upper, lower = ([float(v) for v in line.split(":")[1].split()] for line in out.splitlines()[:2])
        assert lower[0] > upper[0]
        assert out.splitlines()[-1].startswith("depth-2 invariance residual")
        assert err.startswith("error: inverted bracket at n = 0: ")


def _moved_midpoints(scene, moves, tmp_path):
    """A depth-2 system of ``scenes/<scene>.json`` with the level-1 midpoints
    of parent 0 moved: ``moves`` maps a midpoint index to its new chart point."""
    out = tmp_path / "moved.json"
    assert main(["build", str(ROOT / "scenes" / f"{scene}.json"), "--depth", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mids, midlines = read_level(doc, 1)
    for k, point in moves.items():
        mids[0, k] = point
    write_level(doc, 1, mids, midlines)
    out.write_text(json.dumps(doc))
    return str(out)



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


def _level_arrays(doc):
    """The levels of a stored system as all their cells' sides and vertices."""
    system = gasket.system_from_json(json.dumps(doc))
    return [
        {"side_lengths": lv.side_lengths.tolist(), "vertices": lv.vertices.tolist()}
        for lv in system.levels[1:]
    ]


class TestMalformedSystem:
    """Stored systems that cannot be used: exit 2, naming the field at fault.
    Readable systems with a vertex outside its parent: exit 4."""

    @staticmethod
    def short_levels(doc):
        doc["levels"].pop()

    @staticmethod
    def missing_cell(doc):
        # one value short
        mids, midlines = read_level(doc, 2)
        write_level(doc, 2, mids.ravel()[:-1], midlines)

    @staticmethod
    def degenerate_base(doc):
        doc["meta"]["base_side_lengths"] = [1.0, 1.0, 3.0]

    @staticmethod
    def inf_vertex(doc):
        mids, midlines = read_level(doc, 3)
        mids[7][0][0] = math.inf
        write_level(doc, 3, mids, midlines)

    @staticmethod
    def nan_side(doc):
        mids, midlines = read_level(doc, 3)
        midlines[7][0] = math.nan
        write_level(doc, 3, mids, midlines)

    @staticmethod
    def string_side(doc):
        # an array as JSON numbers, not as its string
        doc["levels"][2]["midlines"] = read_level(doc, 3)[1].tolist()

    @staticmethod
    def number_side(doc):
        doc["levels"][2]["midlines"] = 0.125

    @staticmethod
    def true_coordinate(doc):
        doc["levels"][2]["midpoints"] = True

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
        # a character outside the base64 alphabet, which a lenient decoder skips
        text = doc["levels"][1]["midpoints"]
        doc["levels"][1]["midpoints"] = text[:40] + "\n" + text[40:]

    @staticmethod
    def partial_value(doc):
        # a byte count that is not a multiple of 8: the last four characters
        # of the 144-byte string carry three bytes
        doc["levels"][1]["midpoints"] = doc["levels"][1]["midpoints"][:-4]

    @staticmethod
    def list_format(doc):
        # the format before the base64 encoding: every array as JSON numbers
        for n, entry in enumerate(doc["levels"], start=1):
            mids, midlines = read_level(doc, n)
            entry.update(midpoints=mids.tolist(), midlines=midlines.tolist())

    @staticmethod
    def levels_not_list(doc):
        doc["levels"] = {"1": doc["levels"][0]}

    @staticmethod
    def audits_key(doc):
        # a file written when build stored its audit sweep
        doc["audits"] = []

    @staticmethod
    def gauge_c_typo(doc):
        doc["meta"]["gauge_C"] = 0.2354

    @staticmethod
    def stored_gauge_c(doc):
        # a file written when build fitted and stored the gauge constant
        doc["meta"]["gauge_c"] = 0.2354

    @staticmethod
    def zero_side(doc):
        mids, midlines = read_level(doc, 2)
        midlines[1][2] = 0
        write_level(doc, 2, mids, midlines)

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
        mids, midlines = read_level(doc, 3)
        mids[7][0] = [0.25, -50.0]
        write_level(doc, 3, mids, midlines)

    @staticmethod
    def level_note(doc):
        doc["levels"][1]["note"] = 1

    @staticmethod
    def side_length_typo(doc):
        # a misspelt key next to the real one is not silently dropped
        doc["levels"][1]["side_length"] = [[9, 9, 9]] * 9

    @staticmethod
    def level_depth_key(doc):
        # list position gives the depth, so a level stores none
        doc["levels"][1]["depth"] = 2

    @staticmethod
    def cell_objects(doc):
        # an older layout: each level a depth and a list of cell objects
        doc["levels"] = [
            {"depth": n, "cells": [{"side_lengths": s, "vertices": v} for s, v in zip(lv["side_lengths"], lv["vertices"])]}
            for n, lv in enumerate(_level_arrays(doc), start=1)
        ]

    @staticmethod
    def level_arrays(doc):
        # the layout before this one: each level all its cells' vertices and sides
        doc["levels"] = _level_arrays(doc)

    @staticmethod
    def kind_in_custom_surface(doc):
        # a kind name next to a custom metric is an unknown key, not a surface switch
        doc["meta"]["surface"] = dict(BUMP_SURFACE, kind="euclidean")

    NAMED = {
        "short_levels": "levels",
        "missing_cell": "level 2 midpoints must hold 18 binary64 values (144 bytes), not 136 bytes",
        "degenerate_base": "meta",
        "inf_vertex": "level 3 midpoints must hold finite numbers",
        "nan_side": "level 3 midlines must hold finite numbers",
        "string_side": "level 3 midlines must be a base64 string, not list",
        "number_side": "level 3 midlines must be a base64 string, not float",
        "true_coordinate": "level 3 midpoints must be a base64 string, not bool",
        "top_level_list": "system must be an object",
        "extra_nu": "meta has unknown keys ['nu']",
        "extra_top_key": "unknown keys ['extra']",
        "ragged_cell": "level 2 midpoints must be standard padded base64",
        "partial_value": "level 2 midpoints must hold 18 binary64 values (144 bytes), not 141 bytes",
        "list_format": "level 1 midpoints must be a base64 string, not list",
        "levels_not_list": "levels must be a list",
        "audits_key": "system has unknown keys ['audits']",
        "gauge_c_typo": "meta has unknown keys ['gauge_C']",
        "stored_gauge_c": "meta has unknown keys ['gauge_c']",
        "zero_side": "level 2 midlines must be positive",
        "delta_negative": "meta.delta must lie in (0, pi/2)",
        "delta_zero": "meta.delta must lie in (0, pi/2)",
        "delta_half_pi": "meta.delta must lie in (0, pi/2)",
        "base_outside_chart": "meta: base vertices must lie inside the chart",
        "vertex_outside_chart": "level 3 midpoints must lie inside the chart",
        "kind_in_custom_surface": "meta: custom surface has unknown keys ['kind']",
        "level_note": "level 2 has unknown keys ['note']",
        "side_length_typo": "level 2 has unknown keys ['side_length']",
        "level_depth_key": "level 2 has unknown keys ['depth']",
        "cell_objects": "level 1 lacks midlines, midpoints",
        "level_arrays": "level 1 lacks midlines, midpoints",
    }

    @pytest.mark.parametrize("offset", [0.2, 1e-11])
    def test_vertex_outside_parent_exit4(self, flat_scene_path, tmp_path, capsys, offset):
        # level-3 cell 9 (digits 2, 1, 1) is child 1 of level-2 cell 3; its
        # vertex 3 is the parent's stored midpoint on the side from vertex 1
        # to 3 (index 1, opposite vertex 2), here moved outside by ``offset``
        # in the parent's chart-barycentric coordinates
        doc = _built_flat_system(flat_scene_path, tmp_path)
        p1, p2, p3 = gasket.system_from_json(json.dumps(doc)).level(2).vertices[3]
        mids, midlines = read_level(doc, 3)
        mids[3][1] = p1 + 0.5 * (p3 - p1) - offset * (p2 - p1)
        write_level(doc, 3, mids, midlines)
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
            (("metric", "E"), "(exp)(-(u*u + v*v)/8)", "expected '(' after 'exp' (line 1, column 5)"),
            # a declared curvature is checked against the metric's, at the first grid point
            (("curvature",), "3.0", "declared curvature 3 differs from the metric's 0.3210063542 at (-1, -1)"),
            (("chart", "u_min"), 2.0, "chart rectangle is empty"),
            # NaN on the chart grid where u < 2, which every comparison rejects
            (("metric", "E"), "1 + sqrt(u - 2)", "not positive definite"),
            # E_u is 0/0 at the chart origin, a grid point
            (("metric", "E"), "1 + sqrt(u*u + v*v)", "Christoffel symbols are not finite on the chart grid at (0, 0)"),
            # E_uu takes (r^2)^-0.5 (2u)^2 = inf * 0 at the chart origin
            (("metric", "E"), "1 + 0.1*(u*u + v*v)**1.5", "curvature is not finite on the chart grid at (0, 0)"),
            # deeper than the interpreter's recursion limit: an input error, not a RecursionError
            (("metric", "E"), "u" + "**u" * 3000, "expression nested too deeply"),
        ],
        ids=["unclosed", "callee", "curvature", "empty_chart", "nan_metric", "nan_symbols", "nan_curvature", "deep_nesting"],
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


# Scaled sphere and disk metrics whose declared curvature is false, with the
# |K| their metric implies: each breaks the |K| <= 1 hypothesis.
FALSE_CURVATURE = {
    "sphere_k4": ("1/(1+u*u+v*v)**2", "1", 4),
    "sphere_k2": ("2/(1+u*u+v*v)**2", "1", 2),
    "disk_k-4": ("1/(1-u*u-v*v)**2", "0", 4),
}


def _false_curvature_surface(name):
    text, declared, _ = FALSE_CURVATURE[name]
    return {
        "chart": {"u_min": -0.7, "u_max": 0.7, "v_min": -0.7, "v_max": 0.7},
        "metric": {"E": text, "F": "0", "G": text},
        "curvature": declared,
    }


class TestFalseCurvature:
    """A declared curvature is not trusted: the metric's own K decides."""

    @pytest.mark.parametrize("name", list(FALSE_CURVATURE))
    def test_build_exit2(self, tmp_path, capsys, name):
        doc = json.loads((Path(__file__).parents[1] / "scenes" / "sphere_small.json").read_text())
        doc["surface"] = _false_curvature_surface(name)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / "sys.json"
        capsys.readouterr()
        assert main(["build", str(scene), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: |K| exceeds 1 on the chart grid (max {FALSE_CURVATURE[name][2]})\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SYSTEM_ARGS))
    @pytest.mark.parametrize("name", list(FALSE_CURVATURE))
    def test_stored_system_exit2(self, bump_system_doc, tmp_path, capsys, name, command):
        # an honest stored system with its surface replaced
        doc = copy.deepcopy(bump_system_doc)
        doc["meta"]["surface"] = _false_curvature_surface(name)
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(path), *SYSTEM_ARGS[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load system") and "|K| exceeds 1 on the chart grid" in err


class TestNoTraceback:
    """Input that a reader rejects ends in exit 2 and an error naming its field
    or its rule, never in a traceback or a success."""

    CASES = {
        # sums to 1 within the 1e-9 a second, looser check once allowed
        "weights_sum": (None, "weights must be three positives summing to 1 within 1e-12"),
        "gauge_no_alpha": ({"form": "power"}, "power gauge lacks alpha"),
        "gauge_negative_alpha": ({"form": "power", "alpha": -1}, "power gauge needs alpha > 0"),
        "gauge_extra_beta": ({"form": "power", "alpha": 2, "beta": 1}, "power gauge has unknown keys ['beta']"),
        # the table form is gone: whatever table parameters come with it, the form is refused
        "gauge_table_string": ({"form": "table", "ys": "x"}, "gauge.form must be one of power, neglog_power, logpower"),
        "gauge_table_ys": ({"form": "table", "ys": "x", "values": [1, 2]}, "gauge.form must be one of power, neglog_power, logpower"),
        "gauge_table_lengths": ({"form": "table", "ys": [0.1, 0.2], "values": [1]}, "gauge.form must be one of power, neglog_power, logpower"),
        "gauge_form_list": ({"form": ["power"], "alpha": 2}, "gauge.form must be one of"),
        "gauge_n_half": ({"form": "logpower", "n": 0.5}, "gauge.n must be an integer in [1, inf]"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit2(self, flat_scene_path, tmp_path, capsys, case):
        gauge, message = self.CASES[case]
        if gauge is None:
            _built_flat_system(flat_scene_path, tmp_path)
            argv = ["measure", str(tmp_path / "sys.json"), "--weights", "0.5", "0.3", "0.2000000005"]
        else:
            scene = tmp_path / "gauge.json"
            scene.write_text(json.dumps(dict(FLAT_SCENE, gauge=gauge)))
            argv = ["build", str(scene), "--out", str(tmp_path / "o.json")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()


class TestSolverErrors:
    def test_build_audit_failure_exit3(self, flat_scene_path, tmp_path, capsys, monkeypatch):
        # a solve that stalls inside build_system; build solves nothing else
        def stall(*args, **kwargs):
            raise ShootingConvergenceError(1e-3, 50, (0.0, 0.0), (0.1, 0.0))

        monkeypatch.setattr(gasket, "_solve_level", stall)
        out = tmp_path / "sys.json"
        assert main(["build", flat_scene_path, "--depth", "3", "--out", str(out)]) == 3
        assert "construction failed: log-map shooting stalled" in capsys.readouterr().err
        assert not out.exists()

    def test_measure_iters_above_depth_exit2(self, flat_scene_path, tmp_path, capsys):
        # iterate n lives on the depth-n cells, so a depth-3 system holds three
        out = tmp_path / "sys.json"
        out.write_text(json.dumps(_built_flat_system(flat_scene_path, tmp_path)))
        capsys.readouterr()
        argv = ["measure", str(out), "--weights", *THIRDS, "--iters", "4"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 4 iterations need cells of depth 4, but the system is stored to depth 3\n"
        )


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, naming the path."""

    def test_build_out(self, flat_scene_path, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the output path is checked before the build")

        monkeypatch.setattr(gasket, "build_system", unreachable)
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

    def test_dim_writes_no_csv_when_svg_fails(self, flat_scene_path, tmp_path, capsys):
        _built_flat_system(flat_scene_path, tmp_path)
        csv, bad = tmp_path / "rows.csv", tmp_path / "missing" / "cells.svg"
        capsys.readouterr()
        argv = ["dim", str(tmp_path / "sys.json"), "--levels", "0..3", "--csv", str(csv), "--svg", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")
        assert not csv.exists()


class TestOptionBounds:
    """Out-of-range or malformed options exit 2 before any work is done."""

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("build", "--depth", "0"),
            ("build", "--depth", "15"),
            ("verify", "--cells-per-level", "0"),
            ("verify", "--cells-per-level", "-1"),
            ("measure", "--atom-budget", "0"),
            ("verify", "--seed", "-1"),
            ("verify", "--seed", "4294967296"),
            pytest.param("verify", "--seed", str(10**400), id="verify---seed-10**400"),
            ("measure", "--iters", "-2"),
            ("measure", "--iters", "0"),
            ("measure", "--weights", "nan 0.5 0.5"),
            ("dim", "--levels", "1..3..4"),
            ("dim", "--levels", "2..x"),
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

    def test_seed_range_named(self, flat_scene_path, tmp_path, capsys):
        # the audit scales seed + 1 as a binary64, so larger seeds would not
        # sample pairs of their own
        _built_flat_system(flat_scene_path, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(tmp_path / "sys.json"), "--seed", str(2**60)])
        assert exc.value.code == 2
        assert f"argument --seed: must be in 0..4294967295, not {2**60}" in capsys.readouterr().err
