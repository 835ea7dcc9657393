"""Smoke runs of the experiment scripts, each in its own interpreter, and a
guard on the modules the benchmark tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args, code=0):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout if code == 0 else proc.stderr


VERIFY_CHECKS = [
    "nesting", "nu-contraction", "non-degeneracy", "similarity-audits", "ratio-products", "controlled-moran",
]


def certification_checks(scene):
    # the script is the CLI's build and verify: verify's six check lines
    out = run_script("run_certification.py", scene, "--depth", "3")
    return [line.split(":")[0] for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]


def test_run_certification():
    assert certification_checks("scenes/flat_unit.json") == [f"PASS {name}" for name in VERIFY_CHECKS]


def test_run_certification_sphere():
    assert certification_checks("scenes/sphere_small.json") == [f"PASS {name}" for name in VERIFY_CHECKS]


def test_readme_library_sketch():
    # the README's python block runs as written and recovers log 3 / log 2
    text = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", text, re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout.split()[-1]) - math.log(3) / math.log(2)) < 1e-2


def test_dimension_sweep():
    out = run_script("dimension_sweep.py", "scenes/flat_unit.json", "--depth", "6", "--levels", "2..6")
    slope = float(out.split("slope = ")[1].split()[0])
    assert abs(slope - math.log(3) / math.log(2)) < 1e-10


@pytest.mark.parametrize("levels", ["1..3..4", "2..x"])
def test_dimension_sweep_bad_levels(levels):
    err = run_script("dimension_sweep.py", "scenes/flat_unit.json", "--depth", "4", "--levels", levels, code=2)
    assert f"argument --levels: must be n1..n2 with integers n1 and n2, not {levels!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_dimension_sweep_bad_depth(depth):
    # the range of build --depth; 0 used to fall back to the scene's depth
    err = run_script("dimension_sweep.py", "scenes/flat_unit.json", "--depth", depth, code=2)
    assert f"argument --depth: must be in 1..14, not {depth}" in err
    assert "Traceback" not in err


def test_rauch_envelope_sweep():
    out = run_script("rauch_envelope_sweep.py", "--triangles", "2")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["sphere_unit", "hyperbolic_poincare"]
    assert all("-> 0 violations" in line for line in lines)


def test_benchmark_traced_modules_import():
    # `perfbench/run.py --trace 1` imports every module named in
    # TRACED_MODULES and looks up every private name in EXTRA with getattr;
    # a module or name deleted or renamed without updating the tracer would
    # break it.  The layers in ROWS count the rows of the batched kernels:
    # each must still name a public function or method (or an EXTRA label),
    # or its counters would silently read 0.  So must every layer label
    # "gasket.<name>" the tracer reads
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    nodes = {
        ast.unparse(node.targets[0]): node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("TRACED_MODULES", "EXTRA", "ROWS")
    }
    consts = {name: ast.literal_eval(nodes[name]) for name in ("TRACED_MODULES", "EXTRA")}
    assert consts["TRACED_MODULES"] and consts["EXTRA"]
    for name in consts["TRACED_MODULES"]:
        importlib.import_module(f"geogasket.{name}")
    extra_labels = set()
    for name, attrs in consts["EXTRA"].items():
        module = importlib.import_module(f"geogasket.{name}")
        for attr, label in attrs.items():
            assert callable(getattr(module, attr, None)), f"geogasket.{name}.{attr}"
            extra_labels.add(label)
    rows = [ast.literal_eval(key) for key in nodes["ROWS"].keys]
    assert rows
    for label in rows:
        assert label in extra_labels or public_callable(*label.split(".")), (
            f"traced layer {label} names no public function or method"
        )
    gasket_labels = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"gasket\.\w+", node.value)
    }
    assert "gasket.apply_f" in gasket_labels and "gasket.audit_similarity" in gasket_labels
    for label in gasket_labels:
        short, attr = label.split(".")
        fn = vars(importlib.import_module("geogasket.gasket")).get(attr)
        assert not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == "geogasket.gasket", (
            f"traced layer {label} names no public function of geogasket.gasket"
        )


def public_callable(short, attr):
    """True when geogasket.<short> defines a public function or class method named attr."""
    if attr.startswith("_"):
        return False
    module = importlib.import_module(f"geogasket.{short}")
    owners = [
        obj for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")
    ]
    fn = vars(module).get(attr)
    return (inspect.isfunction(fn) and fn.__module__ == module.__name__) or any(attr in vars(c) for c in owners)


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _bench_workloads()


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS.WORKLOADS))
def test_benchmark_setup_reads_scene(name, tmp_path):
    # the benchmark times `SceneConfig.from_path(scene).surface()` as its
    # set-up, on the seeded scene it writes; it must keep working on every
    # workload's scene
    from geogasket.scene import SceneConfig

    doc = BENCH_WORKLOADS.seeded_scene(BENCH_WORKLOADS.WORKLOADS[name], ROOT, 1)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert SceneConfig.from_path(scene).surface().contains(doc["vertices"]).all()


@pytest.mark.parametrize("package", ["jsonschema", "scipy"])
def test_cli_import_skips(package):
    # scenes and stored systems are checked by the package's own readers, and
    # scipy is a test dependency, loaded only by the tests' exact transport LP
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, geogasket.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("scene", ["flat_unit", "sphere_small"])
def test_cli_runs_without_scipy(scene, tmp_path):
    # scipy is not a runtime dependency: every command runs with its import refused
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"""
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)

sys.meta_path.insert(0, RefuseScipy())
from geogasket.cli import main
system = {str(tmp_path / "sys.json")!r}
codes = [
    main(["build", "scenes/{scene}.json", "--depth", "3", "--out", system]),
    main(["verify", system]),
    main(["dim", system, "--levels", "0..3"]),
    main(["measure", system, "--weights", "0.5", "0.3", "0.2", "--iters", "3"]),
]
try:
    import scipy
except ModuleNotFoundError:
    print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"


def test_cli_loads_no_numpy_random(tmp_path):
    # no command draws random numbers; a fresh process, since pytest's own
    # has numpy.random loaded
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"""
import sys
from geogasket.cli import main
system = {str(tmp_path / "sys.json")!r}
codes = [
    main(["build", "scenes/sphere_small.json", "--depth", "3", "--out", system]),
    main(["verify", system]),
    main(["dim", system, "--levels", "0..3"]),
    main(["measure", system, "--weights", "0.5", "0.3", "0.2", "--iters", "3"]),
]
assert "numpy.random" not in sys.modules
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"


def test_gauge_layer_loads_no_scipy():
    # every gauge form's decay integral is closed-form
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = """
import sys
from geogasket.dimension import GaugeSpec, gauge_admissible
gauges = [GaugeSpec("power", alpha=2.0), GaugeSpec("neglog_power", beta=2.0), GaugeSpec("logpower", n=1)]
for gauge in gauges:
    assert gauge_admissible(gauge, 0.3, 0.55).admissible
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _bench_snapshot():
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_helpers(tmp_path):
    snapshot = _bench_snapshot()
    assert snapshot.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "BENCH_3.json.bak"):
        (tmp_path / name).write_text("{}")
    assert snapshot.next_bench_path(tmp_path).name == "BENCH_11.json"
    assert snapshot.tier1_counts("2 failed, 462 passed, 3 warnings in 79.12s (0:01:19)") == {"failed": 2, "passed": 462}


def test_bench_snapshot_src_tree(tmp_path):
    # the recorded tree id is git's own for src/, committed or not
    snapshot = _bench_snapshot()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-qm", "a"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD:src"], capture_output=True, text=True, check=True).stdout.strip()
    clean = snapshot.git_state(tmp_path)
    assert not clean["git_dirty"] and clean["src_tree"] == head
    (tmp_path / "src" / "b.py").write_text("y = 2\n")
    dirty = snapshot.git_state(tmp_path)
    assert dirty["git_dirty"] and dirty["src_tree"] != head
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-qm", "b"], check=True)
    assert subprocess.run(git + ["rev-parse", "HEAD:src"], capture_output=True, text=True).stdout.strip() == dirty["src_tree"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_snapshots(path):
    # every committed snapshot names its code and covers every workload
    doc = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", doc["git_sha"]) and doc["src_lines"] > 0
    assert re.fullmatch(r"[0-9a-f]{40}", doc["src_tree"])
    assert doc["tier1"]["wall_s"] > 0 and doc["tier1"]["passed"] > 0
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(doc["workloads"]) == sorted(workloads)
    for entry in doc["workloads"].values():
        assert [run["seed"] for run in entry["runs"]] == doc["seeds"]
        assert {"setup_s", "pipeline_s", "peak_rss_mb"} <= entry["median"].keys()
