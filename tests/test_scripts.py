"""Smoke runs of the experiment scripts, each in its own interpreter, and a
guard on the modules the benchmark tracer wraps."""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_certification():
    out = run_script("run_certification.py", "scenes/flat_unit.json", "--depth", "3")
    checks = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(checks) == 6
    assert all(" PASS " in line for line in checks)


def test_run_certification_sphere():
    out = run_script("run_certification.py", "scenes/sphere_small.json", "--depth", "3")
    checks = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(checks) == 6
    assert all(" PASS " in line for line in checks)


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


def test_cli_import_loads_no_jsonschema():
    # scenes and stored systems are checked by the package's own readers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, geogasket.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
