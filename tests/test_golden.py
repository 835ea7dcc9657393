"""The golden corpus: the CLI's complete outputs on the committed scenes and
the benchmark bump at depth 4, compared byte for byte.

``python3 scripts/golden.py --write`` regenerates ``tests/golden/`` and
reports the drift of every changed system file.
"""

import importlib.util
import json
from pathlib import Path

from conftest import read_level

from geogasket.gasket import build_system, system_to_json
from geogasket.scene import SceneConfig

ROOT = Path(__file__).resolve().parents[1]


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_corpus(tmp_path):
    golden = _golden()
    expected = golden.read_corpus()
    outputs = golden.run(tmp_path)
    assert sorted(outputs) == sorted(expected)
    changed = sorted(name for name in outputs if outputs[name] != expected[name])
    assert not changed, f"outputs differ from tests/golden: {changed}"


def test_drift_names_an_unreadable_old_file():
    # after a format change the old corpus file no longer loads; the report
    # carries the reader's message instead of ending in a traceback
    scene = SceneConfig.from_path(ROOT / "scenes" / "flat_unit.json")
    new = system_to_json(build_system(scene.base_triangle(), 2, scene.delta))
    doc = json.loads(new)
    for n, entry in enumerate(doc["levels"], start=1):
        mids, midlines = read_level(doc, n)
        entry.update(midpoints=mids.tolist(), midlines=midlines.tolist())
    report = _golden().drift(json.dumps(doc).encode(), new.encode())
    assert report.startswith("unreadable: level 1 midpoints must be a base64 string")
    assert _golden().drift(new.encode(), new.encode()).startswith("vertex 0.000e+00")
