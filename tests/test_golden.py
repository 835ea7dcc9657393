"""The golden corpus: the CLI's complete outputs on the committed scenes and
the benchmark bump at depth 4, compared byte for byte.

``python3 scripts/golden.py --write`` regenerates ``tests/golden/`` and
reports the drift of every changed system file.
"""

import importlib.util
from pathlib import Path

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
