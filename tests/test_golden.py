"""The golden-output corpus, built again and compared byte for byte.

scripts/golden_corpus.py says what the corpus holds and rewrites it when an
output is meant to change; the diff of tests/data/golden.json then shows the
change.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).resolve().parents[1] / "scripts" / "golden_corpus.py")
golden_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_corpus)


def test_outputs_equal_the_golden_corpus():
    want = golden_corpus.PATH.read_text(encoding="utf-8")
    assert golden_corpus.render(golden_corpus.corpus()) == want
