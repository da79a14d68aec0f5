"""The golden-output corpus, built again and compared byte for byte.

scripts/golden_corpus.py says what the corpus holds and rewrites it when an
output is meant to change; the diff of tests/data/golden.json then shows the
change.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_corpus.py"
_SPEC = importlib.util.spec_from_file_location("golden_corpus", _SCRIPT)
golden_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_corpus)

# Builds the corpus in a fresh interpreter and writes it to stdout.
_REBUILD = ("import runpy, sys; g = runpy.run_path(sys.argv[1]); "
            "sys.stdout.write(g['render'](g['corpus']()))")


@pytest.fixture(scope="module")
def built():
    return golden_corpus.render(golden_corpus.corpus())


def test_outputs_equal_the_golden_corpus(built):
    assert built == golden_corpus.PATH.read_text(encoding="utf-8")


def test_corpus_is_the_same_under_prescott(built):
    """The corpus bytes do not depend on the OpenBLAS kernel numpy runs.

    The corpus is built again under OpenBLAS's Prescott kernel, not the
    machine's default; OpenBLAS reports that kernel under the name Katmai.
    """
    path = [str(_SCRIPT.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _REBUILD, str(_SCRIPT)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "Core: Katmai" in proc.stderr
    assert proc.stdout == built
