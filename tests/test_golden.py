"""The golden-output corpus, built again and compared byte for byte.

scripts/golden_corpus.py says what the corpus holds and rewrites it when an
output is meant to change; the diff of tests/data/golden.json then shows the
change.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_corpus.py"
_SPEC = importlib.util.spec_from_file_location("golden_corpus", _SCRIPT)
golden_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_corpus)

# Builds the corpus and the kernel digest in a fresh interpreter and writes
# them to stdout as JSON, with numpy's report of its X86_V3 dispatch target,
# the level of AVX2.
_REBUILD = ("import json, runpy, sys; "
            "from numpy._core._multiarray_umath import __cpu_features__ as cpu; "
            "g = runpy.run_path(sys.argv[1]); "
            "json.dump({'corpus': g['render'](g['corpus']()), 'kernels': g['kernel_digest'](), "
            "'x86_v3': cpu['X86_V3']}, sys.stdout)")

# OpenBLAS's Prescott kernel in place of the machine's default, which
# OpenBLAS reports under the name Katmai; numpy's baseline X86_V2 loops in
# place of its X86_V3 and X86_V4 ones.
ENVIRONMENTS = {
    "prescott": dict(OPENBLAS_CORETYPE="Prescott", OPENBLAS_VERBOSE="2"),
    "x86-v2": dict(NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"),
}


@pytest.fixture(scope="module")
def built():
    return golden_corpus.render(golden_corpus.corpus())


def test_outputs_equal_the_golden_corpus(built):
    assert built == golden_corpus.PATH.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ENVIRONMENTS)
def test_corpus_is_the_same_under(built, name):
    """The corpus bytes, and the kernels' bits, depend neither on the
    OpenBLAS kernel numpy runs nor on numpy's CPU dispatch."""
    path = [str(_SCRIPT.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **ENVIRONMENTS[name], PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _REBUILD, str(_SCRIPT)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if name == "prescott":
        assert "Core: Katmai" in proc.stderr
    else:
        assert out["x86_v3"] is False
    assert out["corpus"] == built
    assert out["kernels"] == golden_corpus.kernel_digest()
