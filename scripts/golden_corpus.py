#!/usr/bin/env python3
"""Build, and rewrite, the golden-output corpus tests/data/golden.json.

The corpus holds outputs that must not change unless a change means them to:

- the to_json() record of maximize_phi and maximize_param on their default
  grids, at the alphas of the benchmark workloads and the acceptance checks;
- the same two records on small grids at 20 alphas, among them 0.999999 and
  0.9999999, where (1 - alpha)^2 is below TIE_TOL;
- the maximize_phi record on a tall 1001 x 11 grid at those 20 alphas, where
  the search's row pruning leaves out most p rows;
- the CSV of `h2star sweep` over [0, 0.9] in 9 steps, by phi and by lemma;
- the lines `h2star check` prints, with every time replaced by "<time>".

The herglotz-search and caratheodory-admissibility checks are left out: their
detail text depends on which OpenBLAS kernel sums their dot products.  The
bytes hold for numpy's default CPU dispatch at X86_V3 or above: below it,
numpy's complex products and complex moduli round differently, and
algebra-reconciliation's detail reads 1.601e-15 in place of 1.466e-15.
tests/test_golden.py builds the corpus again and compares it byte for byte.
A change that alters an output on purpose rewrites the file:

    PYTHONPATH=src python3 scripts/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from h2star import checks, cli, search

PATH = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden.json"

# The alphas of the checks (ALPHA_GRID holds ALPHA_SPOT and the anchors 0
# and 0.5) and of the benchmark workloads: lemma-grid runs 0, 0.25 and 0.75,
# herglotz-sweep k / 10.
DEFAULT_GRID_ALPHAS = sorted(set(checks.ALPHA_GRID) | {k / 10 for k in range(10)})
SMALL_GRID_ALPHAS = [0.0, 1e-12, 0.01, 0.1, 0.123, 0.25, 0.3, 0.333, 0.45, 0.5, 0.55, 0.6,
                     0.75, 0.875, 0.9, 0.99, 0.999, 0.99999, 0.999999, 0.9999999]
SMALL_PHI_GRID = dict(grid_p=41, grid_t=21)
TALL_PHI_GRID = dict(grid_p=1001, grid_t=11)
SMALL_PARAM_GRID = dict(grid_p=41, grid_ymod=21, grid_yarg=16, grid_zarg=8)
CHECKS = [name for name in checks.CHECKS_BY_NAME
          if name not in ("herglotz-search", "caratheodory-admissibility")]
# A time as the checks print it: "[0.02s]", "worst time = 0.002s", "t=0.0s".
_TIME = re.compile(r"\d+\.\d+s\b")


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"golden_corpus: h2star {' '.join(argv)} exited {code}")
    return out.getvalue()


def corpus() -> dict:
    sweep = ["sweep", "--alpha-start", "0", "--alpha-end", "0.9", "--steps", "9",
             "--seed", "7", "--method"]
    check = _stdout(["check"] + [f"--only={name}" for name in CHECKS])
    return {
        "phi_default": {repr(a): search.maximize_phi(a).to_json()
                        for a in DEFAULT_GRID_ALPHAS},
        "lemma_default": {repr(a): search.maximize_param(a).to_json()
                          for a in DEFAULT_GRID_ALPHAS},
        "phi_small": {repr(a): search.maximize_phi(a, **SMALL_PHI_GRID).to_json()
                      for a in SMALL_GRID_ALPHAS},
        "phi_tall": {repr(a): search.maximize_phi(a, **TALL_PHI_GRID).to_json()
                     for a in SMALL_GRID_ALPHAS},
        "lemma_small": {repr(a): search.maximize_param(a, **SMALL_PARAM_GRID).to_json()
                        for a in SMALL_GRID_ALPHAS},
        "sweep_phi": _stdout(sweep + ["phi"]).splitlines(),
        "sweep_lemma": _stdout(sweep + ["lemma"]).splitlines(),
        "check": _TIME.sub("<time>", check).splitlines(),
    }


def render(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(render(corpus()), encoding="utf-8")
    print(f"wrote {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
