#!/usr/bin/env python3
"""Build, and rewrite, the golden-output corpus tests/data/golden.json.

The corpus holds outputs that must not change unless a change means them to:

- the to_json() record of maximize_phi and maximize_param on their default
  grids, at the alphas of the benchmark workloads and the acceptance checks;
- the same two records on small grids at 20 alphas, among them 0.999999 and
  0.9999999, where (1 - alpha)^2 is below TIE_TOL and only a tie window
  relative to the maximum, TIE_TOL times it, keeps the grid's point
  p = 0, |y| = 1 the answer;
- the maximize_phi record on a tall 1001 x 11 grid at those 20 alphas, where
  the search's row pruning leaves out most p rows;
- the CSV of `h2star sweep` over [0, 0.9] in 9 steps, by phi, by lemma and
  by herglotz;
- the lines `h2star check` prints, with every time replaced by "<time>";
  the herglotz-search line has a key of its own.

Only the caratheodory-admissibility check is left out: its detail prints
the least eigenvalue of LAPACK's eigen-solve, whose last bits depend on the
BLAS kernel (-2.749e-15 at OpenBLAS's SkylakeX kernel on a 2-vCPU Xeon,
-2.776e-15 under Prescott).  Every other output goes through kernels in
real arithmetic, whose bits depend neither on the BLAS kernel nor on
numpy's CPU dispatch.

kernel_digest() hashes the arrays of those kernels on the samples of the
sampled checks, on caratheodory-admissibility's atom sets of 1 to 5 atoms,
which the 2-atom herglotz sweep never reaches, and on phi's default grid; it
is not stored.
tests/test_golden.py builds the corpus again and compares it byte for byte,
and builds both the corpus and the digest again in a fresh interpreter
under OpenBLAS's Prescott kernel and under numpy's X86_V2 dispatch, and
compares them with its own.  A change that alters an output on purpose
rewrites the file:

    PYTHONPATH=src python3 scripts/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from h2star import checks, cli, search
from h2star.caratheodory import (_atom_rows, _kernel_planes, _lemma_forward_raw,
                                  _lemma_row_blocks, _triple_rows, _weighted_moments)
from h2star.hankel import _moment_form_raw, _param_form, _phi_raw, bound_profile, det2
from h2star.starlike import _closed_form_rows

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
# herglotz-search has a key of its own, added after the "check" key's lines.
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
    check_herglotz = _stdout(["check", "--only=herglotz-search"])
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
        "sweep_herglotz": _stdout(sweep + ["herglotz"]).splitlines(),
        "check": _TIME.sub("<time>", check).splitlines(),
        "check_herglotz": _TIME.sub("<time>", check_herglotz).splitlines(),
    }


def kernel_digest() -> str:
    """sha256 of the kernels' arrays on algebra-reconciliation's draws at seed
    11, its 1,000 moment triples and then its 100,000 lemma rows; of the
    atom kernels on caratheodory-admissibility's 1,000 atom sets at seed 13,
    the kernel planes, the moments and search._h2_rows at the alphas of
    ALPHA_SPOT; and of phi, from the alpha-free terms that _phi_grids shares
    between alphas, and the profile on phi's default grid at the alphas of
    ALPHA_GRID."""
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())

    rng = np.random.default_rng(11)
    alpha, p1, p2, p3 = _triple_rows(rng, 1000)
    a2, a3, a4 = _closed_form_rows(alpha, p1, p2, p3)
    add(*a2, *a3, *a4, *det2(a2, a4, a3, a3), *_moment_form_raw(alpha, p1, p2, p3))
    for alpha, p, y, zeta in _lemma_row_blocks(rng, 100_000):
        moments = _lemma_forward_raw(p, y, zeta)
        psi = _param_form(alpha, p, y, zeta)
        add(*(x for m in moments for x in m), *psi, *_moment_form_raw(alpha, *moments),
            np.hypot(*psi), _phi_raw(alpha, p, np.hypot(*y)))
    weights, angles = (x.T for x in _atom_rows(np.random.default_rng(13), 1000))
    planes = _kernel_planes(angles, 3)
    add(planes, _weighted_moments(weights, planes),
        *(search._h2_rows(search._alpha_factors(a), weights, planes)
          for a in checks.ALPHA_SPOT))
    ps = np.linspace(0.0, 2.0, search.DEFAULT_GRID_P)
    grids = search._phi_grids(checks.ALPHA_GRID, search.DEFAULT_GRID_P, search.DEFAULT_GRID_T)
    for a, vals in zip(checks.ALPHA_GRID, grids):
        add(vals, bound_profile(a, ps))
    return digest.hexdigest()


def render(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(render(corpus()), encoding="utf-8")
    print(f"wrote {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
