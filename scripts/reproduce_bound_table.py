#!/usr/bin/env python3
"""Reproduce the sharp-bound table over a range of alpha, by every method.

For each alpha the script reports the searched maximum of |a2 a4 - a3^2|,
the sharp bound (1 - alpha)^2, and their gap, using the scalar majorant grid,
the full parameter-box grid, and the atom-measure search.

    python3 scripts/reproduce_bound_table.py
    python3 scripts/reproduce_bound_table.py --steps 18 --methods phi lemma

Input outside a search's domain, or a --steps too large to allocate, prints
one error line on stderr and exits 1.
"""

import argparse
import sys
import time

from h2star import H2StarError
from h2star.cli import glue_negative_values
from h2star.search import METHODS, sweep_alpha


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha-start", type=float, default=0.0)
    parser.add_argument("--alpha-end", type=float, default=0.9)
    parser.add_argument("--steps", type=int, default=9)
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(glue_negative_values(sys.argv[1:]))

    for method in args.methods:
        t0 = time.perf_counter()
        try:
            rows = sweep_alpha(
                args.alpha_start, args.alpha_end, args.steps, method, seed=args.seed
            )
        except (H2StarError, MemoryError) as exc:
            print(f"reproduce_bound_table: error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        print(f"\nmethod = {method}  ({elapsed:.1f}s)")
        print(f"{'alpha':>8} {'searched_max':>20} {'sharp_bound':>20} {'abs_gap':>12}")
        for r in rows:
            print(f"{r.alpha:8.3f} {r.searched_max:20.15f} {r.sharp_bound:20.15f} {r.abs_gap:12.3e}")
        worst = max(r.abs_gap for r in rows)
        print(f"worst gap: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
