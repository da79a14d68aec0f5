#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and write a BENCH_<n>.json.

Each side is a checkout's root: a copy of one commit's files.  Both sides run
the change side's perfbench directory, so only the package under test
differs.  Even pairs run the parent first, odd pairs the
change first.  Standard library only.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --run lemma-grid=1801-1810 --run herglotz-sweep=1821-1825 \\
        --claim lemma-grid:pass_s:0.15 --out BENCH_18.json

``--run W=SEEDS`` runs workload W once per side at each seed; SEEDS is a
range ``a-b`` or a comma list, of at least two seeds.  Every metric is
reported per workload as each side's median, inclusive quartiles and runs,
and the pairs in which the change reads better or worse; so is perfbench's
raw ``median_wall_s``, beside the speed-scaled ``pass_s``.
``--claim W:METRIC[:TARGET]`` evaluates the claim rule on one workload and
metric: the change is better in at least 9 of 10 pairs run, its median is
past the parent's by more than the parent's interquartile distance and, with
a TARGET, the median moved by at least that fraction of the parent's median.
The raw output of each run goes to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIGNIFICANT = 4


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's files")
    parser.add_argument("change", type=Path, help="root of the change's files")
    parser.add_argument("--run", action="append", required=True, metavar="W=SEEDS",
                        help="workload and its seeds, one pair per seed")
    parser.add_argument("--seconds", type=float,
                        help="perfbench --seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--claim", metavar="W:METRIC[:TARGET]")
    parser.add_argument("--parent-commit",
                        help="the parent's commit id, when PARENT_DIR is not a git checkout")
    parser.add_argument("--what", default="", help="one paragraph: what the change does")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--log", type=Path, help="directory for each run's raw output")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = []
    for item in args.run:
        name, _, seeds = item.partition("=")
        try:
            seeds = seed_list(seeds)
        except ValueError:
            parser.error(f"--run takes W=SEEDS, got {item!r}")
        if len(seeds) < 2:
            # summary() takes quartiles, which need two runs a side
            parser.error(f"--run needs at least two seeds, got {item!r}")
        runs.append((name, seeds))
    args.run = runs
    if args.claim:
        name, _, rest = args.claim.partition(":")
        metric, colon, target = rest.partition(":")
        try:
            if not (name and metric):
                raise ValueError
            args.claim = name, metric, float(target) if colon else None
        except ValueError:
            parser.error(f"--claim takes W:METRIC[:TARGET], got {args.claim!r}")
    return args


def run_once(root: Path, perfbench: Path, workload: str, seed: int, seconds: float,
             log: Path | None, tag: str) -> dict:
    """One perfbench run with ``root`` as the checkout; its record and result.

    The run's environment lacks PYTHONDONTWRITEBYTECODE, so perfbench's
    unrecorded first import writes the bytecode caches and setup_s times
    the cached import.  The record's per-pass list is dropped.  Linux
    carries a process's peak RSS over exec, so each run's ru_maxrss starts
    at this process's peak, and keeping every run's passes grew it past the
    workloads' own peaks.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, str(perfbench / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if log is not None:
        (log / f"{workload}-{seed}-{tag}.out").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {tag} run of {workload} at seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record = json.loads(record_line)
    del record["record"]["passes"]
    return {**record, **json.loads(result_line)}


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), SIGNIFICANT),
            "quartiles": [round(q1, SIGNIFICANT), round(q3, SIGNIFICANT)],
            "runs": [round(r, SIGNIFICANT) for r in runs]}


def compare(parent: list, change: list, unit: str, lower_is_better: bool) -> dict:
    """Each side's summary and the pairs the change wins and loses; ties count for neither."""
    sign = 1.0 if lower_is_better else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p_med = statistics.median(parent)
    return {"unit": unit, "parent": summary(parent), "change": summary(change),
            "pairs": len(parent),
            "change_better_pairs": sum(g > 0 for g in gains),
            "change_worse_pairs": sum(g < 0 for g in gains),
            "change_vs_parent_median":
                round((statistics.median(change) - p_med) / p_med, SIGNIFICANT)}


def claim_rule(row: dict, parent: list, change: list, lower_is_better: bool,
               target: float | None) -> dict:
    """The claim rule on one metric: its row from ``compare`` and each side's runs."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    p_med = statistics.median(parent)
    moved = (p_med - statistics.median(change)) * (1.0 if lower_is_better else -1.0)
    return {"change_vs_parent_median": row["change_vs_parent_median"],
            "change_better_pairs": row["change_better_pairs"],
            "medians_apart": round(moved, SIGNIFICANT),
            "parent_interquartile": round(q3 - q1, SIGNIFICANT),
            "met": (row["change_better_pairs"] >= math.ceil(0.9 * row["pairs"])
                    and moved > q3 - q1
                    and (target is None or moved >= target * abs(p_med)))}


def main(argv=None) -> int:
    args = parse_args(argv)
    perfbench = (args.change / "perfbench").resolve()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.claim and (args.claim[0] not in dict(args.run) or args.claim[1] not in lower):
        raise SystemExit(f"bench_pairs: --claim names a workload not run or a metric "
                         f"BENCHMARK.json does not declare: {args.claim[:2]}")
    if args.log is not None:
        args.log.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    workloads, raw = {}, {}
    for name, seeds in args.run:
        got = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.monotonic()
                got[side].append(run_once(sides[side], perfbench, name, seed, seconds,
                                          args.log, side))
                print(f"{name} seed {seed} {side}: {time.monotonic() - t0:.1f} s",
                      file=sys.stderr)
        metrics = {}
        for metric in lower:
            vals = [[r["metrics"][metric]["value"] for r in got[side]] for side in got]
            raw[name, metric] = vals
            row = compare(*vals, got["parent"][0]["metrics"][metric]["unit"], lower[metric])
            worse = row["change_vs_parent_median"] * (1.0 if lower[metric] else -1.0)
            row["within_bound"] = worse <= bounds[metric]
            metrics[metric] = row
        workloads[name] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "failed": {side: sum(r["failed"] for r in got[side]) for side in got},
            "attempted": {side: sum(r["attempted"] for r in got[side]) for side in got},
            "correct": {side: all(r["correct"] for r in got[side]) for side in got},
            "output_sha256_equal_per_seed": all(
                a["record"]["output_sha256"] == b["record"]["output_sha256"]
                for a, b in zip(got["parent"], got["change"])),
            "end_to_end": metrics,
            "median_wall_s": compare(*([r["record"]["median_wall_s"] for r in got[side]]
                                       for side in got), "s", True),
        }

    first = got["parent"][0]["record"]
    report = {
        "what": args.what,
        "parent_commit": args.parent_commit or first["git_commit"],
        "change_commit": "the commit that adds this file, on top of parent_commit",
        "python": first["python"],
        "numpy": first["numpy"],
        "machine": {"cpus": f"{first['nproc']} vCPU (nproc {first['nproc']}, "
                            f"{first['cpus_allowed']} allowed)"},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "(from a checkout's root, each side a copy of its commit's files, same "
                   "perfbench/ on both sides, PYTHONDONTWRITEBYTECODE unset)",
        "method": "Alternating pairs: even pairs run the parent first, odd pairs the change "
                  "first. Medians and quartiles over the pairs' runs; quartiles are "
                  "statistics.quantiles(n=4, method='inclusive'). Times are perfbench's "
                  "speed-scaled seconds, but for median_wall_s, each run's median raw wall "
                  "time of a pass. within_bound compares the change's median with the "
                  "parent's, as a fraction of the parent's, to the BENCHMARK.json bound.",
    }
    if args.claim:
        name, metric, target = args.claim
        report["claim"] = {
            "workload": name, "metric": metric,
            **({"target": f"at least {target:.0%} "
                          f"{'below' if lower[metric] else 'above'} the parent's median"}
               if target else {}),
            **claim_rule(workloads[name]["end_to_end"][metric], *raw[name, metric],
                         lower[metric], target),
            "rule": "change better in >= 9 of 10 pairs and medians apart by more than the "
                    "parent's interquartile distance",
        }
    report["notes"] = args.note
    report["workloads"] = workloads
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
