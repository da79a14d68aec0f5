"""h2star benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lemma-grid --seed 1 --seconds 36 --trace 0

The workload runs in passes until the next pass would end after --seconds
(at least two passes; four in a traced run).  The first pass is a warm-up:
its outputs are checked, but its time is not counted.  Times are measured
with speed.SpeedClock, which scales them to a fixed machine speed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a JSON record
of the inputs, seed, versions and every pass.  A traced run mixes plain and
traced passes, so the tracing overhead is measured in the same process.
README.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

WORKLOAD_NAMES = ("lemma-grid", "herglotz-sweep", "pointwise-gate")

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Thread pools of numpy's BLAS and OpenMP read these when numpy is imported;
# every workload runs on one thread.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 9
# Run by a fresh interpreter with the perfbench directory as argv[1].
IMPORT_PROBE = """
import sys
sys.path.append(sys.argv[1])
import speed
with speed.SpeedClock() as clock:
    import h2star
print(repr(clock.wall_s), repr(clock.ref_s))
"""


@dataclass
class Pass:
    traced: bool
    wall_s: float
    ref_s: float
    failures: list
    attempted: int
    layer: dict = field(default_factory=dict)
    spans: int = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def measure_setup(src: Path) -> list:
    """(wall, speed-weighted) seconds of a fresh interpreter importing h2star.

    numpy is included.  One unrecorded import first writes the bytecode
    caches, which users pay once, not on every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    def import_s():
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).resolve().parent)],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        wall, ref = done.stdout.split()
        return float(wall), float(ref)

    import_s()
    return [import_s() for _ in range(SETUP_REPEATS)]


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload, tracing, traced: bool) -> Pass:
    tracer = tracing.Tracer() if traced else None
    n_ops = len(workload.labels)
    results = []
    try:
        if tracer:
            tracer.install()
        with speed.SpeedClock() as clock:
            for i in range(n_ops):
                if tracer:
                    tracer.op_id = i
                try:
                    results.append(workload.run(i))
                except Exception as exc:  # a raising op is a failed op; later ops still run
                    results.append(exc)
    finally:
        if tracer:
            tracer.uninstall()
    failures = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            problems = [f"raised {result!r}"]
        else:
            problems = workload.verify(i, result)
        if problems:
            failures.append(f"{workload.labels[i]}: " + "; ".join(problems))
    done = Pass(traced, clock.wall_s, clock.ref_s, failures, n_ops)
    if tracer:
        done.layer = tracer.metrics()
        done.spans = tracer.span_count
    return done


def run_passes(workload, tracing, seconds: float, trace: bool) -> list:
    """Passes until the next one would end after ``seconds``.

    The first pass is a plain warm-up.  After it, a traced run repeats
    [plain, traced, traced]: the plain pass gives the tracing overhead, and
    two traced passes show whether the counts repeat.
    """
    passes = []
    min_passes = 4 if trace else 2
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = trace and i > 0 and (i - 1) % 3 != 0
        passes.append(run_pass(workload, tracing, traced))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def layer_metrics(passes, tracing) -> tuple:
    """Per-layer metrics over the traced passes, and any count that did not repeat.

    ``passes`` excludes the warm-up pass.
    """
    traced = [p.layer for p in passes if p.traced]
    values, unsteady = {}, []
    for name, _, _, is_count in tracing.PER_LAYER_METRICS:
        if name == "trace.overhead_ratio":
            plain = statistics.median(p.ref_s for p in passes if not p.traced)
            with_trace = statistics.median(p.ref_s for p in passes if p.traced)
            values[name] = with_trace / plain - 1.0
        elif is_count:
            seen = [t[name] for t in traced]
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                unsteady.append(f"{name}: {seen}")
        else:
            values[name] = statistics.median(t[name] for t in traced)
    return values, unsteady


def declared_units(root: Path, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "h2star" / "__init__.py").is_file():
        print(f"perfbench: no h2star package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    setup_s = [] if args.trace else measure_setup(src)

    # Imported only now: numpy must see the thread settings above.
    sys.path.insert(0, str(src))
    import numpy
    import tracing
    import workloads

    if args.trace:
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER_METRICS}
    else:
        units = dict(END_TO_END)
    declared = declared_units(root, bool(args.trace))
    if units != declared:
        print(f"perfbench: BENCHMARK.json declares {declared}, run.py emits {units}",
              file=sys.stderr)
        return 3

    scratch = root / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=scratch) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes = run_passes(workload, tracing, args.seconds, bool(args.trace))

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    # The first pass pays for cold caches and fresh memory mappings.  Counting
    # it only in runs that fit few passes would make pass_s depend on speed.
    timed = passes[1:]
    unsteady = []
    if args.trace:
        values, unsteady = layer_metrics(timed, tracing)
    else:
        values = {
            "pass_s": statistics.median(p.ref_s for p in timed),
            "setup_s": statistics.median(ref for _, ref in setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seed_used,
        "inputs": workload.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "output_sha256": workload.digest(),
        "median_wall_s": statistics.median(p.wall_s for p in timed),
        "setup_samples_s": [{"wall_s": wall, "ref_s": ref} for wall, ref in setup_s],
        "passes": [
            {"warm_up": i == 0, "traced": p.traced, "wall_s": p.wall_s, "ref_s": p.ref_s,
             "spans": p.spans, "failures": p.failures}
            for i, p in enumerate(passes)
        ],
        "counts_not_repeated": unsteady,
    }
    result = {
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
