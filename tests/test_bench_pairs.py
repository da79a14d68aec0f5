"""The statistics and the claim rule of scripts/bench_pairs.py, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0, 1.0]


def _claim(parent, change, lower=True, target=None):
    row = bench_pairs.compare(parent, change, "s", lower)
    return row, bench_pairs.claim_rule(row, parent, change, lower, target)


def test_seed_list():
    assert bench_pairs.seed_list("1801-1804") == [1801, 1802, 1803, 1804]
    assert bench_pairs.seed_list("7,3,9") == [7, 3, 9]


def test_summary_uses_inclusive_quartiles():
    got = bench_pairs.summary([4.0, 1.0, 3.0, 2.0])
    assert got == {"median": 2.5, "quartiles": [1.75, 3.25], "runs": [4.0, 1.0, 3.0, 2.0]}


def test_pairs_compare_in_order_and_ties_count_for_neither():
    row = bench_pairs.compare([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "s", True)
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (1, 1)
    row = bench_pairs.compare([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "1/s", False)
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (1, 1)
    assert row["change_vs_parent_median"] == 0.0


def test_claim_met_at_nine_of_ten():
    change = [0.8] * 9 + [1.5]
    row, claim = _claim(PARENT, change, target=0.15)
    assert row["change_better_pairs"] == 9
    assert claim["met"]
    assert claim["change_vs_parent_median"] == -0.2


@pytest.mark.parametrize("change, target", [
    ([0.8] * 8 + [1.5] * 2, None),  # 8 of 10 pairs better
    ([0.99] * 10, None),  # medians 0.01 apart, inside the parent's quartiles
    ([0.9] * 10, 0.15),  # 10% short of a 15% target
    ([1.2] * 10, None),  # worse in every pair
])
def test_claim_not_met(change, target):
    assert not _claim(PARENT, change, target=target)[1]["met"]


def test_claim_when_higher_is_better():
    assert _claim(PARENT, [1.3] * 10, lower=False, target=0.15)[1]["met"]
    assert not _claim(PARENT, [0.7] * 10, lower=False)[1]["met"]


def test_run_once_drops_the_passes(tmp_path):
    # A run's ru_maxrss starts at the caller's peak RSS, so the caller keeps
    # no per-pass list.
    (tmp_path / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'record': {'output_sha256': 'x', 'passes': [{'wall_s': 1.0}]}}))\n"
        "print(json.dumps({'metrics': {}, 'failed': 0, 'attempted': 1, 'correct': True}))\n")
    got = bench_pairs.run_once(tmp_path, tmp_path, "w", 1, 0.1, None, "parent")
    assert got == {"record": {"output_sha256": "x"}, "metrics": {}, "failed": 0,
                   "attempted": 1, "correct": True}


def test_run_once_lets_the_import_write_its_cache(tmp_path, monkeypatch):
    # setup_s times the cached import: perfbench's unrecorded first import
    # must be free to write the bytecode caches.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    (tmp_path / "run.py").write_text(
        "import json, sys\n"
        "print(json.dumps({'record': {'dont_write_bytecode': sys.flags.dont_write_bytecode,"
        " 'passes': []}}))\n"
        "print(json.dumps({'metrics': {}}))\n")
    got = bench_pairs.run_once(tmp_path, tmp_path, "w", 1, 0.1, None, "change")
    assert got["record"]["dont_write_bytecode"] == 0


@pytest.mark.parametrize("stderr, want", [
    ("Core: SkylakeX", "SkylakeX"),
    ("Core: Haswell\nCore: Haswell", "Haswell"),
    ("", None),
    ("OpenBLAS warning: something else", None),
])
def test_blas_core_reads_the_verbose_line(tmp_path, stderr, want):
    # A stand-in interpreter that writes ``stderr`` only when asked for
    # OPENBLAS_VERBOSE=2, as OpenBLAS does when numpy loads it.
    fake = tmp_path / "python"
    fake.write_text('#!/bin/sh\n'
                    f'[ "$OPENBLAS_VERBOSE" = 2 ] && printf "%s" "{stderr}" >&2\n'
                    'exit 0\n')
    fake.chmod(0o755)
    assert bench_pairs.blas_core(str(fake)) == want


def test_raw_wall_time_is_reported_beside_pass_s(tmp_path):
    # A stand-in perfbench whose runs read 2.0 s raw on the parent, 1.0 s on
    # the change, and the same speed-scaled pass_s on both.
    bench = {"run_seconds": 1, "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    # Both sides run the change side's perfbench, from their own root.
    run = ("import json, os\n"
           "wall = 1.0 if os.path.basename(os.getcwd()) == 'change' else 2.0\n"
           "print(json.dumps({'record': {'output_sha256': 'x', 'median_wall_s': wall,"
           " 'git_commit': 'p', 'python': '3', 'numpy': '2', 'nproc': 2,"
           " 'cpus_allowed': 2, 'passes': []}}))\n"
           "print(json.dumps({'metrics': {'pass_s': {'value': 0.5, 'unit': 's'}},"
           " 'failed': 0, 'attempted': 1, 'correct': True}))\n")
    (tmp_path / "parent").mkdir()
    (tmp_path / "change" / "perfbench").mkdir(parents=True)
    (tmp_path / "change" / "perfbench" / "run.py").write_text(run)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--run", "w=1-3", "--out", str(out)]) == 0
    workload = json.loads(out.read_text())["workloads"]["w"]
    wall = workload["median_wall_s"]
    assert wall["parent"]["runs"] == [2.0] * 3 and wall["change"]["runs"] == [1.0] * 3
    assert (wall["pairs"], wall["change_better_pairs"], wall["change_worse_pairs"]) == (3, 3, 0)
    assert wall["change_vs_parent_median"] == -0.5
    assert workload["end_to_end"]["pass_s"]["change_better_pairs"] == 0


@pytest.mark.parametrize("seeds", ["1801", "9-9", "5-3"])
def test_a_run_needs_two_seeds(tmp_path, capsys, seeds):
    # summary() needs two runs a side, so a shorter --run is refused before
    # any run starts.
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--run", f"w={seeds}",
                          "--out", str(out)])
    assert info.value.code == 2
    assert f"--run needs at least two seeds, got 'w={seeds}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("arg, error", [
    (("--run", "w=7,"), "--run takes W=SEEDS, got 'w=7,'"),
    (("--run", "w=x-y"), "--run takes W=SEEDS, got 'w=x-y'"),
    (("--claim", "w:pass_s:abc"), "--claim takes W:METRIC[:TARGET], got 'w:pass_s:abc'"),
    (("--claim", "w"), "--claim takes W:METRIC[:TARGET], got 'w'"),
], ids=["run-trailing-comma", "run-not-numbers", "claim-target", "claim-no-metric"])
def test_a_malformed_run_or_claim_is_a_usage_error(tmp_path, capsys, arg, error):
    # Refused by parse_args with exit 2 and one usage line, before any run.
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--run", "w=1-2", *arg,
                          "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not out.exists()
