import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2star import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for subprocesses."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestSubcommands:
    def test_bound_text(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--alpha", "0")
        assert code == 0
        assert out.splitlines()[0] == "sharp_bound = 1"

    def test_extremal_json(self, capsys):
        doc = run_json(capsys, "extremal", "--alpha", "0.25", "--order", "8")
        assert doc["coefficients"][2] == [0.75, 0.0]
        assert doc["h2_abs"] == 0.5625
        assert doc["hankel_det"] == [-0.5625, 0.0]

    def test_hankel_koebe(self, capsys):
        code, out, _ = run_cli(capsys, "hankel", "--coeffs", "1,2,3,4", "--q", "2", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "det = -1+0j"

    def test_hankel_complex_entries(self, capsys):
        doc = run_json(
            capsys, "hankel", "--coeffs", "1,2+1j,3,4-1j", "--q", "2", "--n", "1"
        )
        # det = a1 a3 - a2^2 = 3 - (2+i)^2
        assert doc["det"] == [0.0, -4.0]

    def test_coeffs_from_atoms(self, capsys):
        doc = run_json(
            capsys,
            "coeffs",
            "--alpha", "0",
            "--atoms", "1:0",
            "--order", "5",
        )
        assert doc["coefficients"] == [[float(n), 0.0] for n in range(1, 6)]

    def test_coeffs_default_order(self, capsys):
        doc = run_json(capsys, "coeffs", "--alpha", "0", "--atoms", "1:0")
        assert doc["order"] == 16
        assert len(doc["coefficients"]) == 16

    def test_functional_moment_form(self, capsys):
        doc = run_json(
            capsys,
            "functional",
            "--alpha", "0",
            "--p1", "2",
            "--p2", "2",
            "--p3", "2",
        )
        assert doc["abs"] == pytest.approx(1.0, abs=1e-15)
        assert doc["value"][0] == pytest.approx(-1.0, abs=1e-15)

    def test_param_includes_majorant(self, capsys):
        doc = run_json(
            capsys,
            "param",
            "--alpha", "0.5",
            "--p", "0",
            "--y", "1,0",
            "--zeta", "0,0",
        )
        assert doc["value"] == [-0.25, 0.0]
        assert doc["phi"] == 0.25

    def test_phi_value(self, capsys):
        doc = run_json(capsys, "phi", "--alpha", "0", "--p", "2", "--t", "0.3")
        assert doc["value"] == pytest.approx(1.0, abs=1e-15)

    def test_search_json_round_trips(self, capsys):
        doc = run_json(
            capsys,
            "search",
            "--alpha", "0.25",
            "--method", "phi",
            "--seed", "1",
        )
        assert doc["value"] == 0.5625
        assert doc["method"] == "phi"
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_check_subset(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--only", "prior-result-anchors")
        assert code == 0
        assert out.startswith("PASS prior-result-anchors")


class TestSweep:
    GOLDEN_ARGS = [
        "sweep",
        "--alpha-start", "0",
        "--alpha-end", "0.9",
        "--steps", "9",
        "--method", "phi",
        "--seed", "7",
    ]

    def test_golden_file_stability(self, tmp_path, capsys):
        paths = [tmp_path / f"sweep{i}.csv" for i in range(3)]
        for path, workers in zip(paths, ("1", "2", "4")):
            code, _, err = run_cli(
                capsys, *self.GOLDEN_ARGS, "--workers", workers, "--out", str(path)
            )
            assert code == 0, err
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        assert b"\r" not in blobs[0]
        header = blobs[0].split(b"\n", 1)[0]
        assert header == b"alpha,searched_max,sharp_bound,abs_gap,argmax"
        assert len(blobs[0].decode().strip().splitlines()) == 11

    def test_matches_subprocess_run(self, tmp_path, capsys):
        path = tmp_path / "inproc.csv"
        code, _, _ = run_cli(capsys, *self.GOLDEN_ARGS, "--out", str(path))
        assert code == 0
        proc = subprocess.run(
            [sys.executable, "-m", "h2star.cli", *self.GOLDEN_ARGS],
            capture_output=True,
            cwd=Path(__file__).resolve().parents[1],
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == path.read_bytes()

    def test_repeated_sweeps_write_the_same_bytes(self, capsys):
        outs = [run_cli(capsys, *self.GOLDEN_ARGS) for _ in range(3)]
        assert outs[0][0] == 0
        assert outs[0] == outs[1] == outs[2]

    def test_stdout_emission(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--alpha-start", "0",
            "--alpha-end", "0.5",
            "--steps", "1",
            "--method", "phi",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,searched_max,sharp_bound,abs_gap,argmax"
        assert lines[1].startswith("0,1,1,0,")
        assert lines[2].startswith("0.5,0.25,0.25,0,")


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        for argv in (["bound", "--alpha", "0"], ["phi", "--alpha", "0", "--p", "1", "--t", "0.5"],
                     ["search", "--alpha", "0.25", "--method", "phi"], ["bound", "--alpha", "x"]):
            run_cli(capsys, *argv)
        assert builds == [1]

    def test_only_does_not_carry_over(self, capsys):
        first = run_cli(capsys, "check", "--only", "prior-result-anchors")
        second = run_cli(capsys, "check", "--only", "sharp-bound-reproduction")
        assert first[0] == second[0] == 0
        assert [line.split()[1] for line in second[1].splitlines()] == ["sharp-bound-reproduction"]


@pytest.mark.parametrize("command, head, tail", [
    ("search", ["--alpha"], ["--json"]),
    ("sweep", ["--alpha-start", "--alpha-end", "--steps", "--out"], []),
])
def test_method_flags_in_declaration_order(command, head, tail):
    # --help lists each method option once, in the order of search.METHOD_OPTIONS
    argv = [command, *(f"{flag}=0" for flag in head), "--method", "phi"]
    sub = cli.build_parser().parse_args(argv).parser
    assert [a.option_strings[-1] for a in sub._actions] == [
        "--help", *head, "--method", "--seed", "--workers", "--grid-p", "--grid-t",
        "--grid-ymod", "--grid-yarg", "--grid-zarg", "--atom-count", "--restarts",
        "--local-steps", *tail]


class TestComplexFlags:
    @pytest.mark.parametrize(
        "spaced, glued",
        [
            (["--p1", "1.5", "--p2", "0.3,0.2", "--p3", "-1,0.5"],
             ["--p1", "1.5", "--p2", "0.3,0.2", "--p3=-1,0.5"]),
            (["--p1", "-0.5", "--p2", "-1e-1,-0.2", "--p3", "0"],
             ["--p1=-0.5", "--p2=-1e-1,-0.2", "--p3", "0"]),
        ],
    )
    def test_negative_real_part_after_a_space(self, capsys, spaced, glued):
        code, out, err = run_cli(capsys, "functional", "--alpha", "0.1", *spaced)
        assert code == 0, err
        assert run_cli(capsys, "functional", "--alpha", "0.1", *glued) == (0, out, "")

    def test_negative_point_after_a_space(self, capsys):
        code, out, err = run_cli(
            capsys, "param", "--alpha", "0.2", "--p", "1", "--y", "-0.5,-0.1", "--zeta", "-1,0"
        )
        assert code == 0, err
        assert run_cli(
            capsys, "param", "--alpha", "0.2", "--p", "1", "--y=-0.5,-0.1", "--zeta=-1,0"
        ) == (0, out, "")

    @pytest.mark.parametrize("flag", [["--ze", "-1,0"], ["--z", "-1,0"], ["--zet=-1,0"]])
    def test_abbreviated_flag(self, capsys, flag):
        head = ["param", "--alpha", "0.2", "--p", "1", "--y", "-0.5,-0.1"]
        code, out, err = run_cli(capsys, *head, "--zeta=-1,0")
        assert code == 0, err
        assert run_cli(capsys, *head, *flag) == (0, out, "")

    @pytest.mark.parametrize("flag", [["--p", "-1,0"], ["--p=-1,0"], ["--p", "1"]])
    def test_ambiguous_prefix_is_still_a_parse_error(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "functional", "--alpha", "0", "--p2", "0", "--p3", "0", *flag
        )
        assert (code, out) == (2, "")
        assert "ambiguous option: --p" in err

    def test_missing_value_is_still_a_parse_error(self, capsys):
        code, _, err = run_cli(
            capsys, "functional", "--alpha", "0", "--p1", "1", "--p2", "0", "--p3", "--json"
        )
        assert code == 2
        assert "--p3" in err


class TestModuleEntryPoint:
    def test_python_dash_m_h2star(self, capsys):
        argv = ["bound", "--alpha", "0.25", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "h2star", *argv], capture_output=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        _, out, _ = run_cli(capsys, *argv)
        assert proc.stdout.decode() == out


def test_herglotz_sweep_table(capsys):
    code, out, err = run_cli(capsys, "sweep", "--alpha-start", "0", "--alpha-end", "0.9",
                             "--steps", "1", "--method", "herglotz")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "alpha,searched_max,sharp_bound,abs_gap,argmax"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.90000000000000002"]


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--alpha-start", "0", "--alpha-end", "2", "--steps", "9", "--method", "phi"],
     re.escape("alpha must lie in [0, 1), got 2.0")),
    (["sweep", "--alpha-start", "0", "--alpha-end", "-2e-1", "--steps", "9", "--method", "phi"],
     re.escape("alpha must lie in [0, 1), got -0.2")),
    (["sweep", "--alpha-start", "0", "--alpha-end", "0.9", "--steps", "100000000000000000",
      "--method", "phi"],
     re.escape("--steps 100000000000000000 is too large: ") + "Unable to allocate .*"),
    (["search", "--alpha", "0.1", "--method", "phi", "--seed", "-3"],
     re.escape("seed must be a whole number of at least 0, got -3")),
], ids=["alpha-end-2", "alpha-end-negative", "steps-unallocatable", "seed-negative"])
def test_error_line(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert re.fullmatch(f"h2star: error: {error}", line), line


class TestExitCodes:
    def test_unknown_flag_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--alpha", "0.5", "--bogus", "1")
        assert code == 2
        assert "error" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "bound")
        assert code == 2

    def test_malformed_complex_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "functional", "--alpha", "0", "--p1", "1,2,3", "--p2", "0", "--p3", "0"
        )
        assert code == 2

    def test_malformed_atoms(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--alpha", "0", "--atoms", "0.5;0")
        assert code == 2

    @pytest.mark.parametrize("atoms", ["1:nan", "nan:0", "1:inf", "0.5:0,0.5:-inf", "2:0"])
    def test_invalid_atoms_are_domain_errors(self, capsys, atoms):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "0.1", "--atoms", atoms)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    def test_overflowing_weight_sum_is_one_error_line(self):
        # A fresh interpreter prints numpy's warnings, which pytest would raise.
        proc = subprocess.run(
            [sys.executable, "-m", "h2star", "coeffs", "--alpha", "0",
             "--atoms", "1e308:0,1e308:1"],
            capture_output=True, env=src_env(),
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode().splitlines() == [
            "h2star: error: weights must sum to 1, got inf"
        ]

    def test_bad_method_choice(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--alpha", "0.1", "--method", "newton")
        assert code == 2

    def test_inapplicable_grid_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--alpha", "0.1", "--method", "phi", "--restarts", "2"
        )
        assert code == 2
        assert "does not apply" in err

    def test_first_foreign_flag_by_name(self, capsys):
        # --grid-t comes first on the line and in METHOD_OPTIONS, --atom-count by name
        code, _, err = run_cli(capsys, "search", "--alpha", "0.1", "--method", "lemma",
                               "--grid-t", "3", "--atom-count", "2")
        assert code == 2
        assert err == "h2star search: error: --atom-count does not apply to method 'lemma'\n"

    @pytest.mark.parametrize("method", ["phi", "lemma"])
    def test_negative_seed_is_domain_error(self, capsys, method):
        code, out, err = run_cli(
            capsys, "search", "--alpha", "0.1", "--method", method, "--seed", "-3"
        )
        assert (code, out) == (1, "")
        assert "seed" in err

    def test_domain_error_from_alpha(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--alpha", "1.5")
        assert code == 1
        assert "alpha" in err

    def test_domain_error_from_lemma_point(self, capsys):
        code, _, _ = run_cli(
            capsys, "param", "--alpha", "0", "--p", "0", "--y", "2,0", "--zeta", "0"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["hankel", "--coeffs", "1,nan,2,3", "--q", "2", "--n", "2"],
            ["param", "--alpha", "0.1", "--p", "1", "--y", "0.5", "--zeta", "nan"],
            ["functional", "--alpha", "0.1", "--p1", "1", "--p2", "inf,0", "--p3", "0"],
            ["phi", "--alpha", "0.1", "--p", "nan", "--t", "0.5"],
        ],
    )
    def test_non_finite_input_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("h2star: error: ")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["functional", "--alpha", "0.1", "--p1", "1e300", "--p2", "0", "--p3", "0"],
            ["hankel", "--coeffs", "1,1e200,1e200,1e200", "--q", "2", "--n", "2"],
            # finite, but its modulus is past the float range
            ["hankel", "--coeffs", "1,1.5e308+1.5e308j", "--q", "1", "--n", "2"],
        ],
    )
    def test_non_finite_result_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("h2star: error: ")
        assert "not finite" in err
        assert "moment form" in err or "Hankel determinant" in err

    def test_overflow_is_an_error_not_a_traceback(self, capsys):
        code, out, err = run_cli(
            capsys, "functional", "--alpha", "0", "--p1", "1e100", "--p2", "0", "--p3", "0"
        )
        assert (code, out) == (1, "")
        assert err.startswith("h2star: error: ")

    # 10**15 entries need more than a 47-bit address space, so the allocation
    # fails at once, whatever the overcommit policy, and touches no memory.
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--alpha", "0", "--atoms", "1:0", "--order", "1000000000000000"],
            ["extremal", "--alpha", "0", "--order", "1000000000000000"],
            ["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--method", "phi",
             "--steps", "1000000000000000"],
        ],
    )
    def test_unallocatable_size_is_an_error_not_a_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("h2star: error: ")
        assert err.count("\n") == 1

    # 10**15 fails to allocate; 10**20 is more entries than any array holds.
    @pytest.mark.parametrize("value", ["1000000000000000", "100000000000000000000"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["coeffs", "--alpha", "0", "--atoms", "1:0"], "--order"),
            (["extremal", "--alpha", "0"], "--order"),
            (["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--method", "phi"],
             "--steps"),
            (["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--method", "herglotz"],
             "--steps"),
            (["search", "--alpha", "0.1", "--method", "phi"], "--grid-p"),
            (["search", "--alpha", "0.1", "--method", "phi"], "--grid-t"),
            (["search", "--alpha", "0.1", "--method", "lemma"], "--grid-p"),
            (["search", "--alpha", "0.1", "--method", "lemma"], "--grid-ymod"),
            (["search", "--alpha", "0.1", "--method", "lemma"], "--grid-yarg"),
            (["search", "--alpha", "0.1", "--method", "lemma"], "--grid-zarg"),
            (["search", "--alpha", "0.1", "--method", "herglotz"], "--restarts"),
            (["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--steps", "9",
              "--method", "herglotz"], "--restarts"),
            (["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--steps", "9",
              "--method", "lemma"], "--grid-zarg"),
        ],
    )
    def test_oversized_size_flag_is_named(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith(f"h2star: error: {flag} {value} is too large: ")
        assert err.count("\n") == 1

    def test_unwritable_out_is_an_error_not_a_traceback(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--steps", "1",
            "--method", "phi", "--out", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("h2star: error: ")
        assert "Traceback" not in err

    def test_domain_error_from_short_coeffs(self, capsys):
        code, _, _ = run_cli(capsys, "hankel", "--coeffs", "1,2", "--q", "2", "--n", "2")
        assert code == 1

    def test_domain_error_from_non_unit_leading(self, capsys):
        code, _, _ = run_cli(capsys, "hankel", "--coeffs", "2,2,3,4", "--q", "2", "--n", "2")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--alpha", "0.1", "--method", "phi"],
            ["search", "--alpha", "0.1", "--method", "herglotz"],
            ["sweep", "--alpha-start", "0", "--alpha-end", "0.5", "--steps", "1",
             "--method", "phi"],
        ],
    )
    def test_domain_error_from_zero_workers(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--workers", "0")
        assert code == 1
        assert out == ""
        assert "workers" in err
        assert "Traceback" not in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run_cli(capsys, "check", "--only", "nonsense")
        assert code == 2
        assert "argument --only: invalid choice: 'nonsense'" in err


_REALS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]),
    # magnitudes whose fourth power overflows while the square does not
    st.sampled_from(["0", "0.5", "-1", "1e100", "-1e100"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_COMPLEX = st.one_of(_REALS, st.builds(lambda re, im: f"{re},{im}", _REALS, _REALS))


@st.composite
def _flag(draw, name, values):
    """``--name value`` or ``--name=value``, with a value drawn from ``values``."""
    value = draw(values)
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["param", "functional", "phi", "hankel", "coeffs"]))
    if command == "param":
        flags = [("--alpha", _REALS), ("--p", _REALS), ("--y", _COMPLEX), ("--zeta", _COMPLEX)]
    elif command == "functional":
        flags = [("--alpha", _REALS), ("--p1", _COMPLEX), ("--p2", _COMPLEX),
                 ("--p3", _COMPLEX)]
    elif command == "phi":
        flags = [("--alpha", _REALS), ("--p", _REALS), ("--t", _REALS)]
    elif command == "hankel":
        coeffs = st.lists(_REALS, min_size=1, max_size=6).map(",".join)
        flags = [("--coeffs", coeffs), ("--q", st.sampled_from(["1", "2", "3"])),
                 ("--n", st.sampled_from(["1", "2"]))]
    else:
        pair = st.builds(lambda w, t: f"{w}:{t}", _REALS, _REALS)
        atoms = st.lists(pair, min_size=1, max_size=3).map(",".join)
        flags = [("--alpha", _REALS), ("--atoms", atoms), ("--order", st.just("6"))]
    argv = [command]
    for name, values in flags:
        argv += draw(_flag(name, values))
    return argv


def _quiet_main(argv):
    """(exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _all_glued(argv):
    """argv with every ``--flag value`` pair written ``--flag=value``."""
    tokens = iter(argv)
    return [f"{tok}={next(tokens)}" if tok.startswith("--") and "=" not in tok else tok
            for tok in tokens]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_cli_exit_code_for_any_float_input(argv):
    """NaN, infinities or any finite value in a float or complex flag never
    escape as an exception: the exit code is always 0, 1 or 2."""
    code, _, _ = _quiet_main(argv)
    assert code in (0, 1, 2), argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_spaced_and_glued_values_agree(argv):
    """A value after a space reads exactly as after ``=``, whatever its sign."""
    assert _quiet_main(argv) == _quiet_main(_all_glued(argv)), argv


@pytest.mark.parametrize("head, flag, value", [
    (["phi", "--alpha", "0.3", "--t", "0.5"], "--p", "-2e-1"),
    (["hankel", "--q", "2", "--n", "2"], "--coeffs", "-1,2"),
    (["sweep", "--alpha-end", "0.5", "--steps", "1", "--method", "phi"], "--alpha-start",
     "-1e-9"),
    (["coeffs", "--alpha", "0"], "--atoms", "-0.5:1"),
    # a digit alone does not mark -inf as a value
    (["functional", "--alpha", "0", "--p1", "1", "--p2", "0"], "--p3", "-inf"),
])
def test_negative_value_after_a_space_is_a_domain_error(capsys, head, flag, value):
    glued = run_cli(capsys, *head, f"{flag}={value}")
    assert glued[:2] == (1, "")
    assert glued[2].startswith("h2star: error: ")
    assert run_cli(capsys, *head, flag, value) == glued
