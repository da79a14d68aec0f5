"""Command-line surface: every computation behind flags.

Output goes to stdout as text, JSON (``--json``) or CSV (``sweep``); files are
written only via ``--out``.  Exit codes: 0 success, 1 domain error from the
library, overflow, allocation or file error, 2 flag or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import checks as _checks
from .caratheodory import (
    HerglotzAtoms,
    LemmaPoint,
    MomentTriple,
    atom_pairs_from_text,
    moments_from_atoms,
)
from .errors import MAX_ENTRIES, whole_number
from .formatting import fmt_complex, fmt_float, to_jsonable
from .hankel import (
    HankelSpec,
    bound_profile,
    functional_moment_form,
    functional_param_form,
    hankel_det,
    phi,
    sharp_bound,
)
from .search import (METHOD_OPTIONS, METHODS, _foreign_option, _summarize_argmax, run_method,
                     sweep_alpha)
from .starlike import CoefficientVector, alpha_value, coeffs_from_moments, extremal_coeffs

# Every method option once, in declaration order: the order of the flags in --help.
_METHOD_FLAGS = tuple(dict.fromkeys(f for flags in METHOD_OPTIONS.values() for f in flags))
# A long flag with no "=", and a value that starts with "-"; see glue_negative_values.
_LONG_FLAG = re.compile(r"--[^=]+")
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
# Flags that set an array length, by argparse dest.
_SIZE_FLAGS = ("order", "steps", "restarts", "grid_p", "grid_t", "grid_ymod", "grid_yarg",
               "grid_zarg")


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line diagnostic on stderr and exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _complex_flag(text: str) -> complex:
    """Parse ``re`` or ``re,im`` into a complex number."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected re or re,im, got {text!r}")
    real = float(parts[0])
    imag = float(parts[1]) if len(parts) == 2 else 0.0
    return complex(real, imag)


def glue_negative_values(argv) -> list:
    """Rewrite ``--p -2e-1`` as ``--p=-2e-1``, and ``--ze -1,0`` as ``--ze=-1,0``.

    argparse counts only ``-12`` and ``-.5`` as negative numbers and reads any
    other separate token that starts with ``-`` as an option.  A token that
    starts with ``-`` and then a digit, ``.`` and a digit, ``inf`` or ``nan`` is
    a value: it is joined to the long flag just before it, unless that flag
    already holds an ``=``.  argparse then resolves the flag from the ``=``
    form, abbreviations and ambiguous prefixes included.
    """
    out = []
    for tok in argv:
        if out and _LONG_FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _coeff_list(text: str):
    """Comma-separated coefficients; complex entries use Python j-notation."""
    return [complex(tok.strip()) for tok in text.split(",")]


def _print_doc(doc: dict, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(to_jsonable(doc), sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_coeffs(args) -> int:
    alpha = alpha_value(args.alpha)  # a bad --alpha fails before any moment is built
    order = whole_number("order", args.order, 2)
    moments = moments_from_atoms(HerglotzAtoms(*args.atoms), order - 1)
    f = coeffs_from_moments(alpha, moments)
    doc = {
        "alpha": alpha,
        "order": order,
        "coefficients": f.coeffs,
    }
    text = [f"a_{n} = {fmt_complex(c)}" for n, c in enumerate(f.coeffs, start=1)]
    _print_doc(doc, args.json, text)
    return 0


def _cmd_extremal(args) -> int:
    f = extremal_coeffs(args.alpha, args.order)
    det = hankel_det(f, HankelSpec(q=2, n=2))
    doc = {
        "alpha": args.alpha,
        "order": args.order,
        "coefficients": f.coeffs,
        "hankel_det": det,
        "h2_abs": abs(det),
    }
    text = [f"a_{n} = {fmt_complex(c)}" for n, c in enumerate(f.coeffs, start=1)]
    text += [f"hankel_det = {fmt_complex(det)}", f"h2_abs = {fmt_float(abs(det))}"]
    _print_doc(doc, args.json, text)
    return 0


def _cmd_hankel(args) -> int:
    f = CoefficientVector(args.coeffs)
    det = hankel_det(f, HankelSpec(q=args.q, n=args.n))
    doc = {"q": args.q, "n": args.n, "det": det, "det_abs": abs(det)}
    _print_doc(doc, args.json, [f"det = {fmt_complex(det)}", f"det_abs = {fmt_float(abs(det))}"])
    return 0


def _cmd_functional(args) -> int:
    m = MomentTriple(args.p1, args.p2, args.p3)
    value = functional_moment_form(args.alpha, m)
    doc = {
        "alpha": args.alpha,
        "p1": m.p1,
        "p2": m.p2,
        "p3": m.p3,
        "value": value,
        "abs": abs(value),
    }
    _print_doc(doc, args.json, [f"value = {fmt_complex(value)}", f"abs = {fmt_float(abs(value))}"])
    return 0


def _cmd_param(args) -> int:
    pt = LemmaPoint(args.p, args.y, args.zeta)
    value = functional_param_form(args.alpha, pt)
    majorant = phi(args.alpha, pt.p, min(abs(pt.y), 1.0))
    doc = {
        "alpha": args.alpha,
        "p": pt.p,
        "y": pt.y,
        "zeta": pt.zeta,
        "value": value,
        "abs": abs(value),
        "phi": majorant,
    }
    text = [
        f"value = {fmt_complex(value)}",
        f"abs = {fmt_float(abs(value))}",
        f"phi = {fmt_float(majorant)}",
    ]
    _print_doc(doc, args.json, text)
    return 0


def _cmd_phi(args) -> int:
    value = phi(args.alpha, args.p, args.t)
    doc = {"alpha": args.alpha, "p": args.p, "t": args.t, "value": value}
    _print_doc(doc, args.json, [f"value = {fmt_float(value)}"])
    return 0


def _cmd_bound(args) -> int:
    bound = sharp_bound(args.alpha)
    profile_max = float(np.max(bound_profile(args.alpha, np.linspace(0.0, 2.0, 201))))
    doc = {"alpha": args.alpha, "sharp_bound": bound, "profile_max": profile_max}
    text = [f"sharp_bound = {fmt_float(bound)}", f"profile_max = {fmt_float(profile_max)}"]
    _print_doc(doc, args.json, text)
    return 0


def _method_kwargs(args) -> dict:
    """Collect the grid flags given; exit 2 on a flag of another method."""
    # in name order, so the error names the first foreign flag by name
    kwargs = {flag: getattr(args, flag) for flag in sorted(_METHOD_FLAGS)
              if getattr(args, flag) is not None}
    flag = _foreign_option(args.method, kwargs)
    if flag is not None:
        args.parser.error(f"--{flag.replace('_', '-')} does not apply to method {args.method!r}")
    return kwargs


def _cmd_search(args) -> int:
    bound = sharp_bound(args.alpha)  # a bad --alpha exits 1 before _method_kwargs can exit 2
    kwargs = _method_kwargs(args)
    outcome = run_method(args.method, args.alpha, workers=args.workers, seed=args.seed, **kwargs)
    doc = outcome.to_dict()
    text = [
        f"value = {fmt_float(outcome.value)}",
        f"method = {outcome.method}",
        f"argmax: {_summarize_argmax(outcome)}",
        f"evaluations = {outcome.evaluations}",
        f"sharp_bound = {fmt_float(bound)}",
    ]
    _print_doc(doc, args.json, text)
    return 0


def sweep_csv(rows) -> str:
    """CSV with 17-significant-digit numbers and LF line endings."""
    lines = ["alpha,searched_max,sharp_bound,abs_gap,argmax"]
    for r in rows:
        lines.append(
            ",".join(
                (
                    fmt_float(r.alpha),
                    fmt_float(r.searched_max),
                    fmt_float(r.sharp_bound),
                    fmt_float(r.abs_gap),
                    r.argmax_summary,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    kwargs = _method_kwargs(args)
    rows = sweep_alpha(
        args.alpha_start,
        args.alpha_end,
        args.steps,
        args.method,
        seed=args.seed,
        workers=args.workers,
        **kwargs,
    )
    text = sweep_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    selected = None if args.only is None else [_checks.CHECKS_BY_NAME[n] for n in args.only]
    results = _checks.run_all(selected)
    return 0 if all(r.passed for r in results) else 1


def _largest_size_flag(args):
    """(value, flag) of the size flag with the largest value, or None.

    An allocation that fails is reported against this flag.  Each size flag
    sets the length of an array of its own, so one oversized flag is always
    the one named.
    """
    given = [(getattr(args, dest), dest) for dest in _SIZE_FLAGS
             if getattr(args, dest, None) is not None]
    if not given:
        return None
    value, dest = max(given)
    return value, "--" + dest.replace("_", "-")


def _add_json_flag(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON document")


def build_parser() -> _Parser:
    parser = _Parser(prog="h2star", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("coeffs", help="coefficients of f from an atom measure")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--atoms", type=atom_pairs_from_text, required=True,
                   help="comma-separated weight:angle pairs, angles in radians")
    p.add_argument("--order", type=int, default=16)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = subs.add_parser("extremal", help="extremal coefficients and their determinant")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--order", type=int, default=8)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_extremal)

    p = subs.add_parser("hankel", help="Hankel determinant of given coefficients")
    p.add_argument("--coeffs", type=_coeff_list, required=True,
                   help="comma-separated a_1,a_2,...; complex entries as 1+2j")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_hankel)

    p = subs.add_parser("functional", help="moment form of a2 a4 - a3^2")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p1", type=_complex_flag, required=True, metavar="RE[,IM]")
    p.add_argument("--p2", type=_complex_flag, required=True, metavar="RE[,IM]")
    p.add_argument("--p3", type=_complex_flag, required=True, metavar="RE[,IM]")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_functional)

    p = subs.add_parser("param", help="parameterized form and its majorant")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--y", type=_complex_flag, required=True, metavar="RE[,IM]")
    p.add_argument("--zeta", type=_complex_flag, required=True, metavar="RE[,IM]")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_param)

    p = subs.add_parser("phi", help="majorant value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_phi)

    p = subs.add_parser("bound", help="sharp bound and profile maximum")
    p.add_argument("--alpha", type=float, required=True)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_bound)

    search = subs.add_parser("search", help="maximize by one method")
    search.add_argument("--alpha", type=float, required=True)
    search.set_defaults(handler=_cmd_search)
    sweep = subs.add_parser("sweep", help="tabulate over alpha")
    sweep.add_argument("--alpha-start", type=float, required=True)
    sweep.add_argument("--alpha-end", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--out", type=str, default=None,
                       help="write the CSV here instead of stdout")
    sweep.set_defaults(handler=_cmd_sweep)
    for p in (search, sweep):
        p.set_defaults(parser=p)
        p.add_argument("--method", choices=METHODS, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="must be at least 1; does not affect the computation")
        for name in _METHOD_FLAGS:
            p.add_argument("--" + name.replace("_", "-"), type=int, default=None)
    _add_json_flag(search)

    p = subs.add_parser("check", help="run the acceptance checks")
    # ONLY keeps the long check names out of the usage line
    p.add_argument("--only", action="append", default=None, choices=list(_checks.CHECKS_BY_NAME),
                   metavar="ONLY", help="run a single named check (repeatable)")
    p.set_defaults(handler=_cmd_check)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built on the first call and reused by every
    later one.  Parsing leaves a parser unchanged: each parse fills a new
    namespace, and ``--only`` appends to a new list."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    size = None
    try:
        args = _parser().parse_args(glue_negative_values(argv))
        size = _largest_size_flag(args)
        if size is not None and size[0] > MAX_ENTRIES:
            raise MemoryError("no array can hold that many entries")
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except MemoryError as exc:
        # A size flag numpy cannot allocate (coeffs --order 10**15).
        flag = f"{size[1]} {size[0]} is too large: " if size is not None else ""
        print(f"h2star: error: {flag}{exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        # ValueError covers every H2StarError.  OverflowError is what Python's
        # float arithmetic raises past the float range; the library turns the
        # overflows it knows of into DomainError, and this keeps any other one
        # from printing a traceback.  OSError is an unwritable --out.
        print(f"h2star: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
