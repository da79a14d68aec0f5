"""Command-line surface: every computation behind flags.

Output goes to stdout as text, JSON (``--json``) or CSV (``sweep``); files are
written only via ``--out``.  Exit codes: 0 success, 1 domain error from the
library, overflow or file error, 2 flag or parse error.
"""

from __future__ import annotations

import argparse
import json
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
from .errors import H2StarError
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
from .search import METHODS, _summarize_argmax, run_method, sweep_alpha
from .series import DEFAULT_ORDER
from .starlike import Alpha, CoefficientVector, coeffs_from_moments, extremal_coeffs

_METHOD_FLAGS = {
    "phi": ("grid_p", "grid_t"),
    "lemma": ("grid_p", "grid_ymod", "grid_yarg", "grid_zarg"),
    "herglotz": ("atom_count", "restarts", "local_steps"),
}
_ALL_METHOD_FLAGS = sorted({f for flags in _METHOD_FLAGS.values() for f in flags})
_COMPLEX_FLAGS = ("--p1", "--p2", "--p3", "--y", "--zeta")


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line diagnostic on stderr and exit status 2."""

    # Subcommand name -> its parser; build_parser sets it on the top parser.
    commands: dict

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def resolve_flag(self, token: str):
        """The flag argparse reads ``token`` as: an exact flag, or the one long
        flag that ``token`` abbreviates; None for anything else."""
        flags = self._option_string_actions
        if token in flags:
            return token
        if not token.startswith("--") or len(token) < 3:
            return None
        hits = [f for f in flags if f.startswith(token)]
        return hits[0] if len(hits) == 1 else None


def _complex_flag(text: str) -> complex:
    """Parse ``re`` or ``re,im`` into a complex number."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected re or re,im, got {text!r}")
    re = float(parts[0])
    im = float(parts[1]) if len(parts) == 2 else 0.0
    return complex(re, im)


def _glue_complex_values(parser: _Parser, argv) -> list:
    """Rewrite ``--p3 -1,0.5`` as ``--p3=-1,0.5``, and ``--ze -1,0`` as ``--ze=-1,0``.

    argparse reads a separate token that starts with ``-`` and is not a plain
    negative number as an option, so a negative real part would otherwise
    need the ``=`` form.  A flag counts as complex when the subcommand's
    parser resolves it, exactly or as an unambiguous prefix, to one of
    ``_COMPLEX_FLAGS``; ambiguous prefixes are left for argparse to reject.
    """
    sub = next((parser.commands.get(tok) for tok in argv if not tok.startswith("-")), None)
    if sub is None:
        return list(argv)
    out = []
    for tok in argv:
        if out and sub.resolve_flag(out[-1]) in _COMPLEX_FLAGS and tok.startswith("-"):
            try:
                _complex_flag(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
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
    alpha = Alpha(args.alpha)
    order = args.order
    if order < 2:
        raise H2StarError(f"need order >= 2, got {order}")
    moments = moments_from_atoms(HerglotzAtoms(*args.atoms), order - 1)
    f = coeffs_from_moments(alpha, moments)
    doc = {
        "alpha": alpha.value,
        "order": order,
        "coefficients": f.coeffs,
    }
    text = [f"a_{n} = {fmt_complex(c)}" for n, c in enumerate(f.coeffs, start=1)]
    _print_doc(doc, args.json, text)
    return 0


def _cmd_extremal(args) -> int:
    alpha = Alpha(args.alpha)
    f = extremal_coeffs(alpha, args.order)
    det = hankel_det(f, HankelSpec(q=2, n=2))
    doc = {
        "alpha": alpha.value,
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
    alpha = Alpha(args.alpha)
    m = MomentTriple(args.p1, args.p2, args.p3)
    value = functional_moment_form(alpha, m)
    doc = {
        "alpha": alpha.value,
        "p1": m.p1,
        "p2": m.p2,
        "p3": m.p3,
        "value": value,
        "abs": abs(value),
    }
    _print_doc(doc, args.json, [f"value = {fmt_complex(value)}", f"abs = {fmt_float(abs(value))}"])
    return 0


def _cmd_param(args) -> int:
    alpha = Alpha(args.alpha)
    pt = LemmaPoint(args.p, args.y, args.zeta)
    value = functional_param_form(alpha, pt)
    majorant = phi(alpha, pt.p, min(abs(pt.y), 1.0))
    doc = {
        "alpha": alpha.value,
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
    alpha = Alpha(args.alpha)
    value = phi(alpha, args.p, args.t)
    doc = {"alpha": alpha.value, "p": args.p, "t": args.t, "value": value}
    _print_doc(doc, args.json, [f"value = {fmt_float(value)}"])
    return 0


def _cmd_bound(args) -> int:
    alpha = Alpha(args.alpha)
    bound = sharp_bound(alpha)
    profile_max = float(np.max(bound_profile(alpha, np.linspace(0.0, 2.0, 201))))
    doc = {"alpha": alpha.value, "sharp_bound": bound, "profile_max": profile_max}
    text = [f"sharp_bound = {fmt_float(bound)}", f"profile_max = {fmt_float(profile_max)}"]
    _print_doc(doc, args.json, text)
    return 0


def _method_kwargs(args) -> dict:
    """Collect grid flags for the chosen method; reject flags of other methods."""
    applicable = _METHOD_FLAGS[args.method]
    for flag in _ALL_METHOD_FLAGS:
        if flag not in applicable and getattr(args, flag) is not None:
            print(
                f"h2star {args.command}: error: --{flag.replace('_', '-')} does not "
                f"apply to method {args.method!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    return {
        flag: getattr(args, flag)
        for flag in applicable
        if getattr(args, flag) is not None
    }


def _cmd_search(args) -> int:
    alpha = Alpha(args.alpha)
    kwargs = _method_kwargs(args)
    outcome = run_method(args.method, alpha, workers=args.workers, seed=args.seed, **kwargs)
    doc = outcome.to_dict()
    text = [
        f"value = {fmt_float(outcome.value)}",
        f"method = {outcome.method}",
        f"argmax: {_summarize_argmax(outcome)}",
        f"evaluations = {outcome.evaluations}",
        f"sharp_bound = {fmt_float(sharp_bound(alpha))}",
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
    if args.only:
        unknown = [n for n in args.only if n not in _checks.CHECKS_BY_NAME]
        if unknown:
            print(f"h2star check: error: unknown check(s) {unknown}", file=sys.stderr)
            raise SystemExit(2)
        selected = [_checks.CHECKS_BY_NAME[n] for n in args.only]
    else:
        selected = None
    results = _checks.run_all(selected)
    return 0 if all(r.passed for r in results) else 1


def _add_json_flag(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON document")


def build_parser() -> _Parser:
    parser = _Parser(prog="h2star", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("coeffs", help="coefficients of f from an atom measure")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--atoms", type=atom_pairs_from_text, required=True,
                   help="comma-separated weight:angle pairs, angles in radians")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
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

    for name in ("search", "sweep"):
        p = subs.add_parser(
            name,
            help="maximize by one method" if name == "search" else "tabulate over alpha",
        )
        if name == "search":
            p.add_argument("--alpha", type=float, required=True)
        else:
            p.add_argument("--alpha-start", type=float, required=True)
            p.add_argument("--alpha-end", type=float, required=True)
            p.add_argument("--steps", type=int, required=True)
            p.add_argument("--out", type=str, default=None,
                           help="write the CSV here instead of stdout")
        p.add_argument("--method", choices=METHODS, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="must be at least 1; does not affect the computation")
        p.add_argument("--grid-p", dest="grid_p", type=int, default=None)
        p.add_argument("--grid-t", dest="grid_t", type=int, default=None)
        p.add_argument("--grid-ymod", dest="grid_ymod", type=int, default=None)
        p.add_argument("--grid-yarg", dest="grid_yarg", type=int, default=None)
        p.add_argument("--grid-zarg", dest="grid_zarg", type=int, default=None)
        p.add_argument("--atom-count", dest="atom_count", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--local-steps", dest="local_steps", type=int, default=None)
        if name == "search":
            _add_json_flag(p)
            p.set_defaults(handler=_cmd_search)
        else:
            p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("check", help="run the acceptance checks")
    p.add_argument("--only", action="append", default=None,
                   help="run a single named check (repeatable)")
    p.set_defaults(handler=_cmd_check)

    parser.commands = dict(subs.choices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_glue_complex_values(parser, argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OverflowError, OSError) as exc:
        # ValueError covers every H2StarError; abs() of a finite complex whose
        # modulus exceeds the float range raises OverflowError (hankel --coeffs
        # 1,1.5e308+1.5e308j --q 1 --n 2); OSError is an unwritable --out.
        print(f"h2star: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
