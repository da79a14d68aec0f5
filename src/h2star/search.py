"""Derivative-free maximization of the determinant functional.

Three routes to the same maximum: the scalar majorant phi on its (p, t) box,
the five-term parameterized form over the full (p, y, zeta) box, and direct
search over genuine class members built from boundary atoms.  All searches
are deterministic: grids are fixed and random starts come from seeded
generators.  A grid reduction reports the first index, in C order, whose
value lies within TIE_TOL of the grid maximum; that is the lexicographically
smallest tied grid index, so the result does not depend on evaluation order.
Grids are evaluated on one thread; ``workers`` is accepted and validated but
does not affect the computation.  zeta is searched on the unit circle only;
the functional is affine in zeta, so the modulus over the closed disk is
maximized on the boundary.  maximize_phi and monotonicity_scan evaluate
the unchecked kernel hankel._phi_raw on points they build inside phi's
box: grids, grid points as 0-d arrays and golden-section steps between two
grid points.  The lemma grid is pruned at two levels by the triangle
inequality: phi(p, |y|) bounds |Psi| on a whole (p, t) row of the grid,
and, as Psi = A + B zeta is affine in zeta, |A| + |B| bounds it on one
(p, t, arg y) line.  The zeta axis is evaluated only on the lines whose
row and line bounds both come within TIE_TOL + BOUND_MARGIN of a grid
value, and at one zeta on a row whose zeta coefficient p q (1 - |y|^2) is
exactly 0 on every such line; the result is that of the full grid, bit for
bit.  The atom search refines its restarts in lock-step as one batch, and a
sweep refines all its alphas' restarts together, in batches of at most
_HERGLOTZ_BATCH_ROWS rows; both give, bit for bit, the restarts run one
after another at one alpha at a time.  A batch holds its live rows only,
each with the moment kernels e^{i n t} of its angles; a row that stops is
written out and dropped after its sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .caratheodory import LemmaPoint
from .errors import DomainError, whole_number
from .formatting import fmt_complex, fmt_float, to_jsonable
from .hankel import _phi_raw, det2, sharp_bound
from .starlike import Alpha, alpha_value, coeff_rows
from .tolerances import (
    BOUND_MARGIN,
    GOLDEN_WIDTH,
    MONOTONE_DROP_TOL,
    PATTERN_STEP_MIN,
    TIE_TOL,
)

# Rows (restarts times alphas) per lock-step batch of a Herglotz sweep.  A
# default 100-alpha sweep (alpha 0 to 0.99, 10,000 rows) took a median 1.82 s
# at 1,024 rows per batch, 1.88 s at 2,048, 1.81 s at 4,096, 2.43 s at 512 and
# 5.1 s at 100 (one alpha per batch); peak RSS over the import read 8.2, 8.4,
# 9.9, 7.5 and 7.2 MiB, and 13.6 MiB in one batch (2-vCPU box, one BLAS thread).
_HERGLOTZ_BATCH_ROWS = 1 << 10

_TWO_PI = 2.0 * math.pi
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID_P = 201
DEFAULT_GRID_T = 101
DEFAULT_GRID_YARG = 64
DEFAULT_GRID_ZARG = 64

# The options each search method takes besides alpha, workers and seed.
METHOD_OPTIONS = {
    "phi": ("grid_p", "grid_t"),
    "lemma": ("grid_p", "grid_ymod", "grid_yarg", "grid_zarg"),
    "herglotz": ("atom_count", "restarts", "local_steps"),
}
METHODS = tuple(METHOD_OPTIONS)


@dataclass(frozen=True)
class SearchOutcome:
    """Result record: maximum found, where, how, and at what cost."""

    value: float
    argmax: dict
    method: str
    grid_spec: dict
    evaluations: int

    def to_dict(self) -> dict:
        return to_jsonable(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    searched_max: float
    sharp_bound: float
    abs_gap: float
    argmax_summary: str


def _first_tied_index(vals: np.ndarray, vmax: float) -> tuple:
    """C-order first index of ``vals`` within TIE_TOL of ``vmax``.

    C order is lexicographic order on grid indices, so this is the smallest
    tied index.
    """
    return tuple(int(i) for i in np.argwhere(vals >= vmax - TIE_TOL)[0])


def _golden_section_max(fn, lo: float, hi: float):
    """(x, fn(x), evaluations) at the golden-section maximum of fn on [lo, hi],
    once the bracket is narrower than GOLDEN_WIDTH."""
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    while (b - a) > GOLDEN_WIDTH:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
        evals += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def maximize_phi(
    alpha: Alpha | float,
    grid_p: int = DEFAULT_GRID_P,
    grid_t: int = DEFAULT_GRID_T,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Grid maximum of the majorant phi, plus one golden-section pass in p at t = 1.

    Ties are broken toward smallest p, then smallest t; the refinement only
    replaces the grid argmax if it improves by more than TIE_TOL.  ``seed``
    is recorded only; it is None or a whole number of at least 0.
    """
    al = alpha_value(alpha)
    grid_p = whole_number("grid_p", grid_p, 2)
    grid_t = whole_number("grid_t", grid_t, 2)
    whole_number("workers", workers, 1)
    if seed is not None:
        seed = whole_number("seed", seed, 0, math.inf)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = _phi_raw(al, ps[:, None], ts[None, :])
    pi, ti = _first_tied_index(vals, vals.max())
    evaluations = grid_p * grid_t

    best_p, best_t = float(ps[pi]), float(ts[ti])
    value = _phi_raw(al, np.asarray(best_p), np.asarray(best_t))
    lo = float(ps[max(pi - 1, 0)])
    hi = float(ps[min(pi + 1, grid_p - 1)])
    # Golden-section steps stay inside [lo, hi], a part of [0, 2].
    x, fx, g_evals = _golden_section_max(lambda p: _phi_raw(al, np.asarray(p), 1.0), lo, hi)
    evaluations += g_evals
    if fx > value + TIE_TOL:
        best_p, best_t, value = float(x), 1.0, float(fx)

    return SearchOutcome(
        value=float(value),
        argmax={"p": best_p, "t": best_t},
        method="phi",
        grid_spec={"grid_p": grid_p, "grid_t": grid_t, "seed": seed},
        evaluations=evaluations,
    )


def maximize_param(
    alpha: Alpha | float,
    grid_p: int = DEFAULT_GRID_P,
    grid_ymod: int = DEFAULT_GRID_T,
    grid_yarg: int = DEFAULT_GRID_YARG,
    grid_zarg: int = DEFAULT_GRID_ZARG,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Maximum of |five-term form| over p in [0,2], y = t e^{i mu}, zeta = e^{i nu}.

    The result is that of evaluating every grid point, bit for bit, but the
    zeta axis is evaluated only on the (p, t, arg y) lines that can matter.
    The search prunes by the triangle inequality at two levels:

    - rows: the majorant |Psi(p, y, zeta)| <= phi(p, |y|), step 3 of the
      proof, which the proof-step-properties check samples, bounds |Psi| on
      the whole (arg y, zeta) grid of row (p, t);
    - lines: Psi = A + B zeta is affine in zeta, with A = Psi(zeta = 0) and
      B = Psi(1) - Psi(0), so |A| + |B| bounds |Psi| on the whole zeta
      circle of one arg y line of a surviving row.

    The row of largest phi gives a grid value m, so m <= the grid maximum,
    and a row or line whose bound is below m - TIE_TOL - BOUND_MARGIN holds
    no value within TIE_TOL of the maximum: it can neither be the maximum
    nor take part in the tie-break.  The kept lines of each surviving row
    are evaluated in C order (a row with none has maximum -inf), the first
    row holding a value tied with the maximum is evaluated once more on its
    kept lines, and its first tied (arg y, zeta) index is the argmax.

    A third rule skips the zeta axis where it cannot matter: B is s2 / 6
    times the coefficient p q (1 - |y|^2), with q = 4 - p^2, and where the
    computed coefficient (hankel._zeta_coefficient) is exactly 0, the zeta
    term is a signed zero and |Psi| is the same double at every zeta.  A
    row with a zero coefficient on every line it evaluates is evaluated at
    the first zeta only, which holds the line's maximum and its first tied
    zeta index.  These are the rows at p = 0 and p = 2, and rows at |y| = 1
    whose kept lines all have a computed |y| of exactly 1 (199 rows at
    alpha = 0).  On the default grid the search computes 10,887 zeta points
    at alpha = 0 (438,720 without this rule) and 192 at alpha = 0.25 and
    0.75 (12,288).

    Every value is computed as on the full grid: one call per row, with the
    row's p as a scalar.  ``evaluations`` counts the grid points decided,
    evaluated or excluded by a bound: grid_p * grid_ymod * grid_yarg *
    grid_zarg.  ``seed`` is recorded only, as in maximize_phi.
    """
    al = alpha_value(alpha)
    grid_p = whole_number("grid_p", grid_p, 2)
    grid_ymod = whole_number("grid_ymod", grid_ymod, 2)
    grid_yarg = whole_number("grid_yarg", grid_yarg, 2)
    grid_zarg = whole_number("grid_zarg", grid_zarg, 2)
    whole_number("workers", workers, 1)
    if seed is not None:
        seed = whole_number("seed", seed, 0, math.inf)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_ymod)
    e_mu = np.exp(1j * np.arange(grid_yarg) * (_TWO_PI / grid_yarg))
    e_nu = np.exp(1j * np.arange(grid_zarg) * (_TWO_PI / grid_zarg))

    def row(i, ti, lines=slice(None)):
        """|Psi| on the (arg y, zeta) grid of row (p_i, t_ti), on the given arg y lines.

        Where Psi's zeta coefficient is exactly 0 on every line, |Psi| is one
        double along each line, and the first zeta alone is evaluated.
        """
        y = (ts[ti] * e_mu[lines])[:, None]
        zeta = e_nu if hankel._zeta_coefficient(ps[i], y).any() else e_nu[:1]
        return np.abs(hankel._param_form_raw(al, ps[i], y, zeta[None, :]))

    def line_bounds(rows):
        """|A| + |B| on each arg y line of the given rows, where Psi = A + B zeta."""
        p, y = ps[rows[:, :1]], ts[rows[:, 1:]] * e_mu
        a = hankel._param_form_raw(al, p, y, 0.0)
        return np.abs(a) + np.abs(hankel._param_form_raw(al, p, y, 1.0) - a)

    bound = hankel.phi(al, ps[:, None], ts[None, :])
    top = np.unravel_index(int(bound.argmax()), bound.shape)
    floor = row(*top).max() - TIE_TOL - BOUND_MARGIN
    rows = np.argwhere(bound >= floor)
    # 16 rows at a time keep the bound's temporaries small: peak RSS stays flat.
    kept = np.empty((len(rows), grid_yarg), dtype=bool)
    for s in range(0, len(rows), 16):
        kept[s:s + 16] = line_bounds(rows[s:s + 16]) >= floor
    row_max = np.full(len(rows), -np.inf)
    for k in np.flatnonzero(kept.any(axis=1)):
        row_max[k] = row(*rows[k], kept[k]).max()
    gmax = row_max.max()
    (k,) = _first_tied_index(row_max, gmax)
    pi, ti = rows[k]
    mi, ni = _first_tied_index(row(pi, ti, kept[k]), gmax)
    mi = np.flatnonzero(kept[k])[mi]
    pt = LemmaPoint(float(ps[pi]), complex(ts[ti] * e_mu[mi]), complex(e_nu[ni]))
    value = abs(hankel.functional_param_form(al, pt))

    return SearchOutcome(
        value=float(value),
        argmax={"p": pt.p, "y": pt.y, "zeta": pt.zeta},
        method="lemma",
        grid_spec={
            "grid_p": grid_p,
            "grid_ymod": grid_ymod,
            "grid_yarg": grid_yarg,
            "grid_zarg": grid_zarg,
            "seed": seed,
        },
        evaluations=grid_p * grid_ymod * grid_yarg * grid_zarg,
    )


_MOMENT_ORDERS = np.array([1.0, 2.0, 3.0])


def _kernels(angles: np.ndarray) -> np.ndarray:
    """The (R, 3, k) moment kernels e^{i n t} of an (R, k) batch of atom angles, n = 1..3.

    exp acts elementwise, so a column of this array is bit-equal to the
    kernels of that column alone.
    """
    return np.exp(1j * (angles[:, None, :] * _MOMENT_ORDERS[:, None]))


def _h2_rows(alpha, weights: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """|a2 a4 - a3^2| of each row of an (R, k) batch of atom weights and its kernels.

    ``kernels`` is _kernels of the rows' angles.  ``alpha`` is one alpha
    value for every row or the (R,) array of each row's value (see coeff_rows).
    Three stages: the moments p_1..p_3, the coefficient recurrence, and the
    2 x 2 Hankel determinant.  Each row is bit-equal to
    abs(hankel_det(coeffs_from_moments(...))) on that row alone.
    """
    moments = 2.0 * (kernels @ np.ascontiguousarray(weights)[:, :, None])[:, :, 0]
    a = coeff_rows(alpha, moments)
    re, im = det2(a[:, 1], a[:, 3], a[:, 2], a[:, 2])
    return np.hypot(re, im)


def _refine_rows(alphas: np.ndarray, weights: np.ndarray, angles: np.ndarray, sweeps: int):
    """Coordinate-wise pattern search with shrinking steps, on all rows in lock-step.

    Each row is one restart, at the alpha value ``alphas`` gives it, with
    its own steps and its own stop rule.  Every sweep probes each weight by
    +-step_w, then each angle by +-step_t, and a probe evaluates all live
    rows at once.  Weights are clipped at 0 and renormalized, so they stay
    on the simplex, and angles wrap mod 2 pi.  A weight probe moves one
    weight of a row summing to 1 by at most step_w <= 0.15, so its total is
    positive: every probe is evaluated and counted.  A probe is kept only if
    strictly better, so no row's value decreases and every path is
    deterministic.  A row that improves nowhere in a sweep halves both steps
    and stops once both are below PATTERN_STEP_MIN.  Rows do not interact.

    The state holds the live rows only.  Each row keeps the moment kernels
    of its angles between probes, and an angle probe recomputes only the
    column of the angle it moves.  At the end of a sweep the rows that
    stopped are written out at their row ids and dropped from the state.

    Returns the per-row best values, weights, angles and evaluation counts.
    """
    rows, k = weights.shape
    ids = np.arange(rows)
    w, t = weights.copy(), angles.copy()
    kern = _kernels(t)
    best = _h2_rows(alphas, w, kern)
    evals = np.ones(rows, dtype=np.int64)
    results = best.copy(), w.copy(), t.copy(), evals.copy()
    step_w, step_t = np.full(rows, 0.15), np.full(rows, 0.4)
    for sweep in range(1, sweeps + 1):
        improved = np.zeros(ids.size, dtype=bool)
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = w.copy()
                x = trial[:, i] + sign * step_w
                trial[:, i] = np.where(x > 0.0, x, 0.0)
                trial /= trial.sum(axis=1)[:, None]
                val = _h2_rows(alphas, trial, kern)
                hit = np.flatnonzero(val > best)
                best[hit], w[hit], improved[hit] = val[hit], trial[hit], True
        for i in range(k):
            for sign in (1.0, -1.0):
                col = (t[:, i] + sign * step_t) % _TWO_PI
                # A row keeps the new column only if it keeps the new angle.
                kept = kern[:, :, i].copy()
                kern[:, :, i] = _kernels(col[:, None])[:, :, 0]
                val = _h2_rows(alphas, w, kern)
                hit = np.flatnonzero(val > best)
                best[hit], t[hit, i], kept[hit], improved[hit] = (
                    val[hit], col[hit], kern[hit, :, i], True)
                kern[:, :, i] = kept
        evals += 4 * k
        step_w[~improved] *= 0.5
        step_t[~improved] *= 0.5
        # The last sweep retires every row that is still live.
        done = (step_w < PATTERN_STEP_MIN) & (step_t < PATTERN_STEP_MIN) | (sweep == sweeps)
        if done.any():
            for out, now in zip(results, (best, w, t, evals)):
                out[ids[done]] = now[done]
            ids, alphas, w, t, kern, best, evals, step_w, step_t = (
                a[~done] for a in (ids, alphas, w, t, kern, best, evals, step_w, step_t))
            if not ids.size:
                break
    return results


def _herglotz_outcomes(
    alphas,
    atom_count: int = 2,
    restarts: int = 100,
    local_steps: int = 60,
    seed: int = 0,
):
    """maximize_herglotz at each alpha of ``alphas``, yielded in order.

    Every alpha uses the same seed, so the restart start points are drawn
    once and tiled across the alphas.  The restarts of a group of alphas
    are refined as one lock-step batch of at most _HERGLOTZ_BATCH_ROWS
    rows (one alpha's restarts when they are more), and each alpha's slice
    is reduced as maximize_herglotz describes.  Rows do not interact, so
    every outcome is bit-for-bit that of a search at its alpha alone.
    """
    values = [alpha_value(alpha) for alpha in alphas]
    atom_count = whole_number("atom_count", atom_count, 1, 4)
    restarts = whole_number("restarts", restarts, 1)
    local_steps = whole_number("local_steps", local_steps, 0)
    seed = whole_number("seed", seed, 0, math.inf)
    rng = np.random.default_rng(seed)
    w0 = np.empty((restarts, atom_count))
    t0 = np.empty((restarts, atom_count))
    for r in range(restarts):
        w0[r] = rng.dirichlet(np.ones(atom_count))
        t0[r] = rng.uniform(0.0, _TWO_PI, atom_count)
    grid_spec = {"atom_count": atom_count, "restarts": restarts,
                 "local_steps": local_steps, "seed": seed}

    per_batch = max(1, _HERGLOTZ_BATCH_ROWS // restarts)
    for start in range(0, len(values), per_batch):
        group = np.array(values[start : start + per_batch])
        vals, ws, ts, evals = _refine_rows(np.repeat(group, restarts),
                                           np.tile(w0, (len(group), 1)),
                                           np.tile(t0, (len(group), 1)), local_steps)
        for j in range(len(group)):
            rows = slice(j * restarts, (j + 1) * restarts)
            # argmax takes the first of equal maxima: the first restart that
            # is strictly better than all before it.
            best = j * restarts + int(np.argmax(vals[rows]))
            yield SearchOutcome(
                value=float(vals[best]),
                argmax={"weights": [float(x) for x in ws[best]],
                        "angles": [float(x) for x in ts[best]]},
                method="herglotz",
                grid_spec=dict(grid_spec),
                evaluations=int(evals[rows].sum()),
            )


def maximize_herglotz(
    alpha: Alpha | float,
    atom_count: int = 2,
    restarts: int = 100,
    local_steps: int = 60,
    seed: int = 0,
) -> SearchOutcome:
    """Random-restart search for |a2 a4 - a3^2| over genuine atom measures.

    Restart weights are Dirichlet(1) samples, angles uniform, drawn restart
    by restart; each restart is refined coordinate-wise.  The restarts run
    in lock-step as one batch (see _refine_rows) and give the same result,
    bit for bit, as running them one after another: each keeps its own
    steps and stop rule, and the reported maximum is the first restart, in
    restart order, that is strictly better than all before it.
    This is the one-alpha case of the batch that sweep_alpha runs.
    """
    (outcome,) = _herglotz_outcomes([alpha], atom_count, restarts, local_steps, seed)
    return outcome


def _summarize_argmax(outcome: SearchOutcome) -> str:
    """Compact single-field summary, free of commas for CSV stability."""
    parts = []
    for key, val in outcome.argmax.items():
        if isinstance(val, complex):
            parts.append(f"{key}={fmt_complex(val)}")
        elif isinstance(val, (list, tuple, np.ndarray)):
            parts.append(f"{key}=" + "|".join(fmt_float(x) for x in val))
        else:
            parts.append(f"{key}={fmt_float(val)}")
    return ";".join(parts)


def run_method(method: str, alpha: Alpha | float, workers: int = 1, seed: int = 0,
               **kwargs) -> SearchOutcome:
    """Dispatch one search by method name with default resolutions.

    ``kwargs`` are options of METHOD_OPTIONS[method]; an unknown method or
    an option of another method raises DomainError.
    """
    whole_number("workers", workers, 1)
    _check_method_options(method, kwargs)
    if method == "phi":
        return maximize_phi(alpha, workers=workers, seed=seed, **kwargs)
    if method == "lemma":
        return maximize_param(alpha, workers=workers, seed=seed, **kwargs)
    return maximize_herglotz(alpha, seed=seed, **kwargs)


def _check_method_options(method: str, options) -> None:
    """DomainError unless ``method`` is one of METHODS and takes every name in ``options``."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")
    name = _foreign_option(method, options)
    if name is not None:
        raise DomainError(f"option {name!r} does not apply to method {method!r}")


def _foreign_option(method: str, options):
    """The first name in ``options`` that ``method`` does not take, or None."""
    return next((name for name in options if name not in METHOD_OPTIONS[method]), None)


def sweep_alpha(
    alpha_start: float,
    alpha_end: float,
    steps: int,
    method: str,
    seed: int = 0,
    workers: int = 1,
    **method_kwargs,
):
    """Search at steps+1 equispaced alpha values and tabulate gaps to the bound.

    ``alpha_start`` < ``alpha_end`` are alphas (see alpha_value),
    ``steps`` and ``workers`` are whole numbers of at least 1, and
    ``method_kwargs`` are options of METHOD_OPTIONS[method], else
    DomainError.  The herglotz method refines the restarts of all alphas
    together (see _herglotz_outcomes); each row is still bit-for-bit what
    maximize_herglotz gives at its alpha.  Other methods search one alpha
    after another.
    """
    alpha_start, alpha_end = alpha_value(alpha_start), alpha_value(alpha_end)
    if not alpha_start < alpha_end:
        raise DomainError(f"need alpha_start < alpha_end, got [{alpha_start}, {alpha_end}]")
    steps = whole_number("steps", steps, 1)
    whole_number("workers", workers, 1)
    _check_method_options(method, method_kwargs)
    alphas = np.linspace(alpha_start, alpha_end, steps + 1).tolist()
    if method == "herglotz":
        outcomes = _herglotz_outcomes(alphas, seed=seed, **method_kwargs)
    else:
        outcomes = (run_method(method, alpha, workers=workers, seed=seed, **method_kwargs)
                    for alpha in alphas)
    rows = []
    for alpha, outcome in zip(alphas, outcomes):
        bound = sharp_bound(alpha)
        rows.append(
            SweepRow(
                alpha=alpha,
                searched_max=float(outcome.value),
                sharp_bound=float(bound),
                abs_gap=abs(float(outcome.value) - float(bound)),
                argmax_summary=_summarize_argmax(outcome),
            )
        )
    return rows


def monotonicity_scan(alpha: Alpha | float, grid_p: int = 101, grid_t: int = 101):
    """Count adjacent t-grid drops of phi beyond MONOTONE_DROP_TOL; contract is zero.

    Returns (violations, worst observed drop clipped at 0).
    """
    al = alpha_value(alpha)
    grid_p = whole_number("grid_p", grid_p, 3)
    grid_t = whole_number("grid_t", grid_t, 3)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = _phi_raw(al, ps[:, None], ts[None, :])
    drops = vals[:, :-1] - vals[:, 1:]
    violations = int(np.sum(drops > MONOTONE_DROP_TOL))
    worst = float(max(float(drops.max()), 0.0))
    return violations, worst
