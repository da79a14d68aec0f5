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
maximized on the boundary.  The same affinity bounds |Psi| on a whole
(p, y) cell by |A| + |B|, and the lemma grid, in one pass over its p slices,
evaluates the zeta axis only on cells whose bound comes within
TIE_TOL + _BOUND_MARGIN of the largest grid value found so far; its result
is that of the full grid, bit for bit.  The atom search refines its
restarts in lock-step as one batch, and a sweep refines the restarts of all
its alphas together, in batches of at most _HERGLOTZ_BATCH_ROWS rows; both
give, bit for bit, the restarts run one after another at one alpha at a time.
Each row keeps the moment kernels e^{i n t} of its angles between probes
and recomputes only the column of the angle a probe moves.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .caratheodory import LemmaPoint
from .errors import DomainError, numeric, whole_number
from .formatting import fmt_complex, fmt_float, to_jsonable
from .hankel import det2, sharp_bound
from .starlike import Alpha, coeff_rows

TIE_TOL = 1e-12
# Slack on the bound |A| + |B| of the lemma grid search.  On the default
# grid at alpha 0, 0.25, 0.5, 0.75 and 0.99 the computed |Psi| exceeds the
# computed bound by at most 2.2e-16, about 1/4,500 of this margin.
_BOUND_MARGIN = 1e-12
# Grid points per evaluation of the lemma grid's surviving zeta axes.  At
# alpha = 0 all 6,464 cells of the p = 2 slice survive the bound.  Default
# grid searches at alpha 0, 0.25 and 0.75 raised peak RSS over the import by
# 14.4 MiB with a whole slice per evaluation, 4.3 MiB at 2^16 points and
# 2.1 MiB at 2^14 points, which ran 5% slower (2-vCPU box).
_ZETA_BLOCK_POINTS = 1 << 16

# Rows (restarts times alphas) per lock-step batch of a Herglotz sweep.  A
# default 100-alpha sweep (alpha 0 to 0.99, 10,000 rows) took 3.1 s at 1,024
# rows per batch, 3.2 s at 2,048 and 4,096, 3.4 s at 512 and 6.6 s at 100
# (one alpha per batch); peak RSS over the import rose 0.6 MiB at 1,024,
# 0.9 MiB at 2,048, 2.1 MiB at 4,096 and 5.3 MiB in one batch (2-vCPU box).
_HERGLOTZ_BATCH_ROWS = 1 << 10

_TWO_PI = 2.0 * math.pi
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID_P = 201
DEFAULT_GRID_T = 101
DEFAULT_GRID_YARG = 64
DEFAULT_GRID_ZARG = 64

METHODS = ("phi", "lemma", "herglotz")


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


def _golden_section_max(fn, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    it = 0
    while (b - a) > tol and it < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
        evals += 1
        it += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def maximize_phi(
    alpha: Alpha,
    grid_p: int = DEFAULT_GRID_P,
    grid_t: int = DEFAULT_GRID_T,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Grid maximum of the majorant phi, plus one golden-section pass in p at t = 1.

    Ties are broken toward smallest p, then smallest t; the refinement only
    replaces the grid argmax if it improves by more than TIE_TOL.
    """
    grid_p = whole_number("grid_p", grid_p, 2)
    grid_t = whole_number("grid_t", grid_t, 2)
    whole_number("workers", workers, 1)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = hankel.phi(alpha, ps[:, None], ts[None, :])
    pi, ti = _first_tied_index(vals, vals.max())
    evaluations = grid_p * grid_t

    best_p, best_t = float(ps[pi]), float(ts[ti])
    value = hankel.phi(alpha, best_p, best_t)
    lo = float(ps[max(pi - 1, 0)])
    hi = float(ps[min(pi + 1, grid_p - 1)])
    x, fx, g_evals = _golden_section_max(lambda p: hankel.phi(alpha, p, 1.0), lo, hi)
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


def _cell_bound(alpha_value: float, p, y) -> np.ndarray:
    """|A| + |B| at each y, where the five-term form is Psi = A + B zeta.

    A and B come from the form itself at zeta = 0 and zeta = 1, so the bound
    follows whatever hankel._param_form_raw computes.  |Psi| <= |A| + |B| on
    the closed unit disk; in floating point the computed |Psi| exceeds the
    computed bound by at most a few ulps (see _BOUND_MARGIN).
    """
    a = hankel._param_form_raw(alpha_value, p, y, 0.0)
    b = hankel._param_form_raw(alpha_value, p, y, 1.0) - a
    return np.abs(a) + np.abs(b)


def maximize_param(
    alpha: Alpha,
    grid_p: int = DEFAULT_GRID_P,
    grid_ymod: int = DEFAULT_GRID_T,
    grid_yarg: int = DEFAULT_GRID_YARG,
    grid_zarg: int = DEFAULT_GRID_ZARG,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Maximum of |five-term form| over p in [0,2], y = t e^{i mu}, zeta = e^{i nu}.

    The result is that of evaluating every grid point, bit for bit, but the
    zeta axis is evaluated only where it can matter.  Psi is affine in zeta,
    so U = |A| + |B| bounds |Psi| on every zeta of a (p, y) cell.  One pass
    over the p slices computes U once per slice and keeps lb, the largest
    grid value found so far, so lb <= the grid maximum.  A cell with
    U < lb - TIE_TOL - _BOUND_MARGIN holds no value within TIE_TOL of the
    maximum, so it can neither be the maximum nor take part in the
    tie-break, and its zeta axis is skipped; a slice whose largest U is
    below that skips all of them.  Otherwise the zeta axis of the slice's
    top-U cell first raises lb.  ``evaluations`` counts the grid points
    decided, evaluated or excluded by the bound:
    grid_p * grid_ymod * grid_yarg * grid_zarg.
    """
    grid_p = whole_number("grid_p", grid_p, 2)
    grid_ymod = whole_number("grid_ymod", grid_ymod, 2)
    grid_yarg = whole_number("grid_yarg", grid_yarg, 2)
    grid_zarg = whole_number("grid_zarg", grid_zarg, 2)
    whole_number("workers", workers, 1)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_ymod)
    e_mu = np.exp(1j * np.arange(grid_yarg) * (_TWO_PI / grid_yarg))
    e_nu = np.exp(1j * np.arange(grid_zarg) * (_TWO_PI / grid_zarg))
    y_cells = (ts[:, None] * e_mu[None, :]).ravel()

    def eval_cells(i, cells):
        return np.abs(hankel._param_form_raw(alpha.value, ps[i], y_cells[cells, None],
                                             e_nu[None, :]))

    block = max(1, _ZETA_BLOCK_POINTS // grid_zarg)

    def pruned_blocks(i, u, floor):
        """Cells of slice i whose bound u reaches floor, in C order and in
        blocks, each with |Psi| on its zeta axis."""
        cells = np.flatnonzero(u >= floor)
        for start in range(0, cells.size, block):
            part = cells[start : start + block]
            yield part, eval_cells(i, part)

    # lb is the largest grid value seen so far, never above the grid maximum,
    # so a cell whose bound stays below lb - slack holds no tied value.  Find
    # the first slice holding a tied value from the slice maxima, then
    # evaluate that slice once more, up to its first block holding a tied value.
    slack = TIE_TOL + _BOUND_MARGIN
    lb = -np.inf
    slice_max = np.full(grid_p, -np.inf)
    for i in range(grid_p):
        u = _cell_bound(alpha.value, ps[i], y_cells)
        top = int(u.argmax())
        if u[top] >= lb - slack:
            lb = max(lb, eval_cells(i, [top]).max())
            slice_max[i] = max(vals.max() for _, vals in pruned_blocks(i, u, lb - slack))
            lb = max(lb, slice_max[i])
        # Holding this bound while the next slice's is computed ran default
        # grids at alpha 0.25, 0.75 and 0.99 about 10-20% slower (2-vCPU box).
        del u
    gmax = slice_max.max()
    (pi,) = _first_tied_index(slice_max, gmax)
    for cells, vals in pruned_blocks(pi, _cell_bound(alpha.value, ps[pi], y_cells),
                                     gmax - slack):
        if vals.max() >= gmax - TIE_TOL:
            break
    k, ni = _first_tied_index(vals, gmax)
    ti, mi = divmod(int(cells[k]), grid_yarg)
    pt = LemmaPoint(float(ps[pi]), complex(ts[ti] * e_mu[mi]), complex(e_nu[ni]))
    value = abs(hankel.functional_param_form(alpha, pt))

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

    ``kernels`` is _kernels of the rows' angles.  ``alpha`` is one Alpha for
    every row or the (R,) array of each row's alpha value (see coeff_rows).
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
    rows at once.  Weights stay on the simplex by clipping at 0 and
    renormalizing (a probe whose total is not positive is skipped and not
    counted); angles wrap mod 2 pi.  A probe is kept only if strictly
    better, so no row's value decreases and every path is deterministic.  A
    row that improves nowhere in a sweep halves both steps and stops once
    both are below 1e-12.  No row's path depends on the other rows.

    Each row keeps the moment kernels of its angles between probes: a weight
    probe reuses them, and an angle probe recomputes only the column of the
    angle it moves; a row that keeps the moved angle keeps that column too.

    Returns the per-row best values, weights, angles and evaluation counts.
    """
    w = weights.copy()
    t = angles.copy()
    kern = _kernels(t)
    rows, k = w.shape
    best = _h2_rows(alphas, w, kern)
    evals = np.ones(rows, dtype=np.int64)
    step_w = np.full(rows, 0.15)
    step_t = np.full(rows, 0.4)
    live = np.arange(rows)
    improved = np.zeros(rows, dtype=bool)

    def keep(idx, val, trial, target):
        evals[idx] += 1
        better = val > best[idx]
        hit = idx[better]
        best[hit] = val[better]
        target[hit] = trial[better]
        improved[hit] = True
        return better

    for _ in range(sweeps):
        if live.size == 0:
            break
        improved[:] = False
        live_alphas = alphas[live]
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = w[live]
                x = trial[:, i] + sign * step_w[live]
                trial[:, i] = np.where(x > 0.0, x, 0.0)
                total = trial.sum(axis=1)
                ok = total > 0.0
                idx, trial = live[ok], trial[ok] / total[ok, None]
                keep(idx, _h2_rows(live_alphas[ok], trial, kern[idx]), trial, w)
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = t[live]
                trial[:, i] = (trial[:, i] + sign * step_t[live]) % _TWO_PI
                trial_kern = kern[live]
                trial_kern[:, :, i] = _kernels(trial[:, i : i + 1])[:, :, 0]
                better = keep(live, _h2_rows(live_alphas, w[live], trial_kern), trial, t)
                kern[live[better]] = trial_kern[better]
        stalled = live[~improved[live]]
        step_w[stalled] *= 0.5
        step_t[stalled] *= 0.5
        done = (step_w < 1e-12) & (step_t < 1e-12)
        live = live[~done[live]]
    return best, w, t, evals


def _herglotz_outcomes(
    alphas,
    atom_count: int = 2,
    restarts: int = 100,
    local_steps: int = 60,
    seed: int = 0,
):
    """maximize_herglotz at each Alpha of ``alphas``, yielded in order.

    Every alpha uses the same seed, so the restart start points are drawn
    once and tiled across the alphas.  The restarts of a group of alphas
    are refined as one lock-step batch of at most _HERGLOTZ_BATCH_ROWS
    rows (one alpha's restarts when they are more), and each alpha's slice
    is reduced as maximize_herglotz describes.  Rows do not interact, so
    every outcome is bit-for-bit that of a search at its alpha alone.
    """
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
    for start in range(0, len(alphas), per_batch):
        group = alphas[start : start + per_batch]
        values = np.array([alpha.value for alpha in group])
        vals, ws, ts, evals = _refine_rows(np.repeat(values, restarts),
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
    alpha: Alpha,
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


def run_method(method: str, alpha: Alpha, workers: int = 1, seed: int = 0, **kwargs) -> SearchOutcome:
    """Dispatch one search by method name with default resolutions."""
    whole_number("workers", workers, 1)
    if method == "phi":
        return maximize_phi(alpha, workers=workers, seed=seed, **kwargs)
    if method == "lemma":
        return maximize_param(alpha, workers=workers, seed=seed, **kwargs)
    if method == "herglotz":
        return maximize_herglotz(alpha, seed=seed, **kwargs)
    raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")


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

    ``steps`` and ``workers`` are whole numbers of at least 1, else
    DomainError.  The herglotz method refines the restarts of all alphas
    together (see _herglotz_outcomes); each row is still bit-for-bit what
    maximize_herglotz gives at its alpha.  Other methods search one alpha
    after another.
    """
    alpha_start = numeric("alpha_start", alpha_start, float)
    alpha_end = numeric("alpha_end", alpha_end, float)
    if not 0.0 <= alpha_start < alpha_end < 1.0:
        raise DomainError(
            f"need 0 <= alpha_start < alpha_end < 1, got [{alpha_start}, {alpha_end}]"
        )
    steps = whole_number("steps", steps, 1)
    whole_number("workers", workers, 1)
    alphas = [Alpha(float(a)) for a in np.linspace(alpha_start, alpha_end, steps + 1)]
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
                alpha=alpha.value,
                searched_max=float(outcome.value),
                sharp_bound=float(bound),
                abs_gap=abs(float(outcome.value) - float(bound)),
                argmax_summary=_summarize_argmax(outcome),
            )
        )
    return rows


def monotonicity_scan(alpha: Alpha, grid_p: int = 101, grid_t: int = 101):
    """Count adjacent t-grid drops of phi beyond 1e-12; contract is zero.

    Returns (violations, worst observed drop clipped at 0).
    """
    grid_p = whole_number("grid_p", grid_p, 3)
    grid_t = whole_number("grid_t", grid_t, 3)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = hankel.phi(alpha, ps[:, None], ts[None, :])
    drops = vals[:, :-1] - vals[:, 1:]
    violations = int(np.sum(drops > 1e-12))
    worst = float(max(float(drops.max()), 0.0))
    return violations, worst
