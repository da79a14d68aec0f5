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
maximized on the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .caratheodory import HerglotzAtoms, LemmaPoint
from .errors import DomainError
from .formatting import fmt_complex, fmt_float, to_jsonable
from .hankel import det2, sharp_bound
from .starlike import Alpha, coeff_rows

TIE_TOL = 1e-12

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


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")


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
    if grid_p < 2 or grid_t < 2:
        raise DomainError(f"grids must have at least 2 points, got {grid_p} x {grid_t}")
    _check_workers(workers)
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


def maximize_param(
    alpha: Alpha,
    grid_p: int = DEFAULT_GRID_P,
    grid_ymod: int = DEFAULT_GRID_T,
    grid_yarg: int = DEFAULT_GRID_YARG,
    grid_zarg: int = DEFAULT_GRID_ZARG,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Maximum of |five-term form| over p in [0,2], y = t e^{i mu}, zeta = e^{i nu}."""
    for name, g in (("grid_p", grid_p), ("grid_ymod", grid_ymod),
                    ("grid_yarg", grid_yarg), ("grid_zarg", grid_zarg)):
        if g < 2:
            raise DomainError(f"{name} must have at least 2 points, got {g}")
    _check_workers(workers)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_ymod)
    e_mu = np.exp(1j * np.arange(grid_yarg) * (_TWO_PI / grid_yarg))
    e_nu = np.exp(1j * np.arange(grid_zarg) * (_TWO_PI / grid_zarg))
    y_grid = ts[:, None, None] * e_mu[None, :, None]
    zeta_grid = e_nu[None, None, :]

    def eval_slice(i):
        return np.abs(hankel._param_form_raw(alpha.value, ps[i], y_grid, zeta_grid))

    # The full grid does not fit in memory: find the first slice holding a
    # tied value from the slice maxima, then evaluate that slice once more.
    slice_max = np.array([eval_slice(i).max() for i in range(grid_p)])
    gmax = slice_max.max()
    (pi,) = _first_tied_index(slice_max, gmax)
    ti, mi, ni = _first_tied_index(eval_slice(pi), gmax)
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


def _h2_rows(alpha: Alpha, weights: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|a2 a4 - a3^2| of each row of an (R, k) batch of atom weights and angles.

    Three stages: the moments p_1..p_3, the coefficient recurrence, and the
    2 x 2 Hankel determinant.  Each row is bit-equal to
    abs(hankel_det(coeffs_from_moments(...))) on that row alone.
    """
    kernels = np.exp(1j * (angles[:, None, :] * _MOMENT_ORDERS[:, None]))
    moments = 2.0 * (kernels @ np.ascontiguousarray(weights)[:, :, None])[:, :, 0]
    a = coeff_rows(alpha, moments)
    re, im = det2(a[:, 1], a[:, 3], a[:, 2], a[:, 2])
    return np.hypot(re, im)


def _refine_rows(alpha: Alpha, weights: np.ndarray, angles: np.ndarray, sweeps: int):
    """Coordinate-wise pattern search with shrinking steps, on all rows in lock-step.

    Each row is one restart with its own steps and its own stop rule.  Every
    sweep probes each weight by +-step_w, then each angle by +-step_t, and a
    probe evaluates all live rows at once.  Weights stay on the simplex by
    clipping at 0 and renormalizing (a probe whose total is not positive is
    skipped and not counted); angles wrap mod 2 pi.  A probe is kept only if
    strictly better, so no row's value decreases and every path is
    deterministic.  A row that improves nowhere in a sweep halves both steps
    and stops once both are below 1e-12.

    Returns the per-row best values, weights and angles, and the number of
    evaluations.
    """
    w = weights.copy()
    t = angles.copy()
    rows, k = w.shape
    best = _h2_rows(alpha, w, t)
    evals = rows
    step_w = np.full(rows, 0.15)
    step_t = np.full(rows, 0.4)
    live = np.arange(rows)
    improved = np.zeros(rows, dtype=bool)

    def keep(idx, val, trial, target):
        better = val > best[idx]
        hit = idx[better]
        best[hit] = val[better]
        target[hit] = trial[better]
        improved[hit] = True

    for _ in range(sweeps):
        if live.size == 0:
            break
        improved[:] = False
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = w[live]
                x = trial[:, i] + sign * step_w[live]
                trial[:, i] = np.where(x > 0.0, x, 0.0)
                total = trial.sum(axis=1)
                ok = total > 0.0
                idx, trial = live[ok], trial[ok] / total[ok, None]
                val = _h2_rows(alpha, trial, t[idx])
                evals += idx.size
                keep(idx, val, trial, w)
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = t[live]
                trial[:, i] = (trial[:, i] + sign * step_t[live]) % _TWO_PI
                val = _h2_rows(alpha, w[live], trial)
                evals += live.size
                keep(live, val, trial, t)
        stalled = live[~improved[live]]
        step_w[stalled] *= 0.5
        step_t[stalled] *= 0.5
        done = (step_w < 1e-12) & (step_t < 1e-12)
        live = live[~done[live]]
    return best, w, t, evals


def maximize_herglotz(
    alpha: Alpha,
    atom_count: int = 2,
    restarts: int = 100,
    local_steps: int = 60,
    seed: int = 0,
    seed_atoms: HerglotzAtoms = None,
) -> SearchOutcome:
    """Random-restart search for |a2 a4 - a3^2| over genuine atom measures.

    Restart weights are Dirichlet(1) samples, angles uniform, drawn restart
    by restart; each restart is refined coordinate-wise.  The restarts run
    in lock-step as one batch (see _refine_rows) and give the same result,
    bit for bit, as running them one after another: each keeps its own
    steps and stop rule, and the reported maximum is the first restart, in
    restart order, that is strictly better than all before it.
    ``seed_atoms``, when given, contributes one plain evaluation ahead of
    the restarts, so seeding at a known maximizer reports its exact value.
    """
    if not 1 <= atom_count <= 4:
        raise DomainError(f"atom_count must lie in 1..4, got {atom_count}")
    if restarts < 0 or local_steps < 0:
        raise DomainError("restarts and local_steps must be nonnegative")
    if restarts == 0 and seed_atoms is None:
        raise DomainError("need restarts >= 1 or seed_atoms")
    rng = np.random.default_rng(seed)

    evaluations = 0
    best_val = -math.inf
    best_w = best_t = None
    if seed_atoms is not None:
        best_w = np.asarray(seed_atoms.weights, dtype=float)
        best_t = np.asarray(seed_atoms.angles, dtype=float)
        best_val = _h2_rows(alpha, best_w[None, :], best_t[None, :])[0]
        evaluations += 1
    w0 = np.empty((restarts, atom_count))
    t0 = np.empty((restarts, atom_count))
    for r in range(restarts):
        w0[r] = rng.dirichlet(np.ones(atom_count))
        t0[r] = rng.uniform(0.0, _TWO_PI, atom_count)
    vals, ws, ts, n_evals = _refine_rows(alpha, w0, t0, local_steps)
    evaluations += n_evals
    for val, w, t in zip(vals, ws, ts):
        if val > best_val:
            best_val, best_w, best_t = val, w, t

    return SearchOutcome(
        value=float(best_val),
        argmax={"weights": [float(x) for x in best_w],
                "angles": [float(x) for x in best_t]},
        method="herglotz",
        grid_spec={
            "atom_count": atom_count,
            "restarts": restarts,
            "local_steps": local_steps,
            "seed": seed,
        },
        evaluations=evaluations,
    )


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
    _check_workers(workers)
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
    """Search at steps+1 equispaced alpha values and tabulate gaps to the bound."""
    if not 0.0 <= alpha_start < alpha_end < 1.0:
        raise DomainError(
            f"need 0 <= alpha_start < alpha_end < 1, got [{alpha_start}, {alpha_end}]"
        )
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    rows = []
    for a in np.linspace(alpha_start, alpha_end, steps + 1):
        alpha = Alpha(float(a))
        outcome = run_method(method, alpha, workers=workers, seed=seed, **method_kwargs)
        bound = sharp_bound(alpha)
        rows.append(
            SweepRow(
                alpha=float(a),
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
    if grid_p < 3 or grid_t < 3:
        raise DomainError(f"grids must have at least 3 points, got {grid_p} x {grid_t}")
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = hankel.phi(alpha, ps[:, None], ts[None, :])
    drops = vals[:, :-1] - vals[:, 1:]
    violations = int(np.sum(drops > 1e-12))
    worst = float(max(float(drops.max()), 0.0))
    return violations, worst
