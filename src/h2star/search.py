"""Derivative-free maximization of the determinant functional.

Three routes to the same maximum: the scalar majorant phi on its (p, t) box,
the five-term parameterized form over the full (p, y, zeta) box, and direct
search over genuine class members built from boundary atoms.  All searches
are deterministic: grids are fixed and random starts come from seeded
generators.  A grid reduction reports the first index, in C order, whose
value is at least vmax - TIE_TOL * vmax, vmax the grid maximum; that is the
lexicographically smallest tied grid index, so the result does not depend
on evaluation order.  The atom search reports the first restart in the same
window about its best restart.  The tie window is relative: every grid
holds a point whose value is (1 - alpha)^2 > 0, so vmax > 0 and the window
scales with the bound at every alpha in [0, 1), also where (1 - alpha)^2 is
far below TIE_TOL.
Grids are evaluated on one thread; ``workers`` is accepted and validated but
does not affect the computation.  zeta is searched on the unit circle only;
the functional is affine in zeta, so the modulus over the closed disk is
maximized on the boundary.  maximize_phi and maximize_param evaluate the
unchecked kernel hankel._phi_raw on the grids they build inside phi's box;
monotonicity_scan and proof-step-properties' 20 alphas take _phi_grids,
which forms phi's alpha-free terms once and sums them for each alpha from
its own s2 and |c|, so each grid is _phi_raw's, bit for bit.  phi is
nondecreasing in t (proof step 4), so both grid searches bound each p row
by phi at t = 1 and evaluate the rest of the row only where that bound can
reach a tie.  The lemma grid evaluates the zeta axis only on the lines
that the triangle inequality cannot rule out, and reduces the maxima of
the lines it keeps, one float per line, as the phi grid reduces its
values.  Both give the full grid's result bit for bit (see maximize_phi
and maximize_param).
The atom search refines its restarts in lock-step as one batch, and a
sweep refines all its alphas' restarts together, in batches of at most
_HERGLOTZ_BATCH_ROWS rows; both give, bit for bit, the restarts run one
after another at one alpha at a time.  A batch holds every row, each with
the moment kernels e^{i n t} of its angles as contiguous cosine and sine
planes, and the alpha factors of the recurrence, computed once per batch.
An angle probe writes the kernels of the one angle it moves into a probe
buffer, which the row kernel reads in place of that atom's planes; the
rows the probe improves copy the buffer by mask, and no other row's
planes are written.  A row that stops leaves a live mask and is no longer
changed.  The row kernel calls the moment kernels of moments_from_atoms
and the pair product of the gate's kernels, and computes in real
arithmetic, in the one order of operations of moments_from_atoms,
coeffs_from_moments and hankel_det, so its bits do not depend on the BLAS
library (see _h2_rows and _a234_pairs).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .caratheodory import (_TWO_PI, LemmaPoint, _kernel_planes, _pair_product, _parts,
                           _weighted_moments)
from .errors import DomainError, whole_number
from .formatting import fmt_complex, fmt_float, to_jsonable
from .hankel import _c, _phi_raw, _phi_sum, _phi_terms, _s2, det2, sharp_bound
from .starlike import Alpha, alpha_value
from .tolerances import (
    BOUND_MARGIN,
    MONOTONE_DROP_TOL,
    PATTERN_STEP_MIN,
    TIE_TOL,
)

# Rows (restarts times alphas) per lock-step batch of a Herglotz sweep.  A
# default 100-alpha sweep (alpha 0 to 0.99, 10,000 rows) took a median 0.55 s
# at 4,096 rows per batch, 0.59 s at 2,048 and 0.69 s at 1,024, with the same
# CSV bytes; peak RSS over the import read 4.7, 3.7 and 3.2 MiB (8 fresh
# processes per size, interleaved, 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6).
_HERGLOTZ_BATCH_ROWS = 1 << 12

# Points per call of the form on whole zeta axes: a search that evaluated every
# default-grid line (alpha = 0.999999 under an absolute tie window) took 1.9 s
# at 2^13, 2.6 s at 2^16 (2 vCPU).
_ZETA_CALL_POINTS = 1 << 13

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
    """C-order first index of ``vals`` at or above ``vmax - TIE_TOL * vmax``.

    C order is lexicographic order on grid indices, so this is the smallest
    tied index; on a vector of restart values it is the first tied restart.
    The window is relative to ``vmax``: both grid searches pass a maximum of
    at least (1 - alpha)^2 > 0, their value at the grid point p = 0,
    |y| = 1, so at every alpha the window holds the maximum and the values
    within a relative TIE_TOL below it.
    """
    tied = vals >= vmax - TIE_TOL * vmax
    return tuple(int(i) for i in np.unravel_index(np.argmax(tied), vals.shape))


def maximize_phi(
    alpha: Alpha | float,
    grid_p: int = DEFAULT_GRID_P,
    grid_t: int = DEFAULT_GRID_T,
    workers: int = 1,
    seed=None,
) -> SearchOutcome:
    """Grid maximum of the majorant phi, ties broken toward smallest p, then smallest t.

    Every grid holds (p, t) = (0, 1), where _phi_raw is (1 - alpha)^2 bit
    for bit, phi's maximum on its box (proof steps 4 and 5), so a point off
    the grid could beat the grid by rounding only, a relative error far
    below TIE_TOL.

    The result is that of evaluating every grid point, bit for bit, but the
    t axis is evaluated only on the p rows that can hold the maximum or a
    tie.  phi is nondecreasing in t (proof step 4), so its t = 1 column,
    evaluated first, bounds each row.  Like any grid value, m = phi(0, 1)
    = (1 - alpha)^2 > 0 is at most the grid maximum vmax, and a tied value
    is at least vmax - TIE_TOL * vmax >= m - TIE_TOL * m.  So a row whose
    bound is below m - (TIE_TOL + BOUND_MARGIN) * m can be neither the
    maximum nor tied with it; BOUND_MARGIN covers rounding, relative to m.
    Where the profile phi(p, 1) is flat, at alpha = 0, every row is kept.
    ``evaluations`` counts the grid points decided, grid_p * grid_t.
    ``seed`` is recorded only; it is None or a whole number of at least 0.
    """
    al = alpha_value(alpha)
    grid_p = whole_number("grid_p", grid_p, 2)
    grid_t = whole_number("grid_t", grid_t, 2)
    whole_number("workers", workers, 1)
    if seed is not None:
        seed = whole_number("seed", seed, 0, math.inf)
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    edge = _phi_raw(al, ps[:, None], ts[None, -1:])[:, 0]
    rows = np.flatnonzero(edge >= edge[0] - (TIE_TOL + BOUND_MARGIN) * edge[0])
    vals = _phi_raw(al, ps[rows, None], ts[None, :])
    k, ti = _first_tied_index(vals, vals.max())

    return SearchOutcome(
        value=float(vals[k, ti]),
        argmax={"p": float(ps[rows[k]]), "t": float(ts[ti])},
        method="phi",
        grid_spec={"grid_p": grid_p, "grid_t": grid_t, "seed": seed},
        evaluations=grid_p * grid_t,
    )


def _line_maxima(al: float, p, y: np.ndarray, e_nu: np.ndarray, floor: float) -> np.ndarray:
    """Max over zeta grid ``e_nu`` of |Psi| on each line (p, y), raveled; -inf below ``floor``.

    Psi = A + B zeta is affine in zeta, with A = s2 times the form's
    zeta-free terms (Psi at zeta = 0 but for the sign of a zero, which the
    modulus drops) and B = s2 / 6 times the closed-form coefficient
    p q (1 - |y|^2) of _zeta_coefficient, q = 4 - p^2.  A line whose bound
    |A| + |B| is below ``floor`` is not evaluated.  Where the computed
    coefficient is exactly 0, the zeta term is a signed zero and |Psi| is
    |A| all along the line; the other lines kept are evaluated on the whole
    zeta axis.  Every modulus is np.hypot of the parts, and the form acts
    elementwise: every value is the double the full grid computes.
    """
    p, y = np.broadcast_to(p, y.shape).ravel(), y.ravel()
    s2 = _s2(al)
    a = np.hypot(*(s2 * x for x in hankel._zeta_free_terms(al, p, _parts(y))))
    coef = hankel._zeta_coefficient(p, _parts(y))
    kept = a + s2 * np.abs(coef) / 6.0 >= floor
    free = kept & (coef == 0.0)
    out = np.full(y.shape, -np.inf)
    out[free] = a[free]
    rest, step = np.flatnonzero(kept & ~free), max(1, _ZETA_CALL_POINTS // e_nu.size)
    for s in range(0, rest.size, step):
        k = rest[s:s + step]
        out[k] = np.hypot(*_parts(hankel._param_form_raw(al, p[k, None], y[k, None], e_nu))).max(1)
    return out


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
    The majorant |Psi(p, y, zeta)| <= phi(p, |y|), step 3 of the proof,
    which the proof-step-properties check samples, bounds |Psi| on a whole
    (p, t) row, and |A| + |B| bounds it on one line (see _line_maxima).  Every
    grid holds p = 0, y = 1, zeta = 1, where |Psi| is m = (1 - alpha)^2 > 0;
    like any grid value, m is at most the grid maximum vmax, and a tied
    value is at least vmax - TIE_TOL * vmax >= m - TIE_TOL * m.  So a row or
    line whose bound is below the floor m - (TIE_TOL + BOUND_MARGIN) * m can
    be neither the maximum nor tied with it.  phi is nondecreasing in t
    (proof step 4), so phi, as _phi_raw on the grid's own points, is
    evaluated first at t = 1, and on the whole t axis only of the p rows
    whose value there reaches m - (TIE_TOL + 2 BOUND_MARGIN) * m; each
    BOUND_MARGIN covers rounding relative to m, and the (p, t) rows kept
    are those of phi on the whole grid.  The rows kept are reduced 16
    at a time to their lines' maxima, which fill one vector of one float
    per kept line.  _first_tied_index finds the first tied line in C order
    in it, and that line, evaluated once more, gives the first tied zeta
    against the same maximum.

    ``evaluations`` counts the grid points decided, evaluated or excluded
    by a bound: grid_p * grid_ymod * grid_yarg * grid_zarg.  ``seed`` is
    recorded only, as in maximize_phi.
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

    # |Psi| at the grid point (p, |y|, arg y, arg zeta) = (0, 1, 0, 0)
    m = np.hypot(*_parts(hankel._param_form_raw(al, ps[:1], ts[-1:] * e_mu[:1], e_nu[:1])))[0]
    floor = m - (TIE_TOL + BOUND_MARGIN) * m
    edge = _phi_raw(al, ps[:, None], ts[None, -1:])[:, 0]
    kept = np.flatnonzero(edge >= m - (TIE_TOL + 2 * BOUND_MARGIN) * m)
    rows = np.argwhere(_phi_raw(al, ps[kept, None], ts[None, :]) >= floor)
    rows[:, 0] = kept[rows[:, 0]]
    vals = np.empty(len(rows) * grid_yarg)
    for s in range(0, len(rows), 16):
        p, y = ps[rows[s:s + 16, :1]], ts[rows[s:s + 16, 1:]] * e_mu
        vals[s * grid_yarg:(s + 16) * grid_yarg] = _line_maxima(al, p, y, e_nu, floor)
    vmax = vals.max()
    k, mi = _first_tied_index(vals.reshape(len(rows), grid_yarg), vmax)
    pi, ti = rows[k]
    line = hankel._param_form_raw(al, ps[pi:pi + 1, None], ts[ti] * e_mu[mi:mi + 1, None], e_nu)
    (ni,) = _first_tied_index(np.hypot(*_parts(line[0])), vmax)
    pt = LemmaPoint(float(ps[pi]), complex(ts[ti] * e_mu[mi]), complex(e_nu[ni]))
    value = np.hypot(*_parts(hankel.functional_param_form(al, pt)))

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


def _alpha_factors(alpha):
    """The factors (s, s / 2, s / 3), s = 1 - alpha, of a2, a3 and a4 in
    the recurrence, for one alpha or an array of them: computed once for a
    batch and passed to every _h2_rows call on it."""
    s = 1 - alpha
    return s, s / 2, s / 3


def _a234_pairs(factors, p1, p2, p3):
    """The (real, imaginary) pairs of a2, a3 and a4 from the _alpha_factors
    ``factors`` and the pairs of the moments p1, p2 and p3: floats, float
    arrays or Fractions.

    a_n is (1 - alpha) / (n - 1) times the sum of the terms a_{n-k} p_k,
    each _pair_product, added left to right from k = 1; the last term,
    a_1 p_{n-1} with a_1 = (1, 0), is p_{n-1} in value.  This is the order
    of coeffs_from_moments, and exact on Fractions.
    """
    s, s2, s3 = factors
    a2, a3, a4 = [s * x for x in p1], [], []
    # In place on the products' fresh arrays; a Fraction is rebound instead.
    for x, y in zip(_pair_product(a2, p1), p2):
        x += y
        x *= s2
        a3.append(x)
    for x, y, z in zip(_pair_product(a3, p1), _pair_product(a2, p2), p3):
        x += y
        x += z
        x *= s3
        a4.append(x)
    return a2, a3, a4


def _h2_rows(factors, weights: np.ndarray, planes) -> np.ndarray:
    """|a2 a4 - a3^2| of each column of a (k, R) batch of atom weights.

    ``planes`` is the sequence of the k atoms' (3, 2, R) _kernel_planes of
    the columns' angles (see _weighted_moments), and ``factors`` the
    _alpha_factors of one alpha value for every column or of the (R,)
    array of each column's value.

    The kernel works on real and imaginary parts, in the order of the public
    route moments_from_atoms, coeffs_from_moments and hankel_det, so each
    column is bit-equal to that route on its measure alone: the moments are
    _weighted_moments, the moments of moments_from_atoms; a2, a3 and a4
    are _a234_pairs; the determinant is det2's.  Every value is equal; a
    zero part may differ in sign, which |det| drops.
    """
    a2, a3, a4 = _a234_pairs(factors, *_weighted_moments(weights, planes))
    return np.hypot(*det2(a2, a4, a3, a3))


def _refine_rows(alphas: np.ndarray, weights: np.ndarray, angles: np.ndarray, sweeps: int):
    """Coordinate-wise pattern search with shrinking steps, on all rows in lock-step.

    Each row is one restart, at the alpha value ``alphas`` gives it, with
    its own steps and its own stop rule.  Every sweep probes each weight by
    +-step_w, then each angle by +-step_t, and a probe evaluates every
    row at once.  Weights are clipped at 0 and renormalized, so they stay
    on the simplex, and angles wrap mod 2 pi as HerglotzAtoms wraps them:
    x % 2 pi, and 0 where that rounds up to 2 pi.  A weight probe moves one
    weight of a row summing to 1 by at most step_w <= 0.15, so its total is
    positive: every probe is evaluated and counted.  The total adds the
    weights left to right, numpy's order for a sum of fewer than 8 terms, so
    it is bit-equal to one restart's .sum().  A -step move subtracts the
    step, which is adding -1.0 times it bit for bit.  A probe is kept only
    if strictly better, so no row's value decreases and every path is
    deterministic.  A row that improves nowhere in a sweep halves both steps
    and stops once both are below PATTERN_STEP_MIN.  Rows do not interact.

    The state holds every row, atom by atom: (k, R) weights and angles and
    the planes of the moment kernels (see _h2_rows); the alpha factors are
    computed once.  An angle probe writes the kernels of the one angle it
    moves into one probe buffer, which _h2_rows reads in place of that
    atom's planes; each row whose value improves copies the buffer's
    column into its planes, by mask, and the other rows' planes are never
    written.  A row that stops leaves the ``live`` mask: later probes still
    evaluate it with the other rows, but none is kept or counted for it, so
    its state is final.  The loop ends when no row is live.

    Takes and returns (R, k) weights and angles: returns the per-row best
    values, weights, angles and evaluation counts.
    """
    rows, k = weights.shape
    w, t = weights.T.copy(), angles.T.copy()
    factors = _alpha_factors(alphas)
    planes = _kernel_planes(t, 3)
    probe = np.empty_like(planes[0])
    best = _h2_rows(factors, w, planes)
    evals = np.ones(rows, dtype=np.int64)
    step_w, step_t = np.full(rows, 0.15), np.full(rows, 0.4)
    live = np.ones(rows, dtype=bool)
    better = np.empty(rows, dtype=bool)
    for _ in range(sweeps):
        improved = np.zeros(rows, dtype=bool)
        for i in range(k):
            for move in (np.add, np.subtract):
                trial = w.copy()
                np.maximum(move(trial[i], step_w), 0.0, out=trial[i])
                total = trial[0].copy()
                for j in range(1, k):
                    total += trial[j]
                trial /= total
                val = _h2_rows(factors, trial, planes)
                np.greater(val, best, out=better)
                better &= live
                np.copyto(best, val, where=better)
                np.copyto(w, trial, where=better)
                improved |= better
        for i in range(k):
            for move in (np.add, np.subtract):
                # x = t +- step_t lies in (-2 pi, 4 pi).  There x % 2 pi is
                # x + 2 pi for x < 0, and x - 2 pi, exact (Sterbenz), for
                # x >= 2 pi; the second line also folds a sum that rounds up
                # to 2 pi to 0, and adding +-0 changes only a -0, to +0.
                col = move(t[i], step_t)
                col += (col < 0.0) * _TWO_PI
                col -= (col >= _TWO_PI) * _TWO_PI
                _kernel_planes(col, 3, probe)
                val = _h2_rows(factors, w, [*planes[:i], probe, *planes[i + 1:]])
                np.greater(val, best, out=better)
                better &= live
                np.copyto(best, val, where=better)
                np.copyto(t[i], col, where=better)
                np.copyto(planes[i], probe, where=better)
                improved |= better
        evals += 4 * k * live
        step_w[~improved] *= 0.5
        step_t[~improved] *= 0.5
        live &= (step_w >= PATTERN_STEP_MIN) | (step_t >= PATTERN_STEP_MIN)
        if not live.any():
            break
    return best, w.T, t.T, evals


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
    is reduced to its first restart within TIE_TOL times its best value
    (_first_tied_index).  Rows do not interact, so every outcome is
    bit-for-bit that of a search at its alpha alone.
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
            best = j * restarts + _first_tied_index(vals[rows], vals[rows].max())[0]
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
    steps and stop rule.  The reported restart is the first, in restart
    order, whose value is at least best - TIE_TOL * best, best the largest
    value of any restart: the grid searches' tie rule, so a restart that
    beats an earlier one by rounding alone is not reported.
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

    Returns (violations, worst observed drop clipped at 0).  The grid is
    _phi_grids' at the one alpha, the same doubles as _phi_raw's.
    """
    al = alpha_value(alpha)
    grid_p = whole_number("grid_p", grid_p, 3)
    grid_t = whole_number("grid_t", grid_t, 3)
    return _t_drops(next(_phi_grids([al], grid_p, grid_t)))


def _phi_grids(alphas, grid_p: int, grid_t: int):
    """phi on the grid_p x grid_t (p, t) grid at each alpha, in turn.

    The alpha-free terms are formed once, and each alpha's grid is _phi_sum
    of its own s2 and |c|, so every value is the same double as _phi_raw's
    at that alpha.
    """
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    terms = tuple(_phi_terms(ps[:, None], ts[None, :]))
    for al in alphas:
        yield _phi_sum(_s2(al), abs(_c(al)), terms)


def _t_drops(vals: np.ndarray):
    """The adjacent drops along t of a (p, t) grid beyond MONOTONE_DROP_TOL:
    their count, and the worst drop clipped at 0."""
    drops = vals[:, :-1] - vals[:, 1:]
    return int(np.count_nonzero(drops > MONOTONE_DROP_TOL)), float(max(float(drops.max()), 0.0))
