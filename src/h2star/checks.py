"""Acceptance checks: every headline claim of the toolkit, run end to end.

A check is a function that returns (passed, detail) under the decorator
``@_check(name)``, which registers it in CHECKS_BY_NAME, in definition
order, as a function that times it and returns a CheckResult.  ``run_all``
prints one pass/fail line per check.  The CLI ``check`` subcommand and
tests/test_acceptance.py both drive these functions, so the gate is
identical everywhere.
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .caratheodory import (
    _atom_moment_rows,
    _atom_rows,
    _lemma_forward_raw,
    _lemma_inverse_rows,
    _lemma_row_blocks,
    _parts,
    _rotation_rows,
    _toeplitz_min_eig_rows,
    _triple_rows,
)
from .hankel import (
    HankelSpec,
    _moment_form_raw,
    _param_form,
    _phi_raw,
    bound_profile,
    det2,
    hankel_det,
    phi,
    sharp_bound,
)
from .search import (
    DEFAULT_GRID_P,
    DEFAULT_GRID_T,
    _herglotz_outcomes,
    maximize_param,
    maximize_phi,
    monotonicity_scan,
)
from .starlike import _closed_form_rows, coeffs_from_moments, extremal_coeffs
from .tolerances import (
    ATTAINMENT_TOL,
    BOUND_GAP_TOL,
    GRID_CELL_SLACK,
    HERGLOTZ_SHORTFALL,
    LEMMA_GRID_SHORTFALL,
    PROOF_SLACK,
    PSD_TOL,
    ROUND_TRIP_P1_CUT,
    ROUND_TRIP_TOL,
    ROUND_TRIP_Y_CUT,
    ROUTE_TOL,
)

ALPHA_GRID = [0.05 * k for k in range(20)]
ALPHA_SPOT = [0.0, 0.25, 0.5, 0.75]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


CHECKS_BY_NAME = {}


def _check(name):
    """Register the decorated check under ``name``, timed, as returning a CheckResult."""

    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body()
            return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)

        CHECKS_BY_NAME[name] = check
        return check

    return register


@_check("sharp-bound-reproduction")
def check_sharp_bound_reproduction():
    """Majorant search returns (1 - alpha)^2 within BOUND_GAP_TOL in under 1 s per alpha."""
    worst_gap = 0.0
    worst_time = 0.0
    for a in ALPHA_GRID:
        t0 = time.perf_counter()
        outcome = maximize_phi(a)
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        worst_gap = max(worst_gap, abs(outcome.value - sharp_bound(a)))
    ok = worst_gap <= BOUND_GAP_TOL and worst_time < 1.0
    return ok, f"worst |value - bound| = {worst_gap:.3e}, worst time = {worst_time:.3f}s"


@_check("sharpness-attainment")
def check_sharpness_attainment():
    """The extremal odd function attains the bound: a2 = a4 = 0, a3 = 1 - alpha,
    within ATTAINMENT_TOL."""
    spec = HankelSpec(q=2, n=2)
    worst = 0.0
    for a in ALPHA_GRID:
        f = extremal_coeffs(a, 8)
        det = hankel_det(f, spec)
        target = sharp_bound(a)
        worst = max(
            worst,
            abs(f.coeff(2)),
            abs(f.coeff(4)),
            abs(f.coeff(3) - (1.0 - a)),
            abs(det + target),
            abs(abs(det) - target),
        )
    return worst <= ATTAINMENT_TOL, f"worst deviation = {worst:.3e}"


@_check("full-parameter-search")
def check_full_param_search():
    """Full (p, y, zeta) grid search lands within
    [bound - LEMMA_GRID_SHORTFALL, bound + BOUND_GAP_TOL], within one grid cell
    (plus GRID_CELL_SLACK) of p = 0 and |y| = 1."""
    msgs = []
    ok = True
    p_cell = 2.0 / (DEFAULT_GRID_P - 1)
    t_cell = 1.0 / (DEFAULT_GRID_T - 1)
    for a in ALPHA_SPOT:
        t0 = time.perf_counter()
        outcome = maximize_param(a)
        dt = time.perf_counter() - t0
        bound = sharp_bound(a)
        p_at = float(outcome.argmax["p"])
        y_mod = abs(outcome.argmax["y"])
        here = (
            bound - LEMMA_GRID_SHORTFALL <= outcome.value <= bound + BOUND_GAP_TOL
            and p_at <= p_cell + GRID_CELL_SLACK
            and abs(1.0 - y_mod) <= t_cell + GRID_CELL_SLACK
            and dt < 60.0
        )
        if a == 0.0:
            here = here and p_at == 0.0  # tie-break must report p = 0
        ok = ok and here
        msgs.append(f"a={a}: gap={bound - outcome.value:.2e} p*={p_at:g} t={dt:.1f}s")
    return ok, "; ".join(msgs)


@_check("herglotz-search")
def check_herglotz_search():
    """Atom-measure search with 2 atoms and 100 restarts reaches the bound - HERGLOTZ_SHORTFALL.

    The four alphas run as one lock-step batch, each bit for bit its own
    maximize_herglotz.
    """
    ok = True
    msgs = []
    outcomes = _herglotz_outcomes(ALPHA_SPOT, atom_count=2, restarts=100, seed=20240817)
    for a, outcome in zip(ALPHA_SPOT, outcomes):
        bound = sharp_bound(a)
        here = bound - HERGLOTZ_SHORTFALL <= outcome.value <= bound + BOUND_GAP_TOL
        ok = ok and here
        msgs.append(f"a={a}: gap={bound - outcome.value:.2e}")
    return ok, "; ".join(msgs)


@_check("prior-result-anchors")
def check_prior_result_anchors():
    """alpha = 0 gives the classical bound 1 (Koebe attains it); alpha = 1/2 gives 1/4."""
    koebe = coeffs_from_moments(0.0, [2.0, 2.0, 2.0])
    det = hankel_det(koebe, HankelSpec(q=2, n=2))
    gap0 = abs(maximize_phi(0.0).value - 1.0)
    gap_half = abs(maximize_phi(0.5).value - 0.25)
    ok = (
        sharp_bound(0.0) == 1.0
        and sharp_bound(0.5) == 0.25
        and list(koebe.coeffs) == [1, 2, 3, 4]
        and abs(det) == 1.0
        and gap0 <= BOUND_GAP_TOL
        and gap_half <= BOUND_GAP_TOL
    )
    return ok, (
        f"koebe det = {det.real:g}, search gaps: alpha=0 -> {gap0:.2e}, "
        f"alpha=1/2 -> {gap_half:.2e}"
    )


@_check("algebra-reconciliation")
def check_algebra_reconciliation():
    """Moment form matches the closed-form route; parameterized form matches both.

    1,000 rows of (alpha, p1, p2, p3) from _triple_rows, alpha uniform on
    [0, 1) and each moment uniform on the closed disk of radius 2, compare
    the moment form with a2 a4 - a3^2 from the closed forms.  Then 100,000
    draws of (alpha, p, y, zeta) from the same generator, in blocks of rows
    from _lemma_row_blocks, compare the five-term form with the moment form
    of the substituted moments.  Both agree within ROUTE_TOL.  Every value
    is a (real, imaginary) pair, and every modulus np.hypot of the parts:
    _modulus_max screens a block's rows by their squared moduli and takes
    np.hypot only where the maximum can be.  The screen's bits never reach
    the output.
    """
    rng = np.random.default_rng(11)
    worst_rel = float(_closed_form_gaps(*_triple_rows(rng, 1000)).max())
    worst_sub = 0.0
    for alpha, p, y, zeta in _lemma_row_blocks(rng, 100_000):
        # psi and form stay bound until the next block's replace them.  Freed
        # inside a helper, they left the heap's top free after every block,
        # for malloc to return and fault in again: about 3,960 minor page
        # faults a gate pass against about 250.
        psi = _param_form(alpha, p, y, zeta)
        form = _moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta))
        worst_sub = max(worst_sub, float(_modulus_max(psi[0] - form[0], psi[1] - form[1])))
    ok = worst_rel <= ROUTE_TOL and worst_sub <= ROUTE_TOL
    return ok, f"worst relative = {worst_rel:.3e}, worst substitution = {worst_sub:.3e}"


def _screened_max(approx, exact, margin):
    """max(exact(rows)) over every row, bit for bit, with exact taken only
    where the maximum can be.

    approx holds one cheap value per row and exact(keep) returns the exact
    values of the rows keep indexes.  With top the largest approx, exact is
    taken on the rows whose approx is at least top - margin(top), and on
    every row when top is not finite.  That holds the maximum whenever
    |approx - exact| <= margin(top) / 2 on every row: at the row m of the
    maximum, approx[m] >= exact[m] - margin / 2 >= exact[i] - margin / 2 >=
    top - margin, with i the row of top.
    """
    top = approx.max()
    if not np.isfinite(top):
        return exact(slice(None)).max()
    return exact(np.flatnonzero(approx >= top - margin(top))).max()


def _modulus_max(re, im):
    """The largest np.hypot(re, im), bit for bit, screened by sqrt(re re + im im).

    Away from overflow and underflow the screen is within 2**-51 of
    np.hypot, relative, and where the squares underflow within 2**-536,
    absolute.  When its largest value lies in (2**-400, 2**400) both are far
    below half the margin, 2**-30 of that value; otherwise every row is kept.
    """
    with np.errstate(over="ignore"):
        approx = np.sqrt(re * re + im * im)
    return _screened_max(approx, lambda k: np.hypot(re[k], im[k]),
                         lambda top: top * 2.0**-30 if 2.0**-400 < top < 2.0**400 else np.inf)


def _closed_form_gaps(alpha, p1, p2, p3) -> np.ndarray:
    """|moment form - (a2 a4 - a3^2)| / max(1, |a2 a4 - a3^2|) for each row."""
    a2, a3, a4 = _closed_form_rows(alpha, p1, p2, p3)
    dr, di = det2(a2, a4, a3, a3)
    fr, fi = _moment_form_raw(alpha, p1, p2, p3)
    return np.hypot(fr - dr, fi - di) / np.maximum(1.0, np.hypot(dr, di))


@_check("proof-step-properties")
def check_proof_step_properties():
    """Domination |Psi| <= phi, monotonicity of phi in t, profile identity and bound.

    Domination is sampled at 100,000 draws of (alpha, p, y, zeta), in blocks
    of rows from _lemma_row_blocks.  The two inequalities may fail by
    PROOF_SLACK, and phi(p, 1) and the profile may differ by ROUTE_TOL.
    Each modulus of the slack is np.hypot of the parts: _domination_slack
    screens a block's rows by their squared moduli and takes np.hypot only
    where the maximum can be.  The screen's bits never reach the output.
    """
    rng = np.random.default_rng(12)
    worst_dom = -np.inf
    for alpha, p, y, zeta in _lemma_row_blocks(rng, 100_000):
        psi = _param_form(alpha, p, y, zeta)  # bound until the next block's, as above
        worst_dom = max(worst_dom, float(_domination_slack(alpha, p, y, psi)))
    violations = 0
    worst_ident = 0.0
    worst_excess = -np.inf
    ps = np.linspace(0.0, 2.0, 101)
    for alpha in np.linspace(0.0, 0.95, 20):
        v, _ = monotonicity_scan(alpha, 101, 101)
        violations += v
        prof = bound_profile(alpha, ps)
        worst_ident = max(worst_ident, float(np.max(np.abs(phi(alpha, ps, 1.0) - prof))))
        worst_excess = max(worst_excess, float(np.max(prof)) - sharp_bound(alpha))
    ok = (
        worst_dom <= PROOF_SLACK
        and violations == 0
        and worst_ident <= ROUTE_TOL
        and worst_excess <= PROOF_SLACK
    )
    return ok, (
        f"domination slack = {worst_dom:.3e}, monotonicity violations = {violations}, "
        f"profile identity = {worst_ident:.3e}, profile excess = {worst_excess:.3e}"
    )


def _domination_slack(alpha, p, y, psi):
    """The largest |Psi| - phi(alpha, p, |y|) over one block of lemma rows,
    with psi = _param_form of the rows, each modulus np.hypot of the parts,
    screened by the squared moduli.

    The screen is within about 2**-44 of the exact slack on the lemma box,
    far inside the half-margin 2**-31 that _screened_max needs: there
    |Psi| <= phi <= 1 (proof steps 3 to 5), so each square-root
    modulus is within 2 ulps of np.hypot's, 2**-51; d phi / dt = s2 (4 -
    p^2) (p^2 + t (p - 2) (p - 6)) / 24 lies in [0, 2] (proof step 4), so
    the error in |y| moves phi by at most 2**-50; and _phi_raw rounds each
    of its two values within about 2**-46.
    """
    (pr, pi), (yr, yi) = psi, y
    approx = np.sqrt(pr * pr + pi * pi) - _phi_raw(alpha, p, np.sqrt(yr * yr + yi * yi))
    return _screened_max(
        approx,
        lambda k: np.hypot(pr[k], pi[k]) - _phi_raw(alpha[k], p[k], np.hypot(yr[k], yi[k])),
        lambda top: 2.0**-30,
    )


@_check("caratheodory-admissibility")
def check_caratheodory_admissibility():
    """Random atom moments pass the Toeplitz oracle; the moment round-trip holds.

    The 1,000 atom sets of _atom_rows, each of k atoms with k uniform on
    1..5, Dirichlet(1, ..., 1) weights and angles uniform on [0, 2 pi), run
    through the row kernels: one stacked Toeplitz eigen-solve, then
    rotation, inversion and the forward map on the rows that reach the
    round trip.  Every least eigenvalue must be at least -PSD_TOL, and every
    round-trip error at most ROUND_TRIP_TOL.
    """
    rng = np.random.default_rng(13)
    moments = _atom_moment_rows(*_atom_rows(rng, 1000), 3)
    min_eig = _toeplitz_min_eig_rows(moments)
    inadmissible = ~(min_eig >= -PSD_TOL)
    if inadmissible.any():
        first = min_eig[np.argmax(inadmissible)]
        return False, f"inadmissible atom measure found, min eig = {first:.3e}"
    worst_eig = float(min_eig.min())
    errors = _round_trip_errors(moments)
    worst_rt = float(errors.max(initial=0.0))
    round_trips = errors.size
    ok = worst_rt <= ROUND_TRIP_TOL and round_trips > 0
    return ok, (
        f"min eigenvalue = {worst_eig:.3e}, round trips = {round_trips}, "
        f"worst round-trip error = {worst_rt:.3e}"
    )


def _round_trip_errors(moments) -> np.ndarray:
    """The round-trip error of each (N, 3) moment row that reaches the trip.

    Each row is rotated so p1 is real, inverted to (y, zeta) and mapped
    forward again; the error is the largest |difference| of the three
    moments.  Rows with p1 >= 2 - ROUND_TRIP_P1_CUT or |y| >= 1 - ROUND_TRIP_Y_CUT
    are left out, in row order.
    """
    rotated, _ = _rotation_rows(moments)
    rotated = rotated[rotated[:, 0].real < 2.0 - ROUND_TRIP_P1_CUT]
    y, zeta, edge = _lemma_inverse_rows(*rotated.T)
    trip = ~edge & (np.hypot(*_parts(y)) < 1.0 - ROUND_TRIP_Y_CUT)
    m, p, y, zeta = rotated[trip], rotated[trip, 0].real, y[trip], zeta[trip]
    back = _lemma_forward_raw(p, _parts(y), _parts(zeta))
    gaps = [np.hypot(re - mk.real, im - mk.imag) for (re, im), mk in zip(back, m.T)]
    return np.max(gaps, axis=0, initial=0.0)


@_check("sweep-determinism")
def check_sweep_determinism():
    """The golden sweep CSV is byte-identical across runs and worker counts."""
    from . import cli

    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, workers in enumerate((1, 1, 2, 4)):
            path = os.path.join(tmp, f"sweep_{i}.csv")
            code = cli.main(
                [
                    "sweep",
                    "--alpha-start", "0",
                    "--alpha-end", "0.9",
                    "--steps", "9",
                    "--method", "phi",
                    "--seed", "7",
                    "--workers", str(workers),
                    "--out", path,
                ]
            )
            if code != 0:
                return False, f"sweep exited with {code}"
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    identical = all(b == blobs[0] for b in blobs)
    return identical, f"{len(blobs)} runs, {len(blobs[0])} bytes each, identical = {identical}"


def run_all(checks=None):
    """Run the checks, by default every check of CHECKS_BY_NAME in order,
    printing one pass/fail line per criterion."""
    results = []
    for fn in checks if checks is not None else CHECKS_BY_NAME.values():
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} [{res.seconds:.2f}s] {res.detail}")
    return results
