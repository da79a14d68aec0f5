"""The tolerance table: its place, its use, and the errors it is measured by.

Every e-notation number of the package lives in h2star/tolerances.py, and
every entry there is used by some module; no module squares with ``** 2``.
The six entries that absorb floating-point rounding in a kernel or a check,
and five check windows, ATTAINMENT_TOL, MONOTONE_DROP_TOL, GRID_CELL_SLACK,
BOUND_GAP_TOL and ROUND_TRIP_TOL, are measured here: each
``_worst_*`` function returns the worst error of the float kernels on a
fixed sample, against the same kernels run on mpmath numbers at 50 digits
(or against the exact value 1), and the test asserts that the entry covers
it.  The entry's comment records that worst error and the ratio of the
value to it.  BOUND_MARGIN is relative to s2 = (1 - alpha)^2, as the
searches apply it, so its errors are measured relative to s2.
"""
import ast
import math
import tokenize
from fractions import Fraction
from itertools import pairwise
from pathlib import Path

import mpmath
import numpy as np
import pytest

from h2star import search, tolerances
from h2star.caratheodory import (
    _atom_moment_rows,
    _atom_rows,
    _lemma_forward_raw,
    _lemma_inverse_raw,
    _lemma_inverse_rows,
    _lemma_row_blocks,
    _parts,
    _rotation_rows,
    _toeplitz_min_eig_rows,
    _triple_rows,
)
from h2star.checks import ALPHA_GRID, ALPHA_SPOT
from h2star.hankel import (
    HankelSpec,
    _moment_form_raw,
    _param_form,
    _phi_raw,
    _zeta_coefficient,
    _zeta_free_terms,
    bound_profile,
    det2,
    hankel_det,
    phi,
    sharp_bound,
)
from h2star.search import _herglotz_outcomes, maximize_param, maximize_phi
from h2star.starlike import _closed_form_rows, extremal_coeffs
from reference import lemma_axes
from h2star.tolerances import (
    ATTAINMENT_TOL,
    BOUND_GAP_TOL,
    BOUND_MARGIN,
    DISK_TOL,
    GRID_CELL_SLACK,
    MONOTONE_DROP_TOL,
    PROOF_SLACK,
    PSD_TOL,
    ROUND_TRIP_P1_CUT,
    ROUND_TRIP_TOL,
    ROUND_TRIP_Y_CUT,
    ROUTE_TOL,
    WEIGHT_SUM_TOL,
    Y_BOUNDARY_TOL,
)

PACKAGE = Path(tolerances.__file__).parent
DIGITS = 50


def _tokens(path):
    with open(path, "rb") as fh:
        return list(tokenize.tokenize(fh.readline))


def _modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"]


def test_only_the_table_writes_e_notation():
    found = [f"{path.name}:{tok.start[0]}: {tok.string}"
             for path in _modules() for tok in _tokens(path)
             if tok.type == tokenize.NUMBER and "e" in tok.string.lower()
             and not tok.string.lower().startswith("0x")]
    assert found == []


def test_no_module_squares_by_power():
    # A Python float's ** 2 is libm's pow, which is not always correctly
    # rounded, and numpy's is a product, so a square written as a power would
    # round otherwise for a scalar than for the row kernels' arrays.
    found = [f"{path.name}:{op.start[0]}: {op.line.strip()}"
             for path in sorted(PACKAGE.glob("*.py")) for op, exp in pairwise(_tokens(path))
             if op.string == "**" and exp.type == tokenize.NUMBER
             and ast.literal_eval(exp.string) == 2]
    assert found == []


def test_every_entry_is_used():
    # a name read in code, not only imported
    entries = {name for name in vars(tolerances) if name.isupper()}
    used = {node.id for path in _modules() for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name)}
    assert sorted(entries - used) == []


def _mp(values) -> np.ndarray:
    """Float or complex values as an object array of the same mpmath numbers."""
    values = np.asarray(values)
    kind = mpmath.mpc if np.iscomplexobj(values) else mpmath.mpf
    return np.frompyfunc(kind, 1, 1)(values)


def _mp_pair(pair):
    """A (real, imaginary) pair of floats or float arrays as mpmath numbers."""
    return _mp(pair[0]), _mp(pair[1])


# The parts of mpmath numbers, and the modulus of parts, entry by entry.
_mp_parts = np.frompyfunc(lambda z: (mpmath.re(z), mpmath.im(z)), 1, 2)
_mod = np.frompyfunc(mpmath.hypot, 2, 1)


def _err(computed, exact) -> np.ndarray:
    """|computed - exact| entry by entry, in mpmath."""
    return np.abs(_mp(computed) - exact)


def _err_pair(computed, exact) -> np.ndarray:
    """|computed - exact| of (real, imaginary) pairs, entry by entry, in mpmath."""
    return _mod(_mp(computed[0]) - exact[0], _mp(computed[1]) - exact[1])


def _worst(errors) -> float:
    return float(max(max(e) for e in errors))


# The alphas of proof-step-properties' profile, B(p) = phi(p, 1) on 101 ps.
PROFILE_ALPHAS = np.linspace(0.0, 0.95, 20)
PROFILE_PS = np.linspace(0.0, 2.0, 101)


@pytest.fixture(scope="module")
def exact_profiles():
    """phi(p, 1) in 50 digits at PROFILE_PS, for each of PROFILE_ALPHAS: the
    reference of both ROUTE_TOL's and PROOF_SLACK's profile errors."""
    with mpmath.workdps(DIGITS):
        return [_phi_raw(mpmath.mpf(a), _mp(PROFILE_PS), 1) for a in PROFILE_ALPHAS]


def _worst_bound_margin() -> float:
    """Rounding that could lift a computed |Psi| past its computed bound, relative to s2.

    At 400 random points of the default lemma grid per alpha, built as
    maximize_param builds them: the errors of |Psi| and of phi(p, t), plus
    the excess of phi at the computed |y| over phi at t, for the row bound;
    the errors of |Psi| and of |A| + s2 |coef| / 6, with A from the form's
    zeta-free terms and the closed-form zeta coefficient, for the line bound.
    Each is divided by the exact s2.
    """
    rng = np.random.default_rng(0)
    ps, ts, e_mu, e_nu = lemma_axes()
    errors = []
    for a in (0.0, 0.25, 0.5, 0.75, 0.99):
        i, j, m, n = (rng.integers(0, x.size, 400) for x in (ps, ts, e_mu, e_nu))
        p, t, y, zeta = ps[i], ts[j], _parts(ts[j] * e_mu[m]), _parts(e_nu[n])
        psi = np.hypot(*_param_form(a, p, y, zeta))
        s2 = (1.0 - a) ** 2
        line = (np.hypot(*(s2 * x for x in _zeta_free_terms(a, p, y)))
                + s2 * np.abs(_zeta_coefficient(p, y)) / 6.0)
        with mpmath.workdps(DIGITS):
            A, P, T, Y, Z = mpmath.mpf(a), _mp(p), _mp(t), _mp_pair(y), _mp_pair(zeta)
            S2 = (1 - A) ** 2
            line_ex = (_mod(*(S2 * x for x in _zeta_free_terms(A, P, Y)))
                       + S2 * np.abs(_zeta_coefficient(P, Y)) / 6)
            row_ex = _phi_raw(A, P, T)
            lift = np.frompyfunc(lambda x: max(x, 0), 1, 1)(_phi_raw(A, P, _mod(*Y)) - row_ex)
            e_psi = _err(psi, _mod(*_param_form(A, P, Y, Z)))
            errors += [(e_psi + _err(_phi_raw(a, p, t), row_ex) + lift) / (1 - A) ** 2,
                       (e_psi + _err(line, line_ex)) / (1 - A) ** 2]
    return _worst(errors)


def test_bound_margin_covers_its_rounding():
    assert BOUND_MARGIN >= _worst_bound_margin()


def _worst_row_edge_excess() -> float:
    """Rounding that could lift a computed phi(p, t) past its row's computed
    phi(p, 1), relative to s2.

    Both grid searches drop a p row whose phi(p, 1) is below their floor
    less BOUND_MARGIN s2; phi is nondecreasing in t (proof step 4), so the
    exact excess is <= 0.  On every point of the (p, t) grids the searches
    build in the checks, the benchmark, the golden corpus and the tests, at
    the checks' alphas and six more, the excess of the computed phi(p, t)
    over its row's computed phi(p, 1), over the exact s2, in 50 digits, and 0
    where there is none.
    """
    errors = [[0]]
    with mpmath.workdps(DIGITS):
        for grid_p, grid_t in ((201, 101), (41, 21), (1001, 11), (7, 1001)):
            ps = np.linspace(0.0, 2.0, grid_p)[:, None]
            ts = np.linspace(0.0, 1.0, grid_t)[None, :]
            for a in (*ALPHA_GRID, 0.123, 0.333, 0.99, 0.999, 0.999999, 0.9999999):
                vals = _phi_raw(a, ps, ts)
                edge = np.broadcast_to(_phi_raw(a, ps, ts[:, -1:]), vals.shape)
                over = vals > edge
                if over.any():
                    errors.append((_mp(vals[over]) - _mp(edge[over]))
                                  / (1 - mpmath.mpf(a)) ** 2)
    return _worst(errors)


def test_bound_margin_covers_the_row_edge():
    assert BOUND_MARGIN >= _worst_row_edge_excess()


def _worst_weight_sum() -> float:
    """|sum - 1| of 100,000 rows of atom weights normalized in floats, summed
    left to right as the atom rule sums them; the exact sum is 1."""
    weights, _ = _atom_rows(np.random.default_rng(0), 100_000)
    total = np.zeros(weights.shape[0])
    for column in weights.T:
        total = total + column
    return float(np.abs(total - 1.0).max())


def test_weight_sum_tol_covers_its_rounding():
    assert WEIGHT_SUM_TOL >= _worst_weight_sum()


def _worst_disk() -> float:
    """|z| - 1 of the unit-circle points that reach the lemma box: the search
    grids' e^{i 2 pi k / n}, and y / |y| as lemma_inverse scales a recovered
    |y| past 1 back onto the circle.  The exact modulus is 1."""
    circles = [np.exp(1j * np.arange(n) * (2 * math.pi / n)) for n in (16, 64, 1024)]
    rng = np.random.default_rng(0)
    y = np.exp(2j * math.pi * rng.random(100_000)) * (1.0 + PSD_TOL * rng.random(100_000))
    return float(max((np.abs(z) - 1.0).max() for z in (*circles, y / np.abs(y))))


def test_disk_tol_covers_its_rounding():
    assert DISK_TOL >= _worst_disk()


def _worst_psd() -> float:
    """The errors PSD_TOL absorbs, on 200 atom sets of the admissibility check.

    The least Toeplitz eigenvalue of the float moments, against that of the
    measure's exact moments; and the changes of p2 and p3 that bring the
    recovered y and zeta onto the circle, on the rows that lemma_inverse
    inverts in the round trip, against those of the exactly rotated
    moments.  With two atoms |y| is exactly 1, so the change of p2 is
    exactly 0 and zeta is not recovered.
    """
    weights, angles = _atom_rows(np.random.default_rng(13), 200)
    moments = _atom_moment_rows(weights, angles, 3)
    rotated, _ = _rotation_rows(moments)
    with np.errstate(divide="ignore", invalid="ignore"):
        y, _, p2_shift, p3_shift = _lemma_inverse_raw(rotated[:, 0].real, *rotated[:, 1:].T)
    atoms = np.count_nonzero(weights, axis=1)
    keep = rotated[:, 0].real < 2.0 - ROUND_TRIP_P1_CUT
    three = keep & (atoms >= 3)
    off_edge = np.abs(y[three]) < 1.0 - Y_BOUNDARY_TOL
    with mpmath.workdps(DIGITS):
        w, t = _mp(weights), _mp(angles)
        exact = np.array([[2 * mpmath.fsum(wk * mpmath.expj(n * tk) for wk, tk in zip(*row))
                           for n in (1, 2, 3)] for row in zip(w, t)], dtype=object)
        eig = []
        for row in exact:
            c = [mpmath.mpc(2), *row]
            toeplitz = mpmath.matrix([[c[j - k] if j >= k else mpmath.conj(c[k - j])
                                       for k in range(4)] for j in range(4)])
            eig.append(min(mpmath.eighe(toeplitz, eigvals_only=True)))
        turn = np.frompyfunc(lambda p1: mpmath.expj(-mpmath.arg(p1)), 1, 1)(exact[three, 0])
        p1, p2, p3 = (exact[three, n] * turn ** (n + 1) for n in range(3))
        _, _, p2_exact, p3_exact = _lemma_inverse_raw(np.frompyfunc(mpmath.re, 1, 1)(p1), p2, p3)
        return _worst([
            _err(_toeplitz_min_eig_rows(moments), np.array(eig, dtype=object)),
            _err(p2_shift[three], p2_exact),
            _err(p3_shift[three][off_edge], p3_exact[off_edge]),
            np.abs(p2_shift[keep & (atoms == 2)]),
        ])


def test_psd_tol_covers_its_rounding():
    assert PSD_TOL >= _worst_psd()


def _worst_route(exact_profiles) -> float:
    """The sum of the errors of two routes to one value, as the checks compare them.

    The moment form and a2 a4 - a3^2 of the closed forms, relative to
    max(1, |value|), on 1,000 rows of the algebra-reconciliation sampler;
    the five-term form and the moment form of the substituted moments on a
    block of 1,024 lemma rows; and phi(p, 1) and the profile B(p) at the
    proof-step alphas.  Each route is equal to the others as a polynomial,
    so one 50-digit value is the reference of both.
    """
    rng = np.random.default_rng(11)
    alpha, p1, p2, p3 = _triple_rows(rng, 1000)
    a2, a3, a4 = _closed_form_rows(alpha, p1, p2, p3)
    errors = []
    with mpmath.workdps(DIGITS):
        exact = _moment_form_raw(_mp(alpha), *map(_mp_pair, (p1, p2, p3)))
        scale = np.frompyfunc(lambda x: max(1, x), 1, 1)(_mod(*exact))
        errors.append((_err_pair(_moment_form_raw(alpha, p1, p2, p3), exact)
                       + _err_pair(det2(a2, a4, a3, a3), exact)) / scale)
        alpha, p, y, zeta = next(_lemma_row_blocks(rng, 1024))
        exact = _param_form(_mp(alpha), _mp(p), _mp_pair(y), _mp_pair(zeta))
        errors.append(_err_pair(_param_form(alpha, p, y, zeta), exact)
                      + _err_pair(_moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta)), exact))
        for a, exact in zip(PROFILE_ALPHAS, exact_profiles):
            errors.append(_err(phi(a, PROFILE_PS, 1.0), exact)
                          + _err(bound_profile(a, PROFILE_PS), exact))
    return _worst(errors)


def test_route_tol_covers_its_rounding(exact_profiles):
    assert ROUTE_TOL >= _worst_route(exact_profiles)


def _worst_proof_slack(exact_profiles) -> float:
    """The errors of the two inequalities of proof-step-properties, each <= 0 exactly.

    |Psi| - phi(p, |y|), computed as the check computes it, on the first
    4,096 of its draws; and max B(p) - (1 - alpha)^2 over its 101 values of
    p at each of its 20 alphas.  phi(p, 1) is B(p) as a polynomial, so it is
    the profile's reference.
    """
    errors = []
    with mpmath.workdps(DIGITS):
        for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(12), 4096):
            slack = np.hypot(*_param_form(alpha, p, y, zeta)) - _phi_raw(alpha, p, np.hypot(*y))
            A, P, Y = _mp(alpha), _mp(p), _mp_pair(y)
            errors.append(_err(slack, _mod(*_param_form(A, P, Y, _mp_pair(zeta)))
                               - _phi_raw(A, P, _mod(*Y))))
        for a, exact in zip(PROFILE_ALPHAS, exact_profiles):
            excess = float(np.max(bound_profile(a, PROFILE_PS))) - sharp_bound(a)
            errors.append(_err([excess], max(exact) - (1 - mpmath.mpf(a)) ** 2))
    return _worst(errors)


def test_proof_slack_covers_its_rounding(exact_profiles):
    assert PROOF_SLACK >= _worst_proof_slack(exact_profiles)


def _worst_attainment() -> float:
    """The deviations sharpness-attainment takes its worst of, as errors.

    At each alpha of ALPHA_GRID: the extremal function's a2 and a4, exactly
    0; its a3 against 1 - alpha, plus the error of the check's float
    1 - alpha; and hankel_det against -(1 - alpha)^2, plus the error of
    sharp_bound, which the check compares both det and |det| with.
    """
    errors = []
    with mpmath.workdps(DIGITS):
        for a in ALPHA_GRID:
            f = extremal_coeffs(a, 8)
            det = hankel_det(f, HankelSpec(q=2, n=2))
            exact = 1 - mpmath.mpf(a)
            target = _err([sharp_bound(a)], exact**2)
            errors += [_err([f.coeff(2), f.coeff(4)], 0),
                       _err([f.coeff(3)], exact) + _err([1.0 - a], exact),
                       _err([det], -exact**2) + target]
    return _worst(errors)


def test_attainment_tol_covers_its_rounding():
    assert ATTAINMENT_TOL >= _worst_attainment()


def _worst_grid_cell() -> float:
    """How far rounding puts the lemma grid's neighbours of p = 0 and |y| = 1
    past one grid cell, in the quantities full-parameter-search compares.

    Exact, in Fractions: the excess of the computed ps[1] over
    2 / (grid_p - 1), and of 1 - |y| at |y| = ts[-2] over 1 / (grid_t - 1)
    at each of the e_mu, with y built as maximize_param builds it and |y|
    taken as the check takes it; each plus the error of the check's float
    cell.
    """
    ps, ts, e_mu, _ = lemma_axes()
    p_cell = Fraction(2, search.DEFAULT_GRID_P - 1)
    t_cell = Fraction(1, search.DEFAULT_GRID_T - 1)
    p_excess = Fraction(float(ps[1])) - p_cell + abs(Fraction(2.0 / (ps.size - 1)) - p_cell)
    t_excess = max(Fraction(abs(1.0 - abs(complex(ts[-2] * e)))) for e in e_mu) - t_cell
    return float(max(p_excess, t_excess + abs(Fraction(1.0 / (ts.size - 1)) - t_cell)))


def test_grid_cell_slack_covers_its_rounding():
    assert GRID_CELL_SLACK >= _worst_grid_cell()


def _worst_monotone_drop() -> float:
    """The error of phi's drops along t on proof-step-properties' monotonicity grids.

    The exact drop phi(p, t_j) - phi(p, t_{j+1}) is <= 0 (proof step 4), so
    a computed drop is positive only by this error.  At 250 random drops of
    each of the 20 grids of 101 x 101 points, computed as monotonicity_scan
    computes them, against 50-digit mpmath.
    """
    rng = np.random.default_rng(0)
    ps = np.linspace(0.0, 2.0, 101)
    ts = np.linspace(0.0, 1.0, 101)
    errors = []
    with mpmath.workdps(DIGITS):
        for a in np.linspace(0.0, 0.95, 20):
            vals = _phi_raw(a, ps[:, None], ts[None, :])
            i, j = rng.integers(0, 101, 250), rng.integers(0, 100, 250)
            A, P = mpmath.mpf(a), _mp(ps[i])
            exact = _phi_raw(A, P, _mp(ts[j])) - _phi_raw(A, P, _mp(ts[j + 1]))
            errors.append(_err(vals[i, j] - vals[i, j + 1], exact))
    return _worst(errors)


def test_monotone_drop_tol_covers_its_rounding():
    assert MONOTONE_DROP_TOL >= _worst_monotone_drop()


def _onto_disk(z):
    """z, or z / |z| where |z| > 1, entry by entry."""
    return np.frompyfunc(lambda v: v / abs(v) if abs(v) > 1 else v, 1, 1)(z)


def _worst_bound_gap() -> float:
    """How far rounding puts a search value past the sharp bound, in the checks' searches.

    maximize_phi at ALPHA_GRID (prior-result-anchors runs its alphas 0 and
    1/2 again), maximize_param and the two-atom Herglotz batch at
    ALPHA_SPOT, as the checks run them.  At each, the error of the value
    against the 50-digit value of its form at the reported argmax, plus the
    error of sharp_bound against (1 - alpha)^2.  The exact value there is at
    most the bound: y and zeta are taken onto the closed disk, and the atom
    weights normalized, in 50 digits.  The phi search's gap counts both
    ways, so its part adds the exact |phi - bound| at the argmax, 0 at p = 0.
    """
    def past(a, outcome, exact):
        return (_err([outcome.value], exact)
                + _err([sharp_bound(a)], (1 - mpmath.mpf(a)) ** 2))

    errors = []
    with mpmath.workdps(DIGITS):
        for a in ALPHA_GRID:
            outcome = maximize_phi(a)
            exact = _phi_raw(mpmath.mpf(a), *(mpmath.mpf(outcome.argmax[k]) for k in "pt"))
            errors.append(past(a, outcome, exact) + abs(exact - (1 - mpmath.mpf(a)) ** 2))
        for a in ALPHA_SPOT:
            outcome = maximize_param(a)
            y, zeta = _onto_disk(_mp([outcome.argmax["y"], outcome.argmax["zeta"]]))
            p = mpmath.mpf(outcome.argmax["p"])
            psi = _param_form(mpmath.mpf(a), p, _parts(y), _parts(zeta))
            errors.append(past(a, outcome, mpmath.hypot(*psi)))
        outcomes = _herglotz_outcomes(ALPHA_SPOT, atom_count=2, restarts=100, seed=20240817)
        for a, outcome in zip(ALPHA_SPOT, outcomes):
            w, t = _mp(outcome.argmax["weights"]), _mp(outcome.argmax["angles"])
            w = w / mpmath.fsum(w)
            p1, p2, p3 = (2 * mpmath.fsum(w * np.frompyfunc(mpmath.expj, 1, 1)(n * t))
                          for n in (1, 2, 3))
            form = _moment_form_raw(mpmath.mpf(a), *(_parts(x) for x in (p1, p2, p3)))
            errors.append(past(a, outcome, mpmath.hypot(*form)))
    return _worst(errors)


def test_bound_gap_tol_covers_its_rounding():
    assert BOUND_GAP_TOL >= _worst_bound_gap()


def _worst_round_trip() -> float:
    """The round-trip errors of caratheodory-admissibility, against 50 digits.

    Its 1,000 atom sets at seed 13, rotated, cut and inverted as the check
    does it.  On each row that makes the trip, the error of the float
    moments -> (y, zeta) -> moments against the same trip in 50 digits,
    with y and zeta taken onto the closed disk as lemma_inverse takes them,
    plus how far that exact trip moves the moments: 0 where neither is taken.
    """
    moments = _atom_moment_rows(*_atom_rows(np.random.default_rng(13), 1000), 3)
    rotated, _ = _rotation_rows(moments)
    rotated = rotated[rotated[:, 0].real < 2.0 - ROUND_TRIP_P1_CUT]
    y, zeta, edge = _lemma_inverse_rows(*rotated.T)
    trip = ~edge & (np.hypot(*_parts(y)) < 1.0 - ROUND_TRIP_Y_CUT)
    m, p = rotated[trip], rotated[trip, 0].real
    back = _lemma_forward_raw(p, _parts(y[trip]), _parts(zeta[trip]))
    with mpmath.workdps(DIGITS):
        P, P2, P3 = _mp(p), _mp(m[:, 1]), _mp(m[:, 2])
        Y, Z, _, _ = _lemma_inverse_raw(P, P2, P3)
        exact = _lemma_forward_raw(P, _mp_parts(_onto_disk(Y)), _mp_parts(_onto_disk(Z)))
        return _worst([_err_pair(b, e) + _mod(*(x - y for x, y in zip(e, _mp_parts(moment))))
                       for b, e, moment in zip(back, exact, (P, P2, P3))])


def test_round_trip_tol_covers_its_rounding():
    assert ROUND_TRIP_TOL >= _worst_round_trip()
