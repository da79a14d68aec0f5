"""The tolerance table: its place, its use, and the errors it is measured by.

Every e-notation number of the package lives in h2star/tolerances.py, and
every entry there is used by some module.  The five entries that absorb
floating-point rounding in a kernel are measured here: each ``_worst_*``
function returns the worst error of the float kernels on a fixed sample,
against the same kernels run on mpmath numbers at 50 digits (or against the
exact value 1), and the test asserts that the entry covers it.  The entry's
comment records that worst error and the ratio of the value to it.
"""
import ast
import math
import tokenize
from pathlib import Path

import mpmath
import numpy as np

from h2star import search, tolerances
from h2star.caratheodory import (
    _atom_moment_rows,
    _atom_rows,
    _lemma_forward_raw,
    _lemma_inverse_raw,
    _lemma_row_blocks,
    _rotation_rows,
    _toeplitz_min_eig_rows,
    _triple_rows,
)
from h2star.hankel import _moment_form_raw, _param_form_raw, _phi_raw, bound_profile, phi
from h2star.starlike import _closed_form_rows
from h2star.tolerances import (
    BOUND_MARGIN,
    DISK_TOL,
    PSD_TOL,
    ROUND_TRIP_P1_CUT,
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


def _err(computed, exact) -> np.ndarray:
    """|computed - exact| entry by entry, in mpmath."""
    return np.abs(_mp(computed) - exact)


def _worst(errors) -> float:
    return float(max(max(e) for e in errors))


def _worst_bound_margin() -> float:
    """Rounding that could lift a computed |Psi| past its computed bound.

    At 400 random points of the default lemma grid per alpha, built as
    maximize_param builds them: the errors of |Psi| and of phi(p, t), plus
    the excess of phi at the computed |y| over phi at t, for the row bound;
    the errors of |Psi| and of |A| + |B| for the line bound.
    """
    rng = np.random.default_rng(0)
    ps = np.linspace(0.0, 2.0, search.DEFAULT_GRID_P)
    ts = np.linspace(0.0, 1.0, search.DEFAULT_GRID_T)
    e_mu, e_nu = (np.exp(1j * np.arange(n) * (2 * math.pi / n))
                  for n in (search.DEFAULT_GRID_YARG, search.DEFAULT_GRID_ZARG))
    errors = []
    for a in (0.0, 0.25, 0.5, 0.75, 0.99):
        i, j, m, n = (rng.integers(0, x.size, 400) for x in (ps, ts, e_mu, e_nu))
        p, t, y, zeta = ps[i], ts[j], ts[j] * e_mu[m], e_nu[n]
        psi = np.abs(_param_form_raw(a, p, y, zeta))
        a0 = _param_form_raw(a, p, y, 0.0)
        line = np.abs(a0) + np.abs(_param_form_raw(a, p, y, 1.0) - a0)
        with mpmath.workdps(DIGITS):
            A, P, T, Y, Z = mpmath.mpf(a), _mp(p), _mp(t), _mp(y), _mp(zeta)
            a0_ex = _param_form_raw(A, P, Y, 0)
            line_ex = np.abs(a0_ex) + np.abs(_param_form_raw(A, P, Y, 1) - a0_ex)
            row_ex = _phi_raw(A, P, T)
            lift = np.frompyfunc(lambda x: max(x, 0), 1, 1)(_phi_raw(A, P, np.abs(Y)) - row_ex)
            e_psi = _err(psi, np.abs(_param_form_raw(A, P, Y, Z)))
            errors += [e_psi + _err(_phi_raw(a, p, t), row_ex) + lift,
                       e_psi + _err(line, line_ex)]
    return _worst(errors)


def test_bound_margin_covers_its_rounding():
    assert BOUND_MARGIN >= _worst_bound_margin()


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


def _worst_route() -> float:
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
        exact = _moment_form_raw(_mp(alpha), _mp(p1), _mp(p2), _mp(p3))
        scale = np.frompyfunc(lambda x: max(1, abs(x)), 1, 1)(exact)
        errors.append((_err(_moment_form_raw(alpha, p1, p2, p3), exact)
                       + _err(a2 * a4 - a3 * a3, exact)) / scale)
        alpha, p, y, zeta = next(_lemma_row_blocks(rng, 1024))
        exact = _param_form_raw(_mp(alpha), _mp(p), _mp(y), _mp(zeta))
        errors.append(_err(_param_form_raw(alpha, p, y, zeta), exact)
                      + _err(_moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta)), exact))
        ps = np.linspace(0.0, 2.0, 101)
        for a in np.linspace(0.0, 0.95, 20):
            exact = _phi_raw(mpmath.mpf(a), _mp(ps), 1)
            errors.append(_err(phi(a, ps, 1.0), exact) + _err(bound_profile(a, ps), exact))
    return _worst(errors)


def test_route_tol_covers_its_rounding():
    assert ROUTE_TOL >= _worst_route()
