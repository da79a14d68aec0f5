import functools
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2star import (
    Alpha,
    DomainError,
    HankelSpec,
    HerglotzAtoms,
    LemmaPoint,
    coeffs_from_moments,
    functional_param_form,
    hankel_det,
    maximize_herglotz,
    maximize_param,
    maximize_phi,
    monotonicity_scan,
    moments_from_atoms,
    phi,
    sharp_bound,
    sweep_alpha,
)
from h2star import cli, hankel, search
from h2star.caratheodory import _parts
from h2star.search import SearchOutcome, run_method
from h2star.tolerances import BOUND_MARGIN, TIE_TOL
import reference
from reference import bits, first_tied, join, lemma_axes, refine_atoms, scalar_h2
from test_golden import golden_corpus

EXTREMAL_ATOMS = HerglotzAtoms((0.5, 0.5), (0.0, math.pi))

SMALL_PARAM_GRIDS = dict(grid_p=41, grid_ymod=21, grid_yarg=16, grid_zarg=8)


def _calls(monkeypatch, owner, name):
    """Make owner.name record each call's arguments and result, calling through."""
    calls, real = [], getattr(owner, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, spy)
    return calls


def _zeta_points(calls):
    """The form points of the recorded _param_form_raw calls on whole zeta axes."""
    return sum(out.size for args, out in calls if np.ndim(args[3]))


def _modulus(z):
    """|z| as the lemma search takes it: np.hypot of the parts."""
    return np.hypot(*_parts(z))


class TestMaximizePhi:
    def test_alpha_half(self):
        outcome = maximize_phi(Alpha(0.5), 201, 101)
        assert outcome.value == 0.25
        assert outcome.argmax == {"p": 0.0, "t": 1.0}

    def test_alpha_zero_tie_break(self):
        # At alpha = 0 the whole t = 1 column ties at the maximum; p = 0 comes first.
        outcome = maximize_phi(Alpha(0.0), 201, 101)
        assert outcome.value == 1.0
        assert outcome.argmax == {"p": 0.0, "t": 1.0}

    def test_degenerate_grid(self):
        with pytest.raises(DomainError):
            maximize_phi(Alpha(0.1), grid_p=1)

    def test_attainment_on_alpha_grid(self):
        for k in range(19):
            alpha = Alpha(0.05 * k)
            outcome = maximize_phi(alpha)
            assert abs(outcome.value - sharp_bound(alpha)) <= 1e-9

    def test_value_reevaluates_at_argmax(self):
        outcome = maximize_phi(Alpha(0.3), 51, 51)
        again = phi(Alpha(0.3), outcome.argmax["p"], outcome.argmax["t"])
        assert abs(outcome.value - again) <= 1e-12

    def test_workers_do_not_change_record(self):
        records = {maximize_phi(Alpha(0.2), workers=w).to_json() for w in (1, 2, 5)}
        assert len(records) == 1

    def test_evaluations_counted(self):
        outcome = maximize_phi(Alpha(0.2), 11, 7)
        assert outcome.evaluations == 11 * 7

    @pytest.mark.parametrize("grid", [(2, 2), (2, 500), (500, 2), (3, 7), (201, 101),
                                      (500, 500)])
    def test_grid_holds_the_maximum(self, grid):
        # (p, t) = (0, 1) lies on every grid and phi is (1 - alpha)^2 there,
        # its maximum over the box, so that point is the reported argmax.
        for a in [*np.linspace(0.0, 0.999, 200).tolist(), 0.5, 1 / 3, 0.9]:
            outcome = maximize_phi(a, *grid)
            assert outcome.argmax == {"p": 0.0, "t": 1.0}
            assert outcome.value == sharp_bound(a)
            assert outcome.evaluations == grid[0] * grid[1]


def _checked_grid(alpha, grid_p, grid_t):
    """The (p, t) grid axes and the checked hankel.phi on the whole grid."""
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    return ps, ts, phi(alpha, ps[:, None], ts[None, :])


def _maximize_phi_checked(alpha, grid_p, grid_t):
    """maximize_phi with its grid evaluated through the checked hankel.phi."""
    ps, ts, vals = _checked_grid(alpha, grid_p, grid_t)
    pi, ti = first_tied(vals, vals.max())
    return SearchOutcome(
        value=float(vals[pi, ti]),
        argmax={"p": float(ps[pi]), "t": float(ts[ti])},
        method="phi",
        grid_spec={"grid_p": grid_p, "grid_t": grid_t, "seed": None},
        evaluations=grid_p * grid_t,
    )


def _monotonicity_scan_checked(alpha, grid_p, grid_t):
    """monotonicity_scan as it was when it evaluated the checked hankel.phi."""
    vals = _checked_grid(alpha, grid_p, grid_t)[2]
    drops = vals[:, :-1] - vals[:, 1:]
    return int(np.sum(drops > 1e-12)), float(max(float(drops.max()), 0.0))


class TestUncheckedPhiKernel:
    """maximize_phi, maximize_param and monotonicity_scan evaluate
    hankel._phi_raw on their own points; the results of maximize_phi and
    monotonicity_scan must be those of the checked export, bit for bit."""

    # 40 equispaced alphas from 0, the sign change of c at 0.5 and its
    # neighbours, 1/3, an alpha near 1 and 6 random ones.
    ALPHAS = [*np.linspace(0.0, 0.99, 40).tolist(), 0.5, 0.45, 0.55, 1 / 3, 0.999999,
              *np.random.default_rng(15).random(6).tolist()]

    @pytest.mark.parametrize("grid", [(201, 101), (7, 5), (2, 2), (1001, 11), (7, 1001)])
    def test_maximize_phi_records(self, grid):
        for a in self.ALPHAS:
            assert maximize_phi(a, *grid).to_json() == _maximize_phi_checked(a, *grid).to_json()

    @pytest.mark.parametrize("grid", [(201, 101), (101, 101), (7, 5), (3, 3)])
    def test_monotonicity_scan(self, grid):
        for a in self.ALPHAS:
            assert monotonicity_scan(a, *grid) == _monotonicity_scan_checked(a, *grid)

    def test_searches_skip_the_checked_export(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hankel.phi called")

        monkeypatch.setattr(hankel, "phi", refuse)
        maximize_phi(0.3, 7, 5)
        maximize_param(0.3, 7, 5, 4, 4)
        monotonicity_scan(0.3, 7, 5)


class TestPhiRowPruning:
    """maximize_phi evaluates the t axis only on the p rows whose t = 1 value
    reaches m - (TIE_TOL + BOUND_MARGIN) m, m = phi(0, 1); phi is nondecreasing in t."""

    @pytest.mark.parametrize("a, points", [(0.25, [201, 101]), (0.0, [201, 20_301])])
    def test_points_evaluated(self, monkeypatch, a, points):
        # At alpha = 0.25 only the row p = 0 reaches the floor; at alpha = 0
        # the profile phi(p, 1) is flat and every row is kept.
        calls = _calls(monkeypatch, search, "_phi_raw")
        outcome = maximize_phi(a)
        assert [out.size for _, out in calls] == points
        assert outcome.evaluations == 201 * 101

    # Stand-ins for _phi_raw, nondecreasing in t, whose exact maximum lies at
    # p = 2, t = 1, with the p row of the first tied point.  In "flat" every
    # grid point ties, so row 0 must win at t = 0.  In "pruned" the rows
    # p = 0 and p = 2 tie at t = 1 and the rows between are pruned.  In
    # "later" the row p = 2 lies 6 TIE_TOL above row 0 and wins.
    KERNELS = {
        "flat": (lambda alpha_value, p, t: 1.0 + 0.4 * TIE_TOL * p * t, "first"),
        "pruned": (lambda alpha_value, p, t: t * (1.0 + 0.4 * TIE_TOL * p
                                                  - 0.25 * p * (2.0 - p)), "first"),
        "later": (lambda alpha_value, p, t: t * (1.0 + 3.0 * TIE_TOL * p
                                                 - 0.25 * p * (2.0 - p)), "last"),
    }

    @pytest.mark.parametrize("kernel, row", KERNELS.values(), ids=KERNELS.keys())
    @pytest.mark.parametrize("grid", [(201, 101), (1001, 11), (7, 1001)])
    def test_stand_in_kernels_against_the_whole_grid(self, monkeypatch, kernel, row, grid):
        ps = np.linspace(0.0, 2.0, grid[0])
        ts = np.linspace(0.0, 1.0, grid[1])
        vals = kernel(0.3, ps[:, None], ts[None, :]) * np.ones(grid)
        assert np.unravel_index(np.argmax(vals), grid)[0] == grid[0] - 1
        pi, ti = first_tied(vals, vals.max())
        assert pi == {"first": 0, "last": grid[0] - 1}[row]
        monkeypatch.setattr(search, "_phi_raw", kernel)
        outcome = maximize_phi(0.3, *grid)
        assert outcome.argmax == {"p": ps[pi], "t": ts[ti]}
        assert outcome.value == vals[pi, ti]


class TestMaximizeParam:
    def test_upper_bound_any_resolution(self):
        for a in (0.0, 0.3, 0.7):
            outcome = maximize_param(Alpha(a), grid_p=5, grid_ymod=2, grid_yarg=3, grid_zarg=2)
            assert outcome.value <= sharp_bound(Alpha(a)) + 1e-9

    def test_sharpness_point_on_grid(self):
        # p = 0, |y| = 1, arg y = 0 lies on every grid, so the bound is attained
        for a in (0.0, 0.25, 0.6):
            outcome = maximize_param(Alpha(a), **SMALL_PARAM_GRIDS)
            assert outcome.value == pytest.approx(sharp_bound(Alpha(a)), abs=1e-12)
            assert outcome.argmax["p"] == 0.0
            assert abs(outcome.argmax["y"]) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_exact_and_tie_broken(self):
        outcome = maximize_param(Alpha(0.0), **SMALL_PARAM_GRIDS)
        assert outcome.value == 1.0
        assert outcome.argmax["p"] == 0.0

    def test_value_reevaluates_at_argmax(self):
        outcome = maximize_param(Alpha(0.45), **SMALL_PARAM_GRIDS)
        pt = LemmaPoint(outcome.argmax["p"], outcome.argmax["y"], outcome.argmax["zeta"])
        assert abs(outcome.value - abs(functional_param_form(Alpha(0.45), pt))) <= 1e-12

    def test_workers_do_not_change_record(self):
        records = {
            maximize_param(Alpha(0.15), workers=w, **SMALL_PARAM_GRIDS).to_json()
            for w in (1, 3)
        }
        assert len(records) == 1

    def test_degenerate_grid(self):
        with pytest.raises(DomainError):
            maximize_param(Alpha(0.1), grid_ymod=1)


# alpha = 1 - 10^-k, k in [0, 8], and uniform alphas in [0, 1).
_ALPHA_RANGE = st.one_of(st.floats(0.0, 8.0).map(lambda k: 1.0 - 10.0**-k),
                         st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=_ALPHA_RANGE)
def test_grid_searches_reach_the_bound_at_every_alpha(alpha):
    # The tie window is relative, so it stays within the bound however small
    # (1 - alpha)^2 is, and both grids report their point p = 0, |y| = 1.
    bound = (1.0 - alpha) ** 2
    by_phi = maximize_phi(alpha, 5, 3)
    by_lemma = maximize_param(alpha, 5, 3, 4, 4)
    for outcome in (by_phi, by_lemma):
        assert abs(outcome.value - bound) <= 1e-12 * bound, outcome
        assert outcome.argmax["p"] == 0.0
    assert by_phi.argmax["t"] == 1.0
    assert abs(by_lemma.argmax["y"]) == pytest.approx(1.0, abs=1e-12)


def test_herglotz_search_reaches_the_bound_near_one():
    # One batch gives maximize_herglotz's record at each alpha, bit for bit
    # (TestHerglotzSweepBatch).
    alphas = [1.0 - 10.0**-k for k in range(9)]
    for alpha, outcome in zip(alphas, search._herglotz_outcomes(alphas)):
        bound = (1.0 - alpha) ** 2
        assert abs(outcome.value - bound) <= 1e-12 * bound, alpha


class TestReferenceTieBreak:
    """Reported grid argmax against a brute-force oracle over the whole grid.

    The oracle evaluates every grid point in one broadcast call and takes the
    first index, in C order, tied with the maximum (reference.first_tied).
    Alpha = 0 has massive ties (p = 0 and p = 2 both attain the bound);
    0.45 and 0.55 lie on either side of the sign change of
    c = 3 - 8 alpha + 4 alpha^2 at alpha = 0.5.
    """

    ALPHAS = [0.0, 0.45, 0.55]

    def _check_param(self, form, a):
        g = SMALL_PARAM_GRIDS
        ps = np.linspace(0.0, 2.0, g["grid_p"])
        ts = np.linspace(0.0, 1.0, g["grid_ymod"])
        e_mu = np.exp(2j * math.pi * np.arange(g["grid_yarg"]) / g["grid_yarg"])
        e_nu = np.exp(2j * math.pi * np.arange(g["grid_zarg"]) / g["grid_zarg"])
        vals = _modulus(
            form(
                a,
                ps[:, None, None, None],
                ts[None, :, None, None] * e_mu[None, None, :, None],
                e_nu[None, None, None, :],
            )
        )
        pi, ti, mi, ni = first_tied(vals, vals.max())
        outcome = maximize_param(Alpha(a), **g)
        assert outcome.argmax["p"] == ps[pi]
        assert outcome.argmax["y"] == ts[ti] * e_mu[mi]
        assert outcome.argmax["zeta"] == e_nu[ni]

    @pytest.mark.parametrize("a", ALPHAS)
    def test_param(self, a):
        self._check_param(hankel._param_form_raw, a)

    def test_param_tie_across_slices(self, monkeypatch):
        # The exact maximum lies in the last p slice; every value of the
        # p = 0 slice is tied with it, so the p = 0 slice must win.
        # The bound phi no longer matches the fake form, so it is replaced
        # by a constant above the form's maximum.
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.4 * TIE_TOL * p) * np.ones_like(y * zeta)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", _constant_bound(2.0))
        self._check_param(form, 0.3)

    @pytest.mark.parametrize("a", ALPHAS)
    @pytest.mark.parametrize("grid", [(51, 26), (201, 101)])
    def test_phi(self, a, grid):
        ps, ts, vals = _checked_grid(Alpha(a), *grid)
        pi, ti = first_tied(vals, vals.max())
        outcome = maximize_phi(Alpha(a), *grid)
        assert outcome.argmax == {"p": ps[pi], "t": ts[ti]}


def _use_form(monkeypatch, form):
    """Make ``form``, a stand-in for _param_form_raw, the form the search evaluates.

    The search takes |A|, |Psi| at zeta = 0, from s2 times _zeta_free_terms.
    The stand-in's zeta-free terms are ``form`` at zeta = 0 over s2, which
    gives A back to within rounding, far below TIE_TOL.
    """
    monkeypatch.setattr(hankel, "_param_form_raw", form)
    monkeypatch.setattr(hankel, "_zeta_free_terms",
                        lambda alpha_value, p, y: _parts(form(alpha_value, p, join(*y), 0.0)
                                                         / (1.0 - alpha_value) ** 2))


def _constant_bound(value):
    """A stand-in for the bound phi: ``value`` on the broadcast (p, t) grid."""
    return lambda alpha, p, t: np.full(np.broadcast(p, t).shape, value)


def _maximize_param_full(alpha, grid_p, grid_ymod, grid_yarg, grid_zarg):
    """maximize_param evaluating every grid point, one whole p slice at a time.

    The reference for the bound-pruned search: it takes every slice's
    maximum, picks the first slice tied with the global maximum and reports
    the first C-order tied index of that slice.
    """
    ps, ts, e_mu, e_nu = lemma_axes(grid_p, grid_ymod, grid_yarg, grid_zarg)
    y_grid = ts[:, None, None] * e_mu[None, :, None]
    zeta_grid = e_nu[None, None, :]

    def eval_slice(i):
        return _modulus(hankel._param_form_raw(alpha.value, ps[i], y_grid, zeta_grid))

    slice_max = np.array([eval_slice(i).max() for i in range(grid_p)])
    gmax = slice_max.max()
    (pi,) = first_tied(slice_max, gmax)
    ti, mi, ni = first_tied(eval_slice(pi), gmax)
    pt = LemmaPoint(float(ps[pi]), complex(ts[ti] * e_mu[mi]), complex(e_nu[ni]))
    return SearchOutcome(
        value=float(abs(functional_param_form(alpha, pt))),
        argmax={"p": pt.p, "y": pt.y, "zeta": pt.zeta},
        method="lemma",
        grid_spec={"grid_p": grid_p, "grid_ymod": grid_ymod, "grid_yarg": grid_yarg,
                   "grid_zarg": grid_zarg, "seed": None},
        evaluations=grid_p * grid_ymod * grid_yarg * grid_zarg,
    )


def _small_grid_argmax():
    """The argmax of maximize_param at alpha = 0.3 on the small grids, whose
    record is asserted to be the full-slice reference's."""
    want = _maximize_param_full(Alpha(0.3), **SMALL_PARAM_GRIDS)
    assert maximize_param(Alpha(0.3), **SMALL_PARAM_GRIDS).to_json() == want.to_json()
    return want.argmax


class TestBoundPruning:
    """The phi-pruned lemma grid against the full-slice reference, byte for byte.

    Alpha = 0 has massive ties; 0.45, 0.5 and 0.55 sit at and around the
    sign change of c = 3 - 8 alpha + 4 alpha^2.  At 0, 1e-12, 1e-9 and 0.999
    many (p, t) rows survive the bound.
    """

    ALPHAS = [0.0, 0.45, 0.5, 0.55, 0.01, 0.123, 0.2, 0.25, 0.3, 0.333, 0.4, 0.48,
              0.52, 0.6, 0.65, 0.7, 0.75, 0.8, 0.875, 0.9, 0.95, 0.99, 1e-12, 1e-9, 0.999]

    @pytest.mark.parametrize("grid", [(9, 5, 4, 2), (17, 9, 7, 3), (41, 21, 16, 8)])
    def test_small_grids(self, grid):
        for a in self.ALPHAS:
            want = _maximize_param_full(Alpha(a), *grid).to_json()
            assert maximize_param(Alpha(a), *grid).to_json() == want, a

    def test_default_grid_alpha_zero(self):
        grid = (search.DEFAULT_GRID_P, search.DEFAULT_GRID_T,
                search.DEFAULT_GRID_YARG, search.DEFAULT_GRID_ZARG)
        want = _maximize_param_full(Alpha(0.0), *grid).to_json()
        assert maximize_param(Alpha(0.0)).to_json() == want

    @pytest.mark.parametrize("a", [0.0, 0.01, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5, 0.55, 0.75,
                                   0.9, 0.99, 0.999999, 0.9999999])
    def test_bound_covers_every_zeta(self, a):
        # The computed |Psi| may exceed the computed phi(p, |y|) only by
        # rounding, far below the margin the search leaves, BOUND_MARGIN s2.
        ps = np.linspace(0.0, 2.0, 51)
        ts = np.linspace(0.0, 1.0, 26)
        bound = phi(a, ps[:, None], ts[None, :])
        y = ts[:, None, None] * np.exp(2j * math.pi * np.arange(16) / 16)[None, :, None]
        e_nu = np.exp(2j * math.pi * np.arange(16) / 16)[None, None, :]
        worst = max(
            float(np.max(_modulus(hankel._param_form_raw(a, p, y, e_nu)).max(axis=(1, 2))
                         - bound[i]))
            for i, p in enumerate(ps)
        )
        assert worst <= BOUND_MARGIN * (1.0 - a) ** 2 / 1000

    def test_tie_in_a_later_row(self, monkeypatch):
        # The constant bound lets every (p, t) row survive, and every line
        # bound |A| + |B| is 0.5 + s2 / 6, but only the rows with |y| = 1,
        # where A is real, reach it on the zeta grid: the first tied value
        # of the p = 0 slice lies in its last row.  The fake keeps the form's
        # structure A + s2 / 6 * coef * zeta with a coefficient of its own,
        # 1, not 0 at p = 0, which the search reads too.
        def coefficient(p, y):
            return np.ones_like(p * y[0])

        def form(alpha_value, p, y, zeta):
            a = np.where(np.abs(y) < 1.0, 0.5 * np.exp(0.1j), 0.5)
            return a + (1.0 - alpha_value) ** 2 / 6.0 * coefficient(p, _parts(y)) * zeta

        monkeypatch.setattr(hankel, "_zeta_coefficient", coefficient)
        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", _constant_bound(1.0))
        assert abs(_small_grid_argmax()["y"]) == 1.0

    def test_tie_in_a_middle_block(self, monkeypatch):
        # The maximum lies in the last p slice, and the first value within
        # TIE_TOL of it at p = 0.35: in a block of 16 rows after the first
        # row's and before the maximum's, so the search must keep it when it
        # is no longer the largest line.
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.6 * TIE_TOL * p) * np.ones_like(y * zeta)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", _constant_bound(2.0))
        assert _small_grid_argmax()["p"] == np.linspace(0.0, 2.0, SMALL_PARAM_GRIDS["grid_p"])[7]

    def test_tied_row_below_the_top_bound_survives(self, monkeypatch):
        # The bound falls short of the form by half the margin, as rounding
        # might leave it.  The largest bound and value lie in the last p
        # slice, and the first p slice, 0.8 * TIE_TOL lower, is tied with it
        # and must win.
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.4 * TIE_TOL * p) * np.ones_like(y * zeta)

        def bound(alpha, p, t):
            return (1.0 + 0.4 * TIE_TOL * p - BOUND_MARGIN / 2) * np.ones_like(p * t)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", bound)
        assert _small_grid_argmax()["p"] == 0.0

    def test_tied_row_below_the_floor_survives(self, monkeypatch):
        # The floor point p = 0, |y| = 1 holds the maximum 1, every other
        # |y| falls 0.9 * TIE_TOL * (1 - |y|) short of it, so every row ties,
        # and the bound falls short of the form by half the margin.  The
        # row p = 0, |y| = 0, first in C order, has a bound below the
        # maximum less TIE_TOL and survives by the margin alone.
        def form(alpha_value, p, y, zeta):
            return (1.0 - 0.9 * TIE_TOL * (1.0 - np.abs(y))) * np.ones_like(p * zeta)

        def bound(alpha, p, t):
            return (1.0 - 0.9 * TIE_TOL * (1.0 - t) - BOUND_MARGIN / 2) * np.ones_like(p * t)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", bound)
        assert _small_grid_argmax()["y"] == 0.0

    def test_maximum_in_a_later_kept_row(self, monkeypatch):
        # The bound keeps the p rows 0 and 2 only, by their |y| = 1 values, and
        # the maximum lies in the row p = 2, 6 TIE_TOL above the floor point:
        # the rows found on the kept p rows must be placed in the whole grid.
        def profile(p):
            return 1.0 + 3.0 * TIE_TOL * p - 0.25 * p * (2.0 - p)

        def form(alpha_value, p, y, zeta):
            return profile(p) * np.ones_like(y * zeta)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw",
                            lambda alpha, p, t: profile(p) * np.ones_like(p * t))
        assert _small_grid_argmax()["p"] == 2.0

    @pytest.mark.parametrize("a", [0.0, 1e-12, 0.25, 0.5, 0.75, 0.99, 0.999999])
    def test_floor_point_is_the_sharp_bound(self, a):
        # The search's floor is |Psi| at p = 0, y = 1, zeta = 1, evaluated as
        # the grid evaluates it: (1 - alpha)^2, the maximum of phi.
        one = np.ones(1, dtype=complex)
        m = _modulus(hankel._param_form_raw(a, np.zeros(1), one, one))[0]
        assert m == (1.0 - a) ** 2 == phi(a, 0.0, 1.0)

    @pytest.mark.parametrize("grid, alphas", [
        ((search.DEFAULT_GRID_P, search.DEFAULT_GRID_T, search.DEFAULT_GRID_YARG,
          search.DEFAULT_GRID_ZARG), golden_corpus.DEFAULT_GRID_ALPHAS),
        (tuple(SMALL_PARAM_GRIDS.values()), golden_corpus.SMALL_GRID_ALPHAS),
    ])
    def test_rows_kept_are_the_whole_grid_rows(self, monkeypatch, grid, alphas):
        # The search bounds each p row by phi(p, 1) before it evaluates phi
        # on the row's whole t axis; the (p, t) rows it keeps are those of
        # phi on the whole grid, in C order.
        calls = _calls(monkeypatch, search, "_line_maxima")
        ps = np.linspace(0.0, 2.0, grid[0])
        ts = np.linspace(0.0, 1.0, grid[1])
        for a in alphas:
            calls.clear()
            maximize_param(a, *grid)
            # arg y = 0 is the first column, where y is |y| exactly.
            seen = [np.column_stack((np.broadcast_to(p, y.shape)[:, 0], y[:, 0].real))
                    for (_, p, y, _, _), _ in calls]
            m = (1.0 - a) ** 2
            floor = m - (TIE_TOL + BOUND_MARGIN) * m
            pi, ti = np.nonzero(phi(a, ps[:, None], ts[None, :]) >= floor)
            want = np.column_stack((ps[pi], ts[ti]))
            assert np.concatenate(seen).tobytes() == want.tobytes(), a

    def test_zeta_axis_skipped_below_the_bound(self, monkeypatch):
        calls = _calls(monkeypatch, hankel, "_param_form_raw")
        g = SMALL_PARAM_GRIDS
        outcome = maximize_param(Alpha(0.25), **g)
        assert outcome.evaluations == math.prod(g.values())
        assert 0 < _zeta_points(calls) < outcome.evaluations // 10


class TestLineBound:
    """The second level of pruning: |A| + |B| on each (p, t, arg y) line,
    where Psi = A + B zeta and B = s2 / 6 times the zeta coefficient."""

    @pytest.mark.parametrize("a", [0.0, 0.01, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5, 0.55, 0.75,
                                   0.9, 0.99, 0.999999, 0.9999999])
    def test_bound_covers_every_zeta(self, a):
        # The computed |Psi| may exceed the computed |A| + s2 |coef| / 6, as
        # the search builds it, only by rounding, far below the margin the
        # search leaves, BOUND_MARGIN s2.
        ps = np.linspace(0.0, 2.0, 51)
        ts = np.linspace(0.0, 1.0, 26)
        y = ts[:, None] * np.exp(2j * math.pi * np.arange(16) / 16)[None, :]
        e_nu = np.exp(2j * math.pi * np.arange(16) / 16)
        worst = -np.inf
        for p in ps:
            p_line = np.full(y.shape, p)
            bound = (np.hypot(*((1.0 - a) ** 2 * x
                                for x in hankel._zeta_free_terms(a, p_line, _parts(y))))
                     + (1.0 - a) ** 2 * np.abs(hankel._zeta_coefficient(p_line, _parts(y))) / 6.0)
            vals = _modulus(hankel._param_form_raw(a, p, y[:, :, None], e_nu))
            worst = max(worst, float(np.max(vals.max(axis=2) - bound)))
        assert worst <= BOUND_MARGIN * (1.0 - a) ** 2 / 1000

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 0.99])
    def test_zeta_free_terms_give_psi_at_zero(self, a):
        # |A| as the search takes it, s2 times the zeta-free terms, is |Psi|
        # at zeta = 0 bit for bit: the two differ at most in the sign of a zero.
        ps, ts, e_mu, _ = lemma_axes()
        y = ts[:, None] * e_mu
        for p in ps:
            p_line = np.full(y.shape, p)
            got = np.hypot(*((1.0 - a) ** 2 * x
                             for x in hankel._zeta_free_terms(a, p_line, _parts(y))))
            assert got.tobytes() == _modulus(hankel._param_form_raw(a, p_line, y, 0.0)).tobytes()

    @pytest.mark.parametrize("a, points", [(0.0, 65), (0.25, 65), (0.75, 65)])
    def test_default_grid_zeta_points(self, monkeypatch, a, points):
        # The floor is |Psi| at the one grid point p = 0, y = 1, zeta = 1.
        # A line with a zero zeta coefficient takes |A| from its bound and
        # costs no zeta point.  At alpha = 0, 301 rows survive phi, and the
        # line bound keeps 6,727 of their lines, all with a zero coefficient.
        # At 0.25 and 0.75 the one row kept is p = 0, |y| = 1, whose lines
        # all have a zero coefficient.  The tied line is evaluated once more
        # on all 64 zetas.
        calls = _calls(monkeypatch, hankel, "_param_form_raw")
        maximize_param(Alpha(a))
        assert _zeta_points(calls) == points


class TestZetaFreeLines:
    """A line whose zeta coefficient p q (1 - |y|^2) is exactly 0 takes |A|,
    |Psi| at zeta = 0, as its maximum: there |Psi| is one double along the line.

    At alpha = 0.5, c = 0: the quartic term is -0.0 and the p = 2 rows are 0.
    """

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 0.99])
    def test_modulus_constant_along_the_line(self, a):
        ps, ts, e_mu, e_nu = lemma_axes()
        rows = [(0, ti) for ti in range(ts.size)] + [(ps.size - 1, ti) for ti in range(ts.size)]
        rows += [(i, ts.size - 1) for i in range(ps.size)]
        zero_lines = 0
        for i, ti in rows:
            y = (ts[ti] * e_mu)[:, None]
            flat = hankel._zeta_coefficient(ps[i], _parts(y))[:, 0] == 0.0
            vals = _modulus(hankel._param_form_raw(a, ps[i], y[flat], e_nu[None, :]))
            assert vals.tobytes() == np.repeat(vals[:, :1], e_nu.size, axis=1).tobytes()
            at_zero = _modulus(hankel._param_form_raw(a, ps[i], y[flat], 0.0))
            assert vals.tobytes() == np.repeat(at_zero, e_nu.size, axis=1).tobytes()
            zero_lines += int(flat.sum())
        # Every line of the p = 0 and p = 2 rows, and some of the |y| = 1 lines.
        assert zero_lines > 2 * ts.size * e_mu.size
        if a == 0.5:
            assert not _modulus(hankel._param_form_raw(a, 2.0, ts[:, None] * e_mu, 1.0)).any()

    def test_maximum_off_the_first_zeta(self, monkeypatch):
        # A form A + s2 / 6 * coef * zeta with the real zeta coefficient and
        # A = 0.5 e^{0.75 i pi}, largest at zeta index 3 of 8 on the row
        # p = 1.15, t = 0: a line with a nonzero coefficient must be
        # evaluated on the whole zeta axis.
        coefficient = hankel._zeta_coefficient

        def form(alpha_value, p, y, zeta):
            return (0.5 * np.exp(0.75j * math.pi)
                    + (1.0 - alpha_value) ** 2 / 6.0 * coefficient(p, _parts(y)) * zeta)

        _use_form(monkeypatch, form)
        monkeypatch.setattr(search, "_phi_raw", _constant_bound(10.0))
        assert _small_grid_argmax()["zeta"] == np.exp(0.75j * math.pi)


class TestWorkers:
    @pytest.mark.parametrize(
        "call",
        [
            lambda w: maximize_phi(Alpha(0.2), 11, 7, workers=w),
            lambda w: maximize_param(Alpha(0.2), 5, 2, 3, 2, workers=w),
            lambda w: run_method("herglotz", Alpha(0.2), workers=w, restarts=1),
            lambda w: sweep_alpha(0.0, 0.5, 1, "phi", workers=w),
        ],
    )
    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one(self, call, workers):
        with pytest.raises(DomainError, match="workers"):
            call(workers)


def _row_kernel(alpha, w, t):
    """search._h2_rows on (R, k) weights and angles, with their planes."""
    return search._h2_rows(alpha, w.T, search._kernel_planes(t.T))


def _h2_at_extremal(alpha):
    """The atom search's objective at the extremal atoms (0.5, 0.5), (0, pi)."""
    weights = np.array([EXTREMAL_ATOMS.weights])
    angles = np.array([EXTREMAL_ATOMS.angles])
    return _row_kernel(alpha, weights, angles)[0]


class TestMaximizeHerglotz:
    def test_seeded_at_extremal_evaluation_only(self):
        for a in (0.0, 0.25, 0.8):
            assert _h2_at_extremal(a) == sharp_bound(Alpha(a))

    def test_quarter_alpha_seeded(self):
        assert _h2_at_extremal(0.25) == 9.0 / 16.0

    def test_first_of_tied_restarts(self, monkeypatch):
        # Every restart ends at the same value: the first restart is reported.
        def tied(alphas, weights, angles, sweeps):
            rows = len(alphas)
            return np.ones(rows), weights, angles, np.ones(rows, dtype=np.int64)

        monkeypatch.setattr(search, "_refine_rows", tied)
        outcome = maximize_herglotz(Alpha(0.3), restarts=5, seed=2)
        rng = np.random.default_rng(2)
        first = {"weights": list(rng.dirichlet(np.ones(2))),
                 "angles": list(rng.uniform(0.0, 2.0 * math.pi, 2))}
        assert outcome.argmax == first
        assert (outcome.value, outcome.evaluations) == (1.0, 5)

    def test_single_atom_koebe(self):
        outcome = maximize_herglotz(Alpha(0.0), atom_count=1, restarts=5, seed=3)
        assert outcome.value == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_bound(self):
        for a in (0.0, 0.5):
            outcome = maximize_herglotz(Alpha(a), atom_count=3, restarts=10, seed=4)
            assert outcome.value <= sharp_bound(Alpha(a)) + 1e-9

    def test_deterministic_for_fixed_seed(self):
        first = maximize_herglotz(Alpha(0.3), restarts=10, seed=11)
        second = maximize_herglotz(Alpha(0.3), restarts=10, seed=11)
        assert first.to_json() == second.to_json()

    def test_value_reevaluates_at_argmax(self):
        # The public route gives the reported value bit for bit, at every atom count.
        for atom_count, seed, a in itertools.product((1, 2, 3, 4), range(6), (0.0, 0.3, 0.77)):
            outcome = maximize_herglotz(Alpha(a), atom_count=atom_count, restarts=8,
                                        local_steps=20, seed=seed)
            atoms = HerglotzAtoms(tuple(outcome.argmax["weights"]),
                                  tuple(outcome.argmax["angles"]))
            f = coeffs_from_moments(Alpha(a), moments_from_atoms(atoms, 3))
            assert outcome.value == abs(hankel_det(f, HankelSpec(2, 2))), (atom_count, seed, a)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), atom_count=0)
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), atom_count=5)
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), restarts=0)


def _atom_batch(seed, k):
    """A seeded alpha and 1,000 random k-atom measures as (R, k) weights and angles,
    with the one-point route's values of them."""
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.0, 1.0))
    w = rng.dirichlet(np.ones(k), size=1000)
    t = rng.uniform(0.0, 2.0 * math.pi, size=(1000, k))
    return alpha, w, t, np.array([scalar_h2(alpha, w[r], t[r]) for r in range(1000)])


class TestHerglotzRowKernel:
    """The batched objective against the one-point route, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bit_equal_at_every_batch_size(self, k):
        alpha, w, t, one_point = _atom_batch(40 + k, k)
        spec = HankelSpec(2, 2)
        via_api = np.array([
            abs(hankel_det(coeffs_from_moments(Alpha(alpha), moments_from_atoms(
                HerglotzAtoms(tuple(w[r]), tuple(t[r])), 3)), spec))
            for r in range(len(w))
        ])
        batch = _row_kernel(alpha, w, t)
        singles = np.concatenate([_row_kernel(alpha, w[r : r + 1], t[r : r + 1])
                                  for r in range(len(w))])
        assert via_api.tobytes() == one_point.tobytes()
        assert batch.tobytes() == via_api.tobytes()
        assert singles.tobytes() == via_api.tobytes()


class TestHerglotzRowKernelPerRowAlpha:
    """_h2_rows with one alpha per row, bit-equal to one call per alpha."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mixed_alphas(self, k):
        rng = np.random.default_rng(50 + k)
        values = np.concatenate([[0.0, 0.5, 0.9999], rng.uniform(0.0, 1.0, size=297)])
        rng.shuffle(values)
        w = rng.dirichlet(np.ones(k), size=values.size)
        t = rng.uniform(0.0, 2.0 * math.pi, size=(values.size, k))
        batch = _row_kernel(values, w, t)
        for r in range(values.size):
            alpha = float(values[r])
            one = _row_kernel(alpha, w[r : r + 1], t[r : r + 1])
            assert batch[r : r + 1].tobytes() == one.tobytes()
            assert batch[r] == scalar_h2(alpha, w[r], t[r])


class TestKernelCache:
    """_refine_rows keeps each row's kernels and recomputes one atom's per angle probe."""

    @staticmethod
    def _rows(seed, k):
        """50 rows of seeded alphas and k-atom weights and angles."""
        rng = np.random.default_rng(seed)
        return (rng.uniform(0.0, 1.0, 50), rng.dirichlet(np.ones(k), size=50),
                rng.uniform(0.0, search._TWO_PI, size=(50, k)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_column_equals_kernels_of_that_column(self, k):
        # An atom's kernels and planes in a batch equal those of its angles alone.
        rng = np.random.default_rng(60 + k)
        two_pi = search._TWO_PI
        special = np.concatenate([
            [0.0, np.nextafter(two_pi, 0.0)],
            # Just past a wrap, as an angle probe's (t + step) % 2 pi leaves them.
            (np.nextafter(two_pi, 0.0) + np.array([1e-15, 1e-12, 1e-6, 0.4])) % two_pi,
        ])
        t = rng.uniform(0.0, two_pi, size=(200, k))
        for i in range(k):
            t[i : i + special.size, i] = special
        t = t.T.copy()
        whole, planes = search._kernels(t), search._kernel_planes(t)
        for i in range(k):
            column = search._kernels(t[i])
            assert whole[i].tobytes() == column.tobytes()
            assert planes[i, :, 0].tobytes() == np.ascontiguousarray(column.real).tobytes()
            assert planes[i, :, 1].tobytes() == np.ascontiguousarray(column.imag).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cache_follows_the_angles(self, monkeypatch, k):
        # No row stops within these sweeps and every weight probe is counted,
        # so each sweep's first weight probe passes the whole cache.
        alphas, w, t = self._rows(70 + k, k)
        sweeps = 5
        angles_after = [search._refine_rows(alphas, w, t, s)[2] for s in range(sweeps)]
        seen = []
        kernel = search._h2_rows

        def spy(alpha, weights, planes):
            seen.append(planes.copy())
            return kernel(alpha, weights, planes)

        monkeypatch.setattr(search, "_h2_rows", spy)
        search._refine_rows(alphas, w, t, sweeps)
        assert len(seen) == 1 + sweeps * 4 * k
        for s, angles in enumerate(angles_after):
            cached = seen[1 + s * 4 * k]
            assert cached.tobytes() == search._kernel_planes(angles.T).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exp_only_on_the_moved_column(self, monkeypatch, k):
        # One exp of the start angles, then one atom's per angle probe and
        # none per weight probe.
        alphas, w, t = self._rows(80 + k, k)
        calls = _calls(monkeypatch, np, "exp")
        search._refine_rows(alphas, w, t, 5)
        assert [x.shape for (x,), _ in calls] == [(k, 3, 50)] + [(3, 50)] * (5 * 2 * k)


@pytest.mark.parametrize("sweeps", [1, 5, 60])
def test_refined_angles_stay_below_two_pi(sweeps):
    # The -0.4 probe of an angle just below 0.4 lands a hair below 0, which
    # x % 2 pi rounds up to 2 pi itself.  Atoms at 0 and pi are extremal, so
    # away from alpha = 0 that probe is kept.
    t = np.tile([np.nextafter(0.4, 0.0), math.pi], (3, 1))
    ts = _refined_rows([0.3, 0.6, 0.9], np.full((3, 2), 0.5), t, sweeps)[2]
    assert ((ts >= 0.0) & (ts < 2.0 * math.pi)).all()
    if sweeps < 60:
        assert (ts[:, 0] == 0.0).all()


def _refined_rows(alphas, w, t, sweeps):
    """_refine_rows on (R, k) weights and angles, each row asserted bit for bit
    its restart refined alone, one probe at a time."""
    best, ws, ts, evals = search._refine_rows(np.asarray(alphas), w, t, sweeps)
    for r, alpha in enumerate(alphas):
        objective = functools.partial(scalar_h2, float(alpha))
        val, w_r, t_r, evals_r = refine_atoms(objective, w[r], t[r], sweeps)
        assert (best[r], evals[r]) == (val, evals_r), r
        assert ws[r].tobytes() == w_r.tobytes() and ts[r].tobytes() == t_r.tobytes(), r
    return best, ws, ts, evals


class TestLiveRowRetirement:
    """_refine_rows writes each row out at its own row id when the row stops."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_row_equals_its_restart_alone(self, k):
        rng = np.random.default_rng(90 + k)
        restarts, sweeps = 7, 60
        w0 = rng.dirichlet(np.ones(k), size=restarts)
        t0 = rng.uniform(0.0, 2.0 * math.pi, size=(restarts, k))
        alphas = np.repeat([0.0, 0.45, 0.9], restarts)
        evals = _refined_rows(alphas, np.tile(w0, (3, 1)), np.tile(t0, (3, 1)), sweeps)[3]
        # Rows stop at different sweeps, so some leave the batch before others.
        assert np.unique(evals).size > 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 4),
    concentration=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
    step_w=st.floats(0.0, 0.15, exclude_min=True),
)
def test_weight_probe_totals_are_positive(k, concentration, seed, step_w):
    """Why _refine_rows evaluates every weight probe: on the simplex, each
    +-step_w probe of a weight, clipped at 0, leaves a total of at least
    1 - step_w, and renormalized it is on the simplex again."""
    dirichlet = np.random.default_rng(seed).dirichlet(np.full(k, concentration))
    for w in (dirichlet, np.eye(k)[seed % k]):
        for i in range(k):
            for sign in (1.0, -1.0):
                trial = w.copy()
                trial[i] = max(0.0, trial[i] + sign * step_w)
                total = trial.sum()
                assert total >= 1.0 - step_w - 1e-12
                trial /= total
                assert trial.min() >= 0.0
                assert abs(trial.sum() - 1.0) <= 1e-12


class TestLockStepRestarts:
    """Restarts in lock-step give the record of restarts run one after another.

    Alphas 0.3 and 0.7 lie on either side of the sign change of
    c = 3 - 8 alpha + 4 alpha^2 at alpha = 0.5.
    """

    @pytest.mark.parametrize("local_steps", [0, 3])
    @pytest.mark.parametrize("a", [0.3, 0.7])
    @pytest.mark.parametrize("atom_count", [1, 2, 3, 4])
    def test_short_refinement(self, atom_count, a, local_steps):
        kwargs = dict(atom_count=atom_count, restarts=12, local_steps=local_steps,
                      seed=10 * atom_count + local_steps)
        want = reference.herglotz_one_at_a_time(a, **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want

    @pytest.mark.parametrize("atom_count, a", [(1, 0.3), (2, 0.55), (3, 0.45)])
    def test_full_refinement_with_stop_rule(self, atom_count, a):
        # With 60 sweeps most one- and two-atom restarts halve their steps
        # below 1e-12 and stop early, each at its own sweep.
        kwargs = dict(atom_count=atom_count, restarts=6, seed=5)
        want = reference.herglotz_one_at_a_time(a, **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want


class TestHerglotzSweepBatch:
    """A herglotz sweep refines all its alphas together, and each row is what
    maximize_herglotz gives at that alpha alone."""

    # (atom_count, local_steps, restarts, steps, seed): every value of each
    # axis appears at least once; the CLI test below runs the defaults.
    CASES = [
        (1, 0, 1, 1, 0),
        (1, 60, 100, 9, 7),
        (2, 3, 7, 9, 1),
        (3, 60, 7, 1, 7),
        (3, 0, 100, 9, 1),
        (4, 3, 100, 1, 0),
        (4, 60, 1, 1, 1),
    ]

    @staticmethod
    def caps(restarts):
        # Default; one alpha per batch; three alphas per batch, which splits
        # ten alphas 3 + 3 + 3 + 1.
        return [search._HERGLOTZ_BATCH_ROWS, 1, 3 * restarts]

    @pytest.mark.parametrize("atom_count, local_steps, restarts, steps, seed", CASES)
    def test_rows_equal_per_alpha_search(self, monkeypatch, atom_count, local_steps,
                                         restarts, steps, seed):
        kwargs = dict(atom_count=atom_count, local_steps=local_steps, restarts=restarts)
        want = bits(reference.sweep_one_alpha_at_a_time(0.0, 0.9, steps, seed=seed, **kwargs))
        for cap in self.caps(restarts):
            monkeypatch.setattr(search, "_HERGLOTZ_BATCH_ROWS", cap)
            got = sweep_alpha(0.0, 0.9, steps, "herglotz", seed=seed, **kwargs)
            assert bits(got) == want, cap

    @pytest.mark.parametrize(
        "steps, seed, flags, kwargs",
        [
            (9, 7, [], {}),
            (1, 0, ["--atom-count", "3", "--restarts", "7", "--local-steps", "3"],
             dict(atom_count=3, restarts=7, local_steps=3)),
            (9, 1, ["--atom-count", "4", "--restarts", "1", "--local-steps", "0"],
             dict(atom_count=4, restarts=1, local_steps=0)),
        ],
    )
    def test_cli_csv_equals_per_alpha_search(self, monkeypatch, capsys, steps, seed, flags,
                                             kwargs):
        want = cli.sweep_csv(reference.sweep_one_alpha_at_a_time(0.0, 0.9, steps, seed=seed,
                                                                  **kwargs))
        for cap in self.caps(kwargs.get("restarts", 100)):
            monkeypatch.setattr(search, "_HERGLOTZ_BATCH_ROWS", cap)
            code = cli.main(["sweep", "--alpha-start", "0", "--alpha-end", "0.9",
                             "--steps", str(steps), "--method", "herglotz",
                             "--seed", str(seed), "--workers", "2", *flags])
            out, err = capsys.readouterr()
            assert code == 0, err
            assert out == want, cap

    def test_outcomes_equal_per_alpha_records(self, monkeypatch):
        # With 60 sweeps the restarts stop at different sweeps, so the
        # evaluation counts differ from alpha to alpha.
        alphas = [Alpha(a) for a in (0.0, 0.3, 0.55, 0.9)]
        kwargs = dict(atom_count=2, restarts=7, local_steps=60, seed=1)
        want = [maximize_herglotz(alpha, **kwargs).to_json() for alpha in alphas]
        for cap in self.caps(7):
            monkeypatch.setattr(search, "_HERGLOTZ_BATCH_ROWS", cap)
            got = [o.to_json() for o in search._herglotz_outcomes(alphas, **kwargs)]
            assert got == want, cap

    @pytest.mark.parametrize("cap", [None, 250])
    def test_batches_stay_under_the_cap(self, monkeypatch, cap):
        # 100 alphas x 100 restarts = 10,000 rows; no kernel call sees more
        # than a batch of them.
        if cap is not None:
            monkeypatch.setattr(search, "_HERGLOTZ_BATCH_ROWS", cap)
        limit = search._HERGLOTZ_BATCH_ROWS
        calls = _calls(monkeypatch, search, "_h2_rows")
        code = cli.main(["sweep", "--alpha-start", "0", "--alpha-end", "0.99",
                         "--steps", "99", "--method", "herglotz", "--local-steps", "3",
                         "--out", os.devnull])
        assert code == 0
        seen = [weights.shape[1] for (_, weights, _), _ in calls]
        assert max(seen) <= limit
        assert max(seen) > limit // 2
        assert sum(seen) == 10_000 * 25  # one start and 24 probes per row

    def test_rejects_like_maximize_herglotz(self):
        with pytest.raises(DomainError, match="atom_count"):
            sweep_alpha(0.0, 0.5, 2, "herglotz", atom_count=5)
        with pytest.raises(DomainError, match="workers"):
            sweep_alpha(0.0, 0.5, 2, "herglotz", workers=0)
        with pytest.raises(DomainError, match="'grid_p' does not apply to method 'herglotz'"):
            sweep_alpha(0.0, 0.5, 2, "herglotz", grid_p=3)


class TestSafetyAcrossMethods:
    def test_all_methods_stay_below_bound(self):
        for k in range(19):
            alpha = Alpha(0.05 * k)
            bound = sharp_bound(alpha)
            assert maximize_phi(alpha, 51, 26).value <= bound + 1e-9
            assert (
                maximize_param(alpha, grid_p=21, grid_ymod=11, grid_yarg=8, grid_zarg=4).value
                <= bound + 1e-9
            )
            assert (
                maximize_herglotz(alpha, restarts=2, local_steps=25, seed=k).value
                <= bound + 1e-9
            )


class TestSweep:
    def test_majorant_sweep_gaps(self):
        rows = sweep_alpha(0.0, 0.9, 10, "phi")
        assert len(rows) == 11
        assert [r.alpha for r in rows] == sorted(r.alpha for r in rows)
        assert all(r.abs_gap <= 1e-9 for r in rows)

    def test_upper_range_with_param_method(self):
        rows = sweep_alpha(0.5, 0.9, 4, "lemma", **SMALL_PARAM_GRIDS)
        assert all(r.abs_gap <= 5e-3 for r in rows)
        assert all(r.searched_max <= r.sharp_bound + 1e-9 for r in rows)

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            sweep_alpha(0.5, 0.5, 3, "phi")

    def test_rejects_bad_method(self):
        with pytest.raises(DomainError):
            sweep_alpha(0.0, 0.5, 2, "newton")

    def test_rows_carry_summaries(self):
        rows = sweep_alpha(0.0, 0.4, 2, "phi")
        for row in rows:
            assert "p=" in row.argmax_summary
            assert "," not in row.argmax_summary


class TestMonotonicityScan:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.77])
    def test_no_violations(self, a):
        violations, worst = monotonicity_scan(Alpha(a), 101, 101)
        assert violations == 0
        assert worst <= 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            monotonicity_scan(Alpha(0.1), grid_p=2)
