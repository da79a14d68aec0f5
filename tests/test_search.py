import functools
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
from h2star.search import SearchOutcome, SweepRow, run_method
from h2star.tolerances import BOUND_MARGIN, TIE_TOL

EXTREMAL_ATOMS = HerglotzAtoms((0.5, 0.5), (0.0, math.pi))

SMALL_PARAM_GRIDS = dict(grid_p=41, grid_ymod=21, grid_yarg=16, grid_zarg=8)


class TestMaximizePhi:
    def test_alpha_half(self):
        outcome = maximize_phi(Alpha(0.5), 201, 101)
        assert outcome.value == 0.25
        assert outcome.argmax == {"p": 0.0, "t": 1.0}

    def test_alpha_zero_tie_break(self):
        outcome = maximize_phi(Alpha(0.0), 201, 101)
        assert outcome.value == 1.0
        assert outcome.argmax["p"] == 0.0
        assert outcome.argmax["t"] == 1.0

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
        assert outcome.evaluations > 11 * 7  # grid plus refinement


def _maximize_phi_checked(alpha, grid_p, grid_t):
    """maximize_phi as it was when every evaluation went through the checked hankel.phi."""
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = phi(alpha, ps[:, None], ts[None, :])
    pi, ti = search._first_tied_index(vals, vals.max())
    best_p, best_t = float(ps[pi]), float(ts[ti])
    value = phi(alpha, best_p, best_t)
    lo = float(ps[max(pi - 1, 0)])
    hi = float(ps[min(pi + 1, grid_p - 1)])
    x, fx, g_evals = search._golden_section_max(lambda p: phi(alpha, p, 1.0), lo, hi)
    if fx > value + TIE_TOL:
        best_p, best_t, value = float(x), 1.0, float(fx)
    return SearchOutcome(
        value=float(value),
        argmax={"p": best_p, "t": best_t},
        method="phi",
        grid_spec={"grid_p": grid_p, "grid_t": grid_t, "seed": None},
        evaluations=grid_p * grid_t + g_evals,
    )


def _monotonicity_scan_checked(alpha, grid_p, grid_t):
    """monotonicity_scan as it was when it evaluated the checked hankel.phi."""
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_t)
    vals = phi(alpha, ps[:, None], ts[None, :])
    drops = vals[:, :-1] - vals[:, 1:]
    return int(np.sum(drops > 1e-12)), float(max(float(drops.max()), 0.0))


class TestUncheckedPhiKernel:
    """maximize_phi and monotonicity_scan evaluate hankel._phi_raw on their own
    points; their results must be those of the checked export, bit for bit."""

    # 40 equispaced alphas from 0, the sign change of c at 0.5 and its
    # neighbours, 1/3, an alpha near 1 and 6 random ones.
    ALPHAS = [*np.linspace(0.0, 0.99, 40).tolist(), 0.5, 0.45, 0.55, 1 / 3, 0.999999,
              *np.random.default_rng(15).random(6).tolist()]

    @pytest.mark.parametrize("grid", [(201, 101), (7, 5), (2, 2)])
    def test_maximize_phi_records(self, grid, monkeypatch):
        # The golden-section pass rarely beats the grid, so each of its steps
        # is compared too.
        steps = []
        golden = search._golden_section_max

        def recorded(fn, lo, hi):
            def step(p):
                value = fn(p)
                steps[-1].append(float(value).hex())
                return value

            steps.append([])
            return golden(step, lo, hi)

        monkeypatch.setattr(search, "_golden_section_max", recorded)
        for a in self.ALPHAS:
            assert maximize_phi(a, *grid).to_json() == _maximize_phi_checked(a, *grid).to_json()
            assert steps[-2] == steps[-1]

    @pytest.mark.parametrize("grid", [(201, 101), (101, 101), (7, 5), (3, 3)])
    def test_monotonicity_scan(self, grid):
        for a in self.ALPHAS:
            assert monotonicity_scan(a, *grid) == _monotonicity_scan_checked(a, *grid)

    def test_searches_skip_the_checked_export(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hankel.phi called")

        monkeypatch.setattr(hankel, "phi", refuse)
        maximize_phi(0.3, 7, 5)
        monotonicity_scan(0.3, 7, 5)


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


class TestReferenceTieBreak:
    """Reported grid argmax against a brute-force oracle over the whole grid.

    The oracle evaluates every grid point in one broadcast call and takes the
    Python ``min`` over all indices tied within TIE_TOL of the maximum.
    Alpha = 0 has massive ties (p = 0 and p = 2 both attain the bound);
    0.45 and 0.55 lie on either side of the sign change of
    c = 3 - 8 alpha + 4 alpha^2 at alpha = 0.5.
    """

    ALPHAS = [0.0, 0.45, 0.55]

    @staticmethod
    def _oracle(vals):
        tied = np.nonzero(vals >= vals.max() - TIE_TOL)
        return min(tuple(int(i) for i in idx) for idx in zip(*tied))

    def _check_param(self, form, a):
        g = SMALL_PARAM_GRIDS
        ps = np.linspace(0.0, 2.0, g["grid_p"])
        ts = np.linspace(0.0, 1.0, g["grid_ymod"])
        e_mu = np.exp(2j * math.pi * np.arange(g["grid_yarg"]) / g["grid_yarg"])
        e_nu = np.exp(2j * math.pi * np.arange(g["grid_zarg"]) / g["grid_zarg"])
        vals = np.abs(
            form(
                a,
                ps[:, None, None, None],
                ts[None, :, None, None] * e_mu[None, None, :, None],
                e_nu[None, None, None, :],
            )
        )
        pi, ti, mi, ni = self._oracle(vals)
        outcome = maximize_param(Alpha(a), **g)
        assert outcome.argmax["p"] == ps[pi]
        assert outcome.argmax["y"] == ts[ti] * e_mu[mi]
        assert outcome.argmax["zeta"] == e_nu[ni]

    @pytest.mark.parametrize("a", ALPHAS)
    def test_param(self, a):
        self._check_param(hankel._param_form_raw, a)

    def test_param_tie_across_slices(self, monkeypatch):
        # The exact maximum lies in the last p slice; every value of the
        # p = 0 slice is within TIE_TOL of it, so the p = 0 slice must win.
        # The bound phi no longer matches the fake form, so it is replaced
        # by a constant above the form's maximum.
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.4 * TIE_TOL * p) * np.ones_like(y * zeta)

        monkeypatch.setattr(hankel, "_param_form_raw", form)
        monkeypatch.setattr(hankel, "phi", _constant_bound(2.0))
        self._check_param(form, 0.3)

    @pytest.mark.parametrize("a", ALPHAS)
    @pytest.mark.parametrize("grid", [(51, 26), (201, 101)])
    def test_phi(self, a, grid):
        ps = np.linspace(0.0, 2.0, grid[0])
        ts = np.linspace(0.0, 1.0, grid[1])
        pi, ti = self._oracle(phi(Alpha(a), ps[:, None], ts[None, :]))
        outcome = maximize_phi(Alpha(a), *grid)
        assert outcome.argmax == {"p": ps[pi], "t": ts[ti]}


def _constant_bound(value):
    """A stand-in for hankel.phi: ``value`` on the broadcast (p, t) grid."""
    return lambda alpha, p, t: np.full(np.broadcast(p, t).shape, value)


def _maximize_param_full(alpha, grid_p, grid_ymod, grid_yarg, grid_zarg):
    """maximize_param evaluating every grid point, one whole p slice at a time.

    The reference for the bound-pruned search: it takes every slice's
    maximum, picks the first slice tied within TIE_TOL of the global maximum
    and reports the first C-order tied index of that slice.
    """
    ps = np.linspace(0.0, 2.0, grid_p)
    ts = np.linspace(0.0, 1.0, grid_ymod)
    e_mu = np.exp(1j * np.arange(grid_yarg) * (2.0 * math.pi / grid_yarg))
    e_nu = np.exp(1j * np.arange(grid_zarg) * (2.0 * math.pi / grid_zarg))
    y_grid = ts[:, None, None] * e_mu[None, :, None]
    zeta_grid = e_nu[None, None, :]

    def eval_slice(i):
        return np.abs(hankel._param_form_raw(alpha.value, ps[i], y_grid, zeta_grid))

    def first_tied(vals, vmax):
        return tuple(int(i) for i in np.argwhere(vals >= vmax - TIE_TOL)[0])

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
                                   0.9, 0.99])
    def test_bound_covers_every_zeta(self, a):
        # The computed |Psi| may exceed the computed phi(p, |y|) only by
        # rounding, far below the margin the search leaves.
        ps = np.linspace(0.0, 2.0, 51)
        ts = np.linspace(0.0, 1.0, 26)
        bound = phi(a, ps[:, None], ts[None, :])
        y = ts[:, None, None] * np.exp(2j * math.pi * np.arange(16) / 16)[None, :, None]
        e_nu = np.exp(2j * math.pi * np.arange(16) / 16)[None, None, :]
        worst = max(
            float(np.max(np.abs(hankel._param_form_raw(a, p, y, e_nu)).max(axis=(1, 2))
                         - bound[i]))
            for i, p in enumerate(ps)
        )
        assert worst <= BOUND_MARGIN / 1000

    def test_tie_in_a_later_row(self, monkeypatch):
        # The constant bound lets every (p, t) row survive, but only the rows
        # with |y| = 1 reach 1 on the zeta grid: the first tied value of the
        # p = 0 slice lies in its last row.
        def form(alpha_value, p, y, zeta):
            w = np.where(np.abs(y) < 1.0, np.exp(0.1j), 1.0)
            return 0.5 + 0.5 * w * zeta * np.ones_like(p)

        monkeypatch.setattr(hankel, "_param_form_raw", form)
        monkeypatch.setattr(hankel, "phi", _constant_bound(1.0))
        want = _maximize_param_full(Alpha(0.3), **SMALL_PARAM_GRIDS)
        assert abs(want.argmax["y"]) == 1.0
        assert maximize_param(Alpha(0.3), **SMALL_PARAM_GRIDS).to_json() == want.to_json()

    def test_tied_row_below_the_top_bound_survives(self, monkeypatch):
        # The bound falls short of the form by half the margin, as rounding
        # might leave it.  The top row is the last p slice, and the first p
        # slice, 0.8 * TIE_TOL lower, is tied with it and must win.
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.4 * TIE_TOL * p) * np.ones_like(y * zeta)

        def bound(alpha, p, t):
            return (1.0 + 0.4 * TIE_TOL * p - BOUND_MARGIN / 2) * np.ones_like(p * t)

        monkeypatch.setattr(hankel, "_param_form_raw", form)
        monkeypatch.setattr(hankel, "phi", bound)
        want = _maximize_param_full(Alpha(0.3), **SMALL_PARAM_GRIDS)
        assert want.argmax["p"] == 0.0
        assert maximize_param(Alpha(0.3), **SMALL_PARAM_GRIDS).to_json() == want.to_json()

    def test_zeta_axis_skipped_below_the_bound(self, monkeypatch):
        form = hankel._param_form_raw
        zeta_points = []

        def counting(alpha_value, p, y, zeta):
            out = form(alpha_value, p, y, zeta)
            if np.ndim(zeta):
                zeta_points.append(out.size)
            return out

        monkeypatch.setattr(hankel, "_param_form_raw", counting)
        g = SMALL_PARAM_GRIDS
        outcome = maximize_param(Alpha(0.25), **g)
        assert outcome.evaluations == math.prod(g.values())
        assert 0 < sum(zeta_points) < outcome.evaluations // 10


class TestLineBound:
    """The second level of pruning: |A| + |B| on each (p, t, arg y) line,
    where Psi = A + B zeta."""

    @pytest.mark.parametrize("a", [0.0, 0.01, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5, 0.55, 0.75,
                                   0.9, 0.99])
    def test_bound_covers_every_zeta(self, a):
        # The computed |Psi| may exceed the computed |A| + |B| only by
        # rounding, far below the margin the search leaves.
        ps = np.linspace(0.0, 2.0, 51)
        ts = np.linspace(0.0, 1.0, 26)
        y = ts[:, None] * np.exp(2j * math.pi * np.arange(16) / 16)[None, :]
        e_nu = np.exp(2j * math.pi * np.arange(16) / 16)
        worst = -np.inf
        for p in ps:
            base = hankel._param_form_raw(a, np.full((ts.size, 1), p), y, 0.0)
            slope = hankel._param_form_raw(a, np.full((ts.size, 1), p), y, 1.0) - base
            vals = np.abs(hankel._param_form_raw(a, p, y[:, :, None], e_nu))
            worst = max(worst, float(np.max(vals.max(axis=2) - np.abs(base) - np.abs(slope))))
        assert worst <= BOUND_MARGIN / 1000

    @pytest.mark.parametrize("a, points", [(0.0, 10_887), (0.25, 192), (0.75, 192)])
    def test_default_grid_zeta_points(self, monkeypatch, a, points):
        # Evaluating every line of each row that survives phi computes 303
        # rows of 64 x 64 zeta points at alpha = 0: the top row, the 301
        # surviving rows and the tied row once more.  The line bound keeps
        # 6,727 lines of the 301 rows, and each row whose zeta coefficient
        # is 0 on all its kept lines evaluates one zeta per line; the top
        # row, whose coefficient is 0 on only some of its lines, all 64.
        form = hankel._param_form_raw
        zeta_points = []

        def counting(alpha_value, p, y, zeta):
            out = form(alpha_value, p, y, zeta)
            if np.ndim(zeta):
                zeta_points.append(out.size)
            return out

        monkeypatch.setattr(hankel, "_param_form_raw", counting)
        maximize_param(Alpha(a))
        assert sum(zeta_points) == points


class TestZetaFreeLines:
    """A row whose zeta coefficient p q (1 - |y|^2) is exactly 0 on every
    line evaluates one zeta: there |Psi| is one double along each line.

    At alpha = 0.5, c = 0: the quartic term is -0.0 and the p = 2 rows are 0.
    """

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75, 0.99])
    def test_modulus_constant_along_the_line(self, a):
        ps = np.linspace(0.0, 2.0, search.DEFAULT_GRID_P)
        ts = np.linspace(0.0, 1.0, search.DEFAULT_GRID_T)
        e_mu = np.exp(1j * np.arange(search.DEFAULT_GRID_YARG)
                      * (2.0 * math.pi / search.DEFAULT_GRID_YARG))
        e_nu = np.exp(1j * np.arange(search.DEFAULT_GRID_ZARG)
                      * (2.0 * math.pi / search.DEFAULT_GRID_ZARG))
        rows = [(0, ti) for ti in range(ts.size)] + [(ps.size - 1, ti) for ti in range(ts.size)]
        rows += [(i, ts.size - 1) for i in range(ps.size)]
        zero_lines = 0
        for i, ti in rows:
            y = (ts[ti] * e_mu)[:, None]
            flat = hankel._zeta_coefficient(ps[i], y)[:, 0] == 0.0
            vals = np.abs(hankel._param_form_raw(a, ps[i], y[flat], e_nu[None, :]))
            assert vals.tobytes() == np.repeat(vals[:, :1], e_nu.size, axis=1).tobytes()
            zero_lines += int(flat.sum())
        # Every line of the p = 0 and p = 2 rows, and some of the |y| = 1 lines.
        assert zero_lines > 2 * ts.size * e_mu.size
        if a == 0.5:
            assert not np.abs(hankel._param_form_raw(a, 2.0, ts[:, None] * e_mu, 1.0)).any()

    def test_maximum_off_the_first_zeta(self, monkeypatch):
        # A form with the real zeta coefficient, largest at zeta index 3 of 8
        # on the row p = 1.15, t = 0: a row with a nonzero coefficient must
        # evaluate the whole zeta axis.
        coefficient = hankel._zeta_coefficient

        def form(alpha_value, p, y, zeta):
            return 0.5 + coefficient(p, y) * zeta * np.exp(-0.75j * math.pi)

        monkeypatch.setattr(hankel, "_param_form_raw", form)
        monkeypatch.setattr(hankel, "phi", _constant_bound(10.0))
        want = _maximize_param_full(Alpha(0.3), **SMALL_PARAM_GRIDS)
        assert want.argmax["zeta"] == np.exp(0.75j * math.pi)
        assert maximize_param(Alpha(0.3), **SMALL_PARAM_GRIDS).to_json() == want.to_json()


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


def _h2_at_extremal(alpha):
    """The atom search's objective at the extremal atoms (0.5, 0.5), (0, pi)."""
    weights = np.array([EXTREMAL_ATOMS.weights])
    angles = np.array([EXTREMAL_ATOMS.angles])
    return search._h2_rows(alpha, weights, search._kernels(angles))[0]


class TestMaximizeHerglotz:
    def test_seeded_at_extremal_evaluation_only(self):
        for a in (0.0, 0.25, 0.8):
            assert _h2_at_extremal(a) == sharp_bound(Alpha(a))

    def test_quarter_alpha_seeded(self):
        assert _h2_at_extremal(0.25) == pytest.approx(9.0 / 16.0, abs=1e-10)

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
        outcome = maximize_herglotz(Alpha(0.3), restarts=5, seed=12)
        atoms = HerglotzAtoms(tuple(outcome.argmax["weights"]), tuple(outcome.argmax["angles"]))
        f = coeffs_from_moments(Alpha(0.3), moments_from_atoms(atoms, 3))
        assert abs(outcome.value - abs(hankel_det(f, HankelSpec(2, 2)))) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), atom_count=0)
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), atom_count=5)
        with pytest.raises(DomainError):
            maximize_herglotz(Alpha(0.1), restarts=0)


def _scalar_h2(alpha, w, t):
    """|a2 a4 - a3^2| of one atom measure at the alpha value ``alpha``, by the
    one-point route.

    Moments from one matrix-vector product, the recurrence through np.dot,
    the determinant from products of complex scalars: the reference for the
    batched row kernel.
    """
    p = 2.0 * (np.exp(1j * np.outer([1.0, 2.0, 3.0], t)) @ w)
    a = np.zeros(4, dtype=complex)
    a[0] = 1.0
    for n in range(2, 5):
        a[n - 1] = (1.0 - alpha) / (n - 1) * np.dot(a[: n - 1][::-1], p[: n - 1])
    return abs(complex(a[1] * a[3] - a[2] * a[2]))


def _refine_atoms(objective, weights, angles, sweeps):
    """One restart of the coordinate-wise pattern search, one probe at a time."""
    w = np.asarray(weights, dtype=float).copy()
    t = np.asarray(angles, dtype=float).copy()
    best = objective(w, t)
    evals = 1
    step_w, step_t = 0.15, 0.4
    for _ in range(sweeps):
        improved = False
        for i in range(w.size):
            for delta in (step_w, -step_w):
                trial = w.copy()
                trial[i] = max(0.0, trial[i] + delta)
                total = trial.sum()
                if total <= 0.0:
                    continue
                trial /= total
                val = objective(trial, t)
                evals += 1
                if val > best:
                    best, w, improved = val, trial, True
        for i in range(t.size):
            for delta in (step_t, -step_t):
                trial = t.copy()
                trial[i] = (trial[i] + delta) % (2.0 * math.pi)
                val = objective(w, trial)
                evals += 1
                if val > best:
                    best, t, improved = val, trial, True
        if not improved:
            step_w *= 0.5
            step_t *= 0.5
            if step_w < 1e-12 and step_t < 1e-12:
                break
    return best, w, t, evals


def _herglotz_one_at_a_time(alpha, atom_count=2, restarts=100, local_steps=60, seed=0):
    """maximize_herglotz with each restart drawn and refined before the next."""
    rng = np.random.default_rng(seed)

    def objective(w, t):
        return _scalar_h2(alpha, w, t)

    evaluations = 0
    best_val = -math.inf
    best_w = best_t = None
    for _ in range(restarts):
        w0 = rng.dirichlet(np.ones(atom_count))
        t0 = rng.uniform(0.0, 2.0 * math.pi, atom_count)
        val, w, t, n_evals = _refine_atoms(objective, w0, t0, local_steps)
        evaluations += n_evals
        if val > best_val:
            best_val, best_w, best_t = val, w, t
    return SearchOutcome(
        value=float(best_val),
        argmax={"weights": [float(x) for x in best_w], "angles": [float(x) for x in best_t]},
        method="herglotz",
        grid_spec={"atom_count": atom_count, "restarts": restarts,
                   "local_steps": local_steps, "seed": seed},
        evaluations=evaluations,
    )


class TestHerglotzRowKernel:
    """The batched objective against the one-point route, bit for bit."""

    ROWS = 1000

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bit_equal_at_every_batch_size(self, k):
        rng = np.random.default_rng(40 + k)
        alpha = float(rng.uniform(0.0, 1.0))
        w = rng.dirichlet(np.ones(k), size=self.ROWS)
        t = rng.uniform(0.0, 2.0 * math.pi, size=(self.ROWS, k))
        spec = HankelSpec(2, 2)
        via_api = np.array([
            abs(hankel_det(coeffs_from_moments(
                Alpha(alpha), 2.0 * (np.exp(1j * np.outer([1.0, 2.0, 3.0], t[r])) @ w[r])), spec))
            for r in range(self.ROWS)
        ])
        one_point = np.array([_scalar_h2(alpha, w[r], t[r]) for r in range(self.ROWS)])
        batch = search._h2_rows(alpha, w, search._kernels(t))
        singles = np.concatenate(
            [search._h2_rows(alpha, w[r : r + 1], search._kernels(t[r : r + 1]))
             for r in range(self.ROWS)]
        )
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
        batch = search._h2_rows(values, w, search._kernels(t))
        for r in range(values.size):
            alpha = float(values[r])
            one = search._h2_rows(alpha, w[r : r + 1], search._kernels(t[r : r + 1]))
            assert batch[r : r + 1].tobytes() == one.tobytes()
            assert batch[r] == _scalar_h2(alpha, w[r], t[r])


class TestKernelCache:
    """_refine_rows keeps each row's kernels and recomputes one column per angle probe."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_column_equals_kernels_of_that_column(self, k):
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
        whole = search._kernels(t)
        for i in range(k):
            column = search._kernels(t[:, i : i + 1])[:, :, 0]
            assert whole[:, :, i].tobytes() == column.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cache_follows_the_angles(self, monkeypatch, k):
        # No row stops within these sweeps and every weight probe is counted,
        # so each sweep's first weight probe passes the whole cache.
        rng = np.random.default_rng(70 + k)
        rows, sweeps = 50, 5
        alphas = rng.uniform(0.0, 1.0, rows)
        w = rng.dirichlet(np.ones(k), size=rows)
        t = rng.uniform(0.0, search._TWO_PI, size=(rows, k))
        angles_after = [search._refine_rows(alphas, w, t, s)[2] for s in range(sweeps)]
        seen = []
        kernel = search._h2_rows

        def spy(alpha, weights, kernels):
            seen.append(kernels.copy())
            return kernel(alpha, weights, kernels)

        monkeypatch.setattr(search, "_h2_rows", spy)
        search._refine_rows(alphas, w, t, sweeps)
        assert len(seen) == 1 + sweeps * 4 * k
        for s, angles in enumerate(angles_after):
            cached = seen[1 + s * 4 * k]
            assert cached.tobytes() == search._kernels(angles).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exp_only_on_the_moved_column(self, monkeypatch, k):
        # One exp of the start angles, then one column per angle probe and
        # none per weight probe.
        rng = np.random.default_rng(80 + k)
        rows, sweeps = 50, 5
        alphas = rng.uniform(0.0, 1.0, rows)
        w = rng.dirichlet(np.ones(k), size=rows)
        t = rng.uniform(0.0, search._TWO_PI, size=(rows, k))
        shapes = []
        exp = np.exp

        def spy(x):
            shapes.append(x.shape)
            return exp(x)

        monkeypatch.setattr(np, "exp", spy)
        search._refine_rows(alphas, w, t, sweeps)
        assert shapes == [(rows, 3, k)] + [(rows, 3, 1)] * (sweeps * 2 * k)


class TestLiveRowRetirement:
    """_refine_rows writes each row out at its own row id when the row stops."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_row_equals_its_restart_alone(self, k):
        rng = np.random.default_rng(90 + k)
        restarts, sweeps = 7, 60
        w0 = rng.dirichlet(np.ones(k), size=restarts)
        t0 = rng.uniform(0.0, 2.0 * math.pi, size=(restarts, k))
        alphas = np.repeat([0.0, 0.45, 0.9], restarts)
        w, t = np.tile(w0, (3, 1)), np.tile(t0, (3, 1))
        best, ws, ts, evals = search._refine_rows(alphas, w, t, sweeps)
        # Rows stop at different sweeps, so some leave the batch before others.
        assert np.unique(evals).size > 1
        for r, alpha in enumerate(alphas):
            objective = functools.partial(_scalar_h2, float(alpha))
            val, w_r, t_r, evals_r = _refine_atoms(objective, w[r], t[r], sweeps)
            assert best[r] == val, r
            assert ws[r].tobytes() == w_r.tobytes(), r
            assert ts[r].tobytes() == t_r.tobytes(), r
            assert evals[r] == evals_r, r


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
        want = _herglotz_one_at_a_time(a, **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want

    @pytest.mark.parametrize("atom_count, a", [(1, 0.3), (2, 0.55), (3, 0.45)])
    def test_full_refinement_with_stop_rule(self, atom_count, a):
        # With 60 sweeps most one- and two-atom restarts halve their steps
        # below 1e-12 and stop early, each at its own sweep.
        kwargs = dict(atom_count=atom_count, restarts=6, seed=5)
        want = _herglotz_one_at_a_time(a, **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want


def _sweep_one_alpha_at_a_time(alpha_start, alpha_end, steps, seed=0, **kwargs):
    """sweep_alpha's herglotz rows from one maximize_herglotz call per alpha."""
    rows = []
    for a in np.linspace(alpha_start, alpha_end, steps + 1):
        alpha = Alpha(float(a))
        outcome = maximize_herglotz(alpha, seed=seed, **kwargs)
        bound = sharp_bound(alpha)
        rows.append(SweepRow(float(a), float(outcome.value), float(bound),
                             abs(float(outcome.value) - float(bound)),
                             search._summarize_argmax(outcome)))
    return rows


def _row_bits(rows):
    return [(r.alpha.hex(), r.searched_max.hex(), r.sharp_bound.hex(), r.abs_gap.hex(),
             r.argmax_summary) for r in rows]


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
        want = _row_bits(_sweep_one_alpha_at_a_time(0.0, 0.9, steps, seed=seed, **kwargs))
        for cap in self.caps(restarts):
            monkeypatch.setattr(search, "_HERGLOTZ_BATCH_ROWS", cap)
            got = sweep_alpha(0.0, 0.9, steps, "herglotz", seed=seed, **kwargs)
            assert _row_bits(got) == want, cap

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
        want = cli.sweep_csv(_sweep_one_alpha_at_a_time(0.0, 0.9, steps, seed=seed, **kwargs))
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
        seen = []
        kernel = search._h2_rows

        def counting(alpha, weights, angles):
            seen.append(weights.shape[0])
            return kernel(alpha, weights, angles)

        monkeypatch.setattr(search, "_h2_rows", counting)
        code = cli.main(["sweep", "--alpha-start", "0", "--alpha-end", "0.99",
                         "--steps", "99", "--method", "herglotz", "--local-steps", "3",
                         "--out", os.devnull])
        assert code == 0
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
