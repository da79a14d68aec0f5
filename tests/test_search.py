import math

import numpy as np
import pytest

from h2star import (
    Alpha,
    DomainError,
    HankelSpec,
    HerglotzAtoms,
    InvalidAtoms,
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
from h2star import hankel, search
from h2star.search import TIE_TOL, SearchOutcome, run_method

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
        def form(alpha_value, p, y, zeta):
            return (1.0 + 0.4 * TIE_TOL * p) * np.ones_like(y * zeta)

        monkeypatch.setattr(hankel, "_param_form_raw", form)
        self._check_param(form, 0.3)

    @pytest.mark.parametrize("a", ALPHAS)
    @pytest.mark.parametrize("grid", [(51, 26), (201, 101)])
    def test_phi(self, a, grid):
        ps = np.linspace(0.0, 2.0, grid[0])
        ts = np.linspace(0.0, 1.0, grid[1])
        pi, ti = self._oracle(phi(Alpha(a), ps[:, None], ts[None, :]))
        outcome = maximize_phi(Alpha(a), *grid)
        assert outcome.argmax == {"p": ps[pi], "t": ts[ti]}


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


class TestMaximizeHerglotz:
    def test_seeded_at_extremal_evaluation_only(self):
        for a in (0.0, 0.25, 0.8):
            outcome = maximize_herglotz(
                Alpha(a), atom_count=2, restarts=0, seed_atoms=EXTREMAL_ATOMS
            )
            assert outcome.value == sharp_bound(Alpha(a))

    def test_quarter_alpha_seeded(self):
        outcome = maximize_herglotz(
            Alpha(0.25), atom_count=2, restarts=0, seed_atoms=EXTREMAL_ATOMS
        )
        assert outcome.value == pytest.approx(9.0 / 16.0, abs=1e-10)

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

    @pytest.mark.parametrize("weights, angles", [((math.nan,), (0.0,)), ((1.0,), (math.inf,))])
    def test_non_finite_seed_atoms_rejected(self, weights, angles):
        with pytest.raises(InvalidAtoms):
            maximize_herglotz(Alpha(0.1), restarts=0, seed_atoms=HerglotzAtoms(weights, angles))


def _scalar_h2(alpha, w, t):
    """|a2 a4 - a3^2| of one atom measure, by the one-point route.

    Moments from one matrix-vector product, the recurrence through np.dot,
    the determinant from products of complex scalars: the reference for the
    batched row kernel.
    """
    p = 2.0 * (np.exp(1j * np.outer([1.0, 2.0, 3.0], t)) @ w)
    a = np.zeros(4, dtype=complex)
    a[0] = 1.0
    for n in range(2, 5):
        a[n - 1] = (1.0 - alpha.value) / (n - 1) * np.dot(a[: n - 1][::-1], p[: n - 1])
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


def _herglotz_one_at_a_time(alpha, atom_count=2, restarts=100, local_steps=60, seed=0,
                            seed_atoms=None):
    """maximize_herglotz with each restart drawn and refined before the next."""
    rng = np.random.default_rng(seed)

    def objective(w, t):
        return _scalar_h2(alpha, w, t)

    evaluations = 0
    best_val = -math.inf
    best_w = best_t = None
    if seed_atoms is not None:
        best_w = np.asarray(seed_atoms.weights, dtype=float)
        best_t = np.asarray(seed_atoms.angles, dtype=float)
        best_val = objective(best_w, best_t)
        evaluations += 1
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
        alpha = Alpha(float(rng.uniform(0.0, 1.0)))
        w = rng.dirichlet(np.ones(k), size=self.ROWS)
        t = rng.uniform(0.0, 2.0 * math.pi, size=(self.ROWS, k))
        spec = HankelSpec(2, 2)
        via_api = np.array([
            abs(hankel_det(coeffs_from_moments(
                alpha, 2.0 * (np.exp(1j * np.outer([1.0, 2.0, 3.0], t[r])) @ w[r])), spec))
            for r in range(self.ROWS)
        ])
        one_point = np.array([_scalar_h2(alpha, w[r], t[r]) for r in range(self.ROWS)])
        batch = search._h2_rows(alpha, w, t)
        singles = np.concatenate(
            [search._h2_rows(alpha, w[r : r + 1], t[r : r + 1]) for r in range(self.ROWS)]
        )
        assert via_api.tobytes() == one_point.tobytes()
        assert batch.tobytes() == via_api.tobytes()
        assert singles.tobytes() == via_api.tobytes()


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
        want = _herglotz_one_at_a_time(Alpha(a), **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want

    @pytest.mark.parametrize("atom_count, a", [(1, 0.3), (2, 0.55), (3, 0.45)])
    def test_full_refinement_with_stop_rule(self, atom_count, a):
        # With 60 sweeps most one- and two-atom restarts halve their steps
        # below 1e-12 and stop early, each at its own sweep.
        kwargs = dict(atom_count=atom_count, restarts=6, seed=5)
        want = _herglotz_one_at_a_time(Alpha(a), **kwargs).to_json()
        assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want

    @pytest.mark.parametrize("restarts", [0, 5])
    @pytest.mark.parametrize(
        "seed_atoms",
        [EXTREMAL_ATOMS, HerglotzAtoms((0.2, 0.3, 0.5), (1.0, 2.0, 3.0))],
    )
    def test_seed_atoms(self, seed_atoms, restarts):
        kwargs = dict(atom_count=2, restarts=restarts, local_steps=8, seed=9,
                      seed_atoms=seed_atoms)
        for a in (0.3, 0.7):
            want = _herglotz_one_at_a_time(Alpha(a), **kwargs).to_json()
            assert maximize_herglotz(Alpha(a), **kwargs).to_json() == want


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
