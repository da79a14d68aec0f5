"""Acceptance checks: every headline claim of the toolkit, run end to end.

Each check returns a CheckResult; ``run_all`` prints one pass/fail line per
check.  The CLI ``check`` subcommand and tests/test_acceptance.py both drive
these functions, so the gate is identical everywhere.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .caratheodory import (
    MomentTriple,
    _lemma_forward_raw,
    _lemma_row_blocks,
    lemma_forward,
    lemma_inverse,
    moments_from_atoms,
    normalize_rotation,
    random_atoms,
    random_disk_point,
    LemmaPoint,
)
from .hankel import (
    HankelSpec,
    _moment_form_raw,
    _param_form_raw,
    _phi_raw,
    bound_profile,
    functional_moment_form,
    hankel_det,
    phi,
    sharp_bound,
)
from .search import maximize_herglotz, maximize_param, maximize_phi, monotonicity_scan
from .starlike import Alpha, closed_form_a234, coeffs_from_moments, extremal_coeffs

ALPHA_GRID = [0.05 * k for k in range(20)]
ALPHA_SPOT = [0.0, 0.25, 0.5, 0.75]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name, fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)


def check_sharp_bound_reproduction() -> CheckResult:
    """Majorant search returns (1 - alpha)^2 within 1e-9 in under 1 s per alpha."""

    def body():
        worst_gap = 0.0
        worst_time = 0.0
        for a in ALPHA_GRID:
            alpha = Alpha(a)
            t0 = time.perf_counter()
            outcome = maximize_phi(alpha)
            dt = time.perf_counter() - t0
            worst_time = max(worst_time, dt)
            worst_gap = max(worst_gap, abs(outcome.value - sharp_bound(alpha)))
        ok = worst_gap <= 1e-9 and worst_time < 1.0
        return ok, f"worst |value - bound| = {worst_gap:.3e}, worst time = {worst_time:.3f}s"

    return _run("sharp-bound-reproduction", body)


def check_sharpness_attainment() -> CheckResult:
    """The extremal odd function attains the bound: a2 = a4 = 0, a3 = 1 - alpha."""

    def body():
        spec = HankelSpec(q=2, n=2)
        worst = 0.0
        for a in ALPHA_GRID:
            alpha = Alpha(a)
            f = extremal_coeffs(alpha, 8)
            det = hankel_det(f, spec)
            target = sharp_bound(alpha)
            worst = max(
                worst,
                abs(f.coeff(2)),
                abs(f.coeff(4)),
                abs(f.coeff(3) - (1.0 - a)),
                abs(det + target),
                abs(abs(det) - target),
            )
        return worst <= 1e-12, f"worst deviation = {worst:.3e}"

    return _run("sharpness-attainment", body)


def check_full_param_search() -> CheckResult:
    """Full (p, y, zeta) grid search lands within [bound - 5e-3, bound + 1e-9]."""

    def body():
        msgs = []
        ok = True
        p_cell = 2.0 / (201 - 1)
        t_cell = 1.0 / (101 - 1)
        for a in ALPHA_SPOT:
            alpha = Alpha(a)
            t0 = time.perf_counter()
            outcome = maximize_param(alpha)
            dt = time.perf_counter() - t0
            bound = sharp_bound(alpha)
            p_at = float(outcome.argmax["p"])
            y_mod = abs(outcome.argmax["y"])
            here = (
                bound - 5e-3 <= outcome.value <= bound + 1e-9
                and p_at <= p_cell + 1e-12
                and abs(1.0 - y_mod) <= t_cell + 1e-12
                and dt < 60.0
            )
            if a == 0.0:
                here = here and p_at == 0.0  # tie-break must report p = 0
            ok = ok and here
            msgs.append(f"a={a}: gap={bound - outcome.value:.2e} p*={p_at:g} t={dt:.1f}s")
        return ok, "; ".join(msgs)

    return _run("full-parameter-search", body)


def check_herglotz_search() -> CheckResult:
    """Atom-measure search with 2 atoms and 100 restarts reaches the bound - 1e-2."""

    def body():
        ok = True
        msgs = []
        for a in ALPHA_SPOT:
            alpha = Alpha(a)
            outcome = maximize_herglotz(alpha, atom_count=2, restarts=100, seed=20240817)
            bound = sharp_bound(alpha)
            here = bound - 1e-2 <= outcome.value <= bound + 1e-9
            ok = ok and here
            msgs.append(f"a={a}: gap={bound - outcome.value:.2e}")
        return ok, "; ".join(msgs)

    return _run("herglotz-search", body)


def check_prior_result_anchors() -> CheckResult:
    """alpha = 0 gives the classical bound 1 (Koebe attains it); alpha = 1/2 gives 1/4."""

    def body():
        koebe = coeffs_from_moments(Alpha(0.0), [2.0, 2.0, 2.0])
        det = hankel_det(koebe, HankelSpec(q=2, n=2))
        gap0 = abs(maximize_phi(Alpha(0.0)).value - 1.0)
        gap_half = abs(maximize_phi(Alpha(0.5)).value - 0.25)
        ok = (
            sharp_bound(Alpha(0.0)) == 1.0
            and sharp_bound(Alpha(0.5)) == 0.25
            and list(koebe.coeffs) == [1, 2, 3, 4]
            and abs(det) == 1.0
            and gap0 <= 1e-9
            and gap_half <= 1e-9
        )
        return ok, (
            f"koebe det = {det.real:g}, search gaps: alpha=0 -> {gap0:.2e}, "
            f"alpha=1/2 -> {gap_half:.2e}"
        )

    return _run("prior-result-anchors", body)


def check_algebra_reconciliation() -> CheckResult:
    """Moment form matches the closed-form route; parameterized form matches both.

    1,000 scalar draws compare the moment form with a2 a4 - a3^2 from the
    closed forms.  Then 100,000 draws of (alpha, p, y, zeta) from the same
    generator, in blocks of rows from _lemma_row_blocks, compare the
    five-term form with the moment form of the substituted moments.
    """

    def body():
        rng = np.random.default_rng(11)
        worst_rel = 0.0
        for _ in range(1000):
            alpha = Alpha(rng.random())
            m = MomentTriple(
                random_disk_point(rng, 2.0),
                random_disk_point(rng, 2.0),
                random_disk_point(rng, 2.0),
            )
            a2, a3, a4 = closed_form_a234(alpha, m)
            direct = a2 * a4 - a3 * a3
            diff = abs(functional_moment_form(alpha, m) - direct)
            worst_rel = max(worst_rel, diff / max(1.0, abs(direct)))
        worst_sub = 0.0
        for alpha, p, y, zeta in _lemma_row_blocks(rng, 100_000):
            diff = np.abs(
                _param_form_raw(alpha, p, y, zeta)
                - _moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta))
            )
            worst_sub = max(worst_sub, float(diff.max()))
        ok = worst_rel <= 1e-12 and worst_sub <= 1e-12
        return ok, f"worst relative = {worst_rel:.3e}, worst substitution = {worst_sub:.3e}"

    return _run("algebra-reconciliation", body)


def check_proof_step_properties() -> CheckResult:
    """Domination |Psi| <= phi, monotonicity of phi in t, profile identity and bound.

    Domination is sampled at 100,000 draws of (alpha, p, y, zeta), in blocks
    of rows from _lemma_row_blocks.
    """

    def body():
        rng = np.random.default_rng(12)
        worst_dom = -np.inf
        for alpha, p, y, zeta in _lemma_row_blocks(rng, 100_000):
            slack = np.abs(_param_form_raw(alpha, p, y, zeta)) - _phi_raw(alpha, p, np.abs(y))
            worst_dom = max(worst_dom, float(slack.max()))
        violations = 0
        worst_ident = 0.0
        worst_excess = -np.inf
        ps = np.linspace(0.0, 2.0, 101)
        for a in np.linspace(0.0, 0.95, 20):
            alpha = Alpha(float(a))
            v, _ = monotonicity_scan(alpha, 101, 101)
            violations += v
            prof = bound_profile(alpha, ps)
            worst_ident = max(worst_ident, float(np.max(np.abs(phi(alpha, ps, 1.0) - prof))))
            worst_excess = max(worst_excess, float(np.max(prof)) - sharp_bound(alpha))
        ok = (
            worst_dom <= 1e-12
            and violations == 0
            and worst_ident <= 1e-12
            and worst_excess <= 1e-12
        )
        return ok, (
            f"domination slack = {worst_dom:.3e}, monotonicity violations = {violations}, "
            f"profile identity = {worst_ident:.3e}, profile excess = {worst_excess:.3e}"
        )

    return _run("proof-step-properties", body)


def check_caratheodory_admissibility() -> CheckResult:
    """Random atom moments pass the Toeplitz oracle; the moment round-trip holds."""

    def body():
        from .caratheodory import toeplitz_psd

        rng = np.random.default_rng(13)
        worst_eig = np.inf
        worst_rt = 0.0
        round_trips = 0
        for _ in range(1000):
            atoms = random_atoms(rng)
            moments = moments_from_atoms(atoms, 3)
            min_eig, admissible = toeplitz_psd(moments)
            worst_eig = min(worst_eig, min_eig)
            if not admissible:
                return False, f"inadmissible atom measure found, min eig = {min_eig:.3e}"
            rotated, _ = normalize_rotation(moments)
            m = MomentTriple(*rotated)
            p = m.p1.real
            if p >= 2.0 - 1e-3:
                continue
            y, zeta = lemma_inverse(m)
            if zeta is None or abs(y) >= 1.0 - 1e-6:
                continue
            # rounding can park the recovered zeta marginally outside the disk
            if abs(zeta) > 1.0:
                zeta = zeta / abs(zeta)
            back = lemma_forward(LemmaPoint(p, y, zeta))
            worst_rt = max(
                worst_rt,
                abs(back.p1 - m.p1),
                abs(back.p2 - m.p2),
                abs(back.p3 - m.p3),
            )
            round_trips += 1
        ok = worst_eig >= -1e-9 and worst_rt <= 1e-10 and round_trips > 0
        return ok, (
            f"min eigenvalue = {worst_eig:.3e}, round trips = {round_trips}, "
            f"worst round-trip error = {worst_rt:.3e}"
        )

    return _run("caratheodory-admissibility", body)


def check_sweep_determinism() -> CheckResult:
    """The golden sweep CSV is byte-identical across runs and worker counts."""

    def body():
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

    return _run("sweep-determinism", body)


CHECKS_BY_NAME = {
    "sharp-bound-reproduction": check_sharp_bound_reproduction,
    "sharpness-attainment": check_sharpness_attainment,
    "full-parameter-search": check_full_param_search,
    "herglotz-search": check_herglotz_search,
    "prior-result-anchors": check_prior_result_anchors,
    "algebra-reconciliation": check_algebra_reconciliation,
    "proof-step-properties": check_proof_step_properties,
    "caratheodory-admissibility": check_caratheodory_admissibility,
    "sweep-determinism": check_sweep_determinism,
}

ALL_CHECKS = list(CHECKS_BY_NAME.values())


def run_all(checks=None, stream=None):
    """Run the checks, printing one pass/fail line per criterion."""
    import sys

    out = stream if stream is not None else sys.stdout
    results = []
    for fn in checks if checks is not None else ALL_CHECKS:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} [{res.seconds:.2f}s] {res.detail}", file=out)
    return results
