"""Independent references for the tests, each contract stated once.

Each function writes a sampler or a search out one candidate, point, call
or restart at a time, as the package computed it before its array kernels
and lock-step batches, or a kernel's formula term by term in real
arithmetic; the tests compare the package with them, mostly bit for bit.
None calls the code it is the reference for.  round_trip and
sweep_one_alpha_at_a_time call the scalar exports and maximize_herglotz, as
references for the row kernels and the cross-alpha batch.
"""
import dataclasses
import math

import numpy as np

import h2star
from h2star import (Alpha, LemmaPoint, MomentTriple, lemma_inverse, maximize_herglotz,
                    normalize_rotation, search, sharp_bound)
from h2star.search import SearchOutcome, SweepRow
from h2star.tolerances import TIE_TOL


def bits(value):
    """``value`` in a form that is equal exactly when its bits are.

    A search record is its JSON text, a coefficient vector its coefficients,
    and a sweep row, or a list of them, the tuple of its fields; numbers and
    arrays of numbers are the bytes of a complex array, so a float and its
    complex cast compare alike.
    """
    if isinstance(value, SearchOutcome):
        return value.to_json()
    if isinstance(value, SweepRow):
        return tuple(v if isinstance(v, str) else bits(v) for v in dataclasses.astuple(value))
    if isinstance(value, list) and value and isinstance(value[0], SweepRow):
        return [bits(row) for row in value]
    return np.asarray(getattr(value, "coeffs", value), dtype=complex).tobytes()


def lemma_axes(grid_p=search.DEFAULT_GRID_P, grid_ymod=search.DEFAULT_GRID_T,
               grid_yarg=search.DEFAULT_GRID_YARG, grid_zarg=search.DEFAULT_GRID_ZARG):
    """The axes p, |y|, e^{i arg y} and e^{i arg zeta} of the lemma grid, built
    as maximize_param builds them."""
    e_mu, e_nu = (np.exp(1j * np.arange(n) * (2.0 * math.pi / n)) for n in (grid_yarg, grid_zarg))
    return np.linspace(0.0, 2.0, grid_p), np.linspace(0.0, 1.0, grid_ymod), e_mu, e_nu


def first_tied(vals, vmax):
    """The first index of ``vals``, in C order, at or above vmax - TIE_TOL * vmax.

    np.argwhere lists indices in C order, which is lexicographic order.
    """
    return tuple(int(i) for i in np.argwhere(vals >= vmax - TIE_TOL * vmax)[0])


def join(re, im):
    """The complex number, or array, with the parts ``re`` and ``im``, signed zeros kept."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return complex(out) if out.ndim == 0 else out


# Samplers, one candidate at a time.

def disk_parts(rng, n):
    """Real and imaginary parts of n points uniform on the closed unit disk.

    Each round draws twice the shortfall of candidates, their x and then
    their y as one call, and keeps each candidate in turn with
    x * x + y * y <= 1 until n are kept.
    """
    xs, ys = [], []
    while len(xs) < n:
        u, v = rng.uniform(-1.0, 1.0, (2, 2 * (n - len(xs)))).tolist()
        for x, y in zip(u, v):
            if len(xs) < n and x * x + y * y <= 1.0:
                xs.append(x)
                ys.append(y)
    return np.array(xs, dtype=float), np.array(ys, dtype=float)


def disk_point(rng, radius=1.0):
    """One point uniform on the closed disk of ``radius``, as random_disk_point draws it."""
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def lemma_rows(rng, count, block=4096):
    """(count, 6) rows (alpha, p, Re y, Im y, Re zeta, Im zeta), drawn in
    blocks of ``block`` rows: the alphas, the ps on [0, 2), then the disk
    points of the ys, then those of the zetas."""
    rows = [np.empty((0, 6))]
    for done in range(0, count, block):
        n = min(block, count - done)
        alpha, p = rng.random(n), rng.uniform(0.0, 2.0, n)
        rows.append(np.column_stack((alpha, p, *disk_parts(rng, n), *disk_parts(rng, n))))
    return np.concatenate(rows)


def triple_rows(rng, count):
    """alpha uniform on [0, 1), then p1, p2, p3, each a (real, imaginary)
    pair uniform on the disk of radius 2."""
    alpha = rng.random(count)
    x, y = disk_parts(rng, 3 * count)
    return (alpha, *((2.0 * x[k * count:(k + 1) * count], 2.0 * y[k * count:(k + 1) * count])
                     for k in range(3)))


# Kernels: each formula written out in real arithmetic, on complex scalars
# or arrays, in the package's order of operations.

def lemma_forward(p, y, zeta):
    """The moments (p1, p2, p3) of the lemma point (p, y, zeta), on scalars or arrays."""
    yr, yi, zr, zi = y.real, y.imag, zeta.real, zeta.imag
    q = 4.0 - p * p
    p2 = join((p * p + q * yr) / 2.0, q * yi / 2.0)
    w = 2.0 * q * (1.0 - (yr * yr + yi * yi))
    p3 = join((p * p * p + p * q * (2.0 * yr - (yr * yr - yi * yi)) + w * zr) / 4.0,
              (p * q * (2.0 * yi - (yr * yi + yi * yr)) + w * zi) / 4.0)
    return join(p, 0.0 * p), p2, p3


def zeta_free_terms(a, p, y):
    """The four zeta-free terms of the five-term form over s2, each written out in full."""
    c = 3.0 - 8.0 * a + 4.0 * a * a
    q = 4.0 - p * p
    yr, yi = y.real, y.imag
    w = p * p * q / 12.0 + q * q / 16.0
    return join(-c * (p * p * (p * p)) / 48.0 + p * p * q * yr / 24.0 - w * (yr * yr - yi * yi),
                p * p * q * yi / 24.0 - w * (yr * yi + yi * yr))


def param_form(a, p, y, zeta):
    """The five-term form Psi(p, y, zeta), its zeta term written inline."""
    b = p * (4.0 - p * p) * (1.0 - (y.real * y.real + y.imag * y.imag)) / 6.0
    free = zeta_free_terms(a, p, y)
    s2 = (1.0 - a) ** 2
    return join(s2 * (free.real + b * zeta.real), s2 * (free.imag + b * zeta.imag))


def moment_form(a, m):
    """a2 a4 - a3^2 of the moment triple ``m`` at the alpha value ``a``."""
    s2 = (1.0 - a) ** 2
    (r1, i1), (r2, i2), (r3, i3) = ((x.real, x.imag) for x in (m.p1, m.p2, m.p3))
    sr, si = r1 * r1 - i1 * i1, r1 * i1 + i1 * r1
    terms = ((sr * sr - si * si, r2 * r2 - i2 * i2, r1 * r3 - i1 * i3),
             (sr * si + si * sr, r2 * i2 + i2 * r2, r1 * i3 + i1 * r3))
    return complex(*(s2 * (-s2 * x / 12.0 - y / 4.0 + z / 3.0) for x, y, z in terms))


def phi(a, p, t):
    """The majorant phi(p, t) at the alpha value ``a``, on scalars or arrays."""
    p_arr = np.asarray(p, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    s2 = (1.0 - a) ** 2
    c = abs(3.0 - 8.0 * a + 4.0 * a**2)
    q = 4.0 - p_arr * p_arr
    val = s2 * (
        c * (p_arr * p_arr * (p_arr * p_arr)) / 48.0
        + p_arr * p_arr * q * t_arr / 24.0
        + p_arr * p_arr * q * (t_arr * t_arr) / 12.0
        + q * q * (t_arr * t_arr) / 16.0
        + p_arr * q * (1.0 - t_arr * t_arr) / 6.0
    )
    return float(val) if val.ndim == 0 else val


def atom_moments(atoms, m):
    """p_1..p_m of an atom measure, as sums of weighted kernels."""
    return _ordered_moments(atoms.weights, atoms.angles, m)


def _ordered_moments(weights, angles, m):
    """p_n = 2 sum_k w_k e^{i n t_k}, n = 1..m, each sum added left to right
    in real arithmetic."""
    moments = []
    for kern in np.exp(1j * np.outer(np.arange(1, m + 1), angles)).tolist():
        re, im = _left_to_right([(float(w) * e.real, float(w) * e.imag)
                                 for w, e in zip(weights, kern)])
        moments.append(complex(2.0 * re, 2.0 * im))
    return np.array(moments)


def _left_to_right(terms):
    """The sum of the (re, im) pairs ``terms``, added left to right."""
    re, im = terms[0]
    for tr, ti in terms[1:]:
        re, im = re + tr, im + ti
    return re, im


def toeplitz_min_eig(p):
    """The least eigenvalue of the Toeplitz matrix of the moments 2, p_1..p_m,
    for one row of moments or each row of an (n, m) array."""
    m = p.shape[-1]
    two = np.full(p.shape[:-1] + (1,), 2.0 + 0.0j)
    full = np.concatenate((np.conj(p[..., ::-1]), two, p), axis=-1)
    idx = np.subtract.outer(np.arange(m + 1), np.arange(m + 1))
    least = np.linalg.eigvalsh(full[..., m + idx])[..., 0]
    return float(least) if least.ndim == 0 else least


def ordered_recurrence(alpha, p):
    """The coefficients 1, a_2, ... at the alpha value ``alpha``, in Python floats.

    Each a_n is (1 - alpha) / (n - 1) times the terms a_{n-k} p_k, each
    (ar pr - ai pi, ar pi + ai pr), added left to right from k = 1; a_1 =
    (1.0, 0.0) is an ordinary term, so the signs of zeros are those of the
    package's order too.
    """
    p = [complex(x) for x in p]
    a = [(1.0, 0.0)]
    for n in range(2, len(p) + 2):
        # zip pairs a_{n-1}, ..., a_1 with p_1, ..., p_{n-1}.
        re, im = _left_to_right([(ar * q.real - ai * q.imag, ar * q.imag + ai * q.real)
                                 for (ar, ai), q in zip(a[::-1], p)])
        f = (1.0 - alpha) / (n - 1)
        a.append((f * re, f * im))
    return np.array([complex(re, im) for re, im in a])


def round_trip(p):
    """caratheodory-admissibility's round trip of the moments ``p`` through the
    scalar exports: rotated, inverted and pushed forward, with |zeta| past 1
    scaled back onto the circle.  The rotated MomentTriple and the moments
    it comes back as, or None for a row the check leaves out."""
    rotated, _ = normalize_rotation(p)
    m = MomentTriple(*rotated)
    if m.p1.real >= 2.0 - 1e-3:
        return None
    y, zeta = lemma_inverse(m)
    if zeta is None or abs(y) >= 1.0 - 1e-6:
        return None
    if abs(zeta) > 1.0:
        zeta = zeta / abs(zeta)
    return m, h2star.lemma_forward(LemmaPoint(m.p1.real, y, zeta))


# The atom search, one restart and one alpha at a time.

def scalar_h2(alpha, w, t):
    """|a2 a4 - a3^2| of one atom measure at the alpha value ``alpha``, by the
    one-point route: moments and recurrence in Python floats, each sum left
    to right, and the determinant from products of complex scalars."""
    a = ordered_recurrence(alpha, _ordered_moments(w, t, 3))
    return abs(complex(a[1] * a[3] - a[2] * a[2]))


def refine_atoms(objective, weights, angles, sweeps):
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
                if trial[i] == 2.0 * math.pi:
                    trial[i] = 0.0
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


def herglotz_one_at_a_time(alpha, atom_count=2, restarts=100, local_steps=60, seed=0):
    """maximize_herglotz with each restart drawn and refined before the next,
    reporting the first restart tied with the best (first_tied)."""
    rng = np.random.default_rng(seed)

    def objective(w, t):
        return scalar_h2(alpha, w, t)

    results = []
    for _ in range(restarts):
        w0 = rng.dirichlet(np.ones(atom_count))
        t0 = rng.uniform(0.0, 2.0 * math.pi, atom_count)
        results.append(refine_atoms(objective, w0, t0, local_steps))
    values = np.array([r[0] for r in results])
    (best,) = first_tied(values, values.max())
    best_val, best_w, best_t, _ = results[best]
    evaluations = sum(r[3] for r in results)
    return SearchOutcome(
        value=float(best_val),
        argmax={"weights": [float(x) for x in best_w], "angles": [float(x) for x in best_t]},
        method="herglotz",
        grid_spec={"atom_count": atom_count, "restarts": restarts,
                   "local_steps": local_steps, "seed": seed},
        evaluations=evaluations,
    )


def sweep_one_alpha_at_a_time(alpha_start, alpha_end, steps, seed=0, **kwargs):
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
