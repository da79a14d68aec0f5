"""Independent references for the tests, each contract stated once.

Each function writes a sampler, a kernel or a search out one point, call or
restart at a time, as the package computed it before its array kernels and
lock-step batches; the tests compare the package with them, mostly bit for
bit.  None calls the code it is the reference for.  round_trip and
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


# Samplers, one generator call at a time.

def disk_points(rng, n):
    """n points uniform on the closed unit disk, by rejection from the square.

    Each round draws twice the shortfall of x, then of y, as one call and
    keeps the candidates with |x + iy| <= 1, until n are kept.
    """
    z = np.empty(0, dtype=complex)
    while z.size < n:
        x, y = rng.uniform(-1.0, 1.0, (2, 2 * (n - z.size)))
        w = x + 1j * y
        z = np.concatenate((z, w[np.abs(w) <= 1.0]))
    return z[:n]


def disk_point(rng, radius=1.0):
    """One point uniform on the closed disk of ``radius``, as random_disk_point draws it."""
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def lemma_rows(rng, count, draw=1024):
    """(count, 4) complex rows (alpha, p, y, zeta), drawn in groups of ``draw``
    rows: the alphas, the ps on [0, 2), then the disk points of y and of zeta."""
    groups = []
    for done in range(0, count, draw):
        n = min(draw, count - done)
        groups.append(np.column_stack((rng.random(n), rng.uniform(0.0, 2.0, n),
                                       disk_points(rng, n), disk_points(rng, n))))
    return np.concatenate(groups).astype(complex)


def triple_rows(rng, count):
    """alpha uniform on [0, 1), then p1, p2, p3 uniform on the disk of radius 2."""
    alpha = rng.random(count)
    p1, p2, p3 = 2.0 * disk_points(rng, 3 * count).reshape(3, count)
    return alpha, p1, p2, p3


def round_by_round_draws(rng, n):
    """One draw group by the round-by-round rule: n alphas, n ps, then the y
    and zeta samplers, each round reading 4 k doubles for a shortfall of k
    from one stream, rng.random(10 n) and then the generator."""
    stream = rng.random(10 * n)

    def take(size):
        nonlocal stream
        if stream.size < size:
            stream = np.concatenate((stream, rng.random(size - stream.size)))
        out, stream = stream[:size], stream[size:]
        return out

    alpha, p = take(n), 2.0 * take(n)
    disks = []
    for _ in range(2):
        z = np.empty(0, dtype=complex)
        while z.size < n:
            k = n - z.size
            x, y = -1.0 + 2.0 * take(4 * k).reshape(2, 2 * k)
            w = x + 1j * y
            z = np.concatenate((z, w[np.abs(w) <= 1.0][:k]))
        disks.append(z)
    return alpha, p, *disks


# Kernels: the scalar formulas as they stood before the array kernels.

def lemma_forward(p, y, zeta):
    """The moments (p1, p2, p3) of the lemma point (p, y, zeta), on scalars or arrays."""
    q = 4.0 - p * p
    p2 = 0.5 * (p * p + y * q)
    p3 = 0.25 * (p**3 + 2.0 * q * p * y - p * q * y * y
                 + 2.0 * q * (1.0 - abs(y) ** 2) * zeta)
    if np.ndim(p):
        return p, p2, p3
    return complex(p), complex(p2), complex(p3)


def zeta_free_terms(a, p, y):
    """The four zeta-free terms of the five-term form over s2, each written out in full."""
    c = 3.0 - 8.0 * a + 4.0 * a * a
    q = 4.0 - p * p
    return (-c * p**4 / 48.0 + p * p * q * y / 24.0 - p * p * q * y * y / 12.0
            - q * q * y * y / 16.0)


def param_form(a, p, y, zeta):
    """The five-term form Psi(p, y, zeta), its zeta term written inline."""
    q = 4.0 - p * p
    zeta_term = p * q * (1.0 - np.abs(y) ** 2) * zeta / 6.0
    return (1.0 - a) ** 2 * (zeta_free_terms(a, p, y) + zeta_term)


def moment_form(a, m):
    """a2 a4 - a3^2 of the moment triple ``m`` at the alpha value ``a``."""
    s2 = (1.0 - a) ** 2
    return complex(s2 * (-s2 * m.p1**4 / 12.0 - m.p2 * m.p2 / 4.0 + m.p1 * m.p3 / 3.0))


def phi(a, p, t):
    """The majorant phi(p, t) at the alpha value ``a``, on scalars or arrays."""
    p_arr = np.asarray(p, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    s2 = (1.0 - a) ** 2
    c = abs(3.0 - 8.0 * a + 4.0 * a**2)
    q = 4.0 - p_arr * p_arr
    val = s2 * (
        c * p_arr**4 / 48.0
        + p_arr**2 * q * t_arr / 24.0
        + p_arr**2 * q * t_arr**2 / 12.0
        + q * q * t_arr**2 / 16.0
        + p_arr * q * (1.0 - t_arr**2) / 6.0
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
    """maximize_herglotz with each restart drawn and refined before the next."""
    rng = np.random.default_rng(seed)

    def objective(w, t):
        return scalar_h2(alpha, w, t)

    evaluations = 0
    best_val = -math.inf
    best_w = best_t = None
    for _ in range(restarts):
        w0 = rng.dirichlet(np.ones(atom_count))
        t0 = rng.uniform(0.0, 2.0 * math.pi, atom_count)
        val, w, t, n_evals = refine_atoms(objective, w0, t0, local_steps)
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
