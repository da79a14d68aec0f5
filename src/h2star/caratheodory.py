"""Models of the Caratheodory class P: analytic p with p(0) = 1, Re p > 0.

Three views of the same data live here.  A finite convex combination of
boundary kernels

    p(z) = sum_k w_k * (1 + e^{i t_k} z) / (1 - e^{i t_k} z)

is a genuine member of P by construction and has moments
p_n = 2 sum_k w_k e^{i n t_k}.  The first three moments admit the classical
parameterization (with p1 = p real in [0, 2] after rotation)

    2 p2 = p^2 + y (4 - p^2),                         |y| <= 1,
    4 p3 = p^3 + 2 (4 - p^2) p y - p (4 - p^2) y^2
           + 2 (4 - p^2) (1 - |y|^2) zeta,            |zeta| <= 1,

implemented both forward and inverted.  Admissibility of truncated moment
data is decided by the Caratheodory-Toeplitz criterion: the Hermitian
Toeplitz matrix with diagonal 2 and off-diagonals p_k must be positive
semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateP1,
    DomainError,
    InadmissibleMoments,
    InvalidAtoms,
    InvalidLemmaPoint,
)

_TWO_PI = 2.0 * math.pi
_WEIGHT_TOL = 1e-12
_DISK_TOL = 1e-12

PSD_TOL = 1e-9

# |y| at or above this is treated as the boundary case, where the zeta
# coefficient vanishes and zeta cannot be recovered.
Y_BOUNDARY_TOL = 1e-9

# Rows per block of _lemma_row_blocks, about 8 doubles each.  Of 256..2048,
# 1024 ran the two 100,000-row checks fastest while their peak RSS stayed
# within 2% of the one-point loops; 4096 already adds about 4 MiB.
LEMMA_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class HerglotzAtoms:
    """Convex combination of boundary kernels: weights >= 0 summing to 1."""

    weights: tuple
    angles: tuple

    def __post_init__(self):
        try:
            w = tuple(float(x) for x in self.weights)
            t = tuple(float(x) for x in self.angles)
        except (TypeError, ValueError) as exc:
            raise InvalidAtoms(f"weights/angles must be real numbers: {exc}") from exc
        if not w or len(w) != len(t):
            raise InvalidAtoms("need at least one atom and matching weights/angles")
        if not all(math.isfinite(x) for x in w + t):
            raise InvalidAtoms(f"weights and angles must be finite, got {w} and {t}")
        t = tuple(x % _TWO_PI for x in t)
        if any(x < 0.0 for x in w):
            raise InvalidAtoms(f"weights must be nonnegative, got {w}")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise InvalidAtoms(f"weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", t)


@dataclass(frozen=True)
class MomentTriple:
    """First three Taylor coefficients (p1, p2, p3) of a candidate p."""

    p1: complex
    p2: complex
    p3: complex

    def __post_init__(self):
        p = (complex(self.p1), complex(self.p2), complex(self.p3))
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in p):
            raise DomainError(f"moments must be finite, got {p}")
        object.__setattr__(self, "p1", p[0])
        object.__setattr__(self, "p2", p[1])
        object.__setattr__(self, "p3", p[2])


@dataclass(frozen=True)
class LemmaPoint:
    """A point (p, y, zeta) in [0, 2] x closed unit disk x closed unit disk."""

    p: float
    y: complex
    zeta: complex

    def __post_init__(self):
        p = float(self.p)
        y = complex(self.y)
        zeta = complex(self.zeta)
        _check_lemma_box(p, y, zeta)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "zeta", zeta)


def _check_lemma_box(p, y, zeta):
    """Raise InvalidLemmaPoint unless p lies in [0, 2] and |y|, |zeta| <= 1.

    Takes scalars or equal-shape arrays.  Every comparison is false for NaN,
    and the box is bounded, so non-finite input is rejected too.
    """
    for ok, value, template in (
        ((p >= 0.0) & (p <= 2.0), p, "p must lie in [0, 2], got {}"),
        (abs(y) <= 1.0 + _DISK_TOL, abs(y), "|y| must be <= 1, got {}"),
        (abs(zeta) <= 1.0 + _DISK_TOL, abs(zeta), "|zeta| must be <= 1, got {}"),
    ):
        _require(ok, value, InvalidLemmaPoint, template)


def _require(ok, value, error, template):
    """Raise error(template.format(v)) for the first v of value where ok is false."""
    # A plain True skips numpy, which would triple the cost of one LemmaPoint.
    if ok is not True and not np.all(ok):
        bad = np.asarray(value)[np.logical_not(ok)]
        raise error(template.format(bad.flat[0]))


def moments_from_atoms(atoms: HerglotzAtoms, m: int) -> np.ndarray:
    """Moments p_1..p_m of the atom measure: p_n = 2 sum_k w_k e^{i n t_k}."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    w = np.asarray(atoms.weights)
    t = np.asarray(atoms.angles)
    n = np.arange(1, m + 1)
    return 2.0 * (w[None, :] * np.exp(1j * np.outer(n, t))).sum(axis=1)


def lemma_forward(pt: LemmaPoint) -> MomentTriple:
    """Moments (p1, p2, p3) generated by a parameterization point."""
    return MomentTriple(*_lemma_forward_raw(pt.p, pt.y, pt.zeta))


def _lemma_forward_raw(p, y, zeta):
    """(p1, p2, p3) of lemma_forward, with p1 = p; broadcast-safe over numpy arrays."""
    q = 4.0 - p * p
    p2 = 0.5 * (p * p + y * q)
    p3 = 0.25 * (p**3 + 2.0 * q * p * y - p * q * y * y
                 + 2.0 * q * (1.0 - abs(y) ** 2) * zeta)
    return p, p2, p3


def lemma_inverse(m: MomentTriple):
    """Recover (y, zeta) from a moment triple with p1 normalized real in [0, 2).

    Returns ``(y, zeta)``; ``zeta`` is ``None`` when |y| is at the unit circle,
    where its coefficient vanishes and any zeta is consistent.
    """
    p1 = m.p1
    if abs(p1.imag) > 1e-9 or p1.real < 0.0:
        raise ValueError(
            f"p1 must be normalized real nonnegative (use normalize_rotation), got {p1}"
        )
    p = p1.real
    if p >= 2.0 - 1e-12:
        raise DegenerateP1(f"p1 = {p} is at the boundary; moments are forced to (2, 2, 2)")
    q = 4.0 - p * p
    y = (2.0 * m.p2 - p * p) / q
    ay = abs(y)
    if ay > 1.0 + PSD_TOL:
        raise InadmissibleMoments(f"recovered |y| = {ay} exceeds 1")
    if ay >= 1.0 - Y_BOUNDARY_TOL:
        return y, None
    zeta = (4.0 * m.p3 - p**3 - 2.0 * q * p * y + p * q * y * y) / (
        2.0 * q * (1.0 - ay * ay)
    )
    if abs(zeta) > 1.0 + PSD_TOL:
        raise InadmissibleMoments(f"recovered |zeta| = {abs(zeta)} exceeds 1")
    return y, zeta


def toeplitz_psd(moments) -> tuple:
    """Caratheodory-Toeplitz admissibility of moments p_1..p_m.

    Builds the (m+1) x (m+1) Hermitian Toeplitz matrix with diagonal 2 and
    entry (j, k) = p_{j-k} below the diagonal, and returns
    (min eigenvalue, min eigenvalue >= -1e-9).
    """
    p = np.atleast_1d(np.asarray(moments, dtype=complex))
    m = p.size
    if m < 1:
        raise ValueError("need at least one moment")
    if not np.isfinite(p).all():
        raise DomainError(f"moments must be finite, got {p.tolist()}")
    # entries c_{-m}..c_m with c_0 = 2, c_n = p_n, c_{-n} = conj(p_n)
    full = np.concatenate((np.conj(p[::-1]), [2.0 + 0.0j], p))
    idx = np.subtract.outer(np.arange(m + 1), np.arange(m + 1))
    t = full[m + idx]
    eigs = np.linalg.eigvalsh(t)
    min_eig = float(eigs[0])
    return min_eig, min_eig >= -PSD_TOL


def normalize_rotation(moments) -> tuple:
    """Rotate moments so p1 becomes real and nonnegative.

    Returns (rotated moments q_n = e^{i n theta} p_n, theta); theta = 0 when
    p1 = 0.  Rotation conjugates the Toeplitz matrix by a diagonal unitary,
    so admissibility is preserved.
    """
    p = np.atleast_1d(np.asarray(moments, dtype=complex))
    if p.size < 1:
        raise ValueError("need at least one moment")
    theta = 0.0 if p[0] == 0 else -float(np.angle(p[0]))
    n = np.arange(1, p.size + 1)
    return p * np.exp(1j * theta * n), theta


def atom_pairs_from_text(text: str) -> tuple:
    """Split the CLI atom format, comma-separated ``weight:angle`` pairs,
    into (weights, angles) without validating them as a measure."""
    weights, angles = [], []
    for pair in text.split(","):
        left, sep, right = pair.partition(":")
        if not sep:
            raise ValueError(f"atom {pair!r} is not of the form weight:angle")
        weights.append(float(left))
        angles.append(float(right))
    return tuple(weights), tuple(angles)


def random_atoms(rng: np.random.Generator, max_atoms: int = 5) -> HerglotzAtoms:
    """Random measure: Dirichlet weights, uniform angles, 1..max_atoms atoms."""
    k = int(rng.integers(1, max_atoms + 1))
    w = rng.dirichlet(np.ones(k))
    t = rng.uniform(0.0, _TWO_PI, k)
    return HerglotzAtoms(tuple(w), tuple(t))


def random_disk_point(rng: np.random.Generator, radius: float = 1.0) -> complex:
    """Uniform point on the closed disk, by rejection from the square."""
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def random_lemma_point(rng: np.random.Generator) -> LemmaPoint:
    """p uniform on [0, 2]; y, zeta uniform on the closed unit disk."""
    return LemmaPoint(rng.uniform(0.0, 2.0), random_disk_point(rng), random_disk_point(rng))


def _lemma_row_blocks(rng: np.random.Generator, count: int, block: int = LEMMA_BLOCK_ROWS):
    """Yield arrays (alpha, p, y, zeta) of up to ``block`` rows, ``count`` rows in all.

    Row for row, and bit for bit, these are the draws of the scalar loop

        alpha = rng.random(); pt = random_lemma_point(rng)

    run ``count`` times.  Each row of that loop takes one double for alpha,
    one for p and two for every attempt at y and then at zeta, and
    ``rng.uniform(low, high)`` maps a double U to ``low + (high - low) * U``.
    So the sampler reads a buffer of doubles, marks at every offset whether
    the pair starting there passes the disk test, finds for every offset the
    next accepted pair of the same parity, and walks the chain of row starts.
    The unused tail of the buffer, from the first row it could not finish,
    starts the next buffer; a row longer than the whole buffer doubles it.

    The sampler reads ahead of the rows it returns, so the generator is left
    at a later state than the scalar loop leaves it: nothing may draw from
    ``rng`` after it.  Every block is checked against the domains of
    ``Alpha`` and ``LemmaPoint`` and raises their errors.
    """
    if block < 1:
        raise ValueError(f"need block >= 1, got {block}")
    tail = np.empty(0)
    done = 0
    grow = 0
    while done < count:
        want = min(block, count - done)
        # a row takes 2 + 4 / (pi / 4) ~ 7.1 doubles on average
        size = 8 * want + 16 + grow
        u = np.concatenate((tail, rng.random(max(size - tail.size, 0))))
        rows, used = _replay_rows(u, want)
        tail = u[used:]
        if rows is None:
            grow += u.size  # the first row runs past the buffer: double it
            continue
        grow = 0
        alpha, p, y, zeta = rows
        _require((alpha >= 0.0) & (alpha < 1.0), alpha, DomainError,
                 "alpha must lie in [0, 1), got {}")
        _check_lemma_box(p, y, zeta)
        done += alpha.size
        yield rows


def _replay_rows(u: np.ndarray, want: int):
    """Up to ``want`` rows (alpha, p, y, zeta) of the scalar loop drawn from the
    doubles ``u``, and the offset of the first double they leave unused.

    The rows are None, and the offset 0, when the first row does not fit in ``u``.
    Kept apart from _lemma_row_blocks so that its offset arrays are freed
    before a block is handed out.
    """
    x = -1.0 + 2.0 * u  # rng.uniform(-1.0, 1.0)
    n = u.size - 1
    # at[i]: the first offset j >= i of the same parity whose pair
    # (x[j], x[j + 1]) lies on the disk, or n when there is none.
    at = np.full(n + 4, n)
    hits = np.flatnonzero(np.hypot(x[:-1], x[1:]) <= 1.0)
    at[hits] = hits
    for parity in (0, 1):
        at[parity:n:2] = np.minimum.accumulate(at[parity:n:2][::-1])[::-1]
    # A row starting at s takes y from the pair at[s + 2] and zeta from the
    # pair at[y + 2]; the next row starts after zeta.
    at_view = memoryview(at)  # indexes to Python ints, without a list of all n
    starts = []
    s = 0
    while len(starts) < want:
        z_at = at_view[at_view[s + 2] + 2]
        if z_at >= n:
            break
        starts.append(s)
        s = z_at + 2
    if not starts:
        return None, 0
    starts = np.array(starts)
    y_at = at[starts + 2]
    z_at = at[y_at + 2]
    p = 2.0 * u[starts + 1]  # rng.uniform(0.0, 2.0)
    y = x[y_at] + 1j * x[y_at + 1]
    zeta = x[z_at] + 1j * x[z_at + 1]
    return (u[starts], p, y, zeta), s
