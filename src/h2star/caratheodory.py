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
from functools import partial

import numpy as np

from .errors import (
    DegenerateP1,
    DomainError,
    InadmissibleMoments,
    InvalidAtoms,
    InvalidLemmaPoint,
    finite,
    instance,
    numeric,
    whole_number,
)

_TWO_PI = 2.0 * math.pi
_WEIGHT_TOL = 1e-12
_DISK_TOL = 1e-12

PSD_TOL = 1e-9

# |y| at or above this is treated as the boundary case, where the zeta
# coefficient vanishes and zeta cannot be recovered.
Y_BOUNDARY_TOL = 1e-9

# Rows per block of _lemma_row_blocks.  The two 100,000-row checks took about
# 0.21 s at 256 rows, 0.12 s at 1024 and 0.10 s at 2048 and 4096; their peak
# RSS is flat up to 1024 rows and grows 0.25 MiB at 2048 and 0.9 MiB at 4096
# (2-vCPU box).
LEMMA_BLOCK_ROWS = 1024

_complex_array = partial(np.asarray, dtype=complex)


@dataclass(frozen=True)
class HerglotzAtoms:
    """Convex combination of boundary kernels: weights >= 0 summing to 1."""

    weights: tuple
    angles: tuple

    def __post_init__(self):
        try:
            w = tuple(numeric("weights", x, float) for x in self.weights)
            t = tuple(numeric("angles", x, float) for x in self.angles)
        except TypeError as exc:  # weights or angles not iterable
            raise InvalidAtoms(f"weights and angles must be sequences: {exc}") from exc
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
        p = tuple(numeric(name, getattr(self, name), complex) for name in ("p1", "p2", "p3"))
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
        p = numeric("p", self.p, float)
        y = numeric("y", self.y, complex)
        zeta = numeric("zeta", self.zeta, complex)
        try:
            _check_lemma_box(p, y, zeta)
        except OverflowError:  # abs() of a finite y or zeta past the float range
            raise InvalidLemmaPoint(f"|y| and |zeta| must be <= 1, got {y} and {zeta}") from None
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
    """Moments p_1..p_m of the atom measure: p_n = 2 sum_k w_k e^{i n t_k}.
    ``m`` is a whole number of at least 1, else DomainError."""
    instance("atoms", atoms, HerglotzAtoms)
    m = whole_number("m", m, 1)
    w = np.asarray(atoms.weights)
    t = np.asarray(atoms.angles)
    n = np.arange(1, m + 1)
    return 2.0 * (w[None, :] * np.exp(1j * np.outer(n, t))).sum(axis=1)


def lemma_forward(pt: LemmaPoint) -> MomentTriple:
    """Moments (p1, p2, p3) generated by a parameterization point."""
    instance("pt", pt, LemmaPoint)
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
    instance("m", m, MomentTriple)
    p1 = m.p1
    if abs(p1.imag) > 1e-9 or p1.real < 0.0:
        raise DomainError(
            f"p1 must be normalized real nonnegative (use normalize_rotation), got {p1}"
        )
    p = p1.real
    if p >= 2.0 - 1e-12:
        raise DegenerateP1(f"p1 = {p} is at the boundary; moments are forced to (2, 2, 2)")
    q = 4.0 - p * p
    y = finite((2.0 * m.p2 - p * p) / q, "recovered y")
    ay = abs(y)
    if ay > 1.0 + PSD_TOL:
        raise InadmissibleMoments(f"recovered |y| = {ay} exceeds 1")
    if ay >= 1.0 - Y_BOUNDARY_TOL:
        return y, None
    zeta = finite((4.0 * m.p3 - p**3 - 2.0 * q * p * y + p * q * y * y)
                  / (2.0 * q * (1.0 - ay * ay)), "recovered zeta")
    if abs(zeta) > 1.0 + PSD_TOL:
        raise InadmissibleMoments(f"recovered |zeta| = {abs(zeta)} exceeds 1")
    return y, zeta


def toeplitz_psd(moments) -> tuple:
    """Caratheodory-Toeplitz admissibility of moments p_1..p_m.

    Builds the (m+1) x (m+1) Hermitian Toeplitz matrix with diagonal 2 and
    entry (j, k) = p_{j-k} below the diagonal, and returns
    (min eigenvalue, min eigenvalue >= -1e-9).  Moments so large that an
    eigenvalue overflows raise DomainError.
    """
    p = _moment_array(moments)
    m = p.size
    # entries c_{-m}..c_m with c_0 = 2, c_n = p_n, c_{-n} = conj(p_n)
    full = np.concatenate((np.conj(p[::-1]), [2.0 + 0.0j], p))
    idx = np.subtract.outer(np.arange(m + 1), np.arange(m + 1))
    t = full[m + idx]
    eigs = np.linalg.eigvalsh(t)
    min_eig = finite(float(eigs[0]), "least Toeplitz eigenvalue")
    return min_eig, min_eig >= -PSD_TOL


def _moment_vector(moments) -> np.ndarray:
    """The moments as a 1-d complex array; DomainError if they are not
    numbers or have more than one dimension."""
    p = np.atleast_1d(numeric("moments", moments, _complex_array))
    if p.ndim > 1:
        raise DomainError(f"moments must form a 1-d sequence, got shape {p.shape}")
    return p


def _moment_array(moments) -> np.ndarray:
    """The moments as by _moment_vector; DomainError also if there are none
    or one is not finite."""
    p = _moment_vector(moments)
    if p.size < 1:
        raise DomainError("need at least one moment")
    if not np.isfinite(p).all():
        raise DomainError(f"moments must be finite, got {p.tolist()}")
    return p


def normalize_rotation(moments) -> tuple:
    """Rotate moments so p1 becomes real and nonnegative.

    Returns (rotated moments q_n = e^{i n theta} p_n, theta); theta = 0 when
    p1 = 0.  Rotation conjugates the Toeplitz matrix by a diagonal unitary,
    so admissibility is preserved.  Moments so large that a rotated moment
    overflows raise DomainError.
    """
    p = _moment_array(moments)
    theta = 0.0 if p[0] == 0 else -float(np.angle(p[0]))
    n = np.arange(1, p.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = p * np.exp(1j * theta * n)
    if not np.isfinite(rotated).all():
        raise DomainError("rotated moments are not finite: the moments are too large")
    return rotated, theta


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


def _disk_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the closed unit disk, by rejection from the square.

    Each round draws twice the shortfall, so one round nearly always suffices.
    """
    z = np.empty(0, dtype=complex)
    while z.size < n:
        x, y = rng.uniform(-1.0, 1.0, (2, 2 * (n - z.size)))
        w = x + 1j * y
        z = np.concatenate((z, w[np.abs(w) <= 1.0]))
    return z[:n]


def _lemma_row_blocks(rng: np.random.Generator, count: int, block: int = LEMMA_BLOCK_ROWS):
    """Yield arrays (alpha, p, y, zeta) of up to ``block`` rows, ``count`` rows in all.

    alpha is uniform on [0, 1); p, y and zeta have the distributions
    random_lemma_point draws: p uniform on [0, 2], y and zeta uniform on the
    closed unit disk.  Every block is checked against the domains of
    ``Alpha`` and ``LemmaPoint`` and raises their errors.
    """
    block = whole_number("block", block, 1)
    for done in range(0, count, block):
        n = min(block, count - done)
        alpha = rng.random(n)
        p = rng.uniform(0.0, 2.0, n)
        y = _disk_points(rng, n)
        zeta = _disk_points(rng, n)
        _require((alpha >= 0.0) & (alpha < 1.0), alpha, DomainError,
                 "alpha must lie in [0, 1), got {}")
        _check_lemma_box(p, y, zeta)
        yield alpha, p, y, zeta
