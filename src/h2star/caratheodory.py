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

from .errors import DegenerateP1, InadmissibleMoments, InvalidAtoms, InvalidLemmaPoint
from .series import TruncatedSeries

_TWO_PI = 2.0 * math.pi
_WEIGHT_TOL = 1e-12
_DISK_TOL = 1e-12

PSD_TOL = 1e-9

# |y| at or above this is treated as the boundary case, where the zeta
# coefficient vanishes and zeta cannot be recovered.
Y_BOUNDARY_TOL = 1e-9


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
        object.__setattr__(self, "p1", complex(self.p1))
        object.__setattr__(self, "p2", complex(self.p2))
        object.__setattr__(self, "p3", complex(self.p3))

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=complex)


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
        if not 0.0 <= p <= 2.0:
            raise InvalidLemmaPoint(f"p must lie in [0, 2], got {p}")
        if abs(y) > 1.0 + _DISK_TOL:
            raise InvalidLemmaPoint(f"|y| must be <= 1, got {abs(y)}")
        if abs(zeta) > 1.0 + _DISK_TOL:
            raise InvalidLemmaPoint(f"|zeta| must be <= 1, got {abs(zeta)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "zeta", zeta)


def moments_from_atoms(atoms: HerglotzAtoms, m: int) -> np.ndarray:
    """Moments p_1..p_m of the atom measure: p_n = 2 sum_k w_k e^{i n t_k}."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    w = np.asarray(atoms.weights)
    t = np.asarray(atoms.angles)
    n = np.arange(1, m + 1)
    return 2.0 * (w[None, :] * np.exp(1j * np.outer(n, t))).sum(axis=1)


def series_from_atoms(atoms: HerglotzAtoms, order: int) -> TruncatedSeries:
    """The series 1 + p_1 z + ... + p_N z^N of the atom measure."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    if order >= 1:
        c[1:] = moments_from_atoms(atoms, order)
    return TruncatedSeries(c)


def lemma_forward(pt: LemmaPoint) -> MomentTriple:
    """Moments (p1, p2, p3) generated by a parameterization point."""
    p, y, zeta = pt.p, pt.y, pt.zeta
    q = 4.0 - p * p
    p2 = 0.5 * (p * p + y * q)
    p3 = 0.25 * (p**3 + 2.0 * q * p * y - p * q * y * y
                 + 2.0 * q * (1.0 - abs(y) ** 2) * zeta)
    return MomentTriple(p, p2, p3)


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


def atoms_from_text(text: str) -> HerglotzAtoms:
    """Parse the CLI atom format: comma-separated ``weight:angle`` pairs."""
    return HerglotzAtoms(*atom_pairs_from_text(text))


def atoms_to_text(atoms: HerglotzAtoms) -> str:
    return ",".join(
        f"{format(w, '.17g')}:{format(t, '.17g')}"
        for w, t in zip(atoms.weights, atoms.angles)
    )


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
