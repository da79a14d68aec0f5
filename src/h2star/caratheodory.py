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
    instance,
    numeric,
    whole_number,
)
from .tolerances import (
    DISK_TOL,
    P1_DEGENERATE_GAP,
    P1_IMAG_TOL,
    PSD_TOL,
    WEIGHT_SUM_TOL,
    Y_BOUNDARY_TOL,
)

_TWO_PI = 2.0 * math.pi

_NOT_FINITE_MOMENTS = "moments must be finite, got {}"

# Rows per block of _lemma_row_blocks, the arrays the checks evaluate.  The
# two 100,000-row checks took 22 + 23 ms at 1024 rows, 17 + 19 at 2048,
# 15 + 18 at 4096 and 17 + 21 at 8192 (medians of 30 passes, 2 vCPU).
LEMMA_BLOCK_ROWS = 4096

# Atoms of one random atom set of _atom_rows, at most.
MAX_ATOMS = 5

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
        if not all(x >= 0.0 for x in w):
            raise InvalidAtoms(f"weights must be nonnegative, got {w}")
        # left to right, as sum() adds floats up to Python 3.11
        total = 0.0
        for x in w:
            total += x
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise InvalidAtoms(f"weights must sum to 1, got {total!r}")
        # x % 2 pi rounds a tiny negative angle up to 2 pi itself
        t = tuple(x % _TWO_PI for x in t)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", tuple(0.0 if x == _TWO_PI else x for x in t))


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

    Takes scalars or equal-shape arrays; the first of the rules on p, y and
    zeta that fails raises, at its first failing entry.  Every comparison is
    false for NaN, and the box is bounded, so non-finite input fails too.
    """
    ay, az = abs(y), abs(zeta)
    _require(
        ((p >= 0.0) & (p <= 2.0), p, InvalidLemmaPoint, "p must lie in [0, 2], got {}"),
        (ay <= 1.0 + DISK_TOL, ay, InvalidLemmaPoint, "|y| must be <= 1, got {}"),
        (az <= 1.0 + DISK_TOL, az, InvalidLemmaPoint, "|zeta| must be <= 1, got {}"),
    )


def _require(*rules):
    """Raise error(template.format(v)) for the first of the rules
    (ok, value, error, template) that fails anywhere, at its first false entry.

    ``ok`` is a truth value or an array of them; v is the entry of ``value``
    there, a number or, when ``value`` has more dimensions than ``ok``, a
    row, as a Python number or list.
    """
    for ok, value, error, template in rules:
        # Plain Trues skip numpy, which would triple the cost of one LemmaPoint.
        if ok is not True and not np.all(ok):
            where = np.unravel_index(np.argmin(ok), np.shape(ok))
            raise error(template.format(np.asarray(value)[where].tolist()))


def _parts(z):
    """The (real, imaginary) pair of a complex number or array."""
    return z.real, z.imag


def _pair_product(a, b):
    """The pair (ar br - ai bi, ar bi + ai br) of the product of the
    (real, imaginary) pairs a and b: real products, whose bits, unlike those
    of numpy's complex product, do not depend on the CPU."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def moments_from_atoms(atoms: HerglotzAtoms, m: int) -> np.ndarray:
    """Moments p_1..p_m of the atom measure: p_n = 2 sum_k w_k e^{i n t_k}.
    ``m`` is a whole number of at least 1, else DomainError."""
    instance("atoms", atoms, HerglotzAtoms)
    m = whole_number("m", m, 1)
    return _atom_moment_rows(np.array([atoms.weights]), np.array([atoms.angles]), m)[0]


def _atom_moment_rows(weights, angles, m: int) -> np.ndarray:
    """The (N, m) moments of moments_from_atoms for (N, K) rows of atom
    weights and angles in the form HerglotzAtoms holds them: finite
    nonnegative weights summing to 1, angles in [0, 2 pi).  The weighted
    kernels are added left to right, so a zero-weight pad adds exact zeros
    and a row's moments are those of its atoms alone."""
    moments = np.empty((weights.shape[0], m), dtype=complex)
    # one order at a time keeps every temporary at the (N, K) of the atoms
    for j in range(m):
        kern = np.exp(1j * ((j + 1) * angles))
        for part, plane in zip(_parts(moments), _parts(kern)):
            terms = (weights * plane).T
            part[:, j] = 2.0 * sum(terms[1:], terms[0])
    return moments


def lemma_forward(pt: LemmaPoint) -> MomentTriple:
    """Moments (p1, p2, p3) generated by a parameterization point."""
    instance("pt", pt, LemmaPoint)
    return MomentTriple(*(complex(*m) for m in
                          _lemma_forward_raw(pt.p, _parts(pt.y), _parts(pt.zeta))))


def _lemma_forward_raw(p, y, zeta):
    """(p1, p2, p3) of lemma_forward as (real, imaginary) pairs, p1 = (p, 0),
    of a real p and the pairs y and zeta.

    p3 = (p^3 + p q (2 y - y^2) + 2 q (1 - |y|^2) zeta) / 4, q = 4 - p^2, in
    real arithmetic: broadcast-safe over numpy arrays, and exact on Fractions.
    """
    (yr, yi), (zr, zi) = y, zeta
    y2r, y2i = _pair_product(y, y)
    pp = p * p
    q = 4 - pp
    pq = p * q
    w = 2 * q * (1 - (yr * yr + yi * yi))
    p3 = ((pp * p + pq * (2 * yr - y2r) + w * zr) / 4, (pq * (2 * yi - y2i) + w * zi) / 4)
    return (p, 0 * p), ((pp + q * yr) / 2, q * yi / 2), p3


def lemma_inverse(m: MomentTriple):
    """Recover (y, zeta) from a moment triple with p1 normalized real in [0, 2).

    Returns ``(y, zeta)``; ``zeta`` is ``None`` when |y| is at the unit circle,
    where its coefficient vanishes and any zeta is consistent.

    Admissibility is decided in moment units.  A recovered |y| or |zeta|
    past 1 is refused only when bringing it back onto the unit circle would
    move a moment by more than PSD_TOL: p2 by q (|y| - 1) / 2, or p3 by
    q (1 - |y|^2) (|zeta| - 1) / 2, with q = 4 - p^2.  Otherwise it is
    scaled back onto the circle, so both lie in the closed unit disk.
    """
    instance("m", m, MomentTriple)
    y, zeta, edge = _lemma_inverse_rows(*(np.array([x]) for x in (m.p1, m.p2, m.p3)))
    return complex(y[0]), None if edge[0] else complex(zeta[0])


def _lemma_inverse_rows(p1, p2, p3):
    """lemma_inverse of each entry of the (N,) complex arrays p1, p2 and p3.

    Returns ``(y, zeta, edge)``: ``edge`` marks the entries where |y| is at
    the unit circle, whose ``zeta`` means nothing.  Input that lemma_inverse
    would refuse raises lemma_inverse's error and text for the first of its
    rules that fails, at the first entry that fails it.
    """
    p = p1.real
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y, zeta, p2_shift, p3_shift = _lemma_inverse_raw(p, p2, p3)
        ay, az = np.hypot(*_parts(y)), np.hypot(*_parts(zeta))
        edge = ay >= 1.0 - Y_BOUNDARY_TOL
    _require(
        (~((np.abs(p1.imag) > P1_IMAG_TOL) | (p < 0.0)), p1, DomainError,
         "p1 must be normalized real nonnegative (use normalize_rotation), got {}"),
        (~(p >= 2.0 - P1_DEGENERATE_GAP), p, DegenerateP1,
         "p1 = {} is at the boundary; moments are forced to (2, 2, 2)"),
        (np.isfinite(ay), y, DomainError,
         "recovered y or its modulus is not finite: the inputs are too large"),
        (~(p2_shift > PSD_TOL), ay, InadmissibleMoments, "recovered |y| = {} exceeds 1"),
        (edge | np.isfinite(az), zeta, DomainError,
         "recovered zeta or its modulus is not finite: the inputs are too large"),
        (edge | ~(p3_shift > PSD_TOL), az, InadmissibleMoments,
         "recovered |zeta| = {} exceeds 1"),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ay > 1.0, y / ay, y), np.where(az > 1.0, zeta / az, zeta), edge


def _lemma_inverse_raw(p, p2, p3):
    """(y, zeta, p2_shift, p3_shift) of the moments (p, p2, p3), p1 = p real:
    the recovered parameters, and the changes of p2 and p3 that bring y and
    zeta onto the unit circle.  Broadcast-safe over numpy arrays, and as
    exact as the number type (tests measure PSD_TOL with mpmath numbers)."""
    q = 4.0 - p * p
    y = (2.0 * p2 - p * p) / q
    ay = abs(y)
    zeta = ((4.0 * p3 - p**3 - 2.0 * q * p * y + p * q * y * y)
            / (2.0 * q * (1.0 - ay * ay)))
    return y, zeta, q * (ay - 1.0) / 2.0, q * (1.0 - ay * ay) * (abs(zeta) - 1.0) / 2.0


def toeplitz_psd(moments) -> tuple:
    """Caratheodory-Toeplitz admissibility of moments p_1..p_m.

    Builds the (m+1) x (m+1) Hermitian Toeplitz matrix with diagonal 2 and
    entry (j, k) = p_{j-k} below the diagonal, and returns
    (min eigenvalue, min eigenvalue >= -PSD_TOL).  Moments so large that an
    eigenvalue overflows raise DomainError.
    """
    min_eig = float(_toeplitz_min_eig_rows(_moment_array(moments)[None, :])[0])
    return min_eig, min_eig >= -PSD_TOL


def _toeplitz_min_eig_rows(p) -> np.ndarray:
    """The least eigenvalue of toeplitz_psd's matrix for each row of an
    (N, m) moment array, by one stacked eigen-solve.  Finite moments, checked
    before the solve, then a finite eigenvalue: the first rule that fails
    raises toeplitz_psd's error and text, at the first row that fails it."""
    _require((np.isfinite(p).all(axis=1), p, DomainError, _NOT_FINITE_MOMENTS))
    rows, m = p.shape
    # entries c_{-m}..c_m with c_0 = 2, c_n = p_n, c_{-n} = conj(p_n)
    full = np.concatenate((np.conj(p[:, ::-1]), np.full((rows, 1), 2.0 + 0.0j), p), axis=1)
    # entry (j, k) is c_{j-k}, so row j is window m - j of the reversed
    # entries: the stacked matrices are a strided view, not an (N, m+1, m+1) copy
    windows = np.lib.stride_tricks.sliding_window_view(full[:, ::-1], m + 1, axis=1)
    min_eig = np.linalg.eigvalsh(windows[:, ::-1])[:, 0]
    _require((np.isfinite(min_eig), min_eig, DomainError,
              "least Toeplitz eigenvalue or its modulus is not finite: the inputs are too large"))
    return min_eig


def _moment_vector(moments) -> np.ndarray:
    """The moments as a 1-d complex array; DomainError if they are not
    numbers or have more than one dimension."""
    p = np.atleast_1d(numeric("moments", moments, _complex_array))
    if p.ndim > 1:
        raise DomainError(f"moments must form a 1-d sequence, got shape {p.shape}")
    return p


def _moment_array(moments) -> np.ndarray:
    """The moments as by _moment_vector; DomainError also if there are none."""
    p = _moment_vector(moments)
    if p.size < 1:
        raise DomainError("need at least one moment")
    return p


def normalize_rotation(moments) -> tuple:
    """Rotate moments so p1 becomes real and nonnegative.

    Returns (rotated moments q_n = e^{i n theta} p_n, theta); theta = 0 when
    p1 = 0.  Rotation conjugates the Toeplitz matrix by a diagonal unitary,
    so admissibility is preserved.  Moments so large that a rotated moment
    overflows raise DomainError.
    """
    rotated, theta = _rotation_rows(_moment_array(moments)[None, :])
    return rotated[0], float(theta[0])


def _rotation_rows(p):
    """normalize_rotation of each row of an (N, m) moment array: the rotated
    rows and the (N,) angles theta.  Finite moments, then finite rotated
    moments: the first rule that fails raises normalize_rotation's error and
    text, at the first row that fails it."""
    theta = np.where(p[:, 0] == 0, 0.0, -np.angle(p[:, 0]))
    n = np.arange(1, p.shape[1] + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = p * np.exp(1j * theta[:, None] * n)
    _require(
        (np.isfinite(p).all(axis=1), p, DomainError, _NOT_FINITE_MOMENTS),
        (np.isfinite(rotated).all(axis=1), rotated, DomainError,
         "rotated moments are not finite: the moments are too large"),
    )
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


def _atom_rows(rng: np.random.Generator, count: int):
    """Weights and angles of ``count`` random atom sets, as (count, MAX_ATOMS) arrays.

    A row has k atoms, k uniform on 1..MAX_ATOMS, with Dirichlet(1, ..., 1)
    weights and angles uniform on [0, 2 pi); its other MAX_ATOMS - k entries
    are zero weights at angle 0.
    """
    k = rng.integers(1, MAX_ATOMS + 1, count)
    live = np.arange(MAX_ATOMS) < k[:, None]
    # standard exponentials normalized per row are Dirichlet(1, ..., 1)
    weights = np.where(live, rng.standard_exponential((count, MAX_ATOMS)), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    angles = np.where(live, _TWO_PI * rng.random((count, MAX_ATOMS)), 0.0)
    return weights, angles


def random_disk_point(rng: np.random.Generator, radius: float = 1.0) -> complex:
    """Uniform point on the closed disk, by rejection from the square.

    ``radius`` is a number of at least 0 for which 2 radius is finite, else
    DomainError.  Each try draws x, then y, as -radius + 2 radius *
    rng.random(), numpy's own formula for rng.uniform(-radius, radius): the
    same doubles and generator state, without uniform's per-call overhead.
    """
    r = numeric("radius", radius, float)
    side = r - -r
    if not (r >= 0.0 and math.isfinite(side)):
        raise DomainError(f"radius must be at least 0 and 2 * radius finite, got {radius!r}")
    while True:
        z = complex(-r + side * rng.random(), -r + side * rng.random())
        if abs(z) <= r:
            return z


def random_lemma_point(rng: np.random.Generator) -> LemmaPoint:
    """p uniform on [0, 2]; y, zeta uniform on the closed unit disk."""
    return LemmaPoint(rng.uniform(0.0, 2.0), random_disk_point(rng), random_disk_point(rng))


def _disk_parts(rng: np.random.Generator, n: int):
    """Real and imaginary parts of n points uniform on the closed unit disk.

    Rejection from the square: a round for a shortfall of k draws 2 k
    candidates, x and then y, as one rng.uniform(-1.0, 1.0, (2, 2 k)), and
    keeps the first k with x * x + y * y <= 1, in order; another round runs
    only when one falls short.
    """
    x, y = np.empty(n), np.empty(n)
    done = 0
    while done < n:
        k = n - done
        u, v = rng.uniform(-1.0, 1.0, (2, 2 * k))
        keep = np.flatnonzero(u * u + v * v <= 1.0)[:k]
        x[done:done + keep.size], y[done:done + keep.size] = u[keep], v[keep]
        done += keep.size
    return x, y


def _lemma_row_blocks(rng: np.random.Generator, count: int):
    """Yield blocks (alpha, p, y, zeta) of up to LEMMA_BLOCK_ROWS rows, ``count`` rows in all.

    y and zeta are (real, imaginary) pairs of arrays.  alpha is uniform on
    [0, 1); p, y and zeta have the distributions random_lemma_point draws:
    p uniform on [0, 2), y and zeta uniform on the closed unit disk.  So
    every row lies in the domains of ``Alpha`` and ``LemmaPoint``.  A block
    of n rows draws rng.random(n), rng.uniform(0, 2, n), then n disk points
    of _disk_parts for y and n for zeta.
    """
    for start in range(0, count, LEMMA_BLOCK_ROWS):
        n = min(LEMMA_BLOCK_ROWS, count - start)
        yield rng.random(n), rng.uniform(0.0, 2.0, n), _disk_parts(rng, n), _disk_parts(rng, n)


def _triple_rows(rng: np.random.Generator, count: int):
    """alpha and the (real, imaginary) pairs p1, p2, p3 of ``count`` rows.

    alpha is rng.random(count), uniform on [0, 1), the domain of ``Alpha``;
    the moments are twice the 3 count points of _disk_parts, uniform on the
    closed disk of radius 2.
    """
    alpha = rng.random(count)
    x, y = _disk_parts(rng, 3 * count)
    return (alpha, *((2.0 * x[k:k + count], 2.0 * y[k:k + count])
                     for k in range(0, 3 * count, count)))
