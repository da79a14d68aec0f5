"""Hankel determinants and the closed forms for the functional a2 a4 - a3^2.

For f in the starlike class of order alpha the functional reduces, via the
coefficient formulas, to the moment form

    L = (1 - alpha)^2 * [ -(1/12) (1 - alpha)^2 p1^4 - (1/4) p2^2 + (1/3) p1 p3 ]

and, after substituting the moment parameterization (p, y, zeta), to the
five-term form

    Psi = -(1/48) s2 c p^4 + (1/24) s2 p^2 q y - (1/12) s2 p^2 q y^2
          - (1/16) s2 q^2 y^2 + (1/6) s2 p q (1 - |y|^2) zeta,

with s2 = (1 - alpha)^2, c = 3 - 8 alpha + 4 alpha^2, q = 4 - p^2.  The
triangle inequality majorizes |Psi| by the polynomial phi(p, t) in t = |y|,
which is nondecreasing in t; at t = 1 it collapses to the profile

    B(p) = s2 * (1 - p^4/16 + |c| p^4/48),

whose maximum over p in [0, 2] is the sharp bound (1 - alpha)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .caratheodory import LemmaPoint, MomentTriple, _require
from .errors import (
    DomainError,
    InsufficientCoefficients,
    UnsupportedOrder,
    finite,
    instance,
    numeric,
    whole_number,
)
from .starlike import Alpha, CoefficientVector, alpha_value

MAX_DET_ORDER = 6

_float_array = partial(np.asarray, dtype=float)


@dataclass(frozen=True)
class HankelSpec:
    """Order q and starting index n of a Hankel determinant: whole numbers of
    at least 1 (3.0 is stored as 3), or DomainError."""

    q: int
    n: int

    def __post_init__(self):
        for name in ("q", "n"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))

    @property
    def max_index(self) -> int:
        return self.n + 2 * self.q - 2


def hankel_det(f: CoefficientVector, spec: HankelSpec) -> complex:
    """Determinant of the q x q matrix M[i][j] = a_{n+i+j}.

    For q = 2, n = 2 this is a2 a4 - a3^2.  Orders 1 and 2 expand directly;
    orders 3..6 use Gaussian elimination with partial pivoting, which
    reports 0 only on an exactly zero pivot, so the result scales with the
    coefficients at any size.  Coefficients so large that the determinant or
    its modulus overflows raise DomainError.
    """
    instance("f", f, CoefficientVector)
    instance("spec", spec, HankelSpec)
    q, n = spec.q, spec.n
    if q > MAX_DET_ORDER:
        raise UnsupportedOrder(f"q = {q} exceeds the supported maximum {MAX_DET_ORDER}")
    if len(f) < spec.max_index:
        raise InsufficientCoefficients(
            f"need coefficients through a_{spec.max_index}, have a_1..a_{len(f)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        det = _expand_det(f.coeffs[n - 1 : spec.max_index], q)
    return finite(det, "Hankel determinant")


def _expand_det(a, q: int) -> complex:
    """Determinant of the q x q Hankel matrix M[i][j] = a[i + j]."""
    if q == 1:
        return complex(a[0])
    if q == 2:
        return complex(*det2(a[0], a[2], a[1], a[1]))
    return _det_partial_pivot(np.array([[a[i + j] for j in range(q)] for i in range(q)],
                                       dtype=complex))


def det2(a, d, b, c):
    """Real and imaginary parts of the 2 x 2 determinant a d - b c.

    Takes complex scalars or equal-shape complex arrays.  The products are
    written in real arithmetic, the way numpy multiplies complex scalars;
    numpy's product of complex arrays may fuse multiply-adds and then differs
    in the last bit.
    """
    re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return re, im


def _det_partial_pivot(a: np.ndarray) -> complex:
    """Determinant of the square complex array ``a``, which it overwrites.

    Gaussian elimination in numpy, not LAPACK, so the bits do not depend on
    the BLAS library; only an exactly zero pivot reports 0.
    """
    size = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(size):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0 + 0.0j
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:][None, :]
    return complex(det)


def functional_moment_form(alpha: Alpha | float, m: MomentTriple) -> complex:
    """a2 a4 - a3^2 written directly in the moments (p1, p2, p3).

    Moments so large that the value or its modulus overflows raise DomainError.
    """
    al = alpha_value(alpha)
    instance("m", m, MomentTriple)
    try:
        value = complex(_moment_form_raw(al, m.p1, m.p2, m.p3))
    except OverflowError:  # from Python's complex power
        value = complex(math.inf)
    return finite(value, "moment form")


def _moment_form_raw(alpha_value, p1, p2, p3):
    """Moment form of functional_moment_form; broadcast-safe over numpy arrays."""
    s2 = (1.0 - alpha_value) ** 2
    return s2 * (-s2 * p1**4 / 12.0 - p2 * p2 / 4.0 + p1 * p3 / 3.0)


def _param_form_raw(alpha_value: float, p, y, zeta):
    """Five-term parameterized form; broadcast-safe over numpy arrays."""
    s2 = (1.0 - alpha_value) ** 2
    return s2 * (_zeta_free_terms(alpha_value, p, y) + _zeta_coefficient(p, y) * zeta / 6.0)


def _zeta_free_terms(alpha_value: float, p, y):
    """The four terms of _param_form_raw without zeta, summed left to right, before s2.

    s2 times this sum is Psi at zeta = 0, up to the sign of a zero.
    Broadcast-safe over numpy arrays.
    """
    c = 3.0 - 8.0 * alpha_value + 4.0 * alpha_value * alpha_value
    pp = p * p
    q = 4.0 - pp
    ppqy = pp * q * y
    return -c * p**4 / 48.0 + ppqy / 24.0 - ppqy * y / 12.0 - q * q * y * y / 16.0


def _zeta_coefficient(p, y):
    """p q (1 - |y|^2), the zeta coefficient of _param_form_raw before s2 / 6.

    Where it is exactly 0, the zeta term is a signed zero, so |Psi| is the
    same double at every zeta.  Broadcast-safe over numpy arrays.
    """
    return p * (4.0 - p * p) * (1.0 - np.abs(y) ** 2)


def functional_param_form(alpha: Alpha | float, pt: LemmaPoint) -> complex:
    """a2 a4 - a3^2 evaluated through the (p, y, zeta) parameterization."""
    al = alpha_value(alpha)
    instance("pt", pt, LemmaPoint)
    return finite(complex(_param_form_raw(al, pt.p, pt.y, pt.zeta)), "five-term form")


def phi(alpha: Alpha | float, p, t):
    """Triangle-inequality majorant of |a2 a4 - a3^2| in (p, t = |y|).

    Accepts scalars or broadcastable numpy arrays with p in [0, 2] and
    t in [0, 1]; nonnegative on its domain and nondecreasing in t.  This
    export checks the inputs (numbers, shapes that broadcast, the box) and
    then evaluates _phi_raw.
    """
    al = alpha_value(alpha)
    p_arr = numeric("p", p, _float_array)
    t_arr = numeric("t", t, _float_array)
    if p_arr.shape != t_arr.shape:
        try:
            np.broadcast_shapes(p_arr.shape, t_arr.shape)
        except ValueError:
            raise DomainError(f"p and t must broadcast together, got shapes {p_arr.shape} "
                              f"and {t_arr.shape}") from None
    _require(((p_arr >= 0.0) & (p_arr <= 2.0), p_arr, DomainError, "p must lie in [0, 2], got {}"),
             ((t_arr >= 0.0) & (t_arr <= 1.0), t_arr, DomainError, "t must lie in [0, 1], got {}"))
    val = _phi_raw(al, p_arr, t_arr)
    return float(val) if val.ndim == 0 else val


def _phi_raw(alpha_value, p, t):
    """The polynomial phi, with no checks: the caller owns the domain.

    alpha_value, p and t are numbers of one kind (floats, numpy arrays that
    broadcast together, Fractions) with p in [0, 2] and t in [0, 1].  The
    constants are integers, so exact types stay exact.  A float p should be
    a 0-d numpy array: numpy's p**4 may differ from Python's in the last bit.
    """
    s2 = (1 - alpha_value) ** 2
    c = abs(3 - 8 * alpha_value + 4 * alpha_value**2)
    q = 4 - p * p
    p2q = p**2 * q
    t2 = t**2
    return s2 * (c * p**4 / 48 + p2q * t / 24 + p2q * t2 / 12 + q * q * t2 / 16
                 + p * q * (1 - t2) / 6)


def bound_profile(alpha: Alpha | float, p):
    """The majorant at t = 1, simplified: s2 * (1 - p^4/16 + |c| p^4/48).

    Its maximum over p in [0, 2] is the sharp bound; the absolute value on c
    folds the two sign cases of 3 - 8 alpha + 4 alpha^2 into one formula.
    """
    al = alpha_value(alpha)
    p_arr = numeric("p", p, _float_array)
    _require(((p_arr >= 0.0) & (p_arr <= 2.0), p_arr, DomainError,
              "p must lie in [0, 2], got {}"))
    s2 = (1.0 - al) ** 2
    c = abs(3.0 - 8.0 * al + 4.0 * al**2)
    val = s2 * (1.0 - p_arr**4 / 16.0 + p_arr**4 * c / 48.0)
    return float(val) if val.ndim == 0 else val


def sharp_bound(alpha: Alpha | float) -> float:
    """The sharp bound (1 - alpha)^2 on |a2 a4 - a3^2| over the class."""
    return (1.0 - alpha_value(alpha)) ** 2
