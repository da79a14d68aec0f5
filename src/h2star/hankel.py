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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .caratheodory import LemmaPoint, MomentTriple, _pair_product, _parts, _require
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
        return complex(*det2(*((x.real, x.imag) for x in (a[0], a[2], a[1], a[1]))))
    return _det_partial_pivot(np.array([[a[i + j] for j in range(q)] for i in range(q)],
                                       dtype=complex))


def det2(a, d, b, c):
    """Real and imaginary parts of the 2 x 2 determinant a d - b c.

    Each of a, d, b and c is a (real, imaginary) pair of floats or of
    equal-shape float arrays, and the products are _pair_product's, the way
    numpy multiplies complex scalars.
    """
    (adr, adi), (bcr, bci) = _pair_product(a, d), _pair_product(b, c)
    return adr - bcr, adi - bci


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


def _s2(alpha_value):
    """s2 = (1 - alpha)^2 as a product, so correctly rounded and the same double
    for a Python float as for numpy float64s and arrays; exact on Fractions."""
    s = 1 - alpha_value
    return s * s


def _c(alpha_value):
    """c = 3 - 8 alpha + 4 alpha^2, alpha^2 a product as in _s2."""
    return 3 - 8 * alpha_value + 4 * alpha_value * alpha_value


def functional_moment_form(alpha: Alpha | float, m: MomentTriple) -> complex:
    """a2 a4 - a3^2 written directly in the moments (p1, p2, p3).

    Moments so large that the value or its modulus overflows raise DomainError.
    """
    al = alpha_value(alpha)
    instance("m", m, MomentTriple)
    value = complex(*_moment_form_raw(al, *(_parts(x) for x in (m.p1, m.p2, m.p3))))
    return finite(value, "moment form")


def _moment_form_raw(alpha_value, p1, p2, p3):
    """Moment form of functional_moment_form, as a (real, imaginary) pair, of
    (real, imaginary) pairs p1, p2 and p3: s2 (-s2 p1^4 / 12 - p2^2 / 4 +
    p1 p3 / 3).  Broadcast-safe over numpy arrays, and exact on Fractions."""
    s2 = _s2(alpha_value)
    square = _pair_product(p1, p1)
    terms = _pair_product(square, square), _pair_product(p2, p2), _pair_product(p1, p3)
    return tuple(s2 * (-s2 * x / 12 - y / 4 + z / 3) for x, y, z in zip(*terms))


def _param_form_raw(alpha_value: float, p, y, zeta):
    """Five-term parameterized form at complex y and zeta: _param_form on
    their parts, joined into a complex number or array."""
    pair = np.stack(_param_form(alpha_value, p, _parts(y), _parts(zeta)), axis=-1)
    return pair.view(complex)[..., 0]


def _param_form(alpha_value, p, y, zeta):
    """Five-term form s2 (A + B zeta), A the zeta-free terms and B =
    _zeta_coefficient / 6, as a (real, imaginary) pair, of a real p and the
    pairs y and zeta.  Broadcast-safe over numpy arrays; exact on Fractions."""
    s2 = _s2(alpha_value)
    ar, ai = _zeta_free_terms(alpha_value, p, y)
    b = _zeta_coefficient(p, y) / 6
    zr, zi = zeta
    return s2 * (ar + b * zr), s2 * (ai + b * zi)


def _zeta_free_terms(alpha_value: float, p, y):
    """The four terms of the five-term form without zeta, before s2, as a
    (real, imaginary) pair, of a real p and the pair y, with the factors of y
    and y^2 shared: -c p^4 / 48 + p^2 q y / 24 - (p^2 q / 12 + q^2 / 16) y^2.

    s2 times this is Psi at zeta = 0, up to the sign of a zero.
    Broadcast-safe over numpy arrays, and exact on Fractions.
    """
    yr, yi = y
    y2r, y2i = _pair_product(y, y)
    pp = p * p
    q = 4 - pp
    ppq = pp * q
    w = ppq / 12 + q * q / 16
    return -_c(alpha_value) * (pp * pp) / 48 + ppq * yr / 24 - w * y2r, ppq * yi / 24 - w * y2i


def _zeta_coefficient(p, y):
    """p q (1 - |y|^2), the zeta coefficient of the five-term form before s2 / 6,
    of a real p and the (real, imaginary) pair y.

    Where it is exactly 0, the zeta term is a signed zero, so |Psi| is the
    same double at every zeta.  Broadcast-safe over numpy arrays.
    """
    return p * (4 - p * p) * (1 - (y[0] * y[0] + y[1] * y[1]))


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
    constants are integers, so exact types stay exact, and the powers of p
    and t are products.  phi is _phi_sum of _s2, |_c| and the alpha-free
    _phi_terms, so a caller with many alphas on one grid, such as
    search._phi_grids, forms the terms once.
    """
    return _phi_sum(_s2(alpha_value), abs(_c(alpha_value)), _phi_terms(p, t))


def _phi_terms(p, t):
    """The alpha-free terms of phi in _phi_sum's order, with q = 4 - p^2: p^4,
    p^2 q t / 24, p^2 q t^2 / 12, q^2 t^2 / 16 and p q (1 - t^2) / 6.  Every
    term but p^4 takes the broadcast shape of p and t.  They are yielded one
    at a time, so _phi_raw holds one grid term at once, as a single
    expression would; a caller that reuses them keeps them in a tuple."""
    pp = p * p
    q = 4 - pp
    p2q = pp * q
    t2 = t * t
    yield pp * pp
    yield p2q * t / 24
    yield p2q * t2 / 12
    yield q * q * t2 / 16
    yield p * q * (1 - t2) / 6


def _phi_sum(s2, c, terms):
    """phi from s2, |c| and the five terms of _phi_terms: s2 times c p^4 / 48
    plus the four t terms, added left to right in place on the first sum's
    fresh array (a number is rebound), so a grid allocates one array.  A
    polynomial in all of its inputs."""
    terms = iter(terms)
    total = c * next(terms) / 48 + next(terms)
    for term in terms:
        total += term
    total *= s2
    return total


def bound_profile(alpha: Alpha | float, p):
    """The majorant at t = 1, simplified: s2 * (1 - p^4/16 + |c| p^4/48).

    Its maximum over p in [0, 2] is the sharp bound; the absolute value on c
    folds the two sign cases of 3 - 8 alpha + 4 alpha^2 into one formula.
    """
    al = alpha_value(alpha)
    p_arr = numeric("p", p, _float_array)
    _require(((p_arr >= 0.0) & (p_arr <= 2.0), p_arr, DomainError,
              "p must lie in [0, 2], got {}"))
    p4 = (p_arr * p_arr) * (p_arr * p_arr)
    val = _s2(al) * (1.0 - p4 / 16.0 + p4 * abs(_c(al)) / 48.0)
    return float(val) if val.ndim == 0 else val


def sharp_bound(alpha: Alpha | float) -> float:
    """The sharp bound (1 - alpha)^2 on |a2 a4 - a3^2| over the class."""
    return _s2(alpha_value(alpha))
