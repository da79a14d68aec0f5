"""Starlike functions of order alpha: Re(z f'(z) / f(z)) > alpha on |z| < 1.

Such f satisfy z f'(z) = [alpha + (1 - alpha) p(z)] f(z) for some p in the
Caratheodory class, which pins every Taylor coefficient of f to the moments
of p.  This module maps moment data to coefficient vectors, provides the
closed forms for a2, a3, a4 and the coefficients of the extremal odd function
z (1 - z^2)^(alpha - 1).  Every export that takes alpha, here and in the other
modules, takes an Alpha or a real number in [0, 1), read by alpha_value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import (
    MomentTriple,
    _complex_array,
    _modulus_finite,
    _moment_vector,
    _require,
)
from .errors import DomainError, instance, numeric, whole_number


@dataclass(frozen=True)
class Alpha:
    """Order parameter, restricted to [0, 1)."""

    value: float

    def __post_init__(self):
        v = numeric("alpha", self.value, float)
        if not 0.0 <= v < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {v}")
        object.__setattr__(self, "value", v)


def alpha_value(alpha) -> float:
    """alpha.value for an Alpha, else Alpha(alpha).value: a float in [0, 1), or DomainError."""
    return (alpha if isinstance(alpha, Alpha) else Alpha(alpha)).value


class CoefficientVector:
    """Taylor coefficients a_1..a_N of a normalized function, a_1 = 1."""

    __slots__ = ("_a",)

    def __init__(self, coeffs):
        a = np.atleast_1d(numeric("coefficients", coeffs, _complex_array)).copy()
        if a.ndim != 1 or a.size < 1:
            raise DomainError("coefficients must form a non-empty 1-d sequence")
        if not np.isfinite(a).all():
            raise DomainError(f"coefficients must be finite, got {a.tolist()}")
        if a[0] != 1:
            raise DomainError(f"a_1 must equal 1 exactly, got {a[0]}")
        a.setflags(write=False)
        self._a = a

    @property
    def coeffs(self) -> np.ndarray:
        return self._a

    def coeff(self, n: int) -> complex:
        """1-indexed accessor: coeff(n) is a_n for a whole number n, else DomainError;
        a whole number outside 1..N raises IndexError."""
        n = whole_number("n", n, -math.inf, math.inf)
        if not 1 <= n <= self._a.size:
            raise IndexError(f"a_{n} not available, vector holds a_1..a_{self._a.size}")
        return complex(self._a[n - 1])

    def __len__(self) -> int:
        return self._a.size

    def __repr__(self) -> str:
        return f"CoefficientVector({self._a.tolist()!r})"


def coeffs_from_moments(alpha: Alpha | float, moments) -> CoefficientVector:
    """Coefficients a_1..a_N of f from moments p_1..p_{N-1}.

    Equating coefficients in z f' = [alpha + (1 - alpha) p] f gives

        a_n = (1 - alpha) / (n - 1) * sum_{k=1..n-1} a_{n-k} p_k,   a_1 = 1,

    each sum one np.dot of a_{n-1}..a_1 with p_1..p_{n-1}.  Moments so large
    that a coefficient overflows raise DomainError.
    """
    al = alpha_value(alpha)
    p = _moment_vector(moments)
    a = np.zeros(p.size + 1, dtype=complex)
    a[0] = 1.0
    # CoefficientVector rejects overflowed coefficients; numpy must not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, p.size + 2):
            a[n - 1] = (1.0 - al) / (n - 1) * np.dot(a[: n - 1][::-1], p[: n - 1])
    return CoefficientVector(a)


def closed_form_a234(alpha: Alpha | float, m: MomentTriple) -> tuple:
    """The closed forms of a2, a3, a4 in terms of (p1, p2, p3); DomainError
    when the moments are so large that a value or its modulus overflows."""
    al = alpha_value(alpha)
    instance("m", m, MomentTriple)
    a = _closed_form_rows(al, *(np.array([x]) for x in (m.p1, m.p2, m.p3)))
    return tuple(complex(x[0]) for x in a)


def _closed_form_rows(alpha, p1, p2, p3):
    """(a2, a3, a4) of closed_form_a234 for equal-shape arrays of moments.

    ``alpha`` is one alpha value (a float) or an array of each entry's
    value; callers validate it.  Input that closed_form_a234 would refuse
    raises closed_form_a234's error and text for the first of a2, a3 and a4
    that is not finite somewhere, at the first entry where it is not.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = (1.0 - alpha) * p1
        a3 = 0.25 * (2.0 * (1.0 - alpha) ** 2 * p1 * p1 + 2.0 * p2 - 2.0 * alpha * p2)
        a4 = (1.0 - alpha) / 6.0 * ((1.0 - alpha) ** 2 * p1**3
                                    + 3.0 * (1.0 - alpha) * p1 * p2 + 2.0 * p3)
    _require(*((_modulus_finite(a), a, DomainError,
                f"{name} or its modulus is not finite: the inputs are too large")
               for name, a in (("a2", a2), ("a3", a3), ("a4", a4))))
    return a2, a3, a4


def extremal_coeffs(alpha: Alpha | float, order: int) -> CoefficientVector:
    """Coefficients of the extremal odd function z * (1 - z^2)^(alpha - 1).

    Even coefficients vanish; a_{2k+1} is the rising factorial
    (1 - alpha)(2 - alpha)...(k - alpha) divided by k!.  Same function as
    coeffs_from_moments applied to the moment pattern p_n = 1 + (-1)^n.
    ``order`` is a whole number of at least 4, else DomainError.
    """
    al = alpha_value(alpha)
    order = whole_number("order", order, 4)
    a = np.zeros(order, dtype=complex)
    a[0] = 1.0
    coef = 1.0
    for k in range(1, (order + 1) // 2):
        coef *= (1.0 - al + (k - 1)) / k
        a[2 * k] = coef
    return CoefficientVector(a)
