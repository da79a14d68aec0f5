"""Starlike functions of order alpha: Re(z f'(z) / f(z)) > alpha on |z| < 1.

Such f satisfy z f'(z) = [alpha + (1 - alpha) p(z)] f(z) for some p in the
Caratheodory class, which pins every Taylor coefficient of f to the moments
of p.  This module maps moment data to coefficient vectors, provides the
closed forms for a2, a3, a4 and the coefficients of the extremal odd function
z (1 - z^2)^(alpha - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import MomentTriple
from .errors import DomainError, finite, whole_number


@dataclass(frozen=True)
class Alpha:
    """Order parameter, restricted to [0, 1)."""

    value: float

    def __post_init__(self):
        try:
            v = float(self.value)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"alpha must be a real number, got {self.value!r}") from exc
        if not 0.0 <= v < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {v}")
        object.__setattr__(self, "value", v)


class CoefficientVector:
    """Taylor coefficients a_1..a_N of a normalized function, a_1 = 1."""

    __slots__ = ("_a",)

    def __init__(self, coeffs):
        a = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
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
        """1-indexed accessor: coeff(n) is a_n."""
        if not 1 <= n <= self._a.size:
            raise IndexError(f"a_{n} not available, vector holds a_1..a_{self._a.size}")
        return complex(self._a[n - 1])

    def __len__(self) -> int:
        return self._a.size

    def __repr__(self) -> str:
        return f"CoefficientVector({self._a.tolist()!r})"


def coeffs_from_moments(alpha: Alpha, moments) -> CoefficientVector:
    """Coefficients a_1..a_N of f from moments p_1..p_{N-1}.

    Equating coefficients in z f' = [alpha + (1 - alpha) p] f gives

        a_n = (1 - alpha) / (n - 1) * sum_{k=1..n-1} a_{n-k} p_k,   a_1 = 1.

    Moments so large that a coefficient overflows raise DomainError.
    """
    p = np.atleast_1d(np.asarray(moments, dtype=complex))
    # CoefficientVector rejects overflowed coefficients; numpy must not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        a = coeff_rows(alpha, p[None, :])[0]
    return CoefficientVector(a)


def coeff_rows(alpha, moments) -> np.ndarray:
    """The recurrence of coeffs_from_moments on each row of an (R, N-1) moment array.

    ``alpha`` is one Alpha for every row, or an (R,) array holding the value
    of each row's Alpha.  Returns the (R, N) array of rows a_1..a_N.  Every
    row is bit-equal to what np.dot gives one row at a time: each sum is a
    stacked product of contiguous rows, which numpy hands to the same BLAS
    dot, and the one-term sum for a_2 is a plain complex product, as np.dot
    forms it.  A row's factor s = 1 - alpha is the same IEEE operation
    whether alpha comes as an Alpha or as an array entry.
    """
    p = np.ascontiguousarray(moments, dtype=complex)
    rows, m = p.shape
    a = np.zeros((rows, m + 1), dtype=complex)
    a[:, 0] = 1.0
    s = 1.0 - (alpha.value if isinstance(alpha, Alpha) else np.asarray(alpha, dtype=float))
    for n in range(2, m + 2):
        if n == 2:
            total = a[:, 0] * p[:, 0]
        else:
            head = np.ascontiguousarray(a[:, n - 2 :: -1])
            tail = np.ascontiguousarray(p[:, : n - 1])
            total = (head[:, None, :] @ tail[:, :, None])[:, 0, 0]
        a[:, n - 1] = s / (n - 1) * total
    return a


def closed_form_a234(alpha: Alpha, m: MomentTriple) -> tuple:
    """The closed forms of a2, a3, a4 in terms of (p1, p2, p3); DomainError
    when the moments are so large that a value or its modulus overflows."""
    al = alpha.value
    p1, p2, p3 = m.p1, m.p2, m.p3
    a2 = (1.0 - al) * p1
    a3 = 0.25 * (2.0 * (1.0 - al) ** 2 * p1 * p1 + 2.0 * p2 - 2.0 * al * p2)
    try:
        a4 = (1.0 - al) / 6.0 * ((1.0 - al) ** 2 * p1**3 + 3.0 * (1.0 - al) * p1 * p2 + 2.0 * p3)
    except OverflowError:  # from Python's complex power
        a4 = complex(math.inf)
    return finite(a2, "a2"), finite(a3, "a3"), finite(a4, "a4")


def extremal_coeffs(alpha: Alpha, order: int) -> CoefficientVector:
    """Coefficients of the extremal odd function z * (1 - z^2)^(alpha - 1).

    Even coefficients vanish; a_{2k+1} is the rising factorial
    (1 - alpha)(2 - alpha)...(k - alpha) divided by k!.  Same function as
    coeffs_from_moments applied to the moment pattern p_n = 1 + (-1)^n.
    ``order`` is a whole number of at least 4, else DomainError.
    """
    order = whole_number("order", order, 4)
    a = np.zeros(order, dtype=complex)
    a[0] = 1.0
    coef = 1.0
    k = 1
    while 2 * k < order:
        coef *= (1.0 - alpha.value + (k - 1)) / k
        a[2 * k] = coef
        k += 1
    return CoefficientVector(a)
