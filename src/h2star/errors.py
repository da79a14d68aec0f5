"""Exception types shared across the toolkit, and the three rules every module
applies with them: inputs are numbers, counts are whole numbers, and results
are finite.

Everything derives from ``H2StarError`` (itself a ``ValueError``) so the CLI
can map any domain failure to a single exit code.
"""

import math

# No 64-bit address space spans more than 2^57 bytes (x86-64 maps 2^57 with
# five-level paging), so no array holds more entries than this.
MAX_ENTRIES = 1 << 57


class H2StarError(ValueError):
    """Base class for all domain errors raised by this package."""


class DomainError(H2StarError):
    """Argument outside the mathematical domain of an operation."""


class InvalidAtoms(H2StarError):
    """Atom weights or angles violate the convex-combination invariants."""


class InvalidLemmaPoint(H2StarError):
    """(p, y, zeta) outside the box [0, 2] x closed disk x closed disk."""


class DegenerateP1(H2StarError):
    """p1 at the boundary value 2, where the higher moments are forced."""


class InadmissibleMoments(H2StarError):
    """Moment data not realizable by any function with positive real part."""


class InsufficientCoefficients(H2StarError):
    """Coefficient vector too short for the requested Hankel determinant."""


class UnsupportedOrder(H2StarError):
    """Hankel determinant order above the supported maximum."""


def numeric(name: str, value, convert):
    """convert(value), or DomainError naming ``name`` when convert rejects it.

    ``convert`` is float, complex or an array conversion such as
    ``functools.partial(np.asarray, dtype=complex)``; each raises TypeError,
    ValueError or OverflowError on input that is not a number of its kind.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be numeric: {exc}") from exc


def whole_number(name: str, value, least: int, most=MAX_ENTRIES) -> int:
    """``value`` as an int when it equals its int (3.0 gives 3) and lies in
    [least, most]; otherwise DomainError naming ``name``."""
    try:
        whole = int(value)
        ok = whole == value and least <= whole <= most
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a whole number from {least} to {most}, got {value!r}")
    return whole


def finite(value: complex, what: str) -> complex:
    """value, or DomainError when the inputs overflowed it or its modulus to inf or NaN.

    math.hypot is the modulus abs() takes, but returns inf where abs() raises
    OverflowError, so a finite value with an unrepresentable modulus fails here.
    """
    if not math.isfinite(math.hypot(value.real, value.imag)):
        raise DomainError(f"{what} or its modulus is not finite: the inputs are too large")
    return value
