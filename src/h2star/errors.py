"""Exception types shared across the toolkit, and the four rules every module
applies with them: inputs are numbers, typed inputs are of their type, counts
are whole numbers, and results are finite.

Everything derives from ``H2StarError`` (itself a ``ValueError``) so the CLI
can map any domain failure to a single exit code.
"""

import math

import numpy as np

# No 64-bit address space spans more than 2^57 bytes (x86-64 maps 2^57 with
# five-level paging), so no array holds more entries than this.
MAX_ENTRIES = 1 << 57

# Text and truth values, which float(), complex(), int() and numpy turn into
# numbers, but which no rule here accepts as one.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


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
    """convert(value), or DomainError naming ``name`` when convert rejects it
    or ``value`` is text or a truth value.

    ``convert`` is float, complex or an array conversion such as
    ``functools.partial(np.asarray, dtype=complex)``; each raises TypeError,
    ValueError or OverflowError on input that is not a number of its kind.
    An array conversion is also refused text or truth-value entries, among
    numbers too: numpy would read True as 1.
    """
    try:
        if isinstance(value, _NOT_NUMBERS):
            raise TypeError(f"got {type(value).__name__} {value!r}")
        if isinstance(value, (list, tuple)) and _holds_non_number(value):
            raise TypeError("got text or truth-value entries")
        converted = convert(value)
        if type(converted) is np.ndarray and np.asarray(value).dtype.kind in "bSU":
            raise TypeError("got text or truth-value entries")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be numeric: {exc}") from exc
    return converted


def _holds_non_number(entries) -> bool:
    """Whether a list or tuple holds text or a truth value, at any depth."""
    return any(
        isinstance(x, _NOT_NUMBERS) or (isinstance(x, (list, tuple)) and _holds_non_number(x))
        for x in entries
    )


def instance(name: str, value, cls) -> None:
    """DomainError naming ``name`` and ``cls`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def whole_number(name: str, value, least: int, most=MAX_ENTRIES) -> int:
    """``value`` as an int when it equals its int (3.0 gives 3), lies in
    [least, most] and is not text or a truth value; otherwise DomainError
    naming ``name`` and the range, unbounded ends left out."""
    try:
        whole = int(value)
        ok = not isinstance(value, _NOT_NUMBERS) and whole == value and least <= whole <= most
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        if most < math.inf:
            span = f" from {least} to {most}"
        else:
            span = f" of at least {least}" if least > -math.inf else ""
        raise DomainError(f"{name} must be a whole number{span}, got {value!r}")
    return whole


def finite(value: complex, what: str) -> complex:
    """value, or DomainError when the inputs overflowed it or its modulus to inf or NaN.

    math.hypot is the modulus abs() takes, but returns inf where abs() raises
    OverflowError, so a finite value with an unrepresentable modulus fails here.
    """
    if not math.isfinite(math.hypot(value.real, value.imag)):
        raise DomainError(f"{what} or its modulus is not finite: the inputs are too large")
    return value
