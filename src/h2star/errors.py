"""Exception types shared across the toolkit.

Everything derives from ``H2StarError`` (itself a ``ValueError``) so the CLI
can map any domain failure to a single exit code.
"""


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
