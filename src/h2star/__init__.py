"""Numerics for the second Hankel determinant |a2 a4 - a3^2| over starlike
functions of order alpha.

The toolkit realizes every step between the class definition and the sharp
bound (1 - alpha)^2: Caratheodory moment models, the coefficient maps of the
starlike class, the closed-form functionals, and deterministic derivative-free
searches that reproduce the bound numerically.
"""

from .caratheodory import (
    HerglotzAtoms,
    LemmaPoint,
    MomentTriple,
    lemma_forward,
    lemma_inverse,
    moments_from_atoms,
    normalize_rotation,
    toeplitz_psd,
)
from .errors import (
    DegenerateP1,
    DomainError,
    H2StarError,
    InadmissibleMoments,
    InsufficientCoefficients,
    InvalidAtoms,
    InvalidLemmaPoint,
    UnsupportedOrder,
)
from .hankel import (
    HankelSpec,
    bound_profile,
    functional_moment_form,
    functional_param_form,
    hankel_det,
    phi,
    sharp_bound,
)
from .search import (
    SearchOutcome,
    SweepRow,
    maximize_herglotz,
    maximize_param,
    maximize_phi,
    monotonicity_scan,
    sweep_alpha,
)
from .starlike import (
    Alpha,
    CoefficientVector,
    closed_form_a234,
    coeffs_from_moments,
    extremal_coeffs,
)

__version__ = "0.1.0"
