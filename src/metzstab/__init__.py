"""Stability toolbox for Metzler and nonnegative matrices.

Closest (un)stable matrices in the max and l-infinity norms, spectral
optimization over product families, sign-matrix stabilization, and positive
switching systems.
"""

from .core import (
    DestabilizationResult,
    EigenPair,
    NormKind,
    PowerIterationResult,
    StabilizationResult,
    is_hurwitz_stable,
    is_metzler,
    is_schur_stable,
    matrix_norm,
    metzlerize,
    power_iteration,
    selected_leading_eigenpair,
    spectral_abscissa,
    spectral_radius,
    strong_components,
    translation_shift,
)
from .errors import (
    IterationLimitError,
    MetzstabError,
    PreconditionError,
)
from .family import (
    GreedyOutcome,
    ProductFamily,
    UncertaintySet,
    frobenius_blocks,
    optimize_with_irreducibility_patch,
    row_optimize,
    selective_greedy,
)
from .gen import generate_family
from .infnorm import (
    ball_row_minimizer,
    closest_stable_inf_hurwitz,
    closest_stable_inf_schur,
    closest_unstable_inf_hurwitz,
    closest_unstable_inf_schur,
)
from .lss import (
    HullPoint,
    SwitchingSystem,
    hull_max_abscissa,
    stabilize_2d_lss,
    stabilize_lss_by_signs,
)
from .maxnorm import clamp_shift, closest_stable_max, closest_unstable_max
from .sign import (
    SignMatrix,
    closest_stable_sign,
    is_sign_stable,
    sign_ball_minimize,
    sign_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "DestabilizationResult",
    "EigenPair",
    "GreedyOutcome",
    "HullPoint",
    "IterationLimitError",
    "MetzstabError",
    "NormKind",
    "PowerIterationResult",
    "PreconditionError",
    "ProductFamily",
    "SignMatrix",
    "StabilizationResult",
    "SwitchingSystem",
    "UncertaintySet",
    "ball_row_minimizer",
    "clamp_shift",
    "closest_stable_inf_hurwitz",
    "closest_stable_inf_schur",
    "closest_stable_max",
    "closest_stable_sign",
    "closest_unstable_inf_hurwitz",
    "closest_unstable_inf_schur",
    "closest_unstable_max",
    "frobenius_blocks",
    "generate_family",
    "hull_max_abscissa",
    "is_hurwitz_stable",
    "is_metzler",
    "is_schur_stable",
    "is_sign_stable",
    "matrix_norm",
    "metzlerize",
    "optimize_with_irreducibility_patch",
    "power_iteration",
    "row_optimize",
    "selected_leading_eigenpair",
    "selective_greedy",
    "sign_ball_minimize",
    "sign_pattern",
    "spectral_abscissa",
    "spectral_radius",
    "strong_components",
    "stabilize_2d_lss",
    "stabilize_lss_by_signs",
    "translation_shift",
]
