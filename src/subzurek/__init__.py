"""Phase-space toolkit for superoscillating Gaussian superpositions.

Builds cat states and superoscillating combs of displaced squeezed
Gaussians, evaluates their Wigner distributions exactly through closed-form
pairwise kernels, validates against a direct-quadrature oracle, and
measures interference structure scales (tile area, recovered oscillation
strength, patch area, overspill and displacement sensitivity).
"""

from .superosc import (
    CoeffTable,
    SuperoscParams,
    eval_f_direct,
    eval_f_fourier,
    fourier_coeffs,
    phase_gradient,
)
from .states import (
    PhysicalConstants,
    StateSpec,
    build_cat,
    build_psi,
    eval_psi,
    norm_squared,
)
from .wigner import (
    Factored,
    GridWindow,
    MixtureSpec,
    MixtureTerm,
    PhaseSpaceGrid,
    cross_state,
    eval_grid,
    eval_wigner,
    factor,
    finest_fringe,
    marginal_x,
    overlap,
    pair_kernel,
    purity,
    suggested_window,
    total_integral,
)
from .oracle import QuadratureSpec, default_quadrature, norm_quadrature, wigner_quadrature
from .analysis import (
    OverspillResult,
    ScaleReport,
    analyze,
    central_cut_crossings,
    displacement_sensitivity,
    overspill_check,
    superosc_scale,
    validate_gates,
    zurek_scale,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffTable",
    "Factored",
    "GridWindow",
    "MixtureSpec",
    "MixtureTerm",
    "OverspillResult",
    "PhaseSpaceGrid",
    "PhysicalConstants",
    "QuadratureSpec",
    "ScaleReport",
    "StateSpec",
    "SuperoscParams",
    "analyze",
    "build_cat",
    "build_psi",
    "central_cut_crossings",
    "cross_state",
    "default_quadrature",
    "displacement_sensitivity",
    "eval_f_direct",
    "eval_f_fourier",
    "eval_grid",
    "eval_psi",
    "eval_wigner",
    "factor",
    "finest_fringe",
    "fourier_coeffs",
    "marginal_x",
    "norm_quadrature",
    "norm_squared",
    "overlap",
    "overspill_check",
    "pair_kernel",
    "phase_gradient",
    "purity",
    "suggested_window",
    "superosc_scale",
    "total_integral",
    "validate_gates",
    "wigner_quadrature",
    "zurek_scale",
]
