"""Numerical laboratory for sharp interpolation inequalities of the
ultraspherical operator on [-1, 1].

The package builds Gauss quadrature for the weighted measure, a spectral
basis of its orthogonal polynomials, the diffusion operator and its
regularized variant, the entropy / Fisher functionals, admissibility
ranges for the nonlinearity exponents, porous-medium-type flows with
Lyapunov monitoring, and high-precision checks of the integration-by-
parts identities the monotonicity argument rests on.
"""
from .errors import (
    AccuracyWarning,
    AliasingError,
    DomainError,
    FunctionSpecError,
    NumericalError,
    PositivityError,
    ShapeError,
)
from .measure import (
    DEFAULT_NODES,
    EPS_MIN,
    Quadrature,
    UltraParams,
    build_quadrature,
    normalization_constant,
    refined_quadrature,
)
from .spectral import (
    OrthoBasis,
    eigenvalue,
    get_basis,
    get_regularized_basis,
    resample,
    spectral_derivative,
)
from .operators import apply_L, drift, drift_prime
from .functionals import (
    DeficitReport,
    LyapunovValue,
    deficit,
    extremal_profile,
    fisher,
    logsob_deficit,
    lp_norm,
    lyapunov_F,
)
from .admissibility import (
    AdmissibleRange,
    abc,
    beta_excluded,
    beta_for_m,
    beta_range,
    beta_window,
    delta_of_beta,
    dissipation_witness,
    is_admissible,
    lambda_eps,
    m_of_beta,
    m_range,
    qform_coeffs,
    qform_value,
    regularity_coeffs,
    thresholds,
)
from .flows import (
    FlowConfig,
    FlowTrace,
    dF_dt_closed_form,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
)
from .identities import (
    IdentityReport,
    check_gamma2,
    check_gamma2_eps,
    check_lgamma,
    check_lgamma_eps,
    make_test_function,
)
from .fnspec import FunctionExpr, parse_function

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "AdmissibleRange",
    "AliasingError",
    "DEFAULT_NODES",
    "DeficitReport",
    "DomainError",
    "EPS_MIN",
    "FlowConfig",
    "FlowTrace",
    "FunctionExpr",
    "FunctionSpecError",
    "IdentityReport",
    "LyapunovValue",
    "NumericalError",
    "OrthoBasis",
    "PositivityError",
    "Quadrature",
    "ShapeError",
    "UltraParams",
    "abc",
    "apply_L",
    "beta_excluded",
    "beta_for_m",
    "beta_range",
    "beta_window",
    "build_quadrature",
    "check_gamma2",
    "check_gamma2_eps",
    "check_lgamma",
    "check_lgamma_eps",
    "dF_dt_closed_form",
    "deficit",
    "delta_of_beta",
    "dissipation_witness",
    "drift",
    "drift_prime",
    "eigenvalue",
    "extremal_profile",
    "fisher",
    "get_basis",
    "get_regularized_basis",
    "is_admissible",
    "lambda_eps",
    "logsob_deficit",
    "lp_norm",
    "lyapunov_F",
    "m_of_beta",
    "m_range",
    "make_test_function",
    "normalization_constant",
    "parse_function",
    "qform_coeffs",
    "qform_value",
    "refined_quadrature",
    "regularity_coeffs",
    "resample",
    "run_heat_flow",
    "run_nonlinear_flow",
    "run_regularized_flow",
    "spectral_derivative",
    "thresholds",
]
