"""The public API: ``ultraflow.__all__`` is pinned, so a name leaves it only
through a deliberate edit of this list."""
import ultraflow

PUBLIC_NAMES = [
    "AccuracyWarning", "AdmissibleRange", "AliasingError", "DEFAULT_NODES",
    "DeficitReport", "DomainError", "EPS_MIN", "FlowConfig", "FlowTrace",
    "FunctionExpr", "FunctionSpecError", "IdentityReport", "LyapunovValue",
    "NumericalError", "OrthoBasis", "PositivityError", "Quadrature",
    "ShapeError", "UltraParams", "abc", "apply_L", "apply_L_eps",
    "beta_excluded", "beta_for_m", "beta_range", "beta_window",
    "build_quadrature", "check_gamma2", "check_gamma2_eps", "check_lgamma",
    "check_lgamma_eps", "dF_dt_closed_form", "deficit", "delta_of_beta",
    "drift", "drift_prime", "eigenvalue", "extremal_profile",
    "find_heat_counterexample", "fisher", "get_basis",
    "get_regularized_basis", "interpolation_basis", "is_admissible",
    "lambda_eps", "logsob_deficit", "lp_norm", "lyapunov_F", "m_of_beta",
    "m_range", "make_test_function", "normalization_constant",
    "parse_function", "qform_coeffs", "qform_value",
    "refined_quadrature", "regularity_coeffs", "resample", "run_heat_flow",
    "run_nonlinear_flow", "run_regularized_flow", "spectral_derivative",
    "thresholds",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ultraflow.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ultraflow, name) is not None, name
