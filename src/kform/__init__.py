"""Wedge powers of Kahler forms on complex space forms.

Numerical toolkit for the identity F*omega_N^p = lambda * omega_M^p:
space-form metrics and curvature (definite and indefinite), exact
holomorphic jets of expression maps, (p,p)-form coefficient matrices and
pullbacks, eigenvalue-product rigidity checks, Levi signatures of unit
sphere bundles in wedge powers, coefficient-rank diagnostics for slice
functions, and a scenario-driven verification CLI.
"""

from .errors import (
    DefinitenessError,
    DegenerateSampleError,
    DimensionError,
    DomainError,
    EvaluationLimitError,
    ExprSyntaxError,
    KformError,
    PreconditionError,
    ScenarioError,
    SingularEvaluationError,
)
from .expressions import (
    MapExpr,
    compose,
    evaluate,
    evaluate_map,
    identity_map,
    jacobian,
    parse_expr,
    parse_map,
)
from .levi import (
    LeviReport,
    ProbeResult,
    SphereBundlePoint,
    bundle_point,
    levi_form,
    levi_form_fd,
    obstruction_probe,
    rho,
    rho_gradient,
    sample_bundle_points,
    tangent_basis,
)
from .linalg import (
    generalized_eigenvalues,
    hermitian_eigen,
    hermitize,
    minor_det,
    sign_counts,
    signature,
)
from .ppforms import (
    IndexBasis,
    PPFormMatrix,
    compound_matrix,
    index_basis,
    proportionality_test,
    pullback_pp,
    relatives_test,
    wedge_power_coeffs,
)
from .rigidity import (
    EigenProfile,
    conclude_isometry_factor,
    eigen_products_check,
    isometry_check,
    profile_from_pullback,
    ricci_pullback_check,
)
from .scenarios import (
    CheckRecord,
    Report,
    Scenario,
    parse_scenario,
    report_to_json,
    run_scenario,
)
from .spaceforms import (
    SpaceForm,
    ball,
    center_automorphism,
    chart_point,
    euclidean,
    in_chart,
    metric,
    projective,
    ricci,
    sample_chart_points,
    wedge_curvature_block,
)
from .suite import run_paper_suite
from .umehara import (
    BiSeries,
    ball_slice,
    bi_series,
    builtin_series,
    coeff_rank,
    proj_slice,
    psi,
    rank_growth,
    series_eval,
)

__version__ = "0.1.0"
