"""Wedge powers of Kahler forms on complex space forms.

Numerical toolkit for the identity F*omega_N^p = lambda * omega_M^p:
space-form metrics, (p,p)-form coefficient matrices and pullbacks,
eigenvalue-product rigidity checks, Levi signatures of unit sphere bundles
in wedge powers, coefficient-rank diagnostics for slice functions, and a
scenario-driven verification CLI.  This namespace holds the verdict path;
the modules hold the layers under it.
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
from .expressions import MapExpr, parse_map
from .levi import levi_form, levi_signatures, obstruction_probe, sample_bundle_points
from .ppforms import proportionality_test, pullback_pp, relatives_test, wedge_power_coeffs
from .rigidity import (
    conclude_isometry_factor,
    eigen_products_check,
    profile_from_pullback,
    ricci_pullback_check,
)
from .scenarios import Report, parse_scenario, report_to_json, run_scenario
from .spaceforms import SpaceForm, ball, euclidean, metric, projective, sample_chart_points
from .suite import run_paper_suite
from .umehara import builtin_series, coeff_rank, rank_growth

__version__ = "0.1.0"
