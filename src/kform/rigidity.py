"""Pointwise linear algebra behind the (p,p)-form rigidity arguments.

Given a holomorphic map whose p-th wedge pullback is a constant multiple
lambda of the source form, the eigenvalues of the (1,1) pullback against the
source metric must have all their p-fold products equal to lambda.  For
p < m this forces all eigenvalues equal to lambda^(1/p), i.e. the map is a
local isometry up to that factor; for p = m a single product carries no such
constraint (witness (1/2, 2 lambda)), so concluding a factor is refused.
The Ricci comparison check covers the equidimensional determinant argument.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateSampleError, PreconditionError
from .expressions import MapExpr, map_jet
from .linalg import det, generalized_eigenvalues, hermitize
from .ppforms import _pooled_ratio, pullback_pp, wedge_power_coeffs
from .spaceforms import SpaceForm, metric, ricci

__all__ = [
    "EigenProfile",
    "profile_from_pullback",
    "eigen_products_check",
    "conclude_isometry_factor",
    "isometry_check",
    "ricci_pullback_check",
]

DEFAULT_TOL = 1e-8

# |det J| below this counts as a singular sample in ricci_pullback_check
_SINGULAR_JAC_TOL = 1e-12


@dataclass(frozen=True)
class EigenProfile:
    """Ascending eigenvalues of a (1,1) pullback against the source form.

    lambdas are the generalized eigenvalues, p the wedge degree under test,
    and lambdaTarget the constant from the (p,p) proportionality.
    """

    lambdas: np.ndarray
    p: int
    lambdaTarget: float

    def __post_init__(self):
        lams = np.sort(np.asarray(self.lambdas, dtype=float).reshape(-1))
        if lams.size == 0:
            raise ValueError("profile needs at least one eigenvalue")
        if not np.isfinite(lams).all():
            raise ValueError("profile eigenvalues must be finite")
        object.__setattr__(self, "lambdas", lams)

    @property
    def m(self) -> int:
        return int(self.lambdas.size)


def profile_from_pullback(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    p: int,
    w,
    lambda_target: float | None = None,
) -> EigenProfile:
    """Eigenvalue profile of F at the chart point w.

    The (1,1) pullback coefficients are diagonalized against the source
    metric (which must be positive definite).  When ``lambda_target`` is not
    given it is estimated from the (p,p) pullback at the same point by the
    pooled least-squares ratio; at p = 1 that is the (1,1) pullback already
    in hand.
    """
    theta1 = pullback_pp(F, src, tgt, 1, w)
    base = metric(src, w)
    lams = generalized_eigenvalues(hermitize(theta1.entries), base)
    if lambda_target is None:
        bp = wedge_power_coeffs(base, p).entries
        theta = theta1 if p == 1 else pullback_pp(F, src, tgt, p, w)
        lambda_target = _pooled_ratio([(bp, theta)])
    return EigenProfile(lambdas=lams, p=p, lambdaTarget=float(lambda_target))


def eigen_products_check(profile: EigenProfile, tol: float = DEFAULT_TOL) -> bool:
    """PASS iff every p-fold eigenvalue product is within tol*lambda of lambda.

    Each product multiplies Python floats left to right over the ascending
    eigenvalues.
    """
    p = profile.p
    m = profile.m
    if not 1 <= p <= m:
        raise PreconditionError(f"degree p={p} out of range 1..{m}")
    lam = profile.lambdaTarget
    bound = tol * abs(lam)
    for subset in combinations(profile.lambdas.tolist(), p):
        if abs(math.prod(subset) - lam) > bound:
            return False
    return True


def conclude_isometry_factor(profile: EigenProfile, tol: float = DEFAULT_TOL):
    """The common eigenvalue lambda^(1/p), or None if the profile refuses it.

    Requires p < m: at top degree a single determinant condition admits
    non-isometries, so the conclusion would be unsound and a precondition
    error is raised.  Returns None when the product check fails or the
    eigenvalue spread exceeds the tolerance.
    """
    if profile.p >= profile.m:
        raise PreconditionError(
            f"isometry conclusion needs p < m, got p={profile.p}, m={profile.m}; "
            "top-degree preservation admits non-isometries"
        )
    if not eigen_products_check(profile, tol):
        return None
    lams = profile.lambdas
    mean = float(lams.mean())
    if float(lams.max() - lams.min()) > 10.0 * tol * max(abs(mean), 1e-300):
        return None
    return mean


def isometry_check(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    points,
    expected_factor: float,
    tol: float = DEFAULT_TOL,
):
    """Verify F*omega_tgt = expected_factor * omega_src at every point.

    Returns (passed, max_residual) with the residual measured entrywise on
    the (1,1) pullback coefficients.
    """
    pts = list(points)
    if not pts:
        raise DegenerateSampleError("need at least one sample point")
    worst = 0.0
    for w in pts:
        theta = pullback_pp(F, src, tgt, 1, w).entries
        resid = float(np.abs(theta - expected_factor * metric(src, w)).max())
        worst = max(worst, resid)
    return worst < tol, worst


def ricci_pullback_check(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    points,
    tol: float = DEFAULT_TOL,
):
    """Verify J^T Ric_tgt(F(w)) conj(J) = Ric_src(w) at the sample points.

    Equidimensional only (src.dim must equal tgt.dim).  Samples where the
    Jacobian is numerically singular are skipped with a warning; the verdict
    covers the remaining points.  Returns (passed, max_residual, n_skipped).
    """
    if src.dim != tgt.dim:
        raise PreconditionError(
            f"Ricci comparison is equidimensional; got dims {src.dim} and {tgt.dim}"
        )
    pts = list(points)
    if not pts:
        raise DegenerateSampleError("need at least one sample point")
    worst = 0.0
    skipped = 0
    for k, w in enumerate(pts):
        fw, jf = map_jet(F, w)
        if abs(det(jf)) < _SINGULAR_JAC_TOL:
            warnings.warn(f"singular Jacobian at sample {k}; point skipped")
            skipped += 1
            continue
        pulled = jf.T @ ricci(tgt, fw) @ np.conj(jf)
        resid = float(np.abs(pulled - ricci(src, w)).max())
        worst = max(worst, resid)
    if skipped == len(pts):
        raise DegenerateSampleError("all samples had singular Jacobians")
    return worst < tol, worst, skipped
