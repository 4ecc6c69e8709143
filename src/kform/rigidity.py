"""Pointwise linear algebra behind the (p,p)-form rigidity arguments.

Given a holomorphic map whose p-th wedge pullback is a constant multiple
lambda of the source form, the eigenvalues of the (1,1) pullback against the
source metric must have all their p-fold products equal to lambda.  For
p < m this forces all eigenvalues equal to lambda^(1/p), i.e. the map is a
local isometry up to that factor; for p = m a single product carries no such
constraint (witness (1/2, 2 lambda)), so concluding a factor is refused.
The Ricci comparison check covers the equidimensional determinant argument.

``product_rule`` is the product and spread rule, on an (S, m) array of
eigenvalue rows and their targets as one array pass.  A rigidity scenario
makes one call per run and the battery's c01 one per (m, p) group;
``eigen_products_check`` and ``conclude_isometry_factor`` are its one-row
views.  ``profile_from_pullback`` gives one sample point's row and target.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateSampleError, DomainError, PreconditionError
from .expressions import MapExpr, map_jet
from .linalg import det, finite, generalized_eigenvalues, pow2_scaled
from .ppforms import _offsets, index_basis, pooled_fit, pullback_pp, wedge_power_coeffs
from .spaceforms import SpaceForm, in_chart, metric, ricci

__all__ = [
    "profile_from_pullback",
    "eigen_products_check",
    "conclude_isometry_factor",
    "product_rule",
    "ricci_pullback_check",
]

DEFAULT_TOL = 1e-8

# |det| of the power-of-two scaled Jacobian below this counts as a singular
# sample in ricci_pullback_check
_SINGULAR_JAC_TOL = 1e-12


def profile_from_pullback(F: MapExpr, src: SpaceForm, tgt: SpaceForm, p: int, w):
    """The eigenvalue row of F at the chart point w and its target, as (lams, target).

    lams are the ascending generalized eigenvalues of the (1,1) pullback
    against the source metric, which must be positive definite.  target is
    ``ppforms.pooled_fit``'s lambdaHat of the (p,p) pullback against the
    source's p-th wedge power at this one point; at p = 1 that is the (1,1)
    pullback already in hand.
    """
    theta1 = pullback_pp(F, src, tgt, 1, w)
    base = metric(src, w)
    lams = generalized_eigenvalues(theta1, base)
    theta = theta1 if p == 1 else pullback_pp(F, src, tgt, p, w)
    return lams, pooled_fit(wedge_power_coeffs(base, p)[None], theta[None]).lambdaHat


def product_rule(lams, p: int, targets, tol: float = DEFAULT_TOL):
    """The product and spread rule on an (S, m) stack of eigenvalue rows of one degree p.

    The rows are sorted here, must be finite (else ``ValueError``), and
    ``targets`` holds their (S,) targets; p must lie in 1..m, so an empty
    row is refused.  Returns two (S,) arrays: ``products``, whether every
    p-fold product of a row is within tol*|target| of its target, each
    product multiplying left to right over the ascending row as
    ``math.prod`` does; and ``factors``, the row mean where the products
    hold and the spread max - min is at most 10 tol max(|mean|, 1e-300),
    else NaN.
    """
    lams = np.sort(np.asarray(lams, dtype=float), axis=-1)
    if not np.isfinite(lams).all():
        raise ValueError("eigenvalue rows must be finite")
    m = lams.shape[-1]
    if not 1 <= p <= m:
        raise PreconditionError(f"degree p={p} out of range 1..{m}")
    targets = np.asarray(targets, dtype=float)
    picks = lams[:, _offsets(index_basis(m, p))]
    prods = picks[..., 0]
    for j in range(1, p):
        prods = prods * picks[..., j]
    off = np.abs(prods - targets[:, None]) > tol * np.abs(targets)[:, None]
    products = ~off.any(axis=-1)
    mean = lams.sum(axis=-1) / m  # np.mean's sum and division
    spread = lams[:, -1] - lams[:, 0]
    flat = ~(spread > 10.0 * tol * np.maximum(np.abs(mean), 1e-300))
    return products, np.where(products & flat, mean, np.nan)


def eigen_products_check(lams, p: int, target: float, tol: float = DEFAULT_TOL) -> bool:
    """PASS iff every p-fold product of the row lams is within tol*|target| of target.

    Each product multiplies left to right over the ascending row
    (``product_rule`` on one row).
    """
    return bool(product_rule(np.reshape(lams, (1, -1)), p, [target], tol)[0][0])


def conclude_isometry_factor(lams, p: int, target: float, tol: float = DEFAULT_TOL):
    """The common eigenvalue target^(1/p) of the row lams, or None if the row refuses it.

    Requires p < m: at top degree a single determinant condition admits
    non-isometries, so the conclusion would be unsound and a precondition
    error is raised.  Returns None when the product check fails or the
    eigenvalue spread exceeds the tolerance (``product_rule`` on one row).
    """
    m = np.size(lams)
    if p >= m:
        raise PreconditionError(
            f"isometry conclusion needs p < m, got p={p}, m={m}; "
            "top-degree preservation admits non-isometries"
        )
    factor = float(product_rule(np.reshape(lams, (1, -1)), p, [target], tol)[1][0])
    return None if math.isnan(factor) else factor


def ricci_pullback_check(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    points,
    tol: float = DEFAULT_TOL,
):
    """Verify J^T Ric_tgt(F(w)) conj(J) = Ric_src(w) at the sample points.

    The residual is judged on its own scale, as ``ppforms.pooled_fit``
    judges the (p,p) identities: at each point the worst entry of
    |J^T Ric_tgt conj(J) - Ric_src| over the larger of the two sides'
    largest entries (0 where both vanish, flat to flat), worst over the
    points.  Ricci entries grow like u^-2 near the ball's edge, so an
    absolute residual would fail true automorphisms there.  PASS iff the
    residual is below tol.

    Equidimensional only (src.dim must equal tgt.dim).  Samples where the
    Jacobian is singular on its own scale are skipped with a warning: |det|
    below 1e-12 once ``linalg.pow2_scaled`` has brought its rows and then
    its columns to peak in [1/2, 1), so a zero row or column skips and a
    homothety by 1e-5 does not.  The verdict covers the remaining points.
    A map image outside the target chart raises ``DomainError``, and a
    pullback that overflows ``EvaluationLimitError``, as in ``pullback_pp``.
    Returns (passed, max_residual, n_skipped).
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
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(det(pow2_scaled(jf))) < _SINGULAR_JAC_TOL:
                warnings.warn(f"singular Jacobian at sample {k}; point skipped")
                skipped += 1
                continue
            if not in_chart(tgt, fw):
                raise DomainError("map image lies outside the target chart domain")
            pulled = finite(jf.T @ ricci(tgt, fw) @ np.conj(jf), "the Ricci pullback")
        own = ricci(src, w)
        # both sides vanish only flat to flat, where the residual is 0
        scale = float(np.abs([pulled, own]).max()) or 1.0
        worst = max(worst, float(np.abs(pulled - own).max()) / scale)
    if skipped == len(pts):
        raise DegenerateSampleError("all samples had singular Jacobians")
    return worst < tol, worst, skipped
