"""Pointwise linear algebra behind the (p,p)-form rigidity arguments.

Given a holomorphic map whose p-th wedge pullback is a constant multiple
lambda of the source form, the eigenvalues of the (1,1) pullback against the
source metric must have all their p-fold products equal to lambda.  For
p < m this forces all eigenvalues equal to lambda^(1/p), i.e. the map is a
local isometry up to that factor; for p = m a single product carries no such
constraint (witness (1/2, 2 lambda)), so concluding a factor is refused.
The Ricci comparison check covers the equidimensional determinant argument.

Every check here reads the (1,1) stacks ``ppforms.proportionality_stacks``
builds, the source metric g and the pullback Theta1 = J^T g_tgt(F) conj(J)
at each sample point.  ``profiles_from_pullback`` turns them into the (S, m)
eigenvalue rows and their (S,) targets; the degree-p pullback is not built,
since by Cauchy-Binet it is the p-th compound of Theta1.  The errors of a
stack come in this order: those of any (1,1) pullback, then definiteness
(naming the stack index of the first point whose metric fails), then the
degree-p overflow.  ``profile_from_pullback`` is the one-point view, with
index-free errors.  ``ricci_pullback_check`` is the stacks' fixed-ratio
view: on a space form Ric = ricci_factor * g, so it compares k_tgt Theta1
with k_src g.

``product_rule`` is the product and spread rule, on an (S, m) array of
eigenvalue rows and their targets as one array pass.  A rigidity scenario
makes one call per run and the battery's c01 one per (m, p) group;
``eigen_products_check`` and ``conclude_isometry_factor`` are its one-row
views.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateSampleError, DimensionError, PreconditionError
from .expressions import MapExpr, map_jet
from .linalg import det, finite, generalized_eigenvalues, pow2_scaled
from .ppforms import _offsets, _point_sums, index_basis, proportionality_stacks, wedge_power_coeffs
from .spaceforms import SpaceForm

__all__ = [
    "profiles_from_pullback",
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


def _rows_and_targets(base, theta1, p: int):
    """The eigenvalue rows of the pencils (theta1, base) and the degree-p targets.

    Takes (..., m, m) stacks or one pair; each target is the one-point
    ``pooled_fit`` ratio of C_p(theta1) against C_p(base).
    """
    lams = generalized_eigenvalues(theta1, base)
    if p > 1:  # at p = 1 the stacks are the coefficients (a 1 x 1 det may round)
        with np.errstate(over="ignore", invalid="ignore"):
            theta1 = finite(wedge_power_coeffs(theta1, p), f"the ({p},{p}) pullback")
        base = wedge_power_coeffs(base, p)
    return lams, np.divide(*_point_sums(base, theta1))


def profiles_from_pullback(F: MapExpr, src: SpaceForm, tgt: SpaceForm, p: int, points):
    """The eigenvalue rows of F at the S sample points and their targets, as (lams, targets).

    lams is the (S, m) array of ascending generalized eigenvalues of the
    (1,1) pullback against the source metric, which must be positive
    definite, from one batched solve.  targets holds each point's
    ``ppforms.pooled_fit`` lambdaHat of the (p,p) pullback against the
    source's p-th wedge power, the (p,p) pullback being the p-th compound of
    the (1,1) one (Cauchy-Binet).  An empty sample raises a
    degenerate-sample error.
    """
    return _rows_and_targets(*proportionality_stacks(F, src, tgt, 1, points), p)


def profile_from_pullback(F: MapExpr, src: SpaceForm, tgt: SpaceForm, p: int, w):
    """``profiles_from_pullback`` at the one chart point w, as (lams, target).

    Its errors name no stack index.
    """
    lams, target = _rows_and_targets(*(s[0] for s in proportionality_stacks(F, src, tgt, 1, [w])), p)
    return lams, float(target)


def product_rule(lams, p: int, targets, tol: float = DEFAULT_TOL):
    """The product and spread rule on an (S, m) stack of eigenvalue rows of one degree p.

    The rows are sorted here, must be finite (else ``ValueError``), and
    ``targets`` holds their (S,) targets (other shapes of either raise
    ``DimensionError``); p must lie in 1..m, so an empty row is refused.
    Returns two (S,) arrays: ``products``, whether every p-fold product of
    a row is within tol*|target| of its target, each product multiplying
    left to right over the ascending row as ``math.prod`` does; and
    ``factors``, the row mean where the products hold and the spread
    max - min is at most 10 tol max(|mean|, 1e-300), else NaN.
    """
    lams = np.sort(np.asarray(lams, dtype=float), axis=-1)
    if not np.isfinite(lams).all():
        raise ValueError("eigenvalue rows must be finite")
    m = lams.shape[-1]
    if not 1 <= p <= m:
        raise PreconditionError(f"degree p={p} out of range 1..{m}")
    targets = np.asarray(targets, dtype=float)
    if lams.ndim != 2 or targets.shape != lams.shape[:1]:
        raise DimensionError(f"rows must be (S, m) and targets (S,); got {lams.shape} and {targets.shape}")
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
    return None if np.isnan(factor) else factor


def ricci_pullback_check(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    points,
    tol: float = DEFAULT_TOL,
):
    """Verify J^T Ric_tgt(F(w)) conj(J) = Ric_src(w) at the sample points.

    On a space form Ric = ricci_factor * g, so this compares k_tgt Theta1
    with k_src g on the (1,1) stacks of ``ppforms.proportionality_stacks``.
    The residual is judged on its own scale, as ``ppforms.pooled_fit``
    judges the (p,p) identities: at each point the worst entry of
    |k_tgt Theta1 - k_src g| over the larger of the two sides' largest
    entries (0 where both vanish, flat to flat), worst over the points.
    Ricci entries grow like u^-2 near the ball's edge, so an absolute
    residual would fail true automorphisms there.  PASS iff the residual is
    below tol.

    Equidimensional only (src.dim must equal tgt.dim).  Samples where the
    Jacobian is singular on its own scale are skipped with a warning: |det|
    below 1e-12 once ``linalg.pow2_scaled`` has brought its rows and then
    its columns to peak in [1/2, 1), so a zero row or column skips and a
    homothety by 1e-5 does not.  The verdict covers the remaining points,
    whose (1,1) pullbacks raise as ``pullback_pp``'s do: ``DomainError`` for
    a map image outside the target chart, ``EvaluationLimitError`` for an
    overflow.  Returns (passed, max_residual, n_skipped).
    """
    if src.dim != tgt.dim:
        raise PreconditionError(
            f"Ricci comparison is equidimensional; got dims {src.dim} and {tgt.dim}"
        )
    pts = list(points)
    singular = [abs(det(pow2_scaled(map_jet(F, w)[1]))) < _SINGULAR_JAC_TOL for w in pts]
    for k in np.flatnonzero(singular):
        warnings.warn(f"singular Jacobian at sample {k}; point skipped")
    if pts and all(singular):  # an empty sample is refused by proportionality_stacks
        raise DegenerateSampleError("all samples had singular Jacobians")
    base, theta1 = proportionality_stacks(F, src, tgt, 1, [w for w, s in zip(pts, singular) if not s])
    with np.errstate(over="ignore", invalid="ignore"):
        pulled = finite(tgt.ricci_factor * theta1, "the Ricci pullback")
        own = src.ricci_factor * base
        # both sides vanish only flat to flat, where the residual is 0
        scale = np.maximum(np.abs(pulled).max(axis=(-2, -1)), np.abs(own).max(axis=(-2, -1)))
        worst = float((np.abs(pulled - own).max(axis=(-2, -1)) / np.where(scale > 0.0, scale, 1.0)).max())
    return worst < tol, worst, sum(singular)
