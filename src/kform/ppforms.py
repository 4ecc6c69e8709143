"""Wedge powers of Kähler forms: coefficient matrices, pullbacks, and the
one rule that decides the proportionality and relatives identities.

The coefficient of omega^p over a pair of increasing multi-indices (I, J) is
the determinant of the (I, J) minor of the metric.  The common prefactor
(sqrt(-1))^p p! is dropped from all stored coefficients: it is identical on
both sides of every identity tested here, so only the minor determinants
matter.  A coefficient matrix is a plain Hermitian ndarray whose rows and
columns follow ``index_basis(n, p)``, the lexicographic tuple of increasing
p-tuples; it is positive definite for definite space forms.

Both identities, F*omega_tgt^p = lambda omega_src^p and F*omega_1^p =
lambda G*omega_2^p, are decided by ``pooled_fit`` on (S, K, K) stacks of
base and pulled-back coefficients, one row per sample point.  One builder
makes both kinds of stack from a pair function, whose base is omega_src^p
for ``proportionality_test`` and G*omega_2^p for ``relatives_test``.  lambdaHat
is the least-squares real ratio pooled over every entry and point.  The
residual is base-relative: at each point the worst entry of |theta -
lambdaHat base| over that point's largest |base| coefficient, worst over
the points.  The identity holds when it is at most tol |lambdaHat|, so the
verdict is relative to lambdaHat as well: replacing F by s F between flat
forms multiplies theta, lambdaHat and the residual by |s|^(2p) and leaves
the verdict as it was.  An absolute floor would pass any map whose pullback
is small, whatever its shape.  A constant map (theta = 0, lambdaHat = 0,
residual 0) passes, since 0 <= 0.  Since the omega^p coefficients scale like
u^-(p+1), an absolute residual would fail true isometries where they grow
(near the ball's edge) and pass false maps where they decay (far out in the
projective chart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateSampleError, DimensionError, DomainError
from .expressions import MapExpr, map_jet
from .linalg import finite, hermitize, minor_dets
from .spaceforms import SpaceForm, chart_point, euclidean, in_chart, metric

__all__ = [
    "PullbackResult",
    "index_basis",
    "wedge_power_coeffs",
    "compound_matrix",
    "pullback_pp",
    "pooled_fit",
    "proportionality_stacks",
    "relatives_stacks",
    "proportionality_test",
    "relatives_test",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class PullbackResult:
    """Outcome of a proportionality comparison over sample points."""

    lambdaHat: float
    maxResidual: float
    passed: bool


def index_basis(n: int, p: int) -> tuple:
    """The lexicographic tuple of increasing 1-based p-tuples from {1..n}.

    The arguments are checked on every call; the tuple itself is built once
    per (n, p) and shared, so equal calls return the same object.
    """
    if not isinstance(n, int) or not isinstance(p, int):
        raise DimensionError("n and p must be integers")
    if not 1 <= p <= n:
        raise DimensionError(f"degree p must satisfy 1 <= p <= n, got p={p}, n={n}")
    return _index_basis(int(n), int(p))


@cache
def _index_basis(n: int, p: int) -> tuple:
    return tuple(combinations(range(1, n + 1), p))


@cache
def _offsets(basis: tuple) -> np.ndarray:
    """A basis as a read-only (len, p) array of 0-based indices, built once per basis."""
    out = np.subtract(basis, 1)
    out.flags.writeable = False
    return out


@cache
def _contraction_signs(n: int, p: int) -> np.ndarray:
    """The signed contractions S, a read-only (n, C(n, p-1), C(n, p)) array built once per (n, p).

    S[k, K, I] is (-1)^s when I = K with k inserted at 0-based position s,
    and 0 otherwise, over ``index_basis(n, p - 1)`` (just the empty tuple at
    p = 1) and ``index_basis(n, p)``; so ``(S @ xi)[k]`` is the (p-1)-vector
    e_k _| xi, the contraction of the p-vector xi with the k-th coordinate.
    """
    rows = {K: a for a, K in enumerate(_index_basis(n, p - 1))}
    out = np.zeros((n, len(rows), math.comb(n, p)))
    for b, I in enumerate(_index_basis(n, p)):
        for s, k in enumerate(I):
            out[k - 1, rows[I[:s] + I[s + 1 :]], b] = (-1) ** s
    out.flags.writeable = False
    return out


def wedge_power_coeffs(g, p: int) -> np.ndarray:
    """Hermitian coefficient matrix of omega^p for the metric matrix ``g``.

    Entry (a, b) is the determinant of the (I_a, I_b) minor of ``g``, where
    I_a is entry a of ``index_basis(n, p)``; the (sqrt(-1))^p p! prefactor
    is dropped (module docstring).  A (..., n, n) stack of metrics gives the
    (..., C(n,p), C(n,p)) stack of their coefficient matrices.
    """
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim < 2 or g.shape[-2] != g.shape[-1]:
        raise DimensionError(f"expected a square metric matrix, got shape {g.shape}")
    return hermitize(compound_matrix(g, p))


def compound_matrix(m, p: int) -> np.ndarray:
    """p-th compound: entry (I, J) = det of m's (I, J) minor, lexicographic.

    For m of shape (n, k) the result has shape (C(n,p), C(k,p)); it is the
    action of m on p-vectors, so compounds are multiplicative (Cauchy-Binet).
    A (..., n, k) stack of matrices gives the stack of their compounds.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix, got ndim {m.ndim}")
    rows = _offsets(index_basis(m.shape[-2], p))
    cols = _offsets(index_basis(m.shape[-1], p))
    return minor_dets(m, rows, cols)


def pullback_pp(F: MapExpr, src: SpaceForm, tgt: SpaceForm, p: int, w) -> np.ndarray:
    """Pullback coefficients Theta of omega_tgt^p under F at the chart point w.

    Theta[L, K] = sum_{I,J} det(g_tgt minor (I,J) at F(w))
                  * det(JF[I, L]) * conj(det(JF[J, K]))
    over source multi-indices L, K; computed as D^T W conj(D) with D the p-th
    compound of the Jacobian.  Hermitian, and positive semidefinite whenever
    the target form is definite.  An entry that overflows raises
    ``EvaluationLimitError``.
    """
    if F.arity != src.dim:
        raise DimensionError(f"map arity {F.arity} != source dim {src.dim}")
    if F.codim != tgt.dim:
        raise DimensionError(f"map has {F.codim} components, target dim is {tgt.dim}")
    z = chart_point(src, w)
    fz, jf = map_jet(F, z)
    if not in_chart(tgt, fz):
        raise DomainError("map image lies outside the target chart domain")
    wtgt = wedge_power_coeffs(metric(tgt, fz), p)
    with np.errstate(over="ignore", invalid="ignore"):
        d = compound_matrix(jf, p)
        theta = finite(d.T @ wtgt @ np.conj(d), f"the ({p},{p}) pullback")
    return hermitize(theta)


def _point_sums(base, theta):
    """Each point's Re<base_s, theta_s> and |base_s|^2, summed over its (K, K) entries.

    Two (S,) arrays for (S, K, K) stacks, 0-d for one (K, K) pair.  A point's
    own ratio num / den is ``pooled_fit``'s lambdaHat on that point alone.
    """
    return np.sum(np.conj(base) * theta, axis=(-2, -1)).real, np.sum(np.abs(base) ** 2, axis=(-2, -1))


def pooled_fit(base, theta, tol: float = DEFAULT_TOL) -> PullbackResult:
    """The pooled comparison theta = lambda * base on (S, K, K) stacks, one point per row.

    lambdaHat = sum_s Re<base_s, theta_s> / sum_s |base_s|^2, each point
    reduced over its (K, K) entries and the points added in sample order.
    maxResidual is the worst over the points of max |theta_s - lambdaHat
    base_s| / max |base_s|, so it does not grow or shrink with the scale of
    the coefficients, and the verdict passes iff it is at most tol *
    |lambdaHat|, so it does not move with the scale of theta either.  A
    vanishing theta passes (lambdaHat and the residual are both 0).  A point
    whose base coefficients all vanish raises a degenerate-sample error that
    names its 0-based index.
    """
    scale = np.abs(base).max(axis=(-2, -1))
    if not scale.all():
        raise DegenerateSampleError(f"base form coefficients vanish at sample {int(np.argmin(scale))}")
    lam, total = 0.0, 0.0
    for a, b in np.column_stack(_point_sums(base, theta)).tolist():
        lam, total = lam + a, total + b
    if total == 0.0:
        raise DegenerateSampleError("base form coefficients underflow at every sample point")
    lam /= total
    resid = float((np.abs(theta - lam * base).max(axis=(-2, -1)) / scale).max())
    return PullbackResult(lambdaHat=lam, maxResidual=resid, passed=bool(resid <= tol * abs(lam)))


def _stacks(pair, points):
    """The (S, K, K) stacks (base, theta) of ``pair(w)`` over the S sample points, in order.

    An empty sample raises a degenerate-sample error.
    """
    pts = list(points)
    if not pts:
        raise DegenerateSampleError("need at least one sample point")
    bases, thetas = zip(*map(pair, pts))
    return np.array(bases), np.array(thetas)


def proportionality_stacks(F: MapExpr, src: SpaceForm, tgt: SpaceForm, p: int, points):
    """The stacks of omega_src^p and F*omega_tgt^p that ``proportionality_test`` fits."""
    return _stacks(
        lambda w: (wedge_power_coeffs(metric(src, w), p), pullback_pp(F, src, tgt, p, w)), points
    )


def relatives_stacks(F: MapExpr, G: MapExpr, tgt1: SpaceForm, tgt2: SpaceForm, p: int, points):
    """The stacks of G*omega_tgt2^p and F*omega_tgt1^p that ``relatives_test`` fits.

    Both maps pull back from plain coordinates of F's arity; a G of another
    arity raises ``DimensionError``.
    """
    if G.arity != F.arity:
        raise DimensionError(f"both maps must have arity {F.arity}, G has {G.arity}")
    src = euclidean(F.arity)

    def pair(w):
        theta = pullback_pp(F, src, tgt1, p, w)
        return pullback_pp(G, src, tgt2, p, w), theta

    return _stacks(pair, points)


def proportionality_test(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    p: int,
    points,
    tol: float = DEFAULT_TOL,
) -> PullbackResult:
    """Decide whether F*omega_tgt^p = lambda * omega_src^p on the samples (``pooled_fit``)."""
    return pooled_fit(*proportionality_stacks(F, src, tgt, p, points), tol)


def relatives_test(
    F: MapExpr,
    G: MapExpr,
    tgt1: SpaceForm,
    tgt2: SpaceForm,
    p: int,
    points,
    tol: float = DEFAULT_TOL,
) -> PullbackResult:
    """Decide whether F*omega_tgt1^p = lambda * G*omega_tgt2^p on the samples (``pooled_fit``).

    Both maps pull back from a common source chart of F's arity, treated as a
    plain coordinate domain: only the two target forms enter, and G's
    pullback is the base.
    """
    return pooled_fit(*relatives_stacks(F, G, tgt1, tgt2, p, points), tol)
