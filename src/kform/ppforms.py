"""Wedge powers of Kähler forms: coefficient matrices, pullbacks, and the
proportionality / relatives decision procedures.

The coefficient of omega^p over a pair of increasing multi-indices (I, J) is
the determinant of the (I, J) minor of the metric.  The common prefactor
(sqrt(-1))^p p! is dropped from all stored coefficients: it is identical on
both sides of every identity tested here, so only the minor determinants
matter.  A coefficient matrix is a plain Hermitian ndarray whose rows and
columns follow ``index_basis(n, p)``, the lexicographic tuple of increasing
p-tuples; it is positive definite for definite space forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateSampleError, DimensionError, DomainError
from .expressions import MapExpr, map_jet
from .linalg import hermitize, minor_dets
from .spaceforms import SpaceForm, chart_point, euclidean, in_chart, metric

__all__ = [
    "PullbackResult",
    "index_basis",
    "wedge_power_coeffs",
    "compound_matrix",
    "pullback_pp",
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
    the target form is definite.
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
    d = compound_matrix(jf, p)
    return hermitize(d.T @ wtgt @ np.conj(d))


def _pooled_ratio(pairs) -> float:
    """Least-squares real lambda for sum over (base, theta) pairs |theta - lambda*base|^2."""
    num = 0.0
    den = 0.0
    for base, theta in pairs:
        num += float(np.sum(np.conj(base) * theta).real)
        den += float(np.sum(np.abs(base) ** 2))
    if den == 0.0:
        raise DegenerateSampleError("base form coefficients vanish at every sample point")
    return num / den


def _pooled_result(pairs, tol: float) -> PullbackResult:
    """The pooled ratio with the worst entry residual and the verdict."""
    lam = _pooled_ratio(pairs)
    resid = max(float(np.abs(theta - lam * base).max()) for base, theta in pairs)
    return PullbackResult(
        lambdaHat=lam,
        maxResidual=resid,
        passed=bool(resid < tol * (1.0 + abs(lam))),
    )


def proportionality_test(
    F: MapExpr,
    src: SpaceForm,
    tgt: SpaceForm,
    p: int,
    points,
    tol: float = DEFAULT_TOL,
) -> PullbackResult:
    """Decide whether F*omega_tgt^p = lambda * omega_src^p on the samples.

    lambdaHat is the least-squares ratio pooled across all matrix entries and
    points; the verdict passes iff the worst entry residual is below
    tol * (1 + |lambdaHat|).  A point where the source coefficients all
    vanish raises a degenerate-sample error.
    """
    pts = list(points)
    if not pts:
        raise DegenerateSampleError("need at least one sample point")
    pairs = []
    for w in pts:
        base = wedge_power_coeffs(metric(src, w), p)
        if float(np.abs(base).max()) == 0.0:
            raise DegenerateSampleError(f"omega^p coefficients vanish at sample {w!r}")
        pairs.append((base, pullback_pp(F, src, tgt, p, w)))
    return _pooled_result(pairs, tol)


def relatives_test(
    F: MapExpr,
    G: MapExpr,
    tgt1: SpaceForm,
    tgt2: SpaceForm,
    m: int,
    p: int,
    points,
    tol: float = DEFAULT_TOL,
) -> PullbackResult:
    """Decide whether F*omega_tgt1^p = lambda * G*omega_tgt2^p on the samples.

    Both maps pull back from a common m-dimensional source chart (treated as
    a plain coordinate domain; only the two target forms enter).  Returns the
    pooled least-squares lambdaHat with G's pullback as the base.
    """
    if F.arity != m or G.arity != m:
        raise DimensionError(f"both maps must have arity {m}")
    src = euclidean(m)
    pts = list(points)
    if not pts:
        raise DegenerateSampleError("need at least one sample point")
    pairs = []
    for w in pts:
        theta_f = pullback_pp(F, src, tgt1, p, w)
        theta_g = pullback_pp(G, src, tgt2, p, w)
        if float(np.abs(theta_g).max()) == 0.0:
            raise DegenerateSampleError(f"base pullback vanishes at sample {w!r}")
        pairs.append((theta_g, theta_f))
    return _pooled_result(pairs, tol)
