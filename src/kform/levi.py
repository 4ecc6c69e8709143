"""Levi geometry of unit sphere bundles inside wedge powers of the tangent bundle.

The hypersurface S_r consists of the p-vectors xi over a chart point z whose
squared norm in the p-th wedge power of the metric equals r.  Its defining
function is

    rho_r(z, xi) = sum_{I,J} W_IJ(z) xi_I conj(xi_J) - r

with W the wedge-power coefficient matrix.  The restricted Levi form of S_r
decides pseudoconvexity: over a ball it is positive definite, over projective
space it is indefinite below top degree and negative definite at top degree.
The obstruction probe compares the sign of the horizontal Levi value on the
source side with the target side along a holomorphic map; a nonpositive
source value against a strictly positive target value is the contradiction
that rules such maps out.

W is the plain Hermitian array ``wedge_power_coeffs(g, p)``, and a fiber
p-vector xi is a plain array over ``index_basis(n, p)``.  Levi forms are
evaluated at the chart center after moving the bundle point there by a
metric automorphism, because the closed-form Hessian blocks need vanishing
first metric derivatives.  At the center of a definite form g = I, and the
base-base Hessian block of rho is

    -c (p |xi|^2 I + conj(V) V^T),   V = S @ xi,

with c the curvature sign and S[k, K, I] = (-1)^(position of k in I) when
I = K with k inserted, else 0, so that row k of V is the contraction
e_k _| xi.  The probe takes this closed form; ``levi_form`` still sums one
``wedge_curvature_block`` per (I, J) pair.  Eigenvalues are reported
relative to the metric that S_r induces on its holomorphic tangent space,
so the spectrum does not depend on the tangent basis or on the centering
frame.  The tests check this analytic route against a finite-difference
Levi form of rho_r taken at any chart point (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DimensionError, DomainError, PreconditionError
from .expressions import MapExpr, map_jet
from .linalg import (
    DEFAULT_ZERO_TOL,
    cofactor_matrix,
    generalized_eigenvalues,
    hermitian_eigen,
    hermitize,
    sign_counts,
)
from .ppforms import _contraction_signs, compound_matrix, index_basis, wedge_power_coeffs
from .spaceforms import (
    SpaceForm,
    _chart,
    center_automorphism,
    chart_point,
    metric,
    metric_dz,
    sample_chart_points,
    wedge_curvature_block,
)

__all__ = [
    "SphereBundlePoint",
    "LeviReport",
    "ProbeResult",
    "rho_gradient",
    "bundle_point",
    "levi_radius_fits",
    "sample_bundle_points",
    "tangent_basis",
    "levi_form",
    "levi_signatures",
    "obstruction_probe",
]

# |xi_I| and pushforward norms below this count as vanishing
_TINY = 1e-12

# Levi values within this of zero are treated as sign-indeterminate by the probe
_PROBE_TOL = 1e-10

# eigenvalues of the probe's jg^H jg within this relative distance of the top one tie with it
_TOP_GAP = 1e-10


@dataclass(frozen=True)
class SphereBundlePoint:
    """A base chart point with a fiber p-vector normalized onto S_r."""

    base: np.ndarray
    fiber: np.ndarray
    p: int
    r: float


@dataclass(frozen=True)
class LeviReport:
    """Eigenvalues and signature of a restricted Levi form.

    The eigenvalues are relative to the induced metric: they solve
    det(M^T H conj(M) - lambda M^T G conj(M)) = 0 for the tangent basis M, the
    complex Hessian H of rho and G = diag(g, W), so they do not depend on the
    choice of M or of the centering frame.  dimension is the complex
    dimension of the holomorphic tangent space of S_r, i.e. m + |A| - 1 (just
    m at top degree); the three counts sum to it.
    """

    eigenvalues: np.ndarray
    nNeg: int
    nZero: int
    nPos: int
    dimension: int


@dataclass(frozen=True)
class ProbeResult:
    """Two-sided Levi sign comparison along a map into a ball.

    conflict means the source-side horizontal value is nonpositive while the
    target side is strictly positive, which is incompatible with the map
    preserving the sphere bundles.  inconclusive marks probes where the
    differential pushed every horizontal vector below numerical resolution.
    """

    lhs: float
    rhs: float
    conflict: bool
    inconclusive: bool


def _fiber_vector(xi, size: int) -> np.ndarray:
    arr = np.asarray(xi, dtype=np.complex128).reshape(-1)
    if arr.size != size:
        raise DimensionError(f"fiber vector has {arr.size} entries, expected {size}")
    return arr


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    out = np.zeros((m + b.shape[0],) * 2, dtype=np.complex128)
    out[:m, :m], out[m:, m:] = a, b
    return out


def _quad(a: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(v @ a @ np.conj(v)))


def rho_gradient(sf: SpaceForm, p: int, r: float, z, xi):
    """Holomorphic Wirtinger gradient of rho_r, split as (d_z, d_xi).

    d_z[l] differentiates the minor determinants W_IJ through the cofactor
    expansion against the metric derivative; d_xi is W @ conj(xi).
    """
    z = chart_point(sf, z)
    g = metric(sf, z)
    dg = metric_dz(sf, z)
    basis = index_basis(sf.dim, p)
    xi = _fiber_vector(xi, len(basis))
    w = wedge_power_coeffs(g, p)
    d_xi = w @ np.conj(xi)
    d_z = np.zeros(sf.dim, dtype=np.complex128)
    rows = [np.asarray(I, dtype=int) - 1 for I in basis]
    for a, i0 in enumerate(rows):
        for b, j0 in enumerate(rows):
            cof = cofactor_matrix(g[np.ix_(i0, j0)])
            coeff = xi[a] * np.conj(xi[b])
            for l in range(sf.dim):
                d_z[l] += coeff * np.sum(cof * dg[l][np.ix_(i0, j0)])
    return d_z, d_xi


def bundle_point(sf: SpaceForm, p: int, r: float, z, xi) -> SphereBundlePoint:
    """Scale xi so that (z, xi) lies exactly on S_r.

    A point |z| at which ``levi_radius_fits`` fails raises ``DomainError``.
    """
    if not sf.is_definite:
        raise PreconditionError("sphere bundles are only built over definite metrics")
    if r <= 0:
        raise PreconditionError(f"bundle radius must be positive, got {r}")
    z, u = _chart(sf, z)
    if sf.curv > 0 and not _wedge_norm_fits(sf, p, u):
        raise DomainError(
            f"chart point with 1 + |w|^2 = {u:.3g} is too far out for the degree-{p} "
            "wedge norm to keep its precision"
        )
    w = wedge_power_coeffs(metric(sf, z), p)
    xi = _fiber_vector(xi, len(w))
    norm2 = _quad(w, xi)
    # W's entries shrink like 1/u^p far out in a projective chart, so the
    # norm is only asked to be positive
    if not norm2 > 0:
        raise DegenerateSampleError("zero fiber vector")
    return SphereBundlePoint(base=z, fiber=xi * np.sqrt(r / norm2), p=p, r=float(r))


def levi_radius_fits(sf: SpaceForm, p: int, radius: float) -> bool:
    """Whether Levi forms of degree p at the chart points |w| < radius keep their precision.

    Only a projective chart loses it, far out: with u = 1 + radius^2 the
    metric there has eigenvalues 1/u and 1/u^2.  At top degree every
    p-vector meets the 1/u^2 direction, and the one wedge coefficient det g,
    about u^-(n+1), comes from entries near 1/u with a relative rounding
    error near u * eps, which must stay within ``DEFAULT_ZERO_TOL`` (radius
    up to about 2.1e3).  Below top degree the coefficients near u^-p must
    stay normal floats.  ``bundle_point`` applies it at |z|, and
    ``scenarios.parse_scenario`` to a levi scenario's sampling radius.
    """
    return sf.curv <= 0 or _wedge_norm_fits(sf, p, 1.0 + radius * radius)


def _wedge_norm_fits(sf: SpaceForm, p: int, u: float) -> bool:
    """``levi_radius_fits`` on projective space, given u = 1 + radius^2."""
    if p == sf.dim:
        return u * sys.float_info.epsilon <= DEFAULT_ZERO_TOL
    return p * math.log(u) <= -math.log(sys.float_info.min)


def sample_bundle_points(
    sf: SpaceForm,
    p: int,
    r: float,
    count: int,
    seed: int,
    radius: float | None = None,
):
    """Deterministic sample of S_r points: chart bases plus random fibers."""
    bases = sample_chart_points(sf, count, seed=seed, radius=radius)
    n_fiber = len(index_basis(sf.dim, p))
    rng = np.random.default_rng(None if seed is None else seed + 1)
    out = []
    for z in bases:
        raw = rng.standard_normal(n_fiber) + 1j * rng.standard_normal(n_fiber)
        out.append(bundle_point(sf, p, r, z, raw))
    return out


def tangent_basis(sf: SpaceForm, p: int, z, xi) -> np.ndarray:
    """Columns spanning the holomorphic tangent space of S_r at (z, xi).

    All m base directions survive after a fiber correction through the pivot
    component, and the |A| - 1 fiber directions complementary to the pivot
    get the analogous correction, so every column annihilates the gradient
    of rho_r.  The pivot is the largest |xi_I| for stability (falling back
    to the largest |d_xi| if the gradient vanishes there).
    """
    basis = index_basis(sf.dim, p)
    xi = _fiber_vector(xi, len(basis))
    if float(np.abs(xi).max()) <= _TINY:
        raise DegenerateSampleError("zero fiber vector")
    d_z, d_xi = rho_gradient(sf, p, 0.0, z, xi)
    m = sf.dim
    n_fiber = len(basis)
    pivot = int(np.argmax(np.abs(xi)))
    if abs(d_xi[pivot]) < _TINY * max(1.0, float(np.abs(d_xi).max())):
        pivot = int(np.argmax(np.abs(d_xi)))
    if abs(d_xi[pivot]) <= _TINY:
        raise DegenerateSampleError("fiber gradient vanishes; point is not on a smooth level set")
    cols = np.eye(m + n_fiber, dtype=np.complex128)
    cols[m + pivot] = -np.concatenate([d_z, d_xi]) / d_xi[pivot]
    return np.delete(cols, m + pivot, axis=1)


def _report_from_form(h: np.ndarray, g: np.ndarray, cols: np.ndarray, tol: float) -> LeviReport:
    """Signature of the Hessian h on span(cols), against the induced metric g there."""
    eigs = generalized_eigenvalues(hermitize(cols.T @ h @ cols.conj()), cols.T @ g @ cols.conj())
    neg, zero, pos = sign_counts(eigs, tol)
    return LeviReport(
        eigenvalues=eigs,
        nNeg=neg,
        nZero=zero,
        nPos=pos,
        dimension=cols.shape[1],
    )


def _wedge_hessian_block(sf: SpaceForm, z, p: int, xi: np.ndarray) -> np.ndarray:
    """sum_{I,J} B_IJ xi_I conj(xi_J): the base-base Hessian block of rho at the center.

    One ``wedge_curvature_block`` per (I, J) pair.  Only ``levi_form`` still
    takes it, until the benchmark times levi passes shorter than its 0.2 s
    reference interval; then ``levi_form`` moves to ``_center_block`` too.
    """
    basis = index_basis(sf.dim, p)
    out = np.zeros((sf.dim, sf.dim), dtype=np.complex128)
    for a, I in enumerate(basis):
        for b, J in enumerate(basis):
            coeff = xi[a] * np.conj(xi[b])
            if coeff == 0:
                continue
            out += coeff * wedge_curvature_block(sf, z, I, J)
    return hermitize(out)


def _center_block(sf: SpaceForm, p: int, xi: np.ndarray) -> np.ndarray:
    """The base-base Hessian block of rho at the center of a definite form, in closed form.

    There g = I, and the block sum of ``_wedge_hessian_block`` is

        -c (p |xi|^2 I + conj(V) V^T),   V = S @ xi,

    with c = ``sf.curv`` and S the signed contractions of
    ``ppforms._contraction_signs``: row k of V is e_k _| xi.  Flat forms get
    the exact zero block.
    """
    v = _contraction_signs(sf.dim, p) @ xi
    block = p * np.vdot(xi, xi).real * np.eye(sf.dim) + np.conj(v) @ v.T
    return hermitize(-sf.curv * block)


def levi_form(
    sf: SpaceForm, p: int, r: float, z, xi, tol: float = DEFAULT_ZERO_TOL
) -> LeviReport:
    """Restricted Levi form of S_r at (z, xi), reported as a signature.

    The point is first normalized onto S_r and moved to the chart center by
    a metric automorphism (fiber transported by the compound of the
    differential); there the complex Hessian of rho is block diagonal with
    the curvature block over the base and the constant wedge matrix over the
    fiber, and the form is restricted to the tangent basis.  The restriction
    pairs columns as M^T H conj(M): H's first index is the holomorphic slot,
    so this sandwich evaluates the form on span(M) itself (the conjugate
    sandwich would restrict to the conjugated span, which is not invariant
    under the translation automorphism).  The eigenvalues are taken against
    the induced metric M^T G conj(M), G = diag(g(0), W(0)) at the center.
    """
    pt = bundle_point(sf, p, r, z, xi)
    xi0 = compound_matrix(center_automorphism(sf, pt.base), p) @ pt.fiber
    center = np.zeros(sf.dim, dtype=np.complex128)
    g0 = metric(sf, center)
    fiber_block = wedge_power_coeffs(g0, p)
    h = _block_diag(_wedge_hessian_block(sf, center, p, xi0), fiber_block)
    cols = tangent_basis(sf, p, center, xi0)
    return _report_from_form(h, _block_diag(g0, fiber_block), cols, tol)


def levi_signatures(
    sf: SpaceForm, p: int, r: float, count: int, seed: int, radius: float | None = None
) -> tuple[tuple, float]:
    """Levi signatures over a sample of S_r, and the smallest |eigenvalue|.

    Takes ``levi_form`` at each point of ``sample_bundle_points`` and returns
    the distinct (nNeg, nZero, nPos) triples in the order first seen, with
    the minimum absolute Levi eigenvalue, relative to the induced metric,
    over all points.
    """
    points = sample_bundle_points(sf, p, r, count, seed, radius)
    reports = [levi_form(sf, p, r, pt.base, pt.fiber) for pt in points]
    signatures = tuple(dict.fromkeys((rep.nNeg, rep.nZero, rep.nPos) for rep in reports))
    return signatures, min(float(np.abs(rep.eigenvalues).min()) for rep in reports)


def obstruction_probe(
    src: SpaceForm, tgt: SpaceForm, F: MapExpr, p: int, w, xi
) -> ProbeResult:
    """Compare horizontal Levi signs of the unit sphere bundles along F.

    Both bundle points are moved to their chart centers by automorphisms psi
    and chi.  There the base-base Hessian block of rho_1 is, in closed form,
    -c (p |xi|^2 I + conj(V) V^T) with V = S @ xi (module docstring), and it
    is evaluated on the dominant singular direction eta of
    jg = dchi J_F(w) dpsi^{-1}, the chain rule differential of
    chi o F o psi^{-1} at the center: lhs on the source side, rhs on the
    target side along the pushed vector.  When the top singular value is
    repeated (relative gap at most 1e-10), eta is the unit vector of its
    eigenspace that minimizes the source block, so the probe does not
    depend on the basis the eigen-solver returns.  The target must
    be a ball, whose Levi form is positive definite, so the horizontal block
    alone is a sound lower bound for rhs.
    The source kind is unrestricted; over a ball the probe simply reports
    lhs > 0 and no conflict.
    """
    if tgt.kind != "ball" or not tgt.is_definite:
        raise PreconditionError("probe target must be a definite ball")
    if not src.is_definite:
        raise PreconditionError("probe source must carry a definite metric")
    w = chart_point(src, w)
    if F.arity != src.dim:
        raise DimensionError(f"map takes {F.arity} inputs, source has dimension {src.dim}")
    if F.codim != tgt.dim:
        raise DimensionError(f"map has {F.codim} components, target has dimension {tgt.dim}")
    fw, jf = map_jet(F, w)
    dchi = center_automorphism(tgt, fw)  # F(w) must lie in the target chart

    pt = bundle_point(src, p, 1.0, w, xi)
    dpsi = center_automorphism(src, w)
    jg = dchi @ jf @ np.linalg.inv(dpsi)
    xi0 = compound_matrix(dpsi, p) @ pt.fiber

    z_src = _center_block(src, p, xi0)
    sing, vecs = hermitian_eigen(hermitize(jg.conj().T @ jg))
    top = vecs[:, sing >= sing[-1] - _TOP_GAP * abs(sing[-1])]
    # _quad(z_src, top @ c) is d^H B d for d = conj(c), with B as below
    _, low = hermitian_eigen(hermitize(top.T @ z_src @ top.conj()))
    eta = top @ low[:, 0].conj()
    lhs = _quad(z_src, eta)

    pushed_eta = jg @ eta
    pushed_xi = compound_matrix(jg, p) @ xi0
    if float(sing[-1]) <= _TINY**2 or float(np.linalg.norm(pushed_xi)) <= _TINY:
        return ProbeResult(lhs=lhs, rhs=0.0, conflict=False, inconclusive=True)

    tgt_pt = bundle_point(tgt, p, 1.0, np.zeros(tgt.dim), pushed_xi)
    z_tgt = _center_block(tgt, p, tgt_pt.fiber)
    rhs = _quad(z_tgt, pushed_eta)
    conflict = lhs <= _PROBE_TOL and rhs > _PROBE_TOL
    return ProbeResult(lhs=lhs, rhs=rhs, conflict=bool(conflict), inconclusive=False)
