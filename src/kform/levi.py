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
e_k _| xi.  The probe and ``levi_spectra`` take this closed form;
``levi_form`` still sums one ``wedge_curvature_block`` per (I, J) pair and
builds its tangent basis from ``rho_gradient``.

``obstruction_probes`` runs the probe as one array pass over an (N, m) stack
of points and their fibers: chart checks, centering frames, compounds,
blocks, eigen solves and quadratic forms each run once for the stack, and
only ``map_jet`` still runs point by point.  ``obstruction_probe`` is its
one-point view.

Levi results are plain arrays.  ``sample_bundle_points`` gives an (N, m)
array of chart points and their (N, C(m, p)) fibers, scaled onto S_r in one
pass.  A Levi spectrum is the ascending row of eigenvalues, reported
relative to the metric that S_r induces on its holomorphic tangent space, so
it does not depend on the tangent basis or on the centering frame; its
length is the tangent space's complex dimension and ``sign_counts`` of it
is the signature.  ``levi_spectra`` gives the rows of a stack in one pass,
closed-form blocks and one batched eigen solve at the center, and
``levi_form`` one row at a time.  ``spectrum_signatures`` is the one
verdict rule on a set of rows: the distinct signatures, first seen first,
and the smallest |eigenvalue|.  Levi mode (``levi_signatures``) and the
battery's c05 both sample with ``sample_bundle_points`` and decide with
``spectrum_signatures``; they differ only in the rows, ``levi_form`` per
point against one ``levi_spectra`` pass, and the tests check the two routes
against each other row by row.  ``levi_level_floor`` is the smallest level
r whose signatures keep their precision, and ``levi_level_ceiling`` the
largest whose fibers and Levi forms stay finite.  The tests check the analytic
route against a finite-difference Levi form of rho_r taken at any chart
point (``tests/oracles.py``).
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
    _adjoint,
    _any,
    _stack_index,
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
    "ProbeResult",
    "rho_gradient",
    "bundle_point",
    "levi_radius_fits",
    "levi_level_floor",
    "levi_level_ceiling",
    "sample_bundle_points",
    "draw_fibers",
    "tangent_basis",
    "levi_form",
    "levi_spectra",
    "spectrum_signatures",
    "levi_signatures",
    "obstruction_probe",
    "obstruction_probes",
]

# |xi_I| and pushforward norms below this count as vanishing
_TINY = 1e-12

# Levi values within this of zero are treated as sign-indeterminate by the probe
_PROBE_TOL = 1e-10

# eigenvalues of the probe's jg^H jg within this relative distance of the top one tie with it
_TOP_GAP = 1e-10


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


def _quads(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^T a conj(v), real, row by row for (..., k) vectors against (..., k, k) matrices."""
    return np.real((v[..., None, :] @ a @ np.conj(v)[..., :, None])[..., 0, 0])


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a (..., r, c) stack of matrices and a (..., c) stack of vectors."""
    return (a @ v[..., None])[..., 0]


def rho_gradient(sf: SpaceForm, p: int, z, xi):
    """Holomorphic Wirtinger gradient of rho_r, split as (d_z, d_xi); the level r drops out.

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


def _bundle_chart(sf: SpaceForm, r: float, points):
    """``_chart`` of the points, after the checks every sphere bundle S_r needs."""
    if not sf.is_definite:
        raise PreconditionError("sphere bundles are only built over definite metrics")
    if r <= 0:
        raise PreconditionError(f"bundle radius must be positive, got {r}")
    return _chart(sf, points)


def bundle_point(sf: SpaceForm, p: int, r: float, z, xi):
    """The chart point z and xi scaled so that (z, xi) lies exactly on S_r.

    A point |z| at which ``levi_radius_fits`` fails raises ``DomainError``.
    """
    z, u = _bundle_chart(sf, r, np.reshape(z, -1))
    xi = _fiber_vector(xi, len(index_basis(sf.dim, p)))
    return z, _onto_sphere(sf, p, r, z, u, xi)


def _onto_sphere(sf: SpaceForm, p: int, r: float, z, u, xi) -> np.ndarray:
    """The fibers xi over the chart points z, where u = 1 + c |z|^2, scaled onto S_r.

    One point (m,) with its fiber (k,), or a (..., m) stack with its (..., k)
    fibers.  A point at which ``levi_radius_fits`` fails raises
    ``DomainError`` and a zero fiber ``DegenerateSampleError``, each naming
    the stack index of the first one.
    """
    if sf.curv > 0:
        far = np.logical_not(_wedge_norm_fits(sf, p, u))
        if _any(far):
            raise DomainError(
                f"chart point{_stack_index(far)} with 1 + |w|^2 = {np.asarray(u)[far][0]:.3g} "
                f"is too far out for the degree-{p} wedge norm to keep its precision"
            )
    norm2 = _quads(wedge_power_coeffs(metric(sf, z), p), xi)
    # W's entries shrink like 1/u^p far out in a projective chart, so the
    # norm is only asked to be positive
    zero = np.logical_not(norm2 > 0)
    if _any(zero):
        raise DegenerateSampleError(f"zero fiber vector{_stack_index(zero)}")
    # sqrt(r / norm2) as sqrt(r 2^-128 / norm2) 2^64: the same bits wherever
    # r / norm2 is a normal float, and finite where a short drawn fiber at a
    # level near ``levi_level_ceiling`` overflows r / norm2 (the scaled fiber
    # itself fits)
    return xi * (np.sqrt(r * 2.0**-128 / norm2) * 2.0**64)[..., None]


def levi_radius_fits(sf: SpaceForm, p: int, radius: float) -> bool:
    """Whether Levi forms of degree p at the chart points |w| < radius keep their precision.

    Only a projective chart loses it, far out: with u = 1 + radius^2 the
    metric there has eigenvalues 1/u and 1/u^2.  At top degree every
    p-vector meets the 1/u^2 direction, and the one wedge coefficient det g,
    about u^-(n+1), comes from entries near 1/u with a relative rounding
    error near u * eps, which must stay within ``DEFAULT_ZERO_TOL`` (radius
    up to about 2.1e3).  At every degree the unit level must stay under
    ``levi_level_ceiling``, so that the fibers scaled onto S_1, up to
    u^((p+1)/2) in size, fit the float range (below top degree radius up to
    about 1e154^(1/(p+1)), and the coefficients near u^-p stay normal
    floats).  ``bundle_point`` applies it at |z|, and
    ``scenarios.parse_scenario`` to a levi scenario's sampling radius.
    """
    return sf.curv <= 0 or bool(_wedge_norm_fits(sf, p, 1.0 + radius * radius))


def _wedge_norm_fits(sf: SpaceForm, p: int, u):
    """``levi_radius_fits`` on projective space, given u = 1 + radius^2 (a float or an array)."""
    precise = (u * sys.float_info.epsilon <= DEFAULT_ZERO_TOL) | (p < sf.dim)
    return precise & (_level_ceiling(sf, p, u) >= 1.0)


@np.errstate(over="ignore")
def _level_ceiling(sf: SpaceForm, p: int, u):
    """``levi_level_ceiling`` given u = 1 + radius^2 (a float or an array; read on projective space only)."""
    kappa = np.power(u, p + 1) if sf.curv > 0 else 1.0  # inf where it overflows: ceiling 0
    return sys.float_info.max / (4.0 * (kappa + abs(sf.curv) * (math.comb(sf.dim, p) + p)))


def levi_level_ceiling(sf: SpaceForm, p: int, radius: float) -> float:
    """The largest level r at which degree-p Levi forms over the chart points |w| < radius stay finite.

    A fiber xi scaled onto S_r over the chart point w has xi^H W xi = r, so
    |xi|^2 <= kappa r with 1/kappa the smallest eigenvalue of W there.  On a
    ball or a flat chart kappa <= 1: the metric's eigenvalues 1/u and 1/u^2
    are at least 1.  On projective space they are 1/u and 1/u^2 with
    u = 1 + |w|^2 <= 1 + radius^2, so kappa = (1 + radius^2)^(p+1).  At the
    chart center |xi|^2 = r, and the Hessian block of rho sums the C(n, p)^2
    terms xi_I conj(xi_J) B_IJ, |B_IJ| <= 2 |c|, so its partial sums stay
    within 2 |c| C(n, p) r; its entries, -c (p |xi|^2 + |V_k|^2) on the
    diagonal, within |c| (p + 1) r, and the Levi eigenvalues lie between
    |c| p r and 2 |c| p r in size.  ``_center_block`` forms the bracket
    p |xi|^2 I + conj(V) V^T, within (p + 1) r, before it multiplies by -c,
    so it takes that route only on curved forms, |c| = 1; on flat forms,
    c = 0, the block is exactly zero and is not formed.
    The ceiling asks 4 (kappa + |c| (C(n, p) + p)) r <= the largest float,
    so each of these fits with a factor 2 to spare for Hermitian
    symmetrization and complex products.  The eigen solves scale their
    input themselves.
    ``levi_radius_fits`` asks the ceiling to be at least 1, and
    ``scenarios.parse_scenario`` applies it to a levi scenario's r at its
    sampling radius.
    """
    return float(_level_ceiling(sf, p, 1.0 + radius * radius))


def levi_level_floor(p: int) -> float:
    """The smallest level r at which degree-p Levi signatures keep their precision.

    At the chart center every curved base eigenvalue of S_r is at least p r
    in size, and ``sign_counts`` counts |eigenvalue| <= ``DEFAULT_ZERO_TOL``
    as zero.  The floor asks p r >= 2 ``DEFAULT_ZERO_TOL``, so the smallest
    base eigenvalue clears the tolerance by the tolerance itself: over 10^4
    times the roundoff of the eigen solves at the center (a few hundred eps
    at their unit scale, the fiber's eigenvalues being 1).
    ``scenarios.parse_scenario`` applies it to a levi scenario's r.
    """
    return 2.0 * DEFAULT_ZERO_TOL / p


def sample_bundle_points(
    sf: SpaceForm,
    p: int,
    r: float,
    count: int,
    seed: int,
    radius: float | None = None,
):
    """Deterministic sample of S_r: (count, m) chart points and their (count, C(m, p)) fibers.

    The fibers are ``draw_fibers`` from default_rng(seed + 1), all scaled
    onto S_r in one pass.
    """
    z, u = _bundle_chart(sf, r, sample_chart_points(sf, count, seed=seed, radius=radius))
    rng = np.random.default_rng(None if seed is None else seed + 1)
    return z, _onto_sphere(sf, p, r, z, u, draw_fibers(rng, count, len(index_basis(sf.dim, p))))


def draw_fibers(rng, count: int, k: int) -> np.ndarray:
    """``count`` fibers of length k, each a real and then an imaginary standard normal draw from ``rng``."""
    raw = rng.standard_normal((count, 2, k))
    return raw[:, 0] + 1j * raw[:, 1]


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
    d_z, d_xi = rho_gradient(sf, p, z, xi)
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


def _wedge_hessian_block(sf: SpaceForm, z, p: int, xi: np.ndarray) -> np.ndarray:
    """sum_{I,J} B_IJ xi_I conj(xi_J): the base-base Hessian block of rho at the center.

    One ``wedge_curvature_block`` per (I, J) pair.  Only levi mode's route,
    ``levi_signatures`` through ``levi_form``, still takes it; the battery's
    c05 takes ``_center_block`` through ``levi_spectra``.  Once the benchmark
    times levi passes shorter than its 0.2 s reference interval, ``levi_form``
    becomes the one-point view of ``levi_spectra``.
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
    the exact zero block, without forming the bracket, which overflows at
    levels near ``levi_level_ceiling``.  A (..., C(n, p)) stack of fibers
    gives the (..., n, n) stack of blocks.
    """
    if sf.curv == 0:
        return np.zeros(xi.shape[:-1] + (sf.dim, sf.dim), dtype=np.complex128)
    v = (_contraction_signs(sf.dim, p) @ xi[..., None, :, None])[..., 0]
    norm2 = np.sum((xi.conj() * xi).real, axis=-1)[..., None, None]
    block = p * norm2 * np.eye(sf.dim) + np.conj(v) @ v.swapaxes(-2, -1)
    return hermitize(-sf.curv * block)


def levi_form(sf: SpaceForm, p: int, r: float, z, xi) -> np.ndarray:
    """Ascending eigenvalues of the restricted Levi form of S_r at (z, xi).

    They solve det(M^T H conj(M) - lambda M^T G conj(M)) = 0 for the tangent
    basis M, the complex Hessian H of rho and G = diag(g, W), so they do not
    depend on the choice of M or of the centering frame; there are
    m + C(m, p) - 1 of them (just m at top degree), the complex dimension of
    the holomorphic tangent space of S_r, and ``sign_counts`` of the row is
    the signature.  It agrees to roundoff with ``levi_spectra``'s row for
    the same point.

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
    z, xi = bundle_point(sf, p, r, z, xi)
    xi0 = compound_matrix(center_automorphism(sf, z), p) @ xi
    center = np.zeros(sf.dim, dtype=np.complex128)
    g0 = metric(sf, center)
    fiber_block = wedge_power_coeffs(g0, p)
    h = _block_diag(_wedge_hessian_block(sf, center, p, xi0), fiber_block)
    g = _block_diag(g0, fiber_block)
    cols = tangent_basis(sf, p, center, xi0)
    return generalized_eigenvalues(hermitize(cols.T @ h @ cols.conj()), cols.T @ g @ cols.conj())


def levi_spectra(sf: SpaceForm, p: int, r: float, points, fibers) -> np.ndarray:
    """``levi_form``'s eigenvalues at each point of an (N, m) stack, with its (N, C(m, p)) fibers.

    One array pass at the chart center: the fibers are scaled onto S_r and
    carried to the center by the compounds of the centering frames.  There
    g = W = I, so the Hessian of rho is ``_center_block`` over the base and I
    over the fiber, and its gradient is (0, conj(xi0)).  The holomorphic
    tangent space is therefore the m base directions plus a hyperplane of the
    fiber, on which the Hessian and the metric are both I: the spectrum
    relative to the induced metric is the base block's eigenvalues and 1,
    C(m, p) - 1 times, whatever the tangent basis.  One batched eigen solve
    of the base blocks gives the (N, m + C(m, p) - 1) ascending spectra, row
    k the one at point k.  A point outside the chart, a projective point too
    far out and a zero fiber raise for the whole stack, naming the stack
    index of the first one.
    """
    z, u = _bundle_chart(sf, r, points)
    k = len(index_basis(sf.dim, p))
    xi = np.asarray(fibers, dtype=np.complex128)
    if z.ndim != 2 or xi.shape != (len(z), k):
        raise DimensionError(
            f"expected (N, {sf.dim}) points and (N, {k}) fibers, got {z.shape} and {xi.shape}"
        )
    xi0 = _apply(compound_matrix(center_automorphism(sf, z), p), _onto_sphere(sf, p, r, z, u, xi))
    base = hermitian_eigen(_center_block(sf, p, xi0))[0]
    return np.sort(np.concatenate([base, np.ones((len(z), k - 1))], axis=-1), axis=-1)


def spectrum_signatures(spectra) -> tuple[tuple, float]:
    """The signatures of a set of Levi spectra, and their smallest |eigenvalue|.

    ``spectra`` holds equal-length rows, each one point's eigenvalues.
    Returns the distinct ``sign_counts`` (nNeg, nZero, nPos) of the rows in
    the order first seen, and the minimum absolute eigenvalue over all rows.
    An empty set of rows raises a degenerate-sample error.
    """
    if not len(spectra):
        raise DegenerateSampleError("need at least one sample point")
    signatures = tuple(dict.fromkeys(sign_counts(row) for row in spectra))
    return signatures, float(np.abs(spectra).min())


def levi_signatures(
    sf: SpaceForm, p: int, r: float, count: int, seed: int, radius: float | None = None
) -> tuple[tuple, float]:
    """``spectrum_signatures`` of ``levi_form`` at each point of ``sample_bundle_points``."""
    points, fibers = sample_bundle_points(sf, p, r, count, seed, radius)
    return spectrum_signatures([levi_form(sf, p, r, z, xi) for z, xi in zip(points, fibers)])


def obstruction_probes(
    src: SpaceForm, tgt: SpaceForm, F: MapExpr, p: int, points, fibers
) -> ProbeResult:
    """``obstruction_probe`` at each point of an (N, m) stack, with its (N, C(m, p)) fibers.

    One array pass over the stack: the chart checks, both centering frames,
    the inverse, the wedge-norm normalization, the compounds, the closed-form
    blocks, both eigen solves and the quadratic forms each run once for all
    N probes; only ``map_jet`` runs point by point.  The four fields of the
    result are (N,) arrays, row k the probe at point k.  A point outside the
    source chart, an image F(w) outside the target chart and a zero fiber
    raise for the whole stack, naming the stack index of the first one.  A
    lone point (m,) with its fiber gives 0-d fields and index-free errors.
    """
    if tgt.kind != "ball" or not tgt.is_definite:
        raise PreconditionError("probe target must be a definite ball")
    if not src.is_definite:
        raise PreconditionError("probe source must carry a definite metric")
    z, u = _chart(src, points)
    if F.arity != src.dim:
        raise DimensionError(f"map takes {F.arity} inputs, source has dimension {src.dim}")
    if F.codim != tgt.dim:
        raise DimensionError(f"map has {F.codim} components, target has dimension {tgt.dim}")
    if z.ndim > 2:
        raise DimensionError(f"probe points must be one point or an (N, m) stack, got {z.shape}")
    lead, m, n, k = z.shape[:-1], src.dim, tgt.dim, len(index_basis(src.dim, p))
    xi = np.asarray(fibers, dtype=np.complex128)
    if xi.shape != lead + (k,):
        raise DimensionError(f"fibers have shape {xi.shape}, expected {lead + (k,)}")

    jets = [map_jet(F, w) for w in z.reshape(-1, m)]
    fw = np.array([v for v, _ in jets]).reshape(lead + (n,))
    jf = np.array([j for _, j in jets]).reshape(-1, n, m)
    # every F(w) must lie in the target chart
    dchi = center_automorphism(tgt, fw).reshape(-1, n, n)
    xi = _onto_sphere(src, p, 1.0, z, u, xi).reshape(-1, k)
    z = z.reshape(-1, m)
    dpsi = center_automorphism(src, z)
    jg = dchi @ jf @ np.linalg.inv(dpsi)
    xi0 = _apply(compound_matrix(dpsi, p), xi)

    z_src = _center_block(src, p, xi0)
    sing, vecs = hermitian_eigen(hermitize(_adjoint(jg) @ jg))
    # eigh sorts ascending, so the top eigenspace is the last `size` columns
    sizes = np.sum(sing >= sing[:, -1:] - _TOP_GAP * np.abs(sing[:, -1:]), axis=-1)
    eta = np.empty((len(z), m), dtype=np.complex128)
    for size in set(sizes.tolist()):  # one pass per top multiplicity, usually just 1
        rows = sizes == size
        top = vecs[rows][:, :, m - size :]
        # _quads(z_src, top @ c) is d^H B d for d = conj(c), with B as below
        _, low = hermitian_eigen(hermitize(top.swapaxes(-2, -1) @ z_src[rows] @ top.conj()))
        eta[rows] = _apply(top, low[:, :, 0].conj())
    lhs = _quads(z_src, eta)

    pushed_eta = _apply(jg, eta)
    pushed_xi = _apply(compound_matrix(jg, p), xi0)
    inconclusive = (sing[:, -1] <= _TINY**2) | (np.linalg.norm(pushed_xi, axis=-1) <= _TINY)
    # the pushed fibers onto S_1 at the target center; inconclusive rows are left unscaled
    tgt_norm2 = _quads(wedge_power_coeffs(metric(tgt, np.zeros(n)), p), pushed_xi)
    scale = np.sqrt(1.0 / np.where(inconclusive, 1.0, tgt_norm2))
    z_tgt = _center_block(tgt, p, pushed_xi * scale[:, None])
    rhs = np.where(inconclusive, 0.0, _quads(z_tgt, pushed_eta))
    conflict = (lhs <= _PROBE_TOL) & (rhs > _PROBE_TOL)
    return ProbeResult(*(a.reshape(lead) for a in (lhs, rhs, conflict, inconclusive)))


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
    lhs > 0 and no conflict.  This is the one-point view of
    ``obstruction_probes``.
    """
    res = obstruction_probes(src, tgt, F, p, np.reshape(w, -1), np.reshape(xi, -1))
    return ProbeResult(
        lhs=float(res.lhs),
        rhs=float(res.rhs),
        conflict=bool(res.conflict),
        inconclusive=bool(res.inconclusive),
    )
