"""Complex space forms in a single affine chart.

Three families, each with an optional indefinite signature parameter s
(``sig``), sorted by the sign c of their holomorphic sectional curvature 2c:

* ``euclidean(n, s)``: C^n_s, flat (c = 0),
* ``ball(n, s)``: B^n_s = {1 - |w|_s^2 > 0} with the Bergman-type metric (c = -1),
* ``projective(n, s)``: P^n_s in the affine chart {1 + |w|_s^2 > 0} (c = +1).

Here |w|_s^2 = sum_{j<=s} |w_j|^2 - sum_{j>s} |w_j|^2, so sig = dim recovers
the definite spaces C^n, B^n, P^n.  Every chart formula is written once in c:
with u = 1 + c |w|_s^2 the chart is {u > 0}, where u and u^2 must also be
finite floats, and the metric is (u diag(eps) - c (eps wbar)(eps w)^T) / u^2.
All metric-like matrices use the convention that the FIRST index is
holomorphic: g[j, k] = g_{j kbar}.

Besides metric and Ricci tensors, the module provides the one curvature
formula, ``wedge_curvature_block``: the curvature pairing on wedge powers of
the tangent bundle, in the sign convention pinned by the Hessian-of-log-norm
oracle.  It also gives the differential of a chart-centering isometry in
closed form (``center_automorphism``) and seeded chart sampling.

``metric`` and ``ricci`` also take a (..., n) stack of points and return the
(..., n, n) stack of their matrices, equal bit for bit to one call per point;
``center_automorphism`` gives the (..., n, n) stack of their frames, and
``sample_chart_points`` checks its finished (count, n) array the same way.
A point of a stack that is not finite or lies outside the chart raises
``DomainError`` naming its stack index (``point at stack index 3 outside the
ball chart domain``).  Every other function takes one point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import _stack_index, _validated_index, cofactor_matrix, hermitize

__all__ = [
    "SpaceForm",
    "euclidean",
    "ball",
    "projective",
    "in_chart",
    "radius_fits",
    "chart_point",
    "metric",
    "metric_dz",
    "ricci",
    "wedge_curvature_block",
    "center_automorphism",
    "default_radius",
    "sample_chart_points",
]

# the curvature sign c of each kind; holomorphic sectional curvature is 2c
_CURV = {"euclidean": 0, "ball": -1, "projective": 1}

# chart sampling radii keeping conditioning mild near chart boundaries
_RADIUS = {"euclidean": 2.0, "ball": 0.9, "projective": 2.0}
_RADIUS_INDEFINITE_PROJECTIVE = 0.9


@dataclass(frozen=True)
class SpaceForm:
    """Descriptor of one space form: kind, complex dimension, signature s."""

    kind: str
    dim: int
    sig: int

    def __post_init__(self):
        if self.kind not in _CURV:
            raise ValueError(f"unknown space form kind {self.kind!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DimensionError(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.sig, int) or not 0 <= self.sig <= self.dim:
            raise DimensionError(
                f"sig must satisfy 0 <= sig <= dim, got sig={self.sig!r} dim={self.dim}"
            )

    @property
    def is_definite(self) -> bool:
        return self.sig == self.dim

    @cached_property
    def eps(self) -> np.ndarray:
        """Signs (+1 for the first sig coordinates, -1 after).

        Built on the first read and cached on the instance: every later read
        returns the same array, which is read-only (writing to it raises).
        """
        e = np.ones(self.dim)
        e[self.sig :] = -1.0
        e.flags.writeable = False
        return e

    @property
    def curv(self) -> int:
        """Curvature sign c: 0 flat, -1 ball, +1 projective."""
        return _CURV[self.kind]

    @property
    def ricci_factor(self) -> float:
        """Constant c-tilde = c (n + 1) with ricci = c-tilde * metric."""
        return float(self.curv * (self.dim + 1))


def euclidean(dim: int, sig: int | None = None) -> SpaceForm:
    return SpaceForm("euclidean", dim, dim if sig is None else sig)


def ball(dim: int, sig: int | None = None) -> SpaceForm:
    return SpaceForm("ball", dim, dim if sig is None else sig)


def projective(dim: int, sig: int | None = None) -> SpaceForm:
    return SpaceForm("projective", dim, dim if sig is None else sig)


@np.errstate(over="ignore", invalid="ignore")
def _u(sf: SpaceForm, z: np.ndarray):
    """u = 1 + c |z|_s^2 over the last axis: a float for one point, else an array.

    Exactly 1 on flat forms, even where |z|^2 overflows.  numpy does not warn
    of that overflow on curved forms: u comes out inf or NaN, which
    ``_inside`` rejects.
    """
    if not sf.curv:
        return np.ones(z.shape[:-1]) if z.ndim > 1 else 1.0
    s = np.sum(sf.eps * np.abs(z) ** 2, axis=-1)
    return 1.0 + sf.curv * (s if z.ndim > 1 else float(s))


# the largest float whose square is finite
_U_MAX = math.sqrt(sys.float_info.max)


def _inside(u):
    """The chart rule on u = 1 + c |w|_s^2: u is finite and > 0, and so is u*u.

    The metric divides by u^2, so a point whose u*u overflows is outside the
    chart as surely as one with u <= 0.  A positive u = 1 + c |w|_s^2 is at
    least 2^-53, so its square cannot underflow, and 0 < u <= _U_MAX is the
    whole rule.  Takes a float or an array of factors; NaN is outside.
    """
    return (u > 0.0) & (u <= _U_MAX)


def in_chart(sf: SpaceForm, w) -> bool:
    """Whether ``w`` is one finite point of the chart, by the rule ``_chart`` enforces.

    Any finite point may be asked about, also one whose |w|^2 overflows.
    """
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if w.size != sf.dim or not np.isfinite(w).all():
        return False
    return bool(_inside(_u(sf, w)))


def radius_fits(sf: SpaceForm, r: float) -> bool:
    """Whether every point of the open ball |w| < r is in the chart.

    There u = 1 + c |w|_s^2 is above 1 - r^2 where some coordinate has the
    sign -c, and at most 1 + r^2 where some has the sign c.
    """
    if r > 1.0 and -sf.curv in sf.eps:
        return False
    return sf.curv not in sf.eps or bool(_inside(1.0 + r * r))


def _chart(sf: SpaceForm, w):
    """The validated complex128 coordinates z of chart points, and u = 1 + c |z|_s^2 there.

    The leading axes of a (..., n) array are kept: z has that shape, u has
    shape (...), and the errors name the stack index of the first bad point.
    A caller that takes one point flattens it first.
    """
    z = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    if z.shape[-1] != sf.dim:
        raise DimensionError(f"point has {z.shape[-1]} coordinates, expected {sf.dim}")
    if not np.isfinite(z).all():
        finite = np.isfinite(z).all(axis=-1)
        raise DomainError(f"chart point coordinates{_stack_index(~finite)} must be finite")
    u = _u(sf, z)
    ok = _inside(u)
    if not (ok.all() if z.ndim > 1 else ok):
        raise DomainError(f"point{_stack_index(~ok)} outside the {sf.kind} chart domain")
    return z, u


def chart_point(sf: SpaceForm, w) -> np.ndarray:
    """Validate chart membership and return the coordinates as complex128."""
    return _chart(sf, np.reshape(w, -1))[0]


def metric(sf: SpaceForm, w) -> np.ndarray:
    """Metric matrix g[j, k] = g_{j kbar} at a chart point, or at each of a (..., n) stack.

    g = (u diag(eps) - c (eps wbar)(eps w)^T) / u^2 with u = 1 + c |w|_s^2,
    which is diag(eps) on flat forms.  Hermitian everywhere; positive
    definite on definite space forms.  The result has shape (..., n, n).
    """
    z, u = _chart(sf, w)
    e, c = sf.eps, sf.curv
    pair = (c * e * np.conj(z))[..., :, None] * (e * z)[..., None, :]
    if z.ndim > 1:  # one factor per stacked matrix
        u = u[..., None, None]
    return hermitize((u * np.diag(e) - pair) / (u * u))


def metric_dz(sf: SpaceForm, w) -> np.ndarray:
    """Holomorphic first derivatives of the metric: out[l, j, k] = d g_{j kbar} / dz_l."""
    z, u = _chart(sf, np.reshape(w, -1))
    e, c = sf.eps, sf.curv
    du = (c * e * np.conj(z))[:, None, None]  # d_l u
    diag_e = np.diag(e)
    # quotient rule; d_l of (eps wbar)(eps w)^T is (eps wbar) eps_l in column l
    num = du * diag_e - c * ((e * np.conj(z))[None, :, None] * diag_e[:, None, :])
    return num / (u * u) - 2.0 * du * metric(sf, z) / u


def ricci(sf: SpaceForm, w) -> np.ndarray:
    """Ricci tensor R[j, k] = -d_j dbar_k log det g = ricci_factor * metric.

    Like ``metric``, it takes one point or a (..., n) stack of them.
    """
    return sf.ricci_factor * metric(sf, w)


def wedge_curvature_block(sf: SpaceForm, w, I, J) -> np.ndarray:
    """Matrix B[l, k] of wedge-power curvature pairings over z-directions.

    B[l, k] is the pairing of the induced curvature on the p-th wedge power
    of the tangent bundle against the frame sections s_I, s_J, with the
    direction slots left open:

        B[l, k] = -sum_{s,t} cof_{st}(G_IJ) R(e_l, e_kbar, e_{i_s}, e_{j_t}bar)

    where G_IJ = g[I, J] is the (I, J) minor block and R is the tensor of
    constant holomorphic sectional curvature,

        R_{a bbar c dbar} = (hsc/2)(g_{a bbar} g_{c dbar} + g_{a dbar} g_{c bbar}).

    The cofactor weights are the derivation rule for determinants (row
    replacement), so at the chart center B[l, k] equals the mixed second
    derivative d_l dbar_k of the minor det(g[I, J]).  The leading minus is the
    sign convention used throughout: values agree with Hessians of
    log |s_I|^2, so Griffiths-positive bundles (projective spaces) produce
    negative blocks.  eta^T B conj(eta) is the pairing along eta; at p = 1
    the bisectional curvature is

        R(eta, etabar, v, vbar) = -sum_{i,j} v_i conj(v_j) eta^T B_(i),(j) conj(eta).

    At the center of a definite form, where g = I, the blocks summed against
    a p-vector xi are

        sum_{I,J} xi_I conj(xi_J) B_IJ = -c (p |xi|^2 I + conj(V) V^T)

    with V[k] = e_k _| xi, the contraction of xi with the k-th coordinate;
    ``levi.obstruction_probe`` takes this closed form.
    """
    g = metric(sf, w)
    i0 = _validated_index(I, sf.dim, "I")
    j0 = _validated_index(J, sf.dim, "J")
    if i0.size != j0.size:
        raise IndexError(f"multi-indices have different lengths {i0.size} and {j0.size}")
    sub = g[np.ix_(i0, j0)]
    cof = cofactor_matrix(sub)
    # sum_{s,t} cof[s,t] * (g[l,k] g[i_s,j_t] + g[l,j_t] g[i_s,k]), times -hsc/2 = -c
    weight = np.sum(cof * sub)
    block = weight * g + g[:, j0] @ cof.T @ g[i0, :]
    return -sf.curv * block


# ---------------------------------------------------------------------------
# chart-centering frames


def center_automorphism(sf: SpaceForm, w) -> np.ndarray:
    """Differential at ``w`` of an isometry moving the chart point ``w`` to 0.

    With u = 1 + c |w|^2 it is dphi = I / sqrt(u) - c w w^H / (u (1 + sqrt(u))),
    which is (P + sqrt(u) Q) / u for the projector P onto w and Q = I - P,
    written without dividing by |w|^2.  It is the exact Jacobian at w of

        phi_w(z) = ((P + sqrt(u) Q) z - w) / (1 + c w^H z),

    the translation z - w on flat forms and an automorphism of the ball or
    projective space otherwise, and it carries the metric at w to the metric
    at 0: dphi^T g(0) conj(dphi) = g(w).  Flat forms of any signature get
    exactly I; indefinite curved forms raise a domain error.  A (..., n)
    stack of points gives the (..., n, n) stack of their frames, and a point
    outside the chart is named by its stack index, as in ``metric``.
    """
    z0, u = _chart(sf, w)
    n, c = sf.dim, sf.curv
    if c == 0:
        eye = np.eye(n, dtype=np.complex128)
        return eye if z0.ndim == 1 else np.broadcast_to(eye, z0.shape[:-1] + (n, n)).copy()
    if not sf.is_definite:
        raise DomainError(
            "center automorphism is only available for definite ball/projective forms"
        )
    root = np.sqrt(u)
    if z0.ndim > 1:  # one factor per stacked frame
        u, root = u[..., None, None], root[..., None, None]
    outer = z0[..., :, None] * np.conj(z0)[..., None, :]
    return np.eye(n) / root - (c / (u * (1.0 + root))) * outer


# ---------------------------------------------------------------------------
# sampling


def default_radius(sf: SpaceForm) -> float:
    if sf.kind == "projective" and not sf.is_definite:
        return _RADIUS_INDEFINITE_PROJECTIVE
    return _RADIUS[sf.kind]


def sample_chart_points(sf: SpaceForm, count: int, seed: int, radius: float | None = None) -> np.ndarray:
    """``count`` seeded points, uniform in the real 2n-ball of the chart radius.

    Algorithm (documented for reproducibility): with rng = default_rng(seed),
    each point in turn draws a standard normal direction in R^{2n}, then a
    uniform U; the direction is normalized and scaled by radius * U^(1/(2n));
    the first n entries are real parts, the last n imaginary parts.  The
    draws come one point at a time, the normalization in one pass over the
    stack, bit for bit as per point: each norm is the square root of one
    row's dot product, the sum ``np.linalg.norm`` takes.  The finished
    array is checked once; a point outside the chart raises ``DomainError``
    naming its index.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    r = default_radius(sf) if radius is None else float(radius)
    n = sf.dim
    rng = np.random.default_rng(seed)
    v = np.empty((count, 2 * n))
    rho = np.empty(count)
    for k in range(count):
        v[k] = rng.standard_normal(2 * n)
        rho[k] = r * rng.uniform() ** (1.0 / (2 * n))
    v /= np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
    return _chart(sf, rho[:, None] * (v[:, :n] + 1j * v[:, n:]))[0]
