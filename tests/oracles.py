"""Independent oracles shared by the test suite.

Everything here is deliberately written against the mathematical definitions
(recursive cofactor expansion, minors at 50 digits, central finite
differences) rather than reusing library routines,
so the tests exercise two independent computation routes.  The one
exception is ``levi_form_fd``: it differentiates the sphere bundle's
defining function ``rho`` numerically, but restricts the result with the
library's tangent basis and spectrum, so what it checks is the closed-form
Hessian at the chart center that ``kform.levi.levi_form`` uses.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from kform.expressions import parse_map
from kform.levi import LeviReport, bundle_point, tangent_basis
from kform.linalg import generalized_eigenvalues, hermitize, sign_counts
from kform.numdiff import wirtinger_hessian
from kform.ppforms import wedge_power_coeffs
from kform.spaceforms import metric


def cofactor_det(m) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(m, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = np.arange(1, n)
    for j in range(n):
        cols = [k for k in range(n) if k != j]
        total += (-1) ** j * a[0, j] * cofactor_det(a[np.ix_(rest, cols)])
    return total


def mp_compounds(a, dps: int = 50) -> list:
    """Every compound of ``a`` at ``dps`` digits: out[p - 1] is the p-th, lexicographic.

    Each p x p minor is expanded along its first row over the (p - 1)-minors,
    which are all kept from the previous degree; entries are mpmath complex
    numbers, converted back to complex at the end.
    """
    import mpmath

    a = np.asarray(a, dtype=np.complex128)
    n, k = a.shape
    out = []
    with mpmath.workdps(dps):
        entries = [[mpmath.mpc(x.real, x.imag) for x in row] for row in a.tolist()]
        minors = {((), ()): mpmath.mpc(1)}
        for p in range(1, min(n, k) + 1):
            rows, cols = list(combinations(range(n), p)), list(combinations(range(k), p))
            minors = {
                (I, J): mpmath.fsum(
                    (-1) ** t * entries[I[0]][j] * minors[I[1:], J[:t] + J[t + 1 :]]
                    for t, j in enumerate(J)
                )
                for I in rows
                for J in cols
            }
            out.append(np.array([[complex(minors[I, J]) for J in cols] for I in rows]))
    return out


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with entries of order ``scale``."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_posdef(rng, n: int, shift: float = 0.5) -> np.ndarray:
    """Random Hermitian positive definite matrix, eigenvalues >= shift."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + shift * np.eye(n)


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ball_point(rng, n: int, radius: float) -> np.ndarray:
    """Uniform point of C^n with |z| < radius (Lebesgue-uniform in R^{2n})."""
    v = rng.standard_normal(2 * n)
    v /= np.linalg.norm(v)
    r = radius * rng.uniform() ** (1.0 / (2 * n))
    return r * (v[:n] + 1j * v[n:])


def fd_wirtinger_gradient(f, z, h: float = 1e-5) -> np.ndarray:
    """Central-difference d/dz_a of a scalar function of z in C^n.

    Uses the Wirtinger combination (d/dx - i d/dy)/2 coordinate by coordinate.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.complex128)
    for a in range(z.size):
        e = np.zeros_like(z)
        e[a] = 1.0
        dx = (f(z + h * e) - f(z - h * e)) / (2 * h)
        dy = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2 * h)
        out[a] = 0.5 * (dx - 1j * dy)
    return out


def fd_mixed_hessian(f, z, h: float = 1e-4) -> np.ndarray:
    """Central-difference mixed Hessian d^2/(dz_a dzbar_b) of a scalar f.

    The diagonal uses the 5-point Laplacian identity
    d^2 f / (dz_a dzbar_a) = Laplacian_a(f) / 4; off-diagonal entries use the
    Wirtinger product of first-difference stencils.
    """
    z = np.asarray(z, dtype=np.complex128)
    n = z.size
    out = np.zeros((n, n), dtype=np.complex128)

    def basis(a):
        e = np.zeros(n, dtype=np.complex128)
        e[a] = 1.0
        return e

    for a in range(n):
        ea = basis(a)
        out[a, a] = (
            f(z + h * ea)
            + f(z - h * ea)
            + f(z + 1j * h * ea)
            - 4.0 * f(z)
            + f(z - 1j * h * ea)
        ) / (4 * h * h)
        for b in range(n):
            if b == a:
                continue
            eb = basis(b)
            dxx = (
                f(z + h * ea + h * eb)
                - f(z + h * ea - h * eb)
                - f(z - h * ea + h * eb)
                + f(z - h * ea - h * eb)
            ) / (4 * h * h)
            dyy = (
                f(z + 1j * h * ea + 1j * h * eb)
                - f(z + 1j * h * ea - 1j * h * eb)
                - f(z - 1j * h * ea + 1j * h * eb)
                + f(z - 1j * h * ea - 1j * h * eb)
            ) / (4 * h * h)
            dxy = (
                f(z + h * ea + 1j * h * eb)
                - f(z + h * ea - 1j * h * eb)
                - f(z - h * ea + 1j * h * eb)
                + f(z - h * ea - 1j * h * eb)
            ) / (4 * h * h)
            dyx = (
                f(z + 1j * h * ea + h * eb)
                - f(z + 1j * h * ea - h * eb)
                - f(z - 1j * h * ea + h * eb)
                + f(z - 1j * h * ea - h * eb)
            ) / (4 * h * h)
            out[a, b] = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
    return out


def fd_directional_hessian(f, z, eta, h: float = 1e-4) -> float:
    """d^2 f / (dt dtbar) of t -> f(z + t*eta) at t = 0, by a 5-point stencil."""
    z = np.asarray(z, dtype=np.complex128)
    eta = np.asarray(eta, dtype=np.complex128)
    val = (
        f(z + h * eta)
        + f(z - h * eta)
        + f(z + 1j * h * eta)
        + f(z - 1j * h * eta)
        - 4.0 * f(z)
    ) / (4 * h * h)
    return val


def rho(sf, p: int, r: float, z, xi) -> float:
    """Defining function of the sphere bundle S_r: the wedge-power norm of xi at z, minus r."""
    w = wedge_power_coeffs(metric(sf, z), p)
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    return float(np.real(xi @ w @ np.conj(xi))) - float(r)


def levi_form_fd(sf, p: int, r: float, z, xi, tol: float = 1e-6, step: float = 1e-4) -> LeviReport:
    """Finite-difference Levi form of S_r at (z, xi), without moving the point.

    Differentiates ``rho`` over the stacked (z, xi) coordinates, so it works
    at any chart point, and restricts the Hessian to the library's tangent
    basis; the eigenvalues are taken against the induced metric
    G = diag(g(z), W(z)).  The looser default zero tolerance reflects the
    truncation error of the stencils.
    """
    pt = bundle_point(sf, p, r, z, xi)
    m = sf.dim
    x0 = np.concatenate([pt.base, pt.fiber])
    h = wirtinger_hessian(lambda x: rho(sf, p, r, x[:m], x[m:]), x0, step=step)
    g, k = metric(sf, pt.base), pt.fiber.size
    induced = np.block([[g, np.zeros((m, k))], [np.zeros((k, m)), wedge_power_coeffs(g, p)]])
    cols = tangent_basis(sf, p, pt.base, pt.fiber)
    eigs = generalized_eigenvalues(hermitize(cols.T @ h @ cols.conj()), cols.T @ induced @ cols.conj())
    return LeviReport(eigs, *sign_counts(eigs, tol), cols.shape[1])


def _literal(z) -> str:
    z = complex(z)
    return f"(({z.real!r})+({z.imag!r})*i)"


def mobius_map(sf, a):
    """The isometry phi_a moving the chart point ``a`` to 0, and its inverse.

    With c the curvature sign, u = 1 + c|a|^2 and A = P + sqrt(u) Q (P the
    projector onto a, Q = I - P), written as
    A = sqrt(u) I - c a a^H / (1 + sqrt(u)):

        phi_a(z) = (A z - a) / (1 + c a^H z),
        phi_a^{-1}(y) = (A y + a) / (1 - c a^H y).

    On the lift [1; z] these are the matrices [[1, c a^H], [-a, A]] and
    [[1, -c a^H], [a, A]], whose product is u I.  Both maps are built as
    expression strings and parsed, so they share no code with
    ``center_automorphism``.  Definite forms and flat forms of any signature.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    n, c = a.size, sf.curv
    u = 1.0 + c * float(np.vdot(a, a).real)
    mat = np.sqrt(u) * np.eye(n) - c * np.outer(a, np.conj(a)) / (1.0 + np.sqrt(u))

    def linear(row, const):
        return "+".join(f"{_literal(x)}*z{k + 1}" for k, x in enumerate(row)) + f"+{_literal(const)}"

    def fraction(sign):
        den = linear(-sign * c * np.conj(a), 1.0)
        return parse_map([f"({linear(mat[j], sign * a[j])})/({den})" for j in range(n)], n)

    return fraction(-1), fraction(1)


def identity_map(n: int):
    """The identity map of C^n, parsed from its component strings."""
    return parse_map([f"z{k}" for k in range(1, n + 1)], n)


def increasing_multiindices(n: int, p: int):
    """All strictly increasing 1-based p-tuples from {1..n}, lexicographic."""
    out = []

    def rec(start, prefix):
        if len(prefix) == p:
            out.append(tuple(prefix))
            return
        for k in range(start, n + 1):
            rec(k + 1, prefix + [k])

    rec(1, [])
    return out
