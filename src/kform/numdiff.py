"""Wirtinger finite differences for real-valued functions of complex points.

The slow-but-independent route for the battery's finite-difference check
of the Ricci identity (``c04_ricci_logdet_fd``); the tests' finite-difference
Levi form uses it too.  Derivative conventions:

    d/dz      = (d/dx - i d/dy) / 2
    d2/dz dzb = Laplacian / 4      (same complex direction)

All stencils are central; the default steps balance truncation against
roundoff for functions of order one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wirtinger_hessian"]


def _unit(n: int, a: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.complex128)
    e[a] = 1.0
    return e


def wirtinger_hessian(f, z, step: float = 1e-4) -> np.ndarray:
    """Mixed Hessian matrix H[a, b] = d2 f / (dz_a dzbar_b) of scalar ``f``.

    Built from directional second derivatives by polarization:

        H[a, b] = (S(ea + eb) - S(ea - eb)) / 4
                + i (S(ea + i eb) - S(ea - i eb)) / 4

    where S(eta) is the mixed derivative of t -> f(z + t eta) at t = 0,
    taken by the five-point stencil (f(z+h eta) + f(z-h eta) + f(z+ih eta)
    + f(z-ih eta) - 4 f(z)) / (4 h^2), the quarter-Laplacian in the complex
    t-plane.  The diagonal is S(ea) directly.  The result is Hermitian for
    real f.
    """
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    n = z.size
    out = np.zeros((n, n), dtype=np.complex128)
    h = step
    center = 4.0 * f(z)  # shared by every stencil

    def s(eta):
        return (
            f(z + h * eta)
            + f(z - h * eta)
            + f(z + 1j * h * eta)
            + f(z - 1j * h * eta)
            - center
        ) / (4.0 * h * h)

    for a in range(n):
        ea = _unit(n, a)
        out[a, a] = s(ea)
        for b in range(a + 1, n):
            eb = _unit(n, b)
            plus = s(ea + eb)
            minus = s(ea - eb)
            iplus = s(ea + 1j * eb)
            iminus = s(ea - 1j * eb)
            val = (plus - minus) / 4.0 + 1j * (iplus - iminus) / 4.0
            out[a, b] = val
            out[b, a] = np.conj(val)
    return out
