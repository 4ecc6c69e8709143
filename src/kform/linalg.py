"""Dense complex linear algebra: validation around numpy's LAPACK kernels.

Everything downstream (metric minors, wedge coefficient matrices, pullback
systems, Levi forms) reduces to small dense complex matrices.  Determinants
and Hermitian eigen solves come from ``np.linalg``.  Every minor determinant
in the package (compounds, wedge coefficients, cofactors) goes
through ``minor_dets``: one gather of all (I, J) submatrices into a stack and
one batched ``np.linalg.det``.  Matrices that are Hermitian by construction
are symmetrized on entry to absorb floating-point roundoff.

``hermitize``, ``hermitian_eigen`` and ``generalized_eigenvalues`` also take
(..., m, m) stacks and return the per-matrix results stacked the same way,
equal bit for bit to one call per matrix.  Each matrix of a stack gets the
checks a lone matrix gets (finite entries, Hermitian up to its own scale, a
positive definite base form), and an error raised for a stack names the
stack index of the first matrix that failed, e.g. ``matrix at stack index 3
is not Hermitian``; the messages for a lone matrix carry no index.
"""

from __future__ import annotations

import numpy as np

from .errors import DefinitenessError, DimensionError, EvaluationLimitError

__all__ = [
    "as_matrix",
    "finite",
    "pow2_scaled",
    "hermitize",
    "det",
    "minor_dets",
    "cofactor_matrix",
    "hermitian_eigen",
    "sign_counts",
    "generalized_eigenvalues",
]

# Absolute |eigenvalue| below which a spectrum entry counts as zero.
DEFAULT_ZERO_TOL = 1e-9

# Smallest base-form eigenvalue accepted by generalized_eigenvalues.
_MIN_BASE_EIG = 1e-10


def _stack_index(bad) -> str:
    """Where a per-matrix (or per-point) check failed, for an error message.

    ``bad`` holds one flag per stack member: empty for a lone matrix (a 0-d
    flag), else `` at stack index k`` for the first flagged member, k a tuple
    when the stack has more than one leading axis.
    """
    if np.ndim(bad) == 0:
        return ""
    first = tuple(int(k) for k in np.argwhere(bad)[0])
    return f" at stack index {first[0] if len(first) == 1 else first}"


def _any(flags) -> bool:
    """Whether any per-matrix flag is set; one matrix's lone flag skips numpy's reduction."""
    return bool(flags.any() if flags.ndim else flags)


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Validate ``m`` as a finite square complex matrix and return a complex128 copy-view.

    With ``stack=True`` a (..., m, m) stack of matrices is accepted too, and a
    non-finite entry names the stack index of its matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 and (a.ndim < 2 or not stack):
        raise DimensionError(f"expected a matrix, got an array of ndim {a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        raise ValueError(f"matrix entries{_stack_index(~finite)} must be finite")
    return a


def finite(a, what: str) -> np.ndarray:
    """``a`` itself when every entry is finite; else ``EvaluationLimitError`` naming ``what``.

    Run inside ``np.errstate(over="ignore", invalid="ignore")`` around the
    arithmetic that made ``a``, so an overflow is this one error and no
    numpy warning.
    """
    if not np.isfinite(a).all():
        raise EvaluationLimitError(f"{what} overflows the float range")
    return a


def pow2_scaled(m) -> np.ndarray:
    """A complex copy of the matrix m with its rows, then its columns, scaled by powers of two.

    Each nonzero row, and then each nonzero column, comes to peak in
    [1/2, 1); a zero row or column stays zero.  Powers of two scale exactly,
    keep the rank and cannot overflow, so a test on the result (a rank, a
    determinant) judges m on its own scale, not on an absolute one.
    """
    a = np.array(m, dtype=np.complex128)
    for axis in (-1, -2):
        _, exponent = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
        a.real = np.ldexp(a.real, -exponent)  # a zero row or column has exponent 0
        a.imag = np.ldexp(a.imag, -exponent)
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., m, m) stack."""
    return a.conj().swapaxes(-2, -1)


def hermitize(m) -> np.ndarray:
    """Return ``(m + m^H)/2``, the Hermitian part of ``m`` (or of each matrix of a stack).

    Applied wherever a matrix is Hermitian by construction, so roundoff never
    accumulates into a spurious anti-Hermitian part.
    """
    a = as_matrix(m, stack=True)
    return 0.5 * (a + _adjoint(a))


def det(m) -> complex:
    """Determinant of a square complex matrix (LAPACK LU via ``np.linalg.det``).

    The independent cofactor-expansion oracle lives in the test suite.
    """
    return complex(np.linalg.det(as_matrix(m)))


def minor_dets(m, rows, cols) -> np.ndarray:
    """Determinants of m[..., rows[a], cols[b]] for 0-based index sets rows (R, k), cols (C, k).

    All minors are gathered into one (..., R, C, k, k) stack for a single
    batched ``np.linalg.det``; the result has shape (..., R, C), one (R, C)
    block per matrix of a (..., r, c) stack, and empty minors (k = 0) are 1.
    """
    m = np.asarray(m)
    r = np.asarray(rows, dtype=int)[:, None, :, None]
    c = np.asarray(cols, dtype=int)[None, :, None, :]
    # a lone matrix is indexed without the Ellipsis, which costs numpy's indexing time
    return np.linalg.det(m[r, c] if m.ndim == 2 else m[..., r, c])


def cofactor_matrix(m) -> np.ndarray:
    """Cofactors (-1)^(s+t) det(m without row s, column t) of a p x p matrix.

    Valid for singular matrices; ``[[1]]`` for p = 1.
    """
    p = np.shape(m)[-1]
    keep = np.arange(p - 1)
    omit = keep[None, :] + (keep[None, :] >= np.arange(p)[:, None])
    sign = (-1.0) ** np.arange(p)
    return sign[:, None] * minor_dets(m, omit, omit) * sign


def _validated_index(idx, bound: int, label: str) -> np.ndarray:
    """Check a 1-based strictly increasing multi-index; return 0-based array."""
    arr = np.asarray(idx, dtype=int).reshape(-1)
    if arr.size == 0:
        raise IndexError(f"{label} multi-index is empty")
    if arr.min() < 1 or arr.max() > bound:
        raise IndexError(f"{label} indices {tuple(arr)} out of range 1..{bound}")
    if np.any(np.diff(arr) <= 0):
        raise IndexError(f"{label} indices {tuple(arr)} are not strictly increasing")
    return arr - 1


def hermitian_eigen(h):
    """Eigendecomposition of a Hermitian matrix (LAPACK via ``np.linalg.eigh``).

    ``h`` is symmetrized on entry; a deviation from Hermitian symmetry beyond
    roundoff scale raises ``ValueError``.  Returns ascending real eigenvalues
    ``w`` and a unitary ``v`` whose columns are the matching eigenvectors, so
    ``h = v @ diag(w) @ v.conj().T``.  A (..., m, m) stack gives (..., m)
    eigenvalues and (..., m, m) eigenvectors; each matrix's deviation is
    measured against that matrix's own largest entry.
    """
    a = as_matrix(h, stack=True)
    if a.size:
        scale = np.abs(a).max(axis=(-2, -1))
        skew = np.abs(a - _adjoint(a)).max(axis=(-2, -1)) > 1e-8 * np.maximum(1.0, scale)
        if _any(skew):
            raise ValueError(f"matrix{_stack_index(skew)} is not Hermitian")
    return np.linalg.eigh(hermitize(a))


def sign_counts(eigenvalues, tol: float = DEFAULT_ZERO_TOL):
    """Count (negative, zero, positive) entries of a real spectrum.

    Entries with ``|w| <= tol`` count as zero, so the three counts cover the
    spectrum; a non-finite entry raises ``ValueError``.
    """
    w = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if not np.isfinite(w).all():
        raise ValueError("spectrum entries must be finite")
    n_zero = int(np.sum(np.abs(w) <= tol))
    n_neg = int(np.sum(w < -tol))
    n_pos = int(np.sum(w > tol))
    return n_neg, n_zero, n_pos


def generalized_eigenvalues(h, g) -> np.ndarray:
    """Ascending solutions of ``det(h - lambda g) = 0`` for Hermitian h, PD g.

    Reduces to an ordinary Hermitian problem through the congruence
    ``g^{-1/2} h g^{-1/2}``.  ``g`` must be positive definite with smallest
    eigenvalue above ``1e-10``; otherwise :class:`DefinitenessError` is raised.
    Equal-shaped (..., m, m) stacks of pencils give (..., m) eigenvalues, with
    two ``hermitian_eigen`` calls for the whole stack.
    """
    a = as_matrix(h, stack=True)
    b = as_matrix(g, stack=True)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    wg, vg = hermitian_eigen(b)
    if wg.size == 0:
        return np.zeros(wg.shape)
    low = wg[..., 0]
    flat = low <= _MIN_BASE_EIG
    if _any(flat):
        raise DefinitenessError(
            f"base form{_stack_index(flat)} is not positive definite"
            f" (min eigenvalue {low[flat][0]:.3e})"
        )
    # the stacked form of vg @ np.diag(1 / sqrt(wg)) @ vg^H
    inv_sqrt = vg @ (np.eye(wg.shape[-1]) * (1.0 / np.sqrt(wg))[..., None, :]) @ _adjoint(vg)
    reduced = hermitize(inv_sqrt @ a @ inv_sqrt)
    w, _ = hermitian_eigen(reduced)
    return w
