"""Truncated bidegree series in one complex variable and coefficient ranks.

A real-analytic function of zeta near 0 expands as sum c_{jk} zeta^j
conj(zeta)^k; the rank of the coefficient matrix is the invariant behind the
algebra of functions spanned by f conj(g) + g conj(f) for holomorphic f, g:
every member has finite rank (at most 2 per generator), so a function whose
truncated ranks keep growing with the order cannot belong.  The built-in
series, listed in ``SERIES`` with the params each reads, are the diagonal
slice functions of the ball (c = -1) and projective (c = +1) metrics, one
formula in the curvature sign c as in ``spaceforms``,

    ball_slice(p), proj_slice(p) = (1 + c |zeta|^2)^(-(p+1)),

the squared norm abs_square(F) = ||F(zeta, 0, ..., 0)||^2, and the composite
psi(p, F) = (1 + abs_square(F))^(2p) * ball_slice(p) whose unbounded rank
growth is the computational evidence that certain ball-to-projective map
identities are impossible.  Ranks of truncations are evidence, never
proofs: `rank_growth` reports a verdict, not a theorem.

All series arithmetic, the bidegree series above and the holomorphic Taylor
coefficients of a map on the slice (zeta, 0, ..., 0), is one truncated-series
type, ``BiSeries``, with ``+ - * /``, one reciprocal and one power by repeated
squaring.  The product computes only the kept coefficients.  In one variable
it is a convolution cut to the operands' length.  In two it works row by row: row j
of a*b is sum_{r <= j} T(a[r]) b[j - r], where T(x) is the lower-triangular
Toeplitz matrix of x, i.e. the truncated 1-D product by x, so each row of a
costs one matrix product.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

import numpy as np

from .errors import (
    DimensionError,
    EvaluationLimitError,
    PreconditionError,
    ScenarioError,
    SingularEvaluationError,
)
from .expressions import MapExpr, fold, parse_map
from .linalg import pow2_scaled

__all__ = [
    "BiSeries",
    "multiply",
    "series_eval",
    "ball_slice",
    "proj_slice",
    "psi",
    "abs_square",
    "as_map",
    "SERIES",
    "builtin_series",
    "coeff_rank",
    "rank_growth",
]

DEFAULT_RANK_TOL = 1e-10


def _unit(shape, k: int = 0) -> np.ndarray:
    """Coefficients with a 1 at flat index k, all zero when k is past the end:
    the series 1 for k = 0, and zeta for k = 1 in one variable."""
    return np.eye(1, np.prod(shape), k, dtype=np.complex128).reshape(shape)


class BiSeries:
    """Truncated series: coefficients of zeta^j (1-D) or zeta^j conj(zeta)^k
    (square 2-D), cut back to the operands' shape after every operation.

    A 1-D series holds a map's Taylor coefficients on the slice, the algebra
    of ``fold``; a 2-D one is a bidegree series, real-valued iff its
    coefficients are Hermitian, which the built-ins and any arithmetic on
    Hermitian inputs keep.  ``order`` is the highest power kept.  Operands
    of different shapes raise ``DimensionError``.  The 2-D product adds
    b[: R - r] T(a[r])^T into rows r..R-1 for each row r of a, building one
    C x C Toeplitz matrix at a time, so no coefficient past the (R, C) block
    is computed and the working memory stays O(C^2) beyond the operands.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim not in (1, 2) or c.shape != c.shape[:1] * c.ndim or c.size == 0:
            raise DimensionError(f"series coefficients must be nonempty, 1-D or square, got shape {c.shape}")
        self.coeffs = c

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def _other(self, o) -> np.ndarray:
        if o.coeffs.shape != self.coeffs.shape:
            raise DimensionError(f"series shapes differ: {self.coeffs.shape} and {o.coeffs.shape}")
        return o.coeffs

    def __add__(self, o):
        return BiSeries(self.coeffs + self._other(o))

    def __sub__(self, o):
        return BiSeries(self.coeffs - self._other(o))

    def __neg__(self):
        return BiSeries(-self.coeffs)

    def __mul__(self, o):
        a, b = self.coeffs, self._other(o)
        if a.ndim == 1:
            return BiSeries(np.convolve(a, b)[: a.size])
        rows, cols = a.shape
        # T(x)^T[k, i] = x[i - k] for i >= k and 0 below: a gather from x
        # behind cols - 1 zeros
        padded = np.zeros((rows, 2 * cols - 1), dtype=np.complex128)
        padded[:, cols - 1 :] = a
        toeplitz_t = cols - 1 - np.subtract.outer(np.arange(cols), np.arange(cols))
        out = np.zeros((rows, cols), dtype=np.complex128)
        for r in range(rows):
            out[r:] += b[: rows - r] @ padded[r][toeplitz_t]
        return BiSeries(out)

    def __truediv__(self, o):
        return self * o.reciprocal()

    def reciprocal(self):
        """Truncated inverse; the constant coefficient must be nonzero.

        Solved one coefficient at a time in the lexicographic order of
        ``np.ndindex``, which reaches every index after all indices below it.
        """
        a = self.coeffs
        a0 = a.flat[0]
        if abs(a0) == 0.0:
            raise SingularEvaluationError("reciprocal needs a nonzero constant coefficient")
        b = np.zeros_like(a)
        b.flat[0] = 1.0 / a0
        flip = (slice(None, None, -1),) * a.ndim
        for idx in itertools.islice(np.ndindex(a.shape), 1, None):
            window = tuple(slice(i + 1) for i in idx)
            # b[idx] is still zero, so the full window sum omits it
            b[idx] = -np.sum(a[window][flip] * b[window]) / a0
        return BiSeries(b)

    def __pow__(self, n: int):
        """By repeated squaring over the bits of n >= 0, so the cost grows with log n."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"series power wants a nonnegative integer, got {n!r}")
        out = self if n else BiSeries(_unit(self.coeffs.shape))
        for bit in bin(n)[3:]:  # the leading bit is out = self
            out = out * out * self if bit == "1" else out * out
        return out


def multiply(a: BiSeries, b: BiSeries) -> BiSeries:
    """The product a * b as a module function."""
    return a * b


def series_eval(s: BiSeries, zeta: complex) -> complex:
    """The bidegree series s at zeta: sum c_jk zeta^j conj(zeta)^k."""
    if s.coeffs.ndim != 2:
        raise DimensionError(f"series_eval needs a bidegree (2-D) series, got shape {s.coeffs.shape}")
    pows = np.power(complex(zeta), np.arange(s.order + 1))
    return complex(pows @ s.coeffs @ np.conj(pows))


# ---------------------------------------------------------------------------
# built-in series


def _slice(c: int, p: int, n: int) -> BiSeries:
    """(1 + c |zeta|^2)^(-(p+1)) for the curvature sign c: diagonal coefficients (-c)^k C(k+p, p)."""
    coeffs = np.zeros((n + 1, n + 1), dtype=np.complex128)
    try:
        for k in range(n + 1):
            coeffs[k, k] = (-c) ** k * math.comb(k + p, p)
    except OverflowError as exc:  # a binomial past the float range
        raise EvaluationLimitError("series coefficients overflow") from exc
    return BiSeries(coeffs)


def ball_slice(p: int, n: int) -> BiSeries:
    """(1 - |zeta|^2)^(-(p+1)), the slice at c = -1."""
    return _slice(-1, p, n)


def proj_slice(p: int, n: int) -> BiSeries:
    """(1 + |zeta|^2)^(-(p+1)), the slice at c = +1."""
    return _slice(1, p, n)


def abs_square(F: MapExpr, n: int) -> BiSeries:
    """||F(zeta, 0, ..., 0)||^2 as a bidegree series to order n."""
    one, zeta = _unit(n + 1), _unit(n + 1, 1)
    c = np.zeros((n + 1, n + 1), dtype=np.complex128)
    # the Taylor coefficients of every component on the slice, where only z1 varies
    for t in fold(F, lambda v: BiSeries(v * one), lambda k: BiSeries(float(k == 0) * zeta)):
        c += np.outer(t.coeffs, np.conj(t.coeffs))
    return BiSeries(c)


def psi(p: int, F: MapExpr, n: int) -> BiSeries:
    """(1 + ||F(zeta, 0, ...)||^2)^(2p) * (1 - |zeta|^2)^(-(p+1))."""
    one_plus = BiSeries(_unit((n + 1, n + 1))) + abs_square(F, n)
    # the slice first, so that a p whose binomials overflow raises before 2 log2(p) products
    slice_ = ball_slice(p, n)
    return multiply(one_plus ** (2 * p), slice_)


def as_map(value) -> MapExpr:
    """A MapExpr as given, or parsed from component strings; the arity is
    the largest variable index they name (at least 1)."""
    if isinstance(value, MapExpr):
        return value
    sources = [str(c) for c in value]
    arity = max([1] + [int(tok) for src in sources for tok in re.findall(r"z(\d+)", src)])
    return parse_map(sources, arity)


# The built-in series: name -> (the params it reads besides the rank
# tolerance "tol", in the order its builder takes them before n; the builder)
SERIES = {
    "abs_square": (("map",), abs_square),
    "ball_slice": (("p",), ball_slice),
    "proj_slice": (("p",), proj_slice),
    "psi": (("p", "map"), psi),
}

# how builtin_series reads each param: "p" an integer, "map" a MapExpr or expression strings
_PARAM = {"p": int, "map": as_map}


@np.errstate(over="ignore", invalid="ignore")
def builtin_series(name: str, params: dict, n: int) -> BiSeries:
    """The ``SERIES`` entry ``name`` to order n, built from the params it reads.

    numpy does not warn of overflow here: the coefficients come out
    non-finite, and ``coeff_rank`` reports that as ``EvaluationLimitError``.
    A slice binomial past the float range raises it at once.
    """
    if name not in SERIES:
        raise ScenarioError(f"unknown series name {name!r}")
    reads, build = SERIES[name]
    return build(*(_PARAM[key](params[key]) for key in reads), n)


# ---------------------------------------------------------------------------
# coefficient rank


def coeff_rank(s: BiSeries, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the coefficient matrix by complete-pivot elimination.

    The rows, then the columns, are first scaled by powers of two
    (``linalg.pow2_scaled``), which keeps the rank and lets coefficients
    spanning many decades count alike.  The threshold is tol times the
    largest scaled magnitude, fixed once up front; tol must be positive.
    Each step divides the pivot column by the pivot once (R complex
    divisions, not R x C) and subtracts its outer product with the pivot
    row; the pivot's row and column are then set to exactly zero, so
    roundoff left there is never taken as a pivot and the rank is at most
    min(R, C), reached in at most that many steps.  Dividing the column
    rather than the whole update moves only the rounding of the remaining
    entries, by an ulp or so, against a threshold that does not move; the
    tests pin the ranks to ``tests/oracles.coeff_rank_reference``, which
    divides every entry of the update.  The loop updates two preallocated
    buffers in place.  Non-finite coefficients raise ``EvaluationLimitError``.
    """
    if not tol > 0:
        raise ValueError(f"rank tolerance must be positive, got {tol!r}")
    if s.coeffs.ndim != 2:
        raise DimensionError("a coefficient rank needs a bidegree (2-D) series")
    if not np.isfinite(s.coeffs).all():
        raise EvaluationLimitError("series coefficients overflow")
    a = pow2_scaled(s.coeffs)
    mag = np.abs(a)
    scale = float(mag.max())
    if scale == 0.0:
        return 0
    threshold = tol * scale
    update = np.empty_like(a)
    for rank in range(min(a.shape)):
        i, j = np.unravel_index(int(np.argmax(mag)), a.shape)
        pivot = a[i, j]
        if abs(pivot) <= threshold:
            return rank
        a[:, j] /= pivot  # in place: the pivot column is zeroed below
        np.multiply.outer(a[:, j], a[i], out=update)
        a -= update
        a[i] = 0.0
        a[:, j] = 0.0
        np.abs(a, out=mag)
    return min(a.shape)


def rank_growth(name: str, params: dict, orders) -> tuple[list, str]:
    """Rank of the named series at each truncation order, plus a verdict.

    The series is built once, at the last order; order N reads its leading
    (N+1)x(N+1) block, which is the order-N series: each truncated product,
    reciprocal and power sets a coefficient from lower indices only (up to
    roundoff, since a matrix product may sum in another order at another
    size).

    params may carry "tol", the positive rank tolerance of ``coeff_rank``;
    each rank is at most N + 1.  Returns ([(N, rank), ...], verdict) with
    verdict "bounded" when the last three ranks agree and "growing"
    otherwise; a growth verdict is evidence of infinite rank, not a proof.
    """
    orders = [int(n) for n in orders]
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise PreconditionError(f"orders must be strictly ascending, got {orders}")
    if len(orders) < 3:
        raise PreconditionError(f"the verdict compares three ranks; need three orders, got {orders}")
    tol = float(params.get("tol", DEFAULT_RANK_TOL)) if params else DEFAULT_RANK_TOL
    top = builtin_series(name, params, orders[-1]).coeffs
    table = [(n, coeff_rank(BiSeries(top[: n + 1, : n + 1]), tol)) for n in orders]
    tail = [r for _, r in table][-3:]
    verdict = "bounded" if len(set(tail)) == 1 else "growing"
    return table, verdict
