"""Independent oracles shared by the test suite.

Everything here is deliberately written against the mathematical definitions
(recursive cofactor expansion, minors at 50 digits, central finite
differences) rather than reusing library routines,
so the tests exercise two independent computation routes.  The one
exception is ``levi_form_fd``: it differentiates the sphere bundle's
defining function ``rho`` numerically, but restricts the result with the
library's tangent basis and spectrum, so what it checks is the closed-form
Hessian at the chart center that ``kform.levi.levi_form`` uses.  The
other is ``coeff_rank_reference``, the elimination that
``kform.umehara.coeff_rank`` ran before it divided only the pivot column:
the same algorithm with another rounding, kept so that a change of rounding
is checked against the ranks it used to give.  The last is
``ricci_pullback_reference``, the point-by-point loop
``kform.rigidity.ricci_pullback_check`` ran before it read the (1,1)
stacks: J^T Ric_tgt(F) conj(J) from its own Jacobian and ``ricci``, which
checks that rewrite, not the Ricci tensor itself (the battery's c04
compares ``ricci`` with its closed form and finite differences).
``sample_chart_points_reference`` is the per-point loop
``kform.spaceforms.sample_chart_points`` ran before it normalized the whole
stack in one pass, kept so that the sampler's points stay bit for bit the
ones it always drew.  ``parse_map_reference`` is the recursive descent over
a lazily lexed token stream that ``kform.expressions.parse_map`` ran before
it lexed each component in one scan and parsed it in one loop, kept so that
the programs and the errors stay the ones it gave.
"""

from __future__ import annotations

import math
import re
import warnings
from itertools import combinations

import numpy as np

from kform.errors import DegenerateSampleError, DimensionError, DomainError, ExprSyntaxError
from kform.expressions import MapExpr, _Program, map_jet, parse_map
from kform.levi import bundle_point, tangent_basis
from kform.linalg import det, finite, generalized_eigenvalues, hermitize, pow2_scaled
from kform.numdiff import wirtinger_hessian
from kform.ppforms import wedge_power_coeffs
from kform.spaceforms import default_radius, in_chart, metric, ricci


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


def levi_form_fd(sf, p: int, r: float, z, xi, step: float = 1e-4) -> np.ndarray:
    """Finite-difference Levi spectrum of S_r at (z, xi), without moving the point.

    Differentiates ``rho`` over the stacked (z, xi) coordinates, so it works
    at any chart point, and restricts the Hessian to the library's tangent
    basis; the ascending eigenvalues are taken against the induced metric
    G = diag(g(z), W(z)).  The truncation error of the stencils asks for a
    looser zero tolerance than ``sign_counts``' default when counting signs.
    """
    z, xi = bundle_point(sf, p, r, z, xi)
    m = sf.dim
    h = wirtinger_hessian(lambda x: rho(sf, p, r, x[:m], x[m:]), np.concatenate([z, xi]), step=step)
    g, k = metric(sf, z), xi.size
    induced = np.block([[g, np.zeros((m, k))], [np.zeros((k, m)), wedge_power_coeffs(g, p)]])
    cols = tangent_basis(sf, p, z, xi)
    return generalized_eigenvalues(hermitize(cols.T @ h @ cols.conj()), cols.T @ induced @ cols.conj())


def _literal(z) -> str:
    z = complex(z)
    return f"(({z.real!r})+({z.imag!r})*i)"


def mobius_components(sf, a, sign: int = -1) -> list:
    """The component strings of ``mobius_map``'s phi_a (sign -1) or of its inverse (sign 1)."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    n, c = a.size, sf.curv
    u = 1.0 + c * float(np.vdot(a, a).real)
    mat = np.sqrt(u) * np.eye(n) - c * np.outer(a, np.conj(a)) / (1.0 + np.sqrt(u))

    def linear(row, const):
        return "+".join(f"{_literal(x)}*z{k + 1}" for k, x in enumerate(row)) + f"+{_literal(const)}"

    den = linear(-sign * c * np.conj(a), 1.0)
    return [f"({linear(mat[j], sign * a[j])})/({den})" for j in range(n)]


def mobius_map(sf, a):
    """The isometry phi_a moving the chart point ``a`` to 0, and its inverse.

    With c the curvature sign, u = 1 + c|a|^2 and A = P + sqrt(u) Q (P the
    projector onto a, Q = I - P), written as
    A = sqrt(u) I - c a a^H / (1 + sqrt(u)):

        phi_a(z) = (A z - a) / (1 + c a^H z),
        phi_a^{-1}(y) = (A y + a) / (1 - c a^H y).

    On the lift [1; z] these are the matrices [[1, c a^H], [-a, A]] and
    [[1, -c a^H], [a, A]], whose product is u I.  Both maps are built as
    expression strings (``mobius_components``) and parsed, so they share no
    code with ``center_automorphism``.  Definite forms and flat forms of any
    signature.
    """
    n = np.size(a)
    return parse_map(mobius_components(sf, a, -1), n), parse_map(mobius_components(sf, a, 1), n)


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


def pooled_ratio_fsum(base, theta) -> float:
    """The least-squares real lambda of theta ~ lambda * base over every entry of two stacks.

    sum Re(conj(b) t) / sum |b|^2 over the flattened entries, each sum
    correctly rounded by ``math.fsum`` from Python complex products.
    """
    pairs = [(complex(b), complex(t)) for b, t in zip(np.ravel(base), np.ravel(theta))]
    num = math.fsum((b.conjugate() * t).real for b, t in pairs)
    return num / math.fsum(b.real**2 + b.imag**2 for b, _ in pairs)


def coeff_rank_reference(coeffs, tol: float = 1e-10) -> int:
    """The complete-pivot rank of ``kform.umehara.coeff_rank``, dividing every entry of each update.

    Same scaling (``pow2_scaled``), threshold (tol times the largest scaled
    magnitude, fixed up front), pivot order (``argmax``) and zeroing of the
    pivot row and column; each step forms the outer product of the pivot
    column and row and divides all of it by the pivot.
    """
    a = pow2_scaled(coeffs)
    mag = np.abs(a)
    threshold = tol * float(mag.max())
    for rank in range(min(a.shape)):
        i, j = np.unravel_index(int(np.argmax(mag)), a.shape)
        pivot = a[i, j]
        if abs(pivot) <= threshold:
            return rank
        a -= np.multiply.outer(a[:, j], a[i]) / pivot
        a[i] = 0.0
        a[:, j] = 0.0
        mag = np.abs(a)
    return min(a.shape)


def ricci_pullback_reference(F, src, tgt, points, tol: float = 1e-8):
    """(passed, max_residual, n_skipped) of the Ricci identity, one point at a time.

    At each point in order: a Jacobian whose |det| is below 1e-12 once
    ``pow2_scaled`` is skipped with a warning; an image outside the target
    chart raises ``DomainError``; else the residual is the worst entry of
    |J^T Ric_tgt(F(w)) conj(J) - Ric_src(w)| over the larger of the two
    sides' largest entries (0 where both vanish).  All points skipped raise
    ``DegenerateSampleError``.
    """
    worst, skipped = 0.0, 0
    for k, w in enumerate(points):
        fw, jf = map_jet(F, w)
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(det(pow2_scaled(jf))) < 1e-12:
                warnings.warn(f"singular Jacobian at sample {k}; point skipped")
                skipped += 1
                continue
            if not in_chart(tgt, fw):
                raise DomainError("map image lies outside the target chart domain")
            pulled = finite(jf.T @ ricci(tgt, fw) @ np.conj(jf), "the Ricci pullback")
        own = ricci(src, w)
        scale = float(np.abs([pulled, own]).max()) or 1.0
        worst = max(worst, float(np.abs(pulled - own).max()) / scale)
    if skipped == len(points):
        raise DegenerateSampleError("all samples had singular Jacobians")
    return worst < tol, worst, skipped


def sample_chart_points_reference(sf, count: int, seed: int, radius: float | None = None) -> np.ndarray:
    """The chart sampler's (count, n) points, drawn and normalized one point at a time.

    Each point draws a standard normal direction in R^{2n}, divides it by
    its ``np.linalg.norm`` and scales it by radius * U^(1/(2n)), U uniform.
    Nothing is checked: a point outside the chart is returned as drawn.
    """
    r = default_radius(sf) if radius is None else float(radius)
    n = sf.dim
    rng = np.random.default_rng(seed)
    pts = np.zeros((count, n), dtype=np.complex128)
    for k in range(count):
        v = rng.standard_normal(2 * n)
        v /= np.linalg.norm(v)
        rho = r * rng.uniform() ** (1.0 / (2 * n))
        pts[k] = rho * (v[:n] + 1j * v[n:])
    return pts


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<number>[\d.]+(?:[eE][-+−]?\d+)?i?)"
    r"|(?P<var>z\d*)"
    r"|(?P<op>[-+−*×/÷()^])"
    r"|(?P<i>i)"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
_REFERENCE_ASCII = {"−": "-", "×": "*", "÷": "/"}


def _reference_number(text: str, start: int) -> complex:
    imag = text.endswith("i")
    digits = text[:-1] if imag else text
    second_dot = digits.find(".", digits.find(".") + 1)
    if second_dot >= 0:
        raise ExprSyntaxError("malformed number", position=start + second_dot)
    digits = digits.replace("−", "-")
    try:
        value = float(digits)
    except ValueError:
        raise ExprSyntaxError(f"malformed number {digits!r}", position=start) from None
    if not math.isfinite(value):
        raise ExprSyntaxError(f"number {digits!r} is not finite", position=start)
    return complex(0.0, value) if imag else complex(value)


def _reference_tokens(src: str):
    """Yield (kind, value, position) tokens of ``src``; ("end", ...) repeats."""
    pos = 0
    while True:
        m = _REFERENCE_TOKEN.match(src, pos)
        kind = m.lastgroup
        text, start, pos = m.group(kind), m.start(kind), m.end()
        if kind == "number":
            yield "number", _reference_number(text, start), start
        elif kind == "var":
            if len(text) == 1:
                raise ExprSyntaxError("expected a variable index after 'z'", position=start)
            yield "var", int(text[1:]), start
        elif kind == "op":
            yield _REFERENCE_ASCII.get(text, text), None, start
        elif kind == "i":
            yield "number", 1j, start
        elif kind == "end":
            yield "end", None, start
        else:
            raise ExprSyntaxError(f"unexpected character {text!r}", position=start)


class _ReferenceParser:
    """Recursive descent over a lazy token stream: a token is lexed only when
    the grammar looks at it, so the first fault reached is the one reported.
    Every rule returns the position of its value's instruction in ``program``."""

    def __init__(self, src: str, arity: int, program: _Program):
        if not isinstance(src, str):
            raise ExprSyntaxError(f"expression source must be a string, got {type(src).__name__}")
        self.tokens = _reference_tokens(src)
        self.ahead = None
        self.arity = arity
        self.emit = program.emit

    def peek(self):
        if self.ahead is None:
            self.ahead = next(self.tokens)
        return self.ahead

    def next(self):
        tok = self.peek()
        self.ahead = None
        return tok

    def parse(self) -> int:
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input", position=pos)
        return node

    def chain(self, ops, operand, node: int) -> int:
        while self.peek()[0] in ops:
            node = self.emit(self.next()[0], node, operand())
        return node

    def expr(self) -> int:
        sign = self.next()[0] if self.peek()[0] in ("+", "-") else "+"
        node = self.term()
        return self.chain(("+", "-"), self.term, self.emit("neg", node) if sign == "-" else node)

    def term(self) -> int:
        return self.chain(("*", "/"), self.factor, self.factor())

    def factor(self) -> int:
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "number" or value.imag != 0 or value.real != int(value.real) or value.real < 0:
                raise ExprSyntaxError("exponent must be a nonnegative integer", position=pos)
            node = self.emit("^", node, int(value.real))
        return node

    def base(self) -> int:
        kind, value, pos = self.next()
        if kind == "number":
            return self.emit("const", value)
        if kind == "var":
            if value < 1 or value > self.arity:
                raise IndexError(
                    f"variable z{value} out of range for arity {self.arity} (position {pos})"
                )
            return self.emit("var", value - 1)
        if kind == "(":
            node = self.expr()
            kind, _, pos = self.next()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", position=pos)
            return node
        raise ExprSyntaxError("expected a number, variable, or '('", position=pos)


def parse_map_reference(sources, arity: int) -> MapExpr:
    """``parse_map`` by recursive descent over lazily lexed tokens, as it read maps before.

    Parentheses nest only as deep as Python's recursion limit allows.
    """
    if not isinstance(arity, int) or arity < 1:
        raise DimensionError(f"arity must be a positive integer, got {arity!r}")
    sources = tuple(sources)
    if not sources:
        raise DimensionError("a map needs at least one component")
    program = _Program()
    outputs = tuple(_ReferenceParser(src, arity, program).parse() for src in sources)
    return MapExpr(tuple(program), outputs, arity)
