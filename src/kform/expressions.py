"""Holomorphic maps as straight-line programs, read by one loop.

Maps are kept as data rather than closures so scenario files can carry them
as strings.  :func:`parse_map` emits every component of a map into one
shared program: a list of instructions ``(op, a, b)`` whose operands are the
positions of earlier instructions, each distinct instruction stored once, so
a subexpression that several components (or one component several times)
contain is computed once.  Every reading of a map is :func:`fold`, one pass
over the program: constants and variables become values of an algebra,
combined by the values' own ``+ - *``, negation and integer powers, and by
a quotient passed in.  The algebras are complex scalars
(:func:`evaluate_map`), first-order jets (:class:`Jet1`, exact value and
holomorphic gradient -- every formula in scope needs F and its Jacobian
only) and truncated Taylor arrays on a slice (``kform.umehara``);
:func:`compose` splices one program under another.  The scalar and jet
quotient raises :class:`SingularEvaluationError` at a pole.

Grammar of one component, as read by :func:`parse_map`::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonnegative-integer)?
    base   := number ['i'] | 'i' | 'z' index | '(' expr ')'

Both the ASCII hyphen and the unicode minus sign are accepted, as are the
unicode multiplication and division signs.  Complex literals are written in
the form ``a+bi``.  A literal that overflows to infinity is a syntax error.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EvaluationLimitError,
    ExprSyntaxError,
    SingularEvaluationError,
)

__all__ = [
    "Jet1",
    "MapExpr",
    "fold",
    "parse_map",
    "evaluate_map",
    "map_jet",
    "jacobian",
    "compose",
]

# |denominator| below this is treated as a division by zero at the point
_DIV_TOL = 1e-15


class _Program(dict):
    """Instructions ``(op, a, b)`` mapped to their positions, in the order
    they were first emitted.

    ``("const", value, None)`` and ``("var", k, None)`` (k 0-based) are the
    leaves; ``("neg", a, None)`` and ``("^", a, n)`` take the one operand a;
    ``("+" | "-" | "*" | "/", a, b)`` take two.  Operands are positions of
    earlier instructions.  A constant is keyed by its value: the grammar
    yields only finite literals with non-negative parts, so equal values have
    equal bits.
    """

    def emit(self, op: str, a, b=None) -> int:
        """Position of the instruction, appended if it is new."""
        return self.setdefault((op, a, b), len(self))


@dataclass(frozen=True, eq=False)
class MapExpr:
    """Holomorphic map C^arity -> C^len(outputs).

    ``program`` is a tuple of instructions (see ``_Program``) and component i
    is the value of instruction ``outputs[i]``.
    """

    program: tuple
    outputs: tuple
    arity: int

    @property
    def codim(self) -> int:
        return len(self.outputs)

    def __repr__(self):
        return f"MapExpr(n={self.codim}, m={self.arity})"


def fold(f: MapExpr, const, var, div=operator.truediv) -> list:
    """Values of every component of ``f`` in an algebra, from one pass over its program.

    ``const(value)`` and ``var(k)`` give the leaves their values, k being the
    0-based coordinate of the variable z_(k+1); the other instructions combine
    them with the values' own ``+ - *``, unary ``-`` and ``** n``, and
    quotients with ``div(numerator, denominator)``.  A value that overflows
    (as Python reports it, or numpy under ``np.errstate(over="raise")``)
    raises EvaluationLimitError.
    """
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": div}
    values = []
    push = values.append
    try:
        for op, a, b in f.program:
            if op in binary:
                push(binary[op](values[a], values[b]))
            elif op == "var":
                push(var(a))
            elif op == "const":
                push(const(a))
            elif op == "^":
                push(values[a] ** b)
            else:
                push(-values[a])
    except (OverflowError, FloatingPointError) as exc:
        raise EvaluationLimitError(f"expression overflows: {exc}") from None
    return [values[i] for i in f.outputs]


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<number>[\d.]+(?:[eE][-+−]?\d+)?i?)"
    r"|(?P<var>z\d*)"
    r"|(?P<op>[-+−*×/÷()^])"
    r"|(?P<i>i)"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
_ASCII = {"−": "-", "×": "*", "÷": "/"}


def _number(text: str, start: int) -> complex:
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


def _tokens(src: str):
    """Yield (kind, value, position) tokens of ``src``; ("end", ...) repeats."""
    pos = 0
    while True:
        m = _TOKEN.match(src, pos)
        kind = m.lastgroup
        text, start, pos = m.group(kind), m.start(kind), m.end()
        if kind == "number":
            yield "number", _number(text, start), start
        elif kind == "var":
            if len(text) == 1:
                raise ExprSyntaxError("expected a variable index after 'z'", position=start)
            yield "var", int(text[1:]), start
        elif kind == "op":
            yield _ASCII.get(text, text), None, start
        elif kind == "i":
            yield "number", 1j, start
        elif kind == "end":
            yield "end", None, start
        else:
            raise ExprSyntaxError(f"unexpected character {text!r}", position=start)


class _Parser:
    """Recursive descent over a lazy token stream: a token is lexed only when
    the grammar looks at it, so the first fault reached is the one reported.
    Every rule returns the position of its value's instruction in ``program``."""

    def __init__(self, src: str, arity: int, program: _Program):
        if not isinstance(src, str):
            raise ExprSyntaxError(f"expression source must be a string, got {type(src).__name__}")
        self.tokens = _tokens(src)
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
        """Left-associative ``node (op operand)*`` for the operators ``ops``."""
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


def parse_map(sources, arity: int) -> MapExpr:
    """Parse component strings with variables z1..z<arity> into one MapExpr."""
    if not isinstance(arity, int) or arity < 1:
        raise DimensionError(f"arity must be a positive integer, got {arity!r}")
    sources = tuple(sources)
    if not sources:
        raise DimensionError("a map needs at least one component")
    program = _Program()
    try:
        outputs = tuple(_Parser(src, arity, program).parse() for src in sources)
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply") from None
    return MapExpr(tuple(program), outputs, arity)


def compose(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """``outer ∘ inner``: the outer program spliced under the inner one, its
    variable z_(k+1) read as the inner component k."""
    if outer.arity != inner.codim:
        raise DimensionError(
            f"cannot compose: outer arity {outer.arity} != inner component count {inner.codim}"
        )
    program = _Program({ins: i for i, ins in enumerate(inner.program)})
    at = []
    for op, a, b in outer.program:
        if op == "var":
            at.append(inner.outputs[a])
        elif op == "const":
            at.append(program.emit(op, a))
        else:
            at.append(program.emit(op, at[a], b if op in ("neg", "^") else at[b]))
    return MapExpr(tuple(program), tuple(at[i] for i in outer.outputs), inner.arity)


# ---------------------------------------------------------------------------
# the numeric algebras


class Jet1:
    """First-order jet: value and holomorphic gradient of one component.

    Jets add, multiply, divide and take powers by the forward-mode rules, so
    a fold over jets differentiates exactly.  ``abs`` is the value's modulus.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __add__(self, o):
        return Jet1(self.value + o.value, self.grad + o.grad)

    def __sub__(self, o):
        return Jet1(self.value - o.value, self.grad - o.grad)

    def __mul__(self, o):
        return Jet1(self.value * o.value, o.value * self.grad + self.value * o.grad)

    def __truediv__(self, o):
        v = self.value / o.value
        return Jet1(v, (self.grad - v * o.grad) / o.value)

    def __neg__(self):
        return Jet1(-self.value, -self.grad)

    def __pow__(self, n):
        if n == 0:
            return Jet1(self.value**0, np.zeros_like(self.grad))
        return Jet1(self.value**n, (n * self.value ** (n - 1)) * self.grad)

    def __abs__(self):
        return abs(self.value)


def _divide(a, b):
    """Quotient for the scalar and jet algebras; a pole at the point raises."""
    if abs(b) < _DIV_TOL:
        raise SingularEvaluationError("division by zero while evaluating expression")
    return a / b


def _point(pt, arity: int) -> np.ndarray:
    z = np.asarray(pt, dtype=np.complex128).reshape(-1)
    if z.size != arity:
        raise DimensionError(f"point has {z.size} coordinates, expected {arity}")
    if z.size and not np.isfinite(z).all():
        raise ValueError("point coordinates must be finite")
    return z


def evaluate_map(f: MapExpr, pt) -> np.ndarray:
    """Values of all components of ``f`` at ``pt``; an overflow raises EvaluationLimitError."""
    z = _point(pt, f.arity)
    with np.errstate(over="raise", invalid="raise"):
        values = fold(f, complex, z.__getitem__, _divide)
    return np.array(values, dtype=np.complex128)


def map_jet(f: MapExpr, pt) -> tuple[np.ndarray, np.ndarray]:
    """``f(pt)`` and the Jacobian at ``pt``, from one jet pass over the program.

    A value or derivative that overflows raises EvaluationLimitError.
    """
    z = _point(pt, f.arity)
    zero = np.zeros(z.size, dtype=np.complex128)
    unit = np.eye(z.size, dtype=np.complex128)
    const, var = (lambda c: Jet1(c, zero)), (lambda k: Jet1(z[k], unit[k]))
    with np.errstate(over="raise", invalid="raise"):
        jets = fold(f, const, var, _divide)
    values = np.array([j.value for j in jets], dtype=np.complex128)
    return values, np.array([j.grad for j in jets], dtype=np.complex128)


def jacobian(f: MapExpr, pt) -> np.ndarray:
    """Jacobian matrix of ``f`` at ``pt``; row i is the gradient of component i."""
    return map_jet(f, pt)[1]
