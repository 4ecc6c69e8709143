"""Holomorphic maps as expression trees, read by one fold.

Maps are kept as small ASTs rather than closures so scenario files can carry
them as strings.  Every reading of a tree is :func:`fold`: leaves become
values of an algebra, combined bottom-up by the values' own ``+ - *``,
negation and integer powers, and by a quotient passed in.  The algebras are
complex scalars (:func:`evaluate_map`), first-order jets (:class:`Jet1`, exact
value and holomorphic gradient -- every formula in scope needs F and its
Jacobian only), truncated Taylor arrays on a slice (``kform.umehara``), and
expression nodes themselves, which makes :func:`compose` a substitution fold.
The scalar and jet quotient raises :class:`SingularEvaluationError` at a pole.

Grammar accepted by :func:`parse_expr`::

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

import numpy as np

from .errors import (
    DimensionError,
    EvaluationLimitError,
    ExprSyntaxError,
    SingularEvaluationError,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Jet1",
    "MapExpr",
    "fold",
    "parse_expr",
    "parse_map",
    "evaluate_map",
    "map_jet",
    "jacobian",
    "compose",
]

# |denominator| below this is treated as a division by zero at the point
_DIV_TOL = 1e-15

_set = object.__setattr__


class Expr:
    """Base node of a holomorphic expression tree.  Immutable after build.

    ``top`` is the largest variable index the tree references (0 if none).
    """

    __slots__ = ("top",)

    def __setattr__(self, *_):
        raise AttributeError("expression nodes are immutable")

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __pow__(self, n):
        return Pow(self, n)

    def __neg__(self):
        return Neg(self)


def _operator(op: str, reflected: bool):
    def method(self, other):
        if isinstance(other, (int, float, complex)):
            other = Const(other)
        elif not isinstance(other, Expr):
            return NotImplemented
        return BinOp(op, other, self) if reflected else BinOp(op, self, other)

    return method


for _op, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv")):
    setattr(Expr, f"__{_name}__", _operator(_op, False))
    setattr(Expr, f"__r{_name}__", _operator(_op, True))
_set_top = Expr.top.__set__  # the slot's own setter: cheaper than _set(node, "top", ...)


class Const(Expr):
    __slots__ = ("value",)
    top = 0

    def __init__(self, value):
        _set(self, "value", complex(value))


class Var(Expr):
    """Variable reference z_index, 1-based."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 1:
            raise IndexError(f"variable index must be a positive integer, got {index!r}")
        _set(self, "index", index)
        _set_top(self, index)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        _set_top(self, arg.top)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {op!r}")
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set_top(self, left.top if left.top > right.top else right.top)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set_top(self, base.top)


def fold(expr: Expr, const, var, div=operator.truediv):
    """Value of ``expr`` in an algebra, computed bottom-up.

    ``const(value)`` and ``var(k)`` give the leaves their values, k being the
    0-based coordinate of the variable z_(k+1); inner nodes combine them with
    the values' own ``+ - *``, unary ``-`` and ``** n``, and quotients with
    ``div(numerator, denominator)``.  A tree deeper than the interpreter's
    recursion limit, or a value that overflows (as Python reports it, or numpy
    under ``np.errstate(over="raise")``), raises EvaluationLimitError.
    """
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": div}

    def walk(e):
        kind = type(e)
        if kind is BinOp:
            return binary[e.op](walk(e.left), walk(e.right))
        if kind is Var:
            return var(e.index - 1)
        if kind is Const:
            return const(e.value)
        if kind is Pow:
            return walk(e.base) ** e.exponent
        if kind is Neg:
            return -walk(e.arg)
        raise TypeError(f"not an expression node: {e!r}")

    try:
        return walk(expr)
    except RecursionError:
        raise EvaluationLimitError("expression is too deep to evaluate") from None
    except (OverflowError, FloatingPointError) as exc:
        raise EvaluationLimitError(f"expression overflows: {exc}") from None


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
    the grammar looks at it, so the first fault reached is the one reported."""

    def __init__(self, src: str, arity: int):
        if not isinstance(arity, int) or arity < 1:
            raise DimensionError(f"arity must be a positive integer, got {arity!r}")
        self.tokens = _tokens(src)
        self.ahead = None
        self.arity = arity

    def peek(self):
        if self.ahead is None:
            self.ahead = next(self.tokens)
        return self.ahead

    def next(self):
        tok = self.peek()
        self.ahead = None
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input", position=pos)
        return node

    def chain(self, ops, operand, node: Expr) -> Expr:
        """Left-associative ``node (op operand)*`` for the operators ``ops``."""
        while self.peek()[0] in ops:
            node = BinOp(self.next()[0], node, operand())
        return node

    def expr(self) -> Expr:
        sign = self.next()[0] if self.peek()[0] in ("+", "-") else "+"
        node = self.term()
        return self.chain(("+", "-"), self.term, Neg(node) if sign == "-" else node)

    def term(self) -> Expr:
        return self.chain(("*", "/"), self.factor, self.factor())

    def factor(self) -> Expr:
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "number" or value.imag != 0 or value.real != int(value.real) or value.real < 0:
                raise ExprSyntaxError("exponent must be a nonnegative integer", position=pos)
            node = Pow(node, int(value.real))
        return node

    def base(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "number":
            return Const(value)
        if kind == "var":
            if value < 1 or value > self.arity:
                raise IndexError(
                    f"variable z{value} out of range for arity {self.arity} (position {pos})"
                )
            return Var(value)
        if kind == "(":
            node = self.expr()
            kind, _, pos = self.next()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", position=pos)
            return node
        raise ExprSyntaxError("expected a number, variable, or '('", position=pos)


def parse_expr(src: str, arity: int) -> Expr:
    """Parse one component expression with variables z1..z<arity>."""
    if not isinstance(src, str):
        raise ExprSyntaxError(f"expression source must be a string, got {type(src).__name__}")
    try:
        return _Parser(src, arity).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply") from None


# ---------------------------------------------------------------------------
# maps


class MapExpr:
    """Holomorphic map C^arity -> C^len(components) as expression trees."""

    __slots__ = ("components", "arity", "sources")

    def __init__(self, components, arity: int, sources=None):
        components = tuple(components)
        if not isinstance(arity, int) or arity < 1:
            raise DimensionError(f"arity must be a positive integer, got {arity!r}")
        if not components:
            raise DimensionError("a map needs at least one component")
        for c in components:
            if not isinstance(c, Expr):
                raise TypeError(f"component is not an expression: {c!r}")
            if c.top > arity:
                raise IndexError(f"component references z{c.top} but arity is {arity}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "sources", tuple(sources) if sources is not None else None)

    def __setattr__(self, *_):
        raise AttributeError("MapExpr is immutable")

    @property
    def codim(self) -> int:
        return len(self.components)

    def __repr__(self):
        return f"MapExpr(n={len(self.components)}, m={self.arity})"


def parse_map(sources, arity: int) -> MapExpr:
    """Parse a list of component strings into a MapExpr."""
    comps = [parse_expr(s, arity) for s in sources]
    return MapExpr(comps, arity, sources=sources)


def compose(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """Expression-level composition ``outer ∘ inner``."""
    if outer.arity != len(inner.components):
        raise DimensionError(
            f"cannot compose: outer arity {outer.arity} != inner component count "
            f"{len(inner.components)}"
        )
    comps = [fold(c, Const, inner.components.__getitem__) for c in outer.components]
    return MapExpr(comps, inner.arity)


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
        values = [fold(c, complex, z.__getitem__, _divide) for c in f.components]
    return np.array(values, dtype=np.complex128)


def map_jet(f: MapExpr, pt) -> tuple[np.ndarray, np.ndarray]:
    """``f(pt)`` and the Jacobian at ``pt``, from one jet pass per component.

    A value or derivative that overflows raises EvaluationLimitError.
    """
    z = _point(pt, f.arity)
    zero = np.zeros(z.size, dtype=np.complex128)
    unit = np.eye(z.size, dtype=np.complex128)
    const, var = (lambda c: Jet1(c, zero)), (lambda k: Jet1(z[k], unit[k]))
    with np.errstate(over="raise", invalid="raise"):
        jets = [fold(c, const, var, _divide) for c in f.components]
    values = np.array([j.value for j in jets], dtype=np.complex128)
    return values, np.array([j.grad for j in jets], dtype=np.complex128)


def jacobian(f: MapExpr, pt) -> np.ndarray:
    """Jacobian matrix of ``f`` at ``pt``; row i is the gradient of component i."""
    return map_jet(f, pt)[1]
