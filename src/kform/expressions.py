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

Each component is lexed by one ``_TOKEN`` scan into a list of token texts,
and the list is parsed by one loop that keeps operands and pending
operators on two stacks (precedence climbing), so parentheses nest without
limit.  An operator is emitted once all its operands are, which is the
order a recursive descent over the grammar would emit in, so equal sources
give equal programs.  A fault in a token (a malformed number, a bare 'z',
a stray character) is raised only when the loop reaches that token, so the
first error reached is the one reported; error positions come from a
second scan, which only a failing parse makes.  Number and variable tokens
already read in the map are looked up, not converted again.
"""

from __future__ import annotations

import itertools
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

# One token per match, leading whitespace skipped; the scan never fails, and
# its last token is the empty string at the end
_TOKEN = re.compile(
    r"\s*([\d.]+(?:[eE][-+−]?\d+)?i?"  # a number
    r"|z\d*"  # a variable
    r"|[-+−*×/÷()^]"  # an operator or a parenthesis
    r"|i|\Z|.)",  # the imaginary unit, the end, or a stray character
    re.DOTALL,
)
_NUMBER_START = frozenset("0123456789.")  # the ASCII starts of a number; \d also has unicode digits
# The infix operators, each as (its ASCII symbol, how tightly it binds)
_INFIX = {"+": ("+", 1), "-": ("-", 1), "−": ("-", 1), "*": ("*", 3), "×": ("*", 3),
          "/": ("/", 3), "÷": ("/", 3)}
_NOT_INFIX = (None, 1)  # ')', the end and strays close every operator up to the open '('
# The tokens that are neither numbers, variables nor strays
_SYMBOLS = frozenset(["(", ")", "^", "i", "", *_INFIX])
# How tightly each pending operator binds; a pending '(' holds back the operators outside it
_BINDS = {"(": 0, "neg": 2, **dict(_INFIX.values())}


def _is_number(text: str) -> bool:
    return text[:1] in _NUMBER_START or text[:1].isdecimal()


def _position(src: str, at: int) -> int:
    """Where token ``at`` of ``src`` starts, from a second scan: only an error needs it."""
    return next(itertools.islice(_TOKEN.finditer(src), at, None)).start(1)


def _number(text: str, src: str, at: int) -> complex:
    """The value of the number token ``at``; a malformed or infinite literal raises."""
    imag = text[-1] == "i"
    digits = text[:-1] if imag else text
    try:
        value = float(digits)  # refuses a second '.' and a unicode minus
    except ValueError:
        start = _position(src, at)
        second_dot = digits.find(".", digits.find(".") + 1)
        if second_dot >= 0:
            raise ExprSyntaxError("malformed number", position=start + second_dot) from None
        digits = digits.replace("−", "-")
        try:
            value = float(digits)
        except ValueError:
            raise ExprSyntaxError(f"malformed number {digits!r}", position=start) from None
    if not math.isfinite(value):
        raise ExprSyntaxError(f"number {digits!r} is not finite", position=_position(src, at))
    return complex(0.0, value) if imag else complex(value)


def _error(src: str, at: int, text: str, message: str) -> ExprSyntaxError:
    """The error at token ``at``: the token's own fault if it has one, else ``message``."""
    if _is_number(text):
        _number(text, src, at)
    elif text == "z":
        message = "expected a variable index after 'z'"
    elif text[:1] != "z" and text not in _SYMBOLS:
        message = f"unexpected character {text!r}"
    return ExprSyntaxError(message, position=_position(src, at))


def _parse(src: str, arity: int, emit, leaves: dict) -> int:
    """Position of the instruction that computes ``src``, its program emitted through ``emit``.

    ``leaves`` maps the number and variable tokens read so far, in this and
    earlier components of the map, to their instructions.  A token's own
    fault (a malformed number, a bare 'z', a stray character) is raised only
    when the loop reaches it, as are the grammar's errors.  Operands wait on
    ``values`` and operators on ``pending`` until every operand they take is
    emitted; ``operand`` says whether the next token begins one (``sign``:
    it may start with '+' or '-'), ``power`` whether a '^' may follow.
    """
    if not isinstance(src, str):
        raise ExprSyntaxError(f"expression source must be a string, got {type(src).__name__}")
    values, pending = [], []
    push = values.append
    operand, sign, power = True, True, False
    tokens = enumerate(_TOKEN.findall(src))
    for at, text in tokens:
        if operand:
            if text == "(":
                pending.append("(")
                sign = True
                continue
            leaf = leaves.get(text)
            if leaf is not None:
                push(leaf)
            elif _is_number(text):
                leaves[text] = leaf = emit("const", _number(text, src, at))
                push(leaf)
            elif text[:1] == "z" and len(text) > 1:
                k = int(text[1:])
                if k < 1 or k > arity:
                    pos = _position(src, at)
                    raise IndexError(f"variable z{k} out of range for arity {arity} (position {pos})")
                leaves[text] = leaf = emit("var", k - 1)
                push(leaf)
            elif text == "i":
                leaves[text] = leaf = emit("const", 1j)
                push(leaf)
            elif sign and _INFIX.get(text, _NOT_INFIX)[0] in ("+", "-"):
                if text != "+":
                    pending.append("neg")
                sign = False
                continue
            else:
                raise _error(src, at, text, "expected a number, variable, or '('")
            operand, power = False, True
        elif text == "^" and power:
            at, text = next(tokens)
            value = _number(text, src, at) if _is_number(text) else None
            if value is None or value.imag != 0 or value.real != int(value.real) or value.real < 0:
                raise _error(src, at, text, "exponent must be a nonnegative integer")
            values[-1] = emit("^", values[-1], int(value.real))
            power = False
        else:
            op, binds = _INFIX.get(text, _NOT_INFIX)
            while pending and _BINDS[pending[-1]] >= binds:
                top = pending.pop()
                b = None if top == "neg" else values.pop()
                values[-1] = emit(top, values[-1], b)
            if op is not None:
                pending.append(op)
                operand, sign = True, False
            elif text == ")" and pending:
                pending.pop()
                power = True
            elif text == "" and not pending:
                return values[0]
            else:
                raise _error(src, at, text, "expected ')'" if pending else "unexpected trailing input")


def parse_map(sources, arity: int) -> MapExpr:
    """Parse component strings with variables z1..z<arity> into one MapExpr."""
    if not isinstance(arity, int) or arity < 1:
        raise DimensionError(f"arity must be a positive integer, got {arity!r}")
    sources = tuple(sources)
    if not sources:
        raise DimensionError("a map needs at least one component")
    program, leaves = _Program(), {}
    outputs = tuple(_parse(src, arity, program.emit, leaves) for src in sources)
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
