import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kform.errors import (
    DimensionError,
    EvaluationLimitError,
    ExprSyntaxError,
    SingularEvaluationError,
)
from kform.expressions import (
    compose,
    evaluate_map,
    fold,
    jacobian,
    map_jet,
    parse_map,
)
from kform.spaceforms import ball
from kform.umehara import rank_growth

from oracles import fd_wirtinger_gradient, identity_map, mobius_map, parse_map_reference, random_ball_point


def _one(src, arity: int):
    """A one-component map parsed from ``src``, or ``src`` if it is a map already."""
    return parse_map([src], arity) if isinstance(src, str) else src


def _value(src, pt) -> complex:
    """One expression's value at a point, as the one component of a map."""
    return complex(evaluate_map(_one(src, len(pt)), pt)[0])


def _jet(src, pt):
    """One expression's value and holomorphic gradient at a point, from ``map_jet``."""
    values, jac = map_jet(_one(src, len(pt)), pt)
    return values[0], jac[0]


def _top(f):
    """The instruction that computes a one-component map's value."""
    return f.program[f.outputs[0]]


def _lit(x: float, unit: str = "") -> str:
    """A float as grammar text: its repr, written (0-x) when negative."""
    text = repr(abs(x)) + unit
    return text if x >= 0 else f"(0-{text})"


def _const(c: complex) -> str:
    """A complex constant as grammar text, from the reprs of its parts."""
    return f"({_lit(c.real)}+{_lit(c.imag, 'i')})"


def test_parse_basic_nodes():
    f = parse_map(["z1*z2"], 2)
    assert f.program == (("var", 0, None), ("var", 1, None), ("*", 0, 1))
    assert f.outputs == (2,)

    assert _top(parse_map(["1/(1-z2)"], 2))[0] == "/"

    f = parse_map(["z1^2"], 1)
    assert f.program == (("var", 0, None), ("^", 0, 2))
    assert _top(f) == ("^", 0, 2)


def test_parse_unicode_minus_and_complex_literals():
    assert _value("1/(1−z2)", [0.0, 0.5]) == pytest.approx(2.0)
    assert _value("2+3i", [0.0]) == pytest.approx(2 + 3j)
    assert _value("i*z1", [2.0]) == pytest.approx(2j)
    assert _value("-z1+0.5", [1.0]) == pytest.approx(-0.5)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_map(["z1*"], 1)
    assert exc.value.position is not None
    with pytest.raises(ExprSyntaxError):
        parse_map(["(z1"], 1)
    with pytest.raises(ExprSyntaxError):
        parse_map(["z1^(2)"], 1)
    with pytest.raises(ExprSyntaxError):
        parse_map(["z1 z2"], 2)
    with pytest.raises(IndexError):
        parse_map(["z3"], 2)
    with pytest.raises(ExprSyntaxError):
        parse_map(["z1^-1"], 1)
    # literals that overflow are rejected where they start, as exponents too
    with pytest.raises(ExprSyntaxError) as exc:
        parse_map(["z1^1e999"], 1)
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError) as exc:
        parse_map(["1e999"], 1)
    assert exc.value.position == 0


_PARSE_ERRORS = [
    ("1.2.3", "malformed number", 3),
    ("3 + .", "malformed number '.'", 4),
    ("3 + .e5", "malformed number '.e5'", 4),
    ("z1 + z", "expected a variable index after 'z'", 5),
    ("z1 + $", "unexpected character '$'", 5),
    ("z1^2.5", "exponent must be a nonnegative integer", 3),
    ("z1 ^ (2)", "exponent must be a nonnegative integer", 5),
    ("z1 z1", "unexpected trailing input", 3),
    ("(z1 ", "expected ')'", 4),
    ("z1 * ", "expected a number, variable, or '('", 5),
]


@pytest.mark.parametrize("src, message, position", _PARSE_ERRORS)
def test_parse_error_messages_and_positions(src, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_map([src], 1)
    assert str(exc.value) == f"{message} (position {position})"
    assert exc.value.position == position


def test_jet_pinned_examples():
    value, grad = _jet(_const(3.5), np.zeros(2))
    assert value == 3.5
    np.testing.assert_array_equal(grad, np.zeros(2))

    value, grad = _jet("z1*z2", [2.0, 3.0])
    assert value == pytest.approx(6.0)
    np.testing.assert_allclose(grad, [3.0, 2.0])

    value, grad = _jet("1/(1-z1)", [0.5])
    assert value == pytest.approx(2.0)
    np.testing.assert_allclose(grad, [4.0])


def test_jet_singular_division():
    with pytest.raises(SingularEvaluationError):
        _jet("1/z1", [0.0])
    with pytest.raises(SingularEvaluationError):
        _value("1/(1-z1)", [1.0])
    # the bound 1e-15 from both sides: 0.5 + 2e-15 and 0.5 + 5e-16 round to 18
    # and 4 ulps of 0.5 above it, so the denominators are exactly 1.998e-15 and 4.44e-16
    value, grad = _jet("1/(z1-0.5)", [0.5 + 2e-15])
    assert np.isfinite(value) and np.isfinite(grad).all()
    with pytest.raises(SingularEvaluationError):
        _jet("1/(z1-0.5)", [0.5 + 5e-16])


def test_jacobian_identity_and_example_map():
    np.testing.assert_array_equal(jacobian(identity_map(3), [1.0, 2j, 3.0]), np.eye(3))

    f = parse_map(["z1+1/(1-z2)", "z2", "0"], 2)
    jf = jacobian(f, [0.1, 0.2])
    top = jf[:2, :2]
    assert np.linalg.det(top) == pytest.approx(1.0)
    np.testing.assert_allclose(jf[0], [1.0, 1.0 / (1 - 0.2) ** 2], atol=1e-14)

    veronese = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
    jv = jacobian(veronese, [0.3])
    np.testing.assert_allclose(jv[:, 0], [np.sqrt(2.0), 0.6], atol=1e-14)


def _random_expr(rng, arity, depth):
    """Random expression text whose divisions stay bounded away from zero on |z|<=0.5."""
    roll = rng.uniform()
    if depth == 0 or roll < 0.25:
        if rng.uniform() < 0.5:
            return _const(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return f"z{int(rng.integers(1, arity + 1))}"
    if roll < 0.5:
        return f"({_random_expr(rng, arity, depth - 1)}+{_random_expr(rng, arity, depth - 1)})"
    if roll < 0.7:
        return f"({_random_expr(rng, arity, depth - 1)}*{_random_expr(rng, arity, depth - 1)})"
    if roll < 0.85:
        return f"({_random_expr(rng, arity, depth - 1)})^{int(rng.integers(0, 4))}"
    # safe quotient: denominator 2 + z_k keeps |den| >= 1.5 on the sample ball
    den = f"({_const(2.0)}+z{int(rng.integers(1, arity + 1))})"
    return f"({_random_expr(rng, arity, depth - 1)}/{den})"


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 500:
        arity = int(rng.integers(1, 4))
        expr = parse_map([_random_expr(rng, arity, 3)], arity)
        z = random_ball_point(rng, arity, 0.5)
        value, grad = _jet(expr, z)
        if abs(value) > 1e3 or np.abs(grad).max() > 1e3:
            continue
        fd = fd_wirtinger_gradient(lambda w: _value(expr, w), z)
        np.testing.assert_allclose(grad, fd, atol=1e-6)
        checked += 1


def test_chain_rule_on_composed_polynomial_maps():
    rng = np.random.default_rng(17)

    def random_poly_map(m, n):
        comps = []
        for _ in range(n):
            e = _const(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for k in range(1, m + 1):
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                e = f"({e}+({_const(c)}*z{k}^{int(rng.integers(1, 3))}))"
            comps.append(e)
        return parse_map(comps, m)

    for _ in range(40):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f = random_poly_map(m, k)
        g = random_poly_map(k, n)
        h = compose(g, f)
        z = random_ball_point(rng, m, 0.7)
        np.testing.assert_allclose(evaluate_map(h, z), evaluate_map(g, evaluate_map(f, z)), atol=1e-12)
        lhs = jacobian(h, z)
        rhs = jacobian(g, evaluate_map(f, z)) @ jacobian(f, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_compose_validates_arity():
    f = parse_map(["z1", "z1^2"], 1)
    g = parse_map(["z1+z2"], 2)
    h = compose(g, f)
    assert evaluate_map(h, [2.0])[0] == pytest.approx(6.0)
    with pytest.raises(DimensionError):
        compose(g, g)  # outer needs 2 inputs, inner provides 1


def test_map_construction_validates_indices():
    with pytest.raises(IndexError):
        parse_map(["z1*z3"], 2)
    with pytest.raises(DimensionError):
        evaluate_map(identity_map(2), [1.0])


# The grammar's alphabet, unicode operators included, plus whitespace.
_GRAMMAR_TEXT = st.text(alphabet="z0123.+-−*×/÷^()ieE ", max_size=16)


def _outcome(fn, *args):
    """Bits of a complex result, or the exception type it raised."""
    try:
        with np.errstate(all="ignore"):
            value = complex(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return struct.pack("<dd", value.real, value.imag)


@settings(max_examples=300, deadline=None)
@given(_GRAMMAR_TEXT)
def test_parse_map_returns_a_program_or_a_grammar_error(src):
    try:
        f = parse_map([src], 2)
    except (ExprSyntaxError, IndexError):
        return
    assert f.codim == 1 and 0 <= f.outputs[0] < len(f.program)
    assert all(0 <= a < 2 for op, a, _ in f.program if op == "var")


# Well-formed expression strings: every draw parses.
_EXPR_TEXT = st.recursive(
    st.sampled_from(["z1", "z2", "0.5", "2i", "1.5e-1", "i", "3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-−*×/÷"), inner).map(lambda t: "(%s%s%s)" % t),
        st.tuples(inner, st.integers(0, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda t: f"(-{t})"),
    ),
    max_leaves=12,
)
_POINT_COORD = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_EXPR_TEXT, _POINT_COORD, _POINT_COORD)
def test_jet_value_is_the_scalar_value_bitwise(src, z1, z2):
    expr = parse_map([src], 2)
    jet_value = _outcome(lambda: _jet(expr, [z1, z2])[0])
    assert jet_value == _outcome(_value, expr, [z1, z2])


def _operands(op, a, b):
    """The positions an instruction reads."""
    if op in ("const", "var"):
        return ()
    return (a,) if op in ("neg", "^") else (a, b)


@settings(max_examples=300, deadline=None)
@given(_EXPR_TEXT, _EXPR_TEXT)
def test_programs_are_straight_line_and_hash_consed(src, other):
    f = parse_map([src, other, src], 2)
    for at, (op, a, b) in enumerate(f.program):
        assert all(0 <= k < at for k in _operands(op, a, b))
    assert len(set(f.program)) == len(f.program)
    # a repeated component is the same instruction, not a second copy
    assert f.outputs[0] == f.outputs[2] and max(f.outputs) < len(f.program)


def test_shared_denominator_is_evaluated_once():
    # every component of a Mobius map divides by the same 1 + c a^H z
    phi, _ = mobius_map(ball(3), [0.1, 0.2j, -0.1])
    assert len({b for op, a, b in phi.program if op == "/"}) == 1
    z = np.array([0.3, -0.1j, 0.2])
    quotients = []

    def div(num, den):
        quotients.append(den)
        return num / den

    values = fold(phi, complex, z.__getitem__, div)
    assert len(quotients) == 3 and len({id(den) for den in quotients}) == 1
    np.testing.assert_array_equal(values, evaluate_map(phi, z))


def test_evaluator_limits_raise_kform_errors():
    # no depth limit: a 10,000-term sum is one loop over its program
    long = "+".join(["z1"] * 10_000)
    assert _value(long, [0.5]) == 5000.0
    value, grad = _jet(long, [0.5])
    assert value == 5000.0 and grad.tolist() == [10_000.0]
    # Python's overflow of a literal power, and numpy's of a complex128 value or gradient
    for huge, pt in ((parse_map(["9^999*z1"], 1), [0.5]), (parse_map(["z1^2"], 1), [1e200])):
        for run in (_value, _jet):
            with pytest.raises(EvaluationLimitError, match="overflows"):
                run(huge, pt)
    # parentheses nest without a depth limit
    for depth in (600, 10_000):
        deep = parse_map(["(" * depth + "z1" + ")" * depth], 1)
        assert deep.program == (("var", 0, None),) and deep.outputs == (0,)
    # coefficients that overflow the slice series cannot be ranked
    with np.errstate(over="ignore"), pytest.raises(EvaluationLimitError, match="series coefficients overflow"):
        rank_growth("abs_square", {"map": ["1e200*z1+1e200*z1^2"]}, [2, 4, 6])
    # the limits leave shorter sums evaluable
    assert _value("+".join(["z1"] * 100), [0.5]) == 50.0


def _parsed(parse, sources, arity: int):
    """A parse's program and outputs, or the type, text and position of what it raised."""
    try:
        f = parse(sources, arity)
    except (ExprSyntaxError, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return f.program, f.outputs


def _same_parse(sources, arity: int = 2):
    assert _parsed(parse_map, sources, arity) == _parsed(parse_map_reference, sources, arity)


@settings(max_examples=300, deadline=None)
@given(st.lists(_GRAMMAR_TEXT, min_size=1, max_size=3))
def test_parse_map_matches_the_reference_on_grammar_text(sources):
    _same_parse(sources)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EXPR_TEXT, min_size=1, max_size=3))
def test_parse_map_matches_the_reference_on_expressions(sources):
    _same_parse(sources)


@pytest.mark.parametrize(
    "src",
    [src for src, _, _ in _PARSE_ERRORS]
    # unicode digits and whitespace, a fault after the first error, and faults as exponents
    + ["z\u0661+\u0663.5", "\tz1\n*\u00a0z2 ", "z1 z1 1.2.3", "z1^z", "z1^$", "z1^i", "z1^2^3", "(z1)^2", "(z1", "z1)", "z9", "z0"],
)
def test_parse_map_matches_the_reference_on_the_error_table(src):
    _same_parse([src])
    _same_parse(["z1*z2", src, "z1*z2"])
