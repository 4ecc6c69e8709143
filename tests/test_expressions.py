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
    BinOp,
    Const,
    Expr,
    MapExpr,
    Pow,
    Var,
    compose,
    eval_jet,
    evaluate,
    evaluate_map,
    identity_map,
    jacobian,
    parse_expr,
    parse_map,
)
from kform.umehara import rank_growth

from oracles import fd_wirtinger_gradient, random_ball_point


def test_parse_basic_nodes():
    e = parse_expr("z1*z2", 2)
    assert isinstance(e, BinOp) and e.op == "*"
    assert isinstance(e.left, Var) and e.left.index == 1
    assert isinstance(e.right, Var) and e.right.index == 2

    e = parse_expr("1/(1-z2)", 2)
    assert isinstance(e, BinOp) and e.op == "/"

    e = parse_expr("z1^2", 1)
    assert isinstance(e, Pow) and e.exponent == 2


def test_parse_unicode_minus_and_complex_literals():
    e = parse_expr("1/(1−z2)", 2)
    assert evaluate(e, [0.0, 0.5]) == pytest.approx(2.0)
    assert evaluate(parse_expr("2+3i", 1), [0.0]) == pytest.approx(2 + 3j)
    assert evaluate(parse_expr("i*z1", 1), [2.0]) == pytest.approx(2j)
    assert evaluate(parse_expr("-z1+0.5", 1), [1.0]) == pytest.approx(-0.5)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("z1*", 1)
    assert exc.value.position is not None
    with pytest.raises(ExprSyntaxError):
        parse_expr("(z1", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1^(2)", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1 z2", 2)
    with pytest.raises(IndexError):
        parse_expr("z3", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1^-1", 1)
    # literals that overflow are rejected where they start, as exponents too
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("z1^1e999", 1)
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("1e999", 1)
    assert exc.value.position == 0


@pytest.mark.parametrize(
    "src, message, position",
    [
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
    ],
)
def test_parse_error_messages_and_positions(src, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(src, 1)
    assert str(exc.value) == f"{message} (position {position})"
    assert exc.value.position == position


def test_eval_jet_pinned_examples():
    j = eval_jet(Const(3.5), np.zeros(2))
    assert j.value == 3.5
    np.testing.assert_array_equal(j.grad, np.zeros(2))

    j = eval_jet(parse_expr("z1*z2", 2), [2.0, 3.0])
    assert j.value == pytest.approx(6.0)
    np.testing.assert_allclose(j.grad, [3.0, 2.0])

    j = eval_jet(parse_expr("1/(1-z1)", 1), [0.5])
    assert j.value == pytest.approx(2.0)
    np.testing.assert_allclose(j.grad, [4.0])


def test_eval_jet_singular_division():
    with pytest.raises(SingularEvaluationError):
        eval_jet(parse_expr("1/z1", 1), [0.0])
    with pytest.raises(SingularEvaluationError):
        evaluate(parse_expr("1/(1-z1)", 1), [1.0])


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
    """Random expression whose divisions stay bounded away from zero on |z|<=0.5."""
    roll = rng.uniform()
    if depth == 0 or roll < 0.25:
        if rng.uniform() < 0.5:
            return Const(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return Var(int(rng.integers(1, arity + 1)))
    if roll < 0.5:
        return BinOp("+", _random_expr(rng, arity, depth - 1), _random_expr(rng, arity, depth - 1))
    if roll < 0.7:
        return BinOp("*", _random_expr(rng, arity, depth - 1), _random_expr(rng, arity, depth - 1))
    if roll < 0.85:
        return Pow(_random_expr(rng, arity, depth - 1), int(rng.integers(0, 4)))
    # safe quotient: denominator 2 + z_k keeps |den| >= 1.5 on the sample ball
    den = BinOp("+", Const(2.0), Var(int(rng.integers(1, arity + 1))))
    return BinOp("/", _random_expr(rng, arity, depth - 1), den)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 500:
        arity = int(rng.integers(1, 4))
        expr = _random_expr(rng, arity, 3)
        z = random_ball_point(rng, arity, 0.5)
        jet = eval_jet(expr, z)
        if abs(jet.value) > 1e3 or np.abs(jet.grad).max() > 1e3:
            continue
        fd = fd_wirtinger_gradient(lambda w: complex(evaluate(expr, w)), z)
        np.testing.assert_allclose(jet.grad, fd, atol=1e-6)
        checked += 1


def test_chain_rule_on_composed_polynomial_maps():
    rng = np.random.default_rng(17)

    def random_poly_map(m, n):
        comps = []
        for _ in range(n):
            e = Const(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for k in range(1, m + 1):
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                e = BinOp("+", e, BinOp("*", Const(c), Pow(Var(k), int(rng.integers(1, 3)))))
            comps.append(e)
        return MapExpr(comps, m)

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
def test_parse_expr_returns_a_tree_or_a_grammar_error(src):
    try:
        expr = parse_expr(src, 2)
    except (ExprSyntaxError, IndexError):
        return
    assert isinstance(expr, Expr)
    assert 0 <= expr.top <= 2


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
    expr = parse_expr(src, 2)
    jet_value = _outcome(lambda: eval_jet(expr, [z1, z2]).value)
    assert jet_value == _outcome(evaluate, expr, [z1, z2])


def test_evaluator_limits_raise_kform_errors():
    deep = parse_expr("+".join(["z1"] * 1200), 1)
    for run in (evaluate, eval_jet):
        with pytest.raises(EvaluationLimitError, match="too deep"):
            run(deep, [0.5])
    huge = parse_expr("9^999*z1", 1)
    for run in (evaluate, eval_jet):
        with pytest.raises(EvaluationLimitError, match="overflows"):
            run(huge, [0.5])
    with pytest.raises(ExprSyntaxError, match="nests too deeply"):
        parse_expr("(" * 600 + "z1" + ")" * 600, 1)
    # coefficients that overflow the slice series cannot be ranked
    with np.errstate(over="ignore"), pytest.raises(EvaluationLimitError, match="series coefficients overflow"):
        rank_growth("abs_square", {"map": ["1e200*z1+1e200*z1^2"]}, [2, 4, 6])
    # the limits leave shallower trees evaluable
    assert evaluate(parse_expr("+".join(["z1"] * 100), 1), [0.5]) == 50.0
