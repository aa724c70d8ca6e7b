import math
import random

import pytest

from convex_enclose.convex_core import ConvexFunction, Interval
from convex_enclose.errors import DomainError, ExpressionError
from convex_enclose.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    convex_function_from_expression,
    eval_expr,
    has_variable_exponent,
    one_sided_symbolic_derivative,
    parse_expression,
)
from convex_enclose.extreal import INF

UNIT = Interval(0.0, 1.0)


def test_parse_power_node():
    node = parse_expression("t^2")
    assert node == BinOp("^", Var(), Num(2.0))


def test_parse_abs_kink_expression():
    node = parse_expression("abs(t - 1/2)")
    assert node == Call("abs", (BinOp("-", Var(), BinOp("/", Num(1.0), Num(2.0))),))


def test_parse_entropy_kernel():
    node = parse_expression("t*ln(t)")
    assert node == BinOp("*", Var(), Call("ln", (Var(),)))


def test_precedence():
    # ^ binds tighter than unary minus
    assert parse_expression("-t^2") == Neg(BinOp("^", Var(), Num(2.0)))
    # ^ is right-associative
    assert parse_expression("t^2^3") == BinOp("^", Var(), BinOp("^", Num(2.0), Num(3.0)))
    # negative exponents parse without parentheses
    assert parse_expression("t^-2") == BinOp("^", Var(), Neg(Num(2.0)))
    # division is left-associative
    assert parse_expression("t/2/4") == BinOp("/", BinOp("/", Var(), Num(2.0)), Num(4.0))
    assert eval_expr(parse_expression("2*t+1"), 3.0) == 7.0
    assert eval_expr(parse_expression("2^-1"), 0.0) == 0.5


def test_constants():
    assert eval_expr(parse_expression("e"), 0.0) == math.e
    assert eval_expr(parse_expression("pi"), 0.0) == math.pi
    node = parse_expression("2*pi - e")
    assert node == BinOp("-", BinOp("*", Num(2.0), Num(math.pi)), Num(math.e))
    assert node.left.right.span == (2, 4)
    assert node.right.span == (7, 8)


def test_parse_errors_carry_positions():
    with pytest.raises(ExpressionError) as exc_info:
        parse_expression("t + $")
    assert exc_info.value.position == 4
    with pytest.raises(ExpressionError) as exc_info:
        parse_expression("x + 1")
    assert exc_info.value.position == 0
    with pytest.raises(ExpressionError):
        parse_expression("t +")
    with pytest.raises(ExpressionError) as exc_info:
        parse_expression("t) + 1")
    assert exc_info.value.position == 1
    with pytest.raises(ExpressionError):
        parse_expression("max(t)")
    with pytest.raises(ExpressionError):
        parse_expression("ln(t, 2)")


def test_spans_cover_source():
    node = parse_expression("abs(t - 1)")
    assert node.span == (0, 10)
    assert node.args[0].span == (4, 9)


@pytest.mark.parametrize("src", [
    "t^2",
    "-t^2",
    "t^-2",
    "-(t + 1)^2",
    "abs(t - 1/2)",
    "max(0, t - 1/2)",
    "1 - t*ln(t)",
    "(t - 1)/(t + 1)",
    "t/2/4",
    "t - (1 - t)",
    "2*(t - 1)*(t + 1)",
    "exp(t) - sqrt(t + 1)",
    "t^(2^3)",
    "e^t - pi*(t + 1)",
])
def test_round_trip(src):
    """The source text under every node's span reparses to an equal subtree."""
    stack = [parse_expression(src)]
    while stack:
        node = stack.pop()
        assert parse_expression(src[node.span[0]:node.span[1]]) == node
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += [node.left, node.right]
        elif isinstance(node, Call):
            stack += node.args


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse_expression("ln(t)"), 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("sqrt(t)"), -1.0)
    with pytest.raises(DomainError):
        eval_expr(parse_expression("1/t"), 0.0)


def test_one_sided_derivatives_at_kinks():
    expr = parse_expression("abs(t - 1/2)")
    right = one_sided_symbolic_derivative(expr, "right")
    left = one_sided_symbolic_derivative(expr, "left")
    assert right(0.5) == 1.0
    assert left(0.5) == -1.0
    assert right(0.25) == left(0.25) == -1.0

    expr = parse_expression("max(0, t - 1/2)")
    assert one_sided_symbolic_derivative(expr, "right")(0.5) == 1.0
    assert one_sided_symbolic_derivative(expr, "left")(0.5) == 0.0


def test_one_sided_derivative_smooth_point():
    expr = parse_expression("t^2")
    for side in ("left", "right"):
        assert one_sided_symbolic_derivative(expr, side)(0.3) == pytest.approx(0.6, rel=1e-15)


def test_vertical_tangent_gives_signed_infinity():
    expr = parse_expression("-sqrt(t)")
    assert one_sided_symbolic_derivative(expr, "right")(0.0) == -INF


def test_side_argument_validated():
    with pytest.raises(ValueError):
        one_sided_symbolic_derivative(parse_expression("t"), "up")


def test_symbolic_matches_sampled_estimation():
    sources = ["t^2", "exp(t)", "t*ln(t)", "1/(t + 2)", "t^3 - 2*t"]
    rng = random.Random(101)
    iv = Interval(0.5, 2.0)
    for src in sources:
        expr = parse_expression(src)
        symbolic = one_sided_symbolic_derivative(expr, "right")
        sampled = ConvexFunction.from_callable(lambda t, e=expr: eval_expr(e, t), iv)
        for _ in range(100):
            t = iv.lo + iv.width * rng.uniform(0.05, 0.9)
            assert sampled.right_derivative(t) == pytest.approx(symbolic(t), abs=1e-6)


def test_variable_exponent_detection_and_fallback():
    expr = parse_expression("t^t")
    assert has_variable_exponent(expr)
    assert not has_variable_exponent(parse_expression("t^(2^3)"))
    with pytest.raises(ExpressionError):
        one_sided_symbolic_derivative(expr, "right")
    cf, warnings = convex_function_from_expression("t^t", Interval(1.0, 2.0))
    assert not cf.certified
    assert warnings and "sampled" in warnings[0]
    assert cf(2.0) == pytest.approx(4.0)
    # the sampled oracle still works: d/dt t^t = t^t (ln t + 1)
    want = 4.0 * (math.log(2.0) + 1.0)
    assert cf.left_derivative(2.0) == pytest.approx(want, abs=1e-5)


def test_convex_function_from_expression_certified_path():
    cf, warnings = convex_function_from_expression("abs(t - 1/2)", UNIT)
    assert cf.certified
    assert warnings == []
    assert cf.right_derivative(0.5) == 1.0
    assert cf.left_derivative(0.5) == -1.0
    assert cf.name == "abs(t - 1/2)"
