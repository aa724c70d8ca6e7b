import dataclasses
import math
import operator
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convex_enclose import errors, expressions
from convex_enclose.convex_core import Interval, require_convex
from convex_enclose.errors import DomainError, ExpressionError
from convex_enclose.expressions import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _lower_jet,
    _proves_convex,
    continuous_on,
    convex_function_from_expression,
    lower_value,
    parse_expression,
)
from convex_enclose.extreal import INF, ensure_extended
from black_box import one_sided_limit, sampled_function
import tree_walk

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
    assert lower_value(parse_expression("2*t+1"))(3.0) == 7.0
    assert lower_value(parse_expression("2^-1"))(0.0) == 0.5


def test_constants():
    assert lower_value(parse_expression("e"))(0.0) == math.e
    assert lower_value(parse_expression("pi"))(0.0) == math.pi
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


_NESTED = "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH
_CHAIN = "+".join(["t"] * (MAX_DEPTH + 1))


@pytest.mark.parametrize("source, message, position", [
    ("t + $", "unexpected character '$'", 4),
    ("t..5", "unexpected character '.'", 1),
    ("t +\n\té", "unexpected character 'é'", 5),
    ("x + $", "unexpected character '$'", 4),  # every character is read before parsing
    ("2e", "unexpected trailing input 'e'", 1),
    ("1e5e", "unexpected trailing input 'e'", 3),
    ("t 2", "unexpected trailing input '2'", 2),
    ("t) + 1", "unexpected trailing input ')'", 1),
    ("1.5.5", "unexpected trailing input '.5'", 3),
    ("x + 1", "unknown identifier 'x'", 0),
    ("t * tt", "unknown identifier 'tt'", 4),
    ("abs t", "expected '('", 4),
    ("max", "expected '('", 3),
    ("abs(t", "expected ')'", 5),
    ("(t + 1", "expected ')'", 6),
    ("max(t, 1", "expected ')'", 8),
    ("max(t)", "max takes at least two arguments", 0),
    ("ln(t, 2)", "ln takes exactly one argument", 0),
    ("1 + sqrt(t, 1)", "sqrt takes exactly one argument", 4),
    ("exp(t, t)", "exp takes exactly one argument", 0),
    ("abs(1, 2, 3)", "abs takes exactly one argument", 0),
    ("exp()", "expected a number, 't', a constant, or '('", 4),
    ("max(, t)", "expected a number, 't', a constant, or '('", 4),
    ("", "expected a number, 't', a constant, or '('", 0),
    ("   ", "expected a number, 't', a constant, or '('", 3),
    ("t +", "expected a number, 't', a constant, or '('", 3),
    ("t^", "expected a number, 't', a constant, or '('", 2),
    ("*t", "expected a number, 't', a constant, or '('", 0),
    # one level past MAX_DEPTH: a factor nests too deep at its token; a tree
    # that is too tall is known only once it parsed, and has no position
    ("(" + _NESTED + ")", f"expression nests deeper than {MAX_DEPTH} levels", MAX_DEPTH),
    ("-" * MAX_DEPTH + "t", f"expression nests deeper than {MAX_DEPTH} levels", MAX_DEPTH),
    ("abs(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
     f"expression nests deeper than {MAX_DEPTH} levels", 4 * MAX_DEPTH),
    (_CHAIN, f"expression nests deeper than {MAX_DEPTH} levels", None),
    ("t" + "^t" * MAX_DEPTH, f"expression nests deeper than {MAX_DEPTH} levels", 2 * MAX_DEPTH),
    (_CHAIN + ")", "unexpected trailing input ')'", len(_CHAIN)),  # parsing errors come first
], ids=lambda x: repr(x)[:24] if isinstance(x, str) else None)
def test_parse_error_messages_and_positions(source, message, position):
    with pytest.raises(ExpressionError) as exc_info:
        parse_expression(source)
    error = exc_info.value
    assert (error.position, error.source) == (position, source)
    assert str(error) == (message if position is None else f"{message} (at position {position})")


def test_parenthesized_spans():
    # parentheses give their subtree their own span, and add no node
    node = parse_expression(" (t)*((2 + t)) - -(ln(t))^(1)")
    assert node == BinOp("-", BinOp("*", Var(), BinOp("+", Num(2.0), Var())),
                         Neg(BinOp("^", Call("ln", (Var(),)), Num(1.0))))
    assert node.span == (1, 29)
    product, power = node.left, node.right.operand
    assert (product.span, product.left.span, product.right.span) == ((1, 14), (1, 4), (5, 14))
    assert product.right.left.span == (7, 8)
    assert (node.right.span, power.span) == ((17, 29), (18, 29))
    assert (power.left.span, power.left.args[0].span, power.right.span) == ((18, 25), (22, 23),
                                                                           (26, 29))
    assert parse_expression("((e))").span == (0, 5)


@pytest.mark.parametrize("nest", [
    lambda k: "(" * (k - 1) + "t" + ")" * (k - 1),   # k - 1 parentheses in one factor
    lambda k: "abs(" * (k - 1) + "t" + ")" * (k - 1),
    lambda k: "-" * (k - 1) + "t",
    lambda k: "t" + "^t" * (k - 1),
    lambda k: "+".join(["t"] * k),                    # a chain is k levels deep
    lambda k: "(" + "*".join(["t"] * (k - 1)) + ")+t",
])
def test_nesting_depth_limit(nest):
    tree = parse_expression(nest(MAX_DEPTH))
    lower_value(tree)(0.5)  # lowering and evaluation stay far from the recursion limit
    for side in (0, 1, 2):  # the fused walk and both one-sided walks
        _lower_jet(tree, side)(0.5)
    with pytest.raises(ExpressionError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_expression(nest(MAX_DEPTH + 1))


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
        lower_value(parse_expression("ln(t)"))(0.0)
    with pytest.raises(DomainError):
        lower_value(parse_expression("sqrt(t)"))(-1.0)
    with pytest.raises(DomainError):
        lower_value(parse_expression("1/t"))(0.0)


def test_one_sided_derivatives_at_kinks():
    f = convex_function_from_expression("abs(t - 1/2)", UNIT)[0]
    assert f.right_derivative(0.5) == 1.0
    assert f.left_derivative(0.5) == -1.0
    assert f.right_derivative(0.25) == f.left_derivative(0.25) == -1.0

    f = convex_function_from_expression("max(0, t - 1/2)", UNIT)[0]
    assert f.right_derivative(0.5) == 1.0
    assert f.left_derivative(0.5) == 0.0


def test_one_sided_derivative_smooth_point():
    f = convex_function_from_expression("t^2", UNIT)[0]
    for slope in (f.left_derivative, f.right_derivative):
        assert slope(0.3) == pytest.approx(0.6, rel=1e-15)


def test_vertical_tangent_gives_signed_infinity():
    f = convex_function_from_expression("-sqrt(t)", UNIT)[0]
    assert f.right_derivative(0.0) == -INF


def test_symbolic_matches_sampled_estimation():
    sources = ["t^2", "exp(t)", "t*ln(t)", "1/(t + 2)", "t^3 - 2*t"]
    rng = random.Random(101)
    iv = Interval(0.5, 2.0)
    for src in sources:
        symbolic = convex_function_from_expression(src, iv)[0].right_derivative
        sampled = sampled_function(lower_value(parse_expression(src)), iv)
        for _ in range(100):
            t = iv.lo + iv.width * rng.uniform(0.05, 0.9)
            assert sampled.right_derivative(t) == pytest.approx(symbolic(t), abs=1e-6)


_LN2 = math.log(2.0)
# variable exponents and their slopes in closed form
_VARIABLE_EXPONENTS = {
    "t^t": lambda t: t**t * (math.log(t) + 1.0),
    "max(t, 2^t)": lambda t: 2.0**t * _LN2,  # 2^t > t on [1, 2]
    "(2^t)^2": lambda t: 2.0 * 4.0**t * _LN2,
    "exp(t^t)": lambda t: math.exp(t**t) * t**t * (math.log(t) + 1.0),
    "t^(2^t)": lambda t: t**(2.0**t) * (2.0**t * _LN2 * math.log(t) + 2.0**t / t),
}


def test_variable_exponent_slopes_are_certified():
    iv = Interval(1.0, 2.0)
    for src, want in _VARIABLE_EXPONENTS.items():
        cf, warnings = convex_function_from_expression(src, iv)
        assert cf.certified, src
        assert warnings == [], src
        for t in (1.0, 1.25, 1.5, 1.75, 2.0):
            if t > iv.lo:
                assert cf.left_derivative(t) == pytest.approx(want(t), rel=1e-13), (src, t)
            if t < iv.hi:
                assert cf.right_derivative(t) == pytest.approx(want(t), rel=1e-13), (src, t)
    for src in ("t^(2^3)", "2^3*t^2"):
        cf, warnings = convex_function_from_expression(src, iv)
        assert cf.certified and warnings == [], src


# the same functions in mpmath, for 50-digit one-sided difference quotients
_MP_FUNCTIONS = {
    "t^t": lambda mp, t: t**t,
    "2^t": lambda mp, t: mp.mpf(2)**t,
    "(t*t+1)^t": lambda mp, t: (t * t + 1)**t,
    "t^(t+1)": lambda mp, t: t**(t + 1),
    "exp(t)^t": lambda mp, t: mp.exp(t)**t,
}


@pytest.mark.parametrize("src", sorted(_MP_FUNCTIONS))
def test_variable_exponent_slopes_match_high_precision_quotients(src):
    mpmath = pytest.importorskip("mpmath")
    f = _MP_FUNCTIONS[src]
    cf = convex_function_from_expression(src, UNIT)[0]
    slopes = {-1: cf.dminus, +1: cf.dplus}
    with mpmath.workdps(50):
        h = mpmath.mpf(10) ** -30
        for t in (0.125, 0.5, 0.75, 1.0, 1.5, 2.5):
            x = mpmath.mpf(t)
            for sign, slope in slopes.items():
                quotient = (f(mpmath, x + sign * h) - f(mpmath, x)) / (sign * h)
                assert slope(t) == pytest.approx(float(quotient), rel=1e-14), (src, t, sign)


@pytest.mark.parametrize("src, point, sign, want, mp_f", [
    # u = 0 under a variable exponent c: c = 0 leaves c' ln u, which decides
    ("t^t", "0", +1, -INF, lambda mp, t: t**t),
    # otherwise the rules of a constant exponent c hold
    ("t^(t+0.5)", "0", +1, INF, lambda mp, t: t**(t + 0.5)),
    ("t^(t+1)", "0", +1, 1.0, lambda mp, t: t**(t + 1)),
    ("t^(t+2)", "0", +1, 0.0, lambda mp, t: t**(t + 2)),
    ("abs(t-0.3)^(t+0.2)", "0.3", -1, -INF, lambda mp, t: abs(t - mp.mpf("0.3"))**(t + 0.2)),
    ("abs(t-0.3)^(t+0.2)", "0.3", +1, INF, lambda mp, t: abs(t - mp.mpf("0.3"))**(t + 0.2)),
])
def test_variable_exponent_slopes_where_the_base_vanishes(src, point, sign, want, mp_f):
    mpmath = pytest.importorskip("mpmath")
    cf = convex_function_from_expression(src, UNIT)[0]
    slope = (cf.dplus if sign > 0 else cf.dminus)(float(point))
    assert slope == want
    with mpmath.workdps(50):
        x = mpmath.mpf(point)
        quotients = [(mp_f(mpmath, x + sign * h) - mp_f(mpmath, x)) / (sign * h)
                     for h in (mpmath.mpf(10) ** -k for k in (10, 20, 40))]
    if math.isinf(want):  # the quotients grow without bound, with the sign of the limit
        assert all(q * want > 0 for q in quotients)
        assert abs(quotients[0]) < abs(quotients[1]) < abs(quotients[2])
    else:
        assert float(quotients[-1]) == pytest.approx(want, abs=1e-12)


def test_variable_exponent_of_a_negative_base_is_a_domain_error():
    # (t-2)^t at t = 1 has the value -1, but no slope on either side
    for src, t in (("(t-2)^t", 1.0), ("(t-2)^t", 0.5), ("(t-2)^(2*t)", 1.0)):
        cf = convex_function_from_expression(src, UNIT)[0]
        for slope in (cf.dminus, cf.dplus, cf.jet.call):
            with pytest.raises(DomainError):
                slope(t)


def test_convex_function_from_expression_certified_path():
    cf, warnings = convex_function_from_expression("abs(t - 1/2)", UNIT)
    assert cf.certified
    assert warnings == []
    assert cf.right_derivative(0.5) == 1.0
    assert cf.left_derivative(0.5) == -1.0
    assert cf.name == "abs(t - 1/2)"


# Differential test of the lowering against the tree walk it replaced
# (tests/tree_walk.py): every node kind, every branch of the slope rules.
_NUMBERS = ("0", "0.25", "0.5", "1", "1.5", "2", "3", "1e-3", "1e300")
_EXPONENTS = ("0", "1", "2", "3", "0.5", "1.5", "(-1)", "(-2)", "(-0.5)")
# where t - c or t + c vanishes: the kinks of abs and max, and 0 of sqrt, ln, /
_KINKS = tuple(float(x) for x in _NUMBERS) + tuple(-float(x) for x in _NUMBERS)


def _grammar(leaves, exponents, variable_exponents=False):
    def extend(inner):
        powers = st.builds("({})^{}".format, inner, exponents)
        if variable_exponents:
            powers |= st.builds("({})^({})".format, inner, inner)
        return st.one_of(
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("-({})".format, inner),
            powers,
            st.builds("{}({})".format, st.sampled_from(("abs", "ln", "exp", "sqrt")), inner),
            st.builds("max({}, {})".format, inner, inner),
            st.builds("max({}, {}, {})".format, inner, inner, inner),
        )
    return st.recursive(leaves, extend, max_leaves=8)


_CONSTANTS = st.sampled_from(_NUMBERS + ("e", "pi"))
# a constant exponent: a literal, or a small variable-free tree such as (2)/(0)
_EXPONENT = st.one_of(st.sampled_from(_EXPONENTS),
                      st.builds("({})".format, _grammar(_CONSTANTS, st.just("2"))))
# t*1e200*1e200 is 0 at 0 with the slope inf
_SOURCES = _grammar(st.one_of(_CONSTANTS, st.just("t"), st.just("t*1e200*1e200")), _EXPONENT,
                    variable_exponents=True)
_POINTS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_KINKS), st.integers(-3, 3),
                    st.floats(allow_nan=False, allow_infinity=False))


def _outcome(func, *args):
    """float.hex of each result (signed zeros included), or the exception;
    float.hex also fails on a result that is not a float."""
    try:
        result = func(*args)
    except Exception as exc:  # the lowering must raise what the walk raised
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return tuple(float.hex(x) for x in result)
    return float.hex(result)


# Where the lowering binds a constant or t to locals (see lower_value and
# _fold_jet), each input reaches a folded rule of the value walk, the jet or
# both at a point where a simplified formula would differ: signed zeros, and
# 0 * inf where t*1e200*1e200 overflows (at 1) or has the slope inf (at 0).
# Inputs whose jet position is not folded guard the generic rule it keeps.
_FOLD_EXAMPLES = [
    # a constant 0 beside t, and beside t*1e200*1e200
    ("0 + t", []), ("t + 0", []), ("0 - t", []), ("0*t", [-1.5]), ("t*0", [-1.5]),
    ("0 + t*1e200*1e200", []), ("t*1e200*1e200 + 0", []), ("0 - t*1e200*1e200", []),
    ("0*(t*1e200*1e200)", [1.0]), ("(t*1e200*1e200)*0", [1.0]),
    # the slope terms of a constant: 0 * inf, 0.0 + -0.0 and 0.0 - 0.0
    ("2*(t*1e200*1e200)", [1.0]), ("(t*1e200*1e200)*2", [1.0]), ("0*(1 - t)", [0.5]),
    ("1 + -(0*t)", [1.5]), ("-(0*t) + 1", [1.5]), ("1 - 0*t", [1.5]),
    # exp of t past overflow; ln, sqrt and t^c of t at -0.0 and 0.0
    ("exp(t)", [709.0, 710.0]), ("ln(t)", []), ("sqrt(t)", []), ("t^2", []),
    ("t^(-0.5)", []), ("t^1 + t^0", []),
    # a constant exponent that raises: the error names t on each call
    ("t^((2)/(0))", [1.0]), ("t^(ln(0))", []),
]


def _fold_examples(test):
    for source, points in reversed(_FOLD_EXAMPLES):
        test = example(source, points)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_SOURCES, st.lists(_POINTS, max_size=4))
# the slope of t*sqrt(t) at 0 is 1*0 + 0*inf, a NaN that these rules must reject
@example("max(t*sqrt(t), 1)", [])
@example("max(1, t*sqrt(t))", [])
@example("(t*sqrt(t))^0", [])
@example("(t*sqrt(t))^0.5", [])
@example("sqrt(t*sqrt(t))", [])
# the exponent's slope is a NaN on one side and inf on the other
@example("(t+2)^(abs(t*1e200*1e200) + t*1e200*1e200)", [])
@example("(t+2)^(abs(t*1e200*1e200) - t*1e200*1e200)", [])
@example("(abs(t))^(t+1)", [])  # the sides of the base differ at 0
@example("(-abs(t) - 1)^(max(2, 2 + t))", [])  # base < 0: only f'+ sees c vary, and raises
# the slope factor c u^(c-1) overflows where u^c does not: a numerical failure
@example("(((max(0, 0.5))*((t)^0.5))/(1e300))^(-1)", [3.0])
@example("max(sqrt((abs(t))^(-1)), 1e300)", [1e-200])
@_fold_examples
def test_lowering_matches_tree_walk(source, points):
    tree = parse_expression(source)
    value = lower_value(tree)
    slopes = {sign: _one_sided_walk(tree, sign) for sign in (-1, +1)}
    # the oracles are pure: call them in both orders, twice, and every call
    # must give the tree walk's slope
    cf = convex_function_from_expression(source, UNIT)[0]
    oracles = {-1: cf.dminus, +1: cf.dplus}
    for k, t in enumerate([0.0, -0.0] + points):
        assert _outcome(value, t) == _outcome(tree_walk.eval_expr, tree, t), (source, t)
        for sign, slope in slopes.items():
            want = _outcome(tree_walk._value_and_slope, tree, t, sign)
            assert _outcome(slope, t) == want, (source, t, sign)
        for sign in (-1, +1, -1) if k % 2 else (+1, -1, +1):
            assert _outcome(oracles[sign], t) == _oracle_outcome(tree, t, sign), (source, t, sign)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_SOURCES, st.lists(_POINTS, max_size=4))
@example("abs(1e308*t - 1e308*t) + t*t", [10.0])  # abs of a NaN keeps the NaN
@example("1e200*t*1e200 - 1e200*t*1e200", [])  # slopes inf - inf: a NaN the jet rejects
@example("max(t*sqrt(t), 1)", [])
@example("t^t", [0.5])
@_fold_examples
def test_jet_matches_the_three_oracles(source, points):
    cf = convex_function_from_expression(source, UNIT)[0]
    assert cf.interior_jet() is cf.jet.call
    adapter = dataclasses.replace(cf, jet=None).interior_jet()  # f'-, f'+, then f
    for t in [0.0, -0.0] + points:
        assert _outcome(cf.jet.call, t) == _outcome(adapter, t), (source, t)


def _one_sided_walk(tree, sign):
    """t -> (value, slope) of the one-sided walk of f'- (sign -1) or f'+ (+1)."""
    side = 1 if sign < 0 else 2
    walk, pick = _lower_jet(tree, side), operator.itemgetter(0, side)
    return lambda t: pick(walk(t))


def _oracle_outcome(tree, t, sign):
    """The tree walk's slope as a slope oracle returns it, or its exception."""
    return _outcome(lambda: ensure_extended(tree_walk._value_and_slope(tree, t, sign)[1]))


def test_slope_oracles_at_a_kink():
    cf = convex_function_from_expression("abs(t - 0.5) + t*t", UNIT)[0]
    m = 0.5
    assert (cf.dminus(m), cf.dplus(m), cf.dminus(m)) == (0.0, 2.0, 0.0)
    assert cf.dplus(0.75) == 2.5 and cf.dminus(0.75) == 2.5


def test_slope_oracles_tell_signed_zeros_and_nans_apart():
    # the slope of t*t at -0.0 is -0.0, and at 0.0 it is 0.0
    cf = convex_function_from_expression("t*t", UNIT)[0]
    assert float.hex(cf.dminus(0.0)) == "0x0.0p+0"
    assert float.hex(cf.dplus(-0.0)) == "-0x0.0p+0"
    # abs of a NaN takes its kink branch, whose two sides differ
    cf = convex_function_from_expression("abs(t)", UNIT)[0]
    nan = math.nan
    assert (cf.dminus(nan), cf.dplus(nan)) == (-1.0, 1.0)
    assert cf.dplus(float("nan")) == 1.0


@pytest.mark.parametrize("source, point, sign, want", [
    # one side has a slope where the other raises; a shared walk must not mix them
    ("-sqrt(max(0, t))", 0.0, +1, -INF),
    ("-sqrt(max(0, t))", 0.0, -1, DomainError),
    ("max(sqrt(t) + sqrt(abs(t)), -1)", 0.0, +1, INF),
    ("max(sqrt(t) + sqrt(abs(t)), -1)", 0.0, -1, errors.ExtendedArithmeticError),
    ("t^t", 0.0, +1, -INF),
    ("t^0.5", 0.0, +1, INF),
    ("(t - 0.5)^0", 0.5, -1, 0.0),
    # abs of a NaN: the slope walk takes the kink branch, so sqrt sees 0 there
    ("sqrt(abs(1e308*t - 1e308*t))", 2.0, -1, DomainError),
    # the exponent's slope: -inf + inf on the left, inf + inf on the right, or the reverse
    ("(t+2)^(abs(t*1e200*1e200) + t*1e200*1e200)", 0.0, -1, errors.ExtendedArithmeticError),
    ("(t+2)^(abs(t*1e200*1e200) + t*1e200*1e200)", 0.0, +1, INF),
    ("(t+2)^(abs(t*1e200*1e200) - t*1e200*1e200)", 0.0, -1, -INF),
    ("(t+2)^(abs(t*1e200*1e200) - t*1e200*1e200)", 0.0, +1, errors.ExtendedArithmeticError),
    ("(-abs(t) - 1)^(max(2, 2 + t))", 0.0, -1, -2.0),
    ("(-abs(t) - 1)^(max(2, 2 + t))", 0.0, +1, DomainError),
    # the slope factor c u^(c-1) overflows only on the side where c' = 0
    ("t^max(-1, t - 1 - 1e-200)", 1e-200, -1, errors.NumericalFailureError),
    ("t^max(-1, t - 1 - 1e-200)", 1e-200, +1, -INF),
])
def test_slope_oracles_at_side_specific_points(source, point, sign, want):
    cf = convex_function_from_expression(source, UNIT)[0]
    for first in (cf.dminus, cf.dplus):  # calling either side first changes nothing
        first_outcome = _outcome(first, point)
        oracle = cf.dplus if sign > 0 else cf.dminus
        if isinstance(want, type):
            with pytest.raises(want):
                oracle(point)
        else:
            assert oracle(point) == want
        assert _outcome(first, point) == first_outcome


@pytest.fixture
def lowered_sides(monkeypatch):
    """The side of every tree that _lower_jet lowers, its subtrees not counted."""
    sides, nested = [], [0]
    lower = expressions._lower_jet

    def counting(node, side):
        if not nested[0]:
            sides.append(side)
        nested[0] += 1
        try:
            return lower(node, side)
        finally:
            nested[0] -= 1
    monkeypatch.setattr(expressions, "_lower_jet", counting)
    return sides


def test_smooth_slopes_come_from_the_fused_walk(lowered_sides):
    cf = convex_function_from_expression("t*t + exp(t)", UNIT)[0]
    assert lowered_sides == [0]
    for t in (0.125, 0.5, 0.875):
        want = 2.0 * t + math.exp(t)
        assert cf.dminus(t) == cf.dplus(t) == pytest.approx(want, rel=1e-15)
        assert cf.jet.call(t)[1:] == (cf.dminus(t), cf.dplus(t))
    assert lowered_sides == [0]


def _python_calls(func, t: float) -> list:
    """The names of the Python functions that func(t) calls, its own included."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        func(t)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("source, jet_calls, value_calls", [
    # a cli_mix expression of three terms, and two of the integrator's twins;
    # with a closure for each constant and t they make 26/20, 6/3 and 4/2 calls
    ("0.5*(t - 0.3)^2 + 0.7*exp(1.2*t) + 0.3*t*ln(t)", 16, 14),
    ("t*ln(t)", 4, 3),
    ("exp(t)", 3, 2),
])
def test_a_constant_or_t_costs_its_parent_no_call(source, jet_calls, value_calls):
    # the jet's count includes its wrapper; exp, ln and ^ check their domain
    # in a function of their own
    cf = convex_function_from_expression(source, UNIT)[0]
    for func, count in ((cf.jet.call, jet_calls), (cf.fn, value_calls)):
        calls = _python_calls(func, 0.5)
        assert len(calls) == count, calls


@pytest.mark.parametrize("source, point, slopes, sides", [
    # the fused walk takes the kink branch of abs for both sides
    ("abs(t - 0.5)", 0.5, (-1.0, 1.0), [0]),
    # sqrt at 0 needs each side's own check: the one-sided walks are lowered once
    ("sqrt(abs(t - 0.5))", 0.5, (-INF, INF), [0, 1, 2]),
    ("-sqrt(t)", 0.0, (-INF, -INF), [0, 1, 2]),
])
def test_one_sided_walks_are_lowered_where_the_sides_part(lowered_sides, source, point,
                                                         slopes, sides):
    cf = convex_function_from_expression(source, UNIT)[0]
    for _ in range(2):
        assert (cf.dminus(point), cf.dplus(point)) == slopes
        assert cf.jet.call(point)[1:] == slopes
    assert lowered_sides == sides


def test_slope_oracles_are_thread_safe():
    # four threads share the oracles; two and two evaluate the same points
    source = "abs(t - 0.3) + t*ln(t) + exp(t)"
    cf = convex_function_from_expression(source, Interval(0.1, 2.0))[0]
    points = [0.1 + 1.9 * k / 997 for k in range(1, 997)]
    want = [(cf.dminus(t), cf.dplus(t)) for t in points]
    got = [None] * 4

    def worker(k):
        got[k] = [(cf.dminus(t), cf.dplus(t)) for t in points[k % 2::2] * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in range(4):
        assert got[k] == want[k % 2::2] * 2


# Convexity proof by composition rules: what proves, what does not, and
# that a proof never outruns the sampled check.
_POSITIVE = Interval(0.5, 2.0)


@pytest.mark.parametrize("source", [
    # one term of each benchmark kind, then a sum of them
    "1.3*(t - 2.1)^2", "0.5*exp(1.2*t)", "0.7*t", "0.7*t - 0.4*t", "1.1*t*ln(t)",
    "t^2 - 0.8*ln(t)", "0.6/t", "t^2 - 0.9*sqrt(t)", "1.2*abs(t - 0.7)",
    "0.4*max(0, t - 0.9)", "0.3*2^t", "1.1*t^t",
    "1.3*(t + 0.2)^2 - 0.8*ln(t) + 0.6/t - 0.9*sqrt(t) + 1.2*abs(t - 0.7) - 0.5*t",
    # the integrator's expression twins
    "exp(t)", "t*ln(t)", "abs(t - 0.6)", "max(0, t - 0.6)", "abs(t - 0.6) + t*ln(t)",
    "t^(-2)", "-sqrt(t)",
    # variable powers of a base > 0, as exp(v ln u)
    "0.5*t^t - 0.3*ln(t)", "(t+1)^(t+1)",
])
def test_prover_proves_benchmark_expressions(source):
    assert _proves_convex(parse_expression(source), _POSITIVE)


@pytest.mark.parametrize("source, lo, hi", [
    # the expression inputs of the golden documents but enclose_nonconvex
    ("t*t", 0.0, 1.0), ("-sqrt(t)", 0.0, 1.0), ("abs(t - 0.3) + t*t", -1.0, 1.0),
    ("t*t+abs(t-0.3)", 0.0, 1.0), ("t*t*t", 0.0, 2.0), ("t*t+abs(t-1)", 0.0, 2.0),
])
def test_prover_proves_golden_inputs(source, lo, hi):
    f = convex_function_from_expression(source, Interval(lo, hi))[0]
    assert f.convexity.method == "proved"


@pytest.mark.parametrize("source, lo, hi", [
    ("ln(t)", 1.0, 2.0), ("sqrt(t)", 1.0, 2.0), ("-t^2", 1.0, 2.0), ("-exp(t)", 1.0, 2.0),
    ("t^0.5", 1.0, 2.0), ("-abs(t-1.5)", 1.0, 2.0), ("-t*t", 0.0, 1.0),
    ("t*t-max(0,1e-3-abs(t-0.50413))", 0.0, 1.0),  # a dip between the sampled points
    ("0*sqrt(t)", 0.0, 1.0),  # its slope at 0 is 0 * inf
    ("1e400", 0.0, 1.0), ("1e308*2+t^2", 0.0, 1.0), ("exp(t)", 0.0, 800.0),
    ("2^t", -2000.0, 2000.0), ("t*ln(t)", 0.0, 1.0), ("1/t", -1.0, 1.0),
    # u^v = exp(v ln u) needs u > 0, and proves only what exp of v ln u proves
    ("t^(-t)", 0.1, 2.0),  # not convex: f'' < 0 at 0.5
    ("t^t", 0.0, 2.0), ("t^(t*t)", 0.5, 2.0),
    ("t^(-1)", 1e-200, 1.0), ("1/t", 1e-200, 1.0),  # their slope -t^-2 overflows
    ("t*t*t", -1.0, 1.0), ("max(t, 2*t - 1) * -1", 0.0, 1.0), ("sqrt(0) + t", 0.0, 1.0),
    ("2/t*ln(t)", 1.0, 2.0),  # u ln u needs both factors above the line
    ("max(1e300 - 1e300, -1e300 + t)", 0.0, 1.0),  # t is lost in rounding
])
def test_prover_leaves_unprovable_expressions_to_sampling(source, lo, hi):
    # the rules prove none of them, and the second-order walk may disprove
    # the concave ones but proves none
    f = convex_function_from_expression(source, Interval(lo, hi))[0]
    assert not _proves_convex(parse_expression(source), f.domain)
    assert f.convexity is None or not f.convexity.ok


_CONVEX_ATOMS = st.sampled_from(("t", "(t)*(t)", "exp(t)", "-(sqrt(t))", "-(ln(t))", "abs(t)",
                                 "(t)*ln(t)", "1/(t)"))
_INTERVALS = st.one_of(
    st.sampled_from(((0.0, 1.0), (0.0, 3.0), (-1.0, 1.0), (0.5, 2.0), (-3.0, -0.5))),
    st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 8.0)).map(lambda p: (p[0], p[0] + p[1])))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_grammar(st.one_of(_CONSTANTS, _CONVEX_ATOMS), _EXPONENT, variable_exponents=True),
       _INTERVALS, st.floats(0.0, 1.0))
@example("-(max(t, (2)*(t)))", (-1.0, 1.0), 0.5)  # max of affine functions is convex, not affine
@example("max(sqrt(0), abs(t), 2)", (0.0, 1.0), 0.25)  # the slope of sqrt(0) is 0/0
@example("max(sqrt(1e-3) - max(0.25, 1e300), -1e300 + t)", (0.0, 1.0), 0.5)  # t is lost
@example("exp(-(sqrt(t)) - 1000)", (0.0, 1.0), 0.0)  # its slope at 0 is 0 * -inf
@example("(t)/(1e-200)", (0.0, 1.0), 0.75)  # a divisor whose square, 1e-400, is 0
# u^v = exp(v ln u) at the rule's edges
@example("(t)^(t)", (0.0, 1.0), 0.25)  # the base's range touches 0
@example("(t)^(-(t))", (0.1, 2.0), 0.25)  # not convex
@example("(2-t)^(t)", (0.0, 1.5), 1.0)  # a falling base
@example("(1e-160)^(-1)", (0.0, 1.0), 0.5)  # a constant whose slope walk overflows in u^(p-1)
@example("-(sqrt((t)-(1)))", (1.0, 2.0), 0.5)  # proved: t - 1 is exactly [0, 1], not below 0
def test_proof_implies_sampled_check_passes(source, bounds, fraction):
    """Soundness: every function the rules prove passes the checks that
    require_convex spares it, check_convexity and the support lines and
    slope order at lo, an x drawn from the interval, the midpoint and hi,
    whose values and slopes do not raise.  The intervals lie near 0: on a
    narrow interval far from it the rounding noise of t*t exceeds the
    sampled check's own tolerance, a false alarm of that check."""
    f = convex_function_from_expression(source, Interval(*bounds))[0]
    if f.convexity is not None and f.convexity.ok:
        lo, hi = f.domain.lo, f.domain.hi
        x = min(hi, lo + fraction * (hi - lo))
        report = require_convex(dataclasses.replace(f, convexity=None),
                                (lo, x, f.domain.midpoint, hi))
        assert report.ok and report.method == "sampled", (source, bounds)


def test_quotient_slope_needs_no_square_of_the_divisor():
    # (u' - v w') / w: the square 1e400 of the old rule overflowed and read 0
    f = convex_function_from_expression("t/1e200", UNIT)[0]
    assert f.dminus(0.5) == f.dplus(0.5) == 1e-200
    assert f.jet.call(0.5) == (0.5 / 1e200, 1e-200, 1e-200)
    assert f.convexity.method == "proved"


@pytest.mark.parametrize("source, lo, hi", [
    ("t*exp(t)", 0.0, 1.0), ("exp(t)/(1+t)", 0.0, 1.0), ("t*ln(t+1)", 0.0, 3.0),
    ("t*sqrt(t)", 0.1, 1.0), ("1/(t*t+1)", 1.0, 3.0),
    ("t*exp(t) + abs(t)", -1.0, 1.0),  # pieces joined at the kink 0, slopes in order
    ("abs(t - 0.5) + t*exp(t)", 0.0, 1.0),  # t - 0.5 is exact, so its sign fixes at the kink
])
def test_walk_proves_what_the_rules_miss(source, lo, hi):
    node, interval = parse_expression(source), Interval(lo, hi)
    assert not _proves_convex(node, interval)
    f = convex_function_from_expression(source, interval)[0]
    assert f.convexity.ok and f.convexity.method == "walk"
    calls = []
    counted = dataclasses.replace(f, fn=lambda t: calls.append(t) or f.fn(t))
    assert require_convex(counted, (lo, 0.5 * (lo + hi), hi)) is f.convexity
    assert calls == []  # a proof is not evaluated, not even at the points


@pytest.mark.parametrize("source, lo, hi, kink", [
    ("-abs(t - 1.5)", 1.0, 2.0, 1.5),
    ("t*t-max(0,1e-3-abs(t-0.50413))", 0.0, 1.0, 0.50413),  # a dip between the samples
    ("-abs(t)", -1.0, 1.0, 0.0), ("t*t - abs(t)", -1.0, 1.0, 0.0),
    ("t*exp(t) - abs(t)", -1.0, 1.0, 0.0),
])
def test_walk_never_proves_a_concave_kink(source, lo, hi, kink):
    f = convex_function_from_expression(source, Interval(lo, hi))[0]
    assert f.convexity is None
    with pytest.raises(errors.NonConvexError):
        require_convex(f, (lo, kink, 0.5 * (lo + hi), hi))


@pytest.mark.parametrize("source", ["-abs(t)", "t*t - abs(t)", "t*exp(t) - abs(t)"])
def test_walk_joins_need_slopes_in_order(source):
    # each piece of [-1, 1] is convex, and the slopes at the join 0 fall from
    # f'-(0) to f'+(0) = f'-(0) - 2: a jet that put them in order would prove it
    node, interval = parse_expression(source), Interval(-1.0, 1.0)
    jet = expressions._oracles(node)[3]
    assert jet(0.0)[1] - jet(0.0)[2] == 2.0
    assert expressions._walk(node, interval, jet) is None
    level = expressions._walk(node, interval, lambda t: (0.0, 1.0, 1.0))
    assert level.ok and level.method == "walk"


@pytest.mark.parametrize("source, lo, hi", [
    ("exp(-t)*t", 2.0, 5.0),  # f'' = (t - 2) exp(-t) vanishes at 2
    ("ln(1+exp(t))", -3.0, 3.0),
])
def test_undecided_walk_stops_at_the_cap(monkeypatch, source, lo, hi):
    f, walks = _counted_walks(monkeypatch, source, lo, hi)
    assert len(walks) == expressions._WALK_CAP
    assert f.convexity is None


def test_walk_fixes_the_sign_at_a_kink(monkeypatch):
    # t - 1.5 on [1.5, 2] is exactly [0, 0.5], not rounded outward past 0, so
    # the walk splits [1, 2] once at the kink; the falling slopes at the join
    # still leave -abs(t - 1.5) to the sampled check, as before after 16 walks
    f, walks = _counted_walks(monkeypatch, "-abs(t - 1.5)", 1.0, 2.0)
    assert walks == [(1.0, 2.0), (1.0, 1.5), (1.5, 2.0)]
    assert f.convexity is None


def _counted_walks(monkeypatch, source, lo, hi):
    """(function, the pieces walked) of the source on [lo, hi]."""
    node, curves, walks = parse_expression(source), expressions._curves, []

    def counted(n, iv):
        if n == node:  # the build parses its own tree
            walks.append(iv)
        return curves(n, iv)

    monkeypatch.setattr(expressions, "_curves", counted)
    return convex_function_from_expression(source, Interval(lo, hi))[0], walks


def _smooth_grammar(leaves):
    """Expressions without max or variable exponents, which the walk can decide."""
    def extend(inner):
        return st.one_of(
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("-({})".format, inner),
            st.builds("({})^{}".format, inner, st.sampled_from(_EXPONENTS)),
            st.builds("{}({})".format, st.sampled_from(("abs", "ln", "exp", "sqrt")), inner),
        )
    return st.recursive(leaves, extend, max_leaves=6)


def _mp_value(mp, node, t):
    """The tree at t in mpmath's working precision."""
    if isinstance(node, Num):
        return mp.mpf(node.value)
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_mp_value(mp, node.operand, t)
    if isinstance(node, Call):
        args = [_mp_value(mp, a, t) for a in node.args]
        if node.func == "max":
            return max(args)
        return {"abs": abs, "ln": mp.log, "exp": mp.exp, "sqrt": mp.sqrt}[node.func](args[0])
    u, w = _mp_value(mp, node.left, t), _mp_value(mp, node.right, t)
    if node.op == "^":
        return mp.power(u, w)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}[node.op](u, w)


# concave and shifted leaves beside the convex ones, so that products and
# quotients give the walk proofs as well as disproofs to check
_WALK_LEAVES = st.one_of(_CONSTANTS, _CONVEX_ATOMS,
                         st.sampled_from(("sqrt(t)", "ln(t)", "exp(-(t))", "(t)+(1)")))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_smooth_grammar(_WALK_LEAVES), _INTERVALS, st.floats(0.0, 1.0))
@example("(t)*(exp(t))", (0.0, 1.0), 0.5)
@example("(exp(t))/((1)+(t))", (0.0, 1.0), 0.25)
@example("(1)/(((t)*(t))+(1))", (1.0, 3.0), 0.75)
@example("-(abs((t)-(1.5)))", (1.0, 2.0), 0.5)
@example("-(exp(t))", (1.0, 2.0), 0.5)
@example("(t)^0.5", (1.0, 2.0), 0.5)
def test_walk_verdicts_hold(source, bounds, fraction):
    """Soundness both ways.  A walk proof passes the checks it spares,
    check_convexity and the support lines and slope order at lo, a drawn x,
    the midpoint and hi, on a copy without the verdict.  A walk disproof's
    piece has a 50-digit second difference below 0 at its middle."""
    mpmath = pytest.importorskip("mpmath")
    f = convex_function_from_expression(source, Interval(*bounds))[0]
    verdict = f.convexity
    if verdict is None or verdict.method != "walk":
        return
    lo, hi = f.domain.lo, f.domain.hi
    if verdict.ok:
        x = min(hi, lo + fraction * (hi - lo))
        report = require_convex(dataclasses.replace(f, convexity=None),
                                (lo, x, f.domain.midpoint, hi))
        assert report.ok and report.method == "sampled", (source, bounds)
        return
    s, t, low, high = verdict.witness
    assert lo <= s < t <= hi and low <= high < 0.0, (source, bounds)
    node = parse_expression(source)
    with mpmath.workdps(50):
        m, h = (mpmath.mpf(s) + t) / 2, (mpmath.mpf(t) - s) / 4
        second = (_mp_value(mpmath, node, m - h) - 2 * _mp_value(mpmath, node, m)
                  + _mp_value(mpmath, node, m + h))
    assert second < 0, (source, bounds, verdict.witness)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_grammar(st.one_of(_CONSTANTS, st.just("t"), _CONVEX_ATOMS), _EXPONENT,
                variable_exponents=True),
       _INTERVALS, st.integers(1, 63))
@example("(0)^(abs(t))", (-1.0, 1.0), 32)  # 1 at 0 and 0 elsewhere: not ranged
@example("(1)-((0)^(abs((t)-(0.5))))", (0.0, 1.0), 32)
@example("((t)^(0))+(sqrt(t))", (0.0, 1.0), 1)  # ranged: t^0 is 1 at t = 0 too
@example("((2)*(t))-((1)/(t))", (0.5, 2.0), 63)
@example("(exp(t))*(3)", (-3.0, -0.5), 16)
@example("max(t, 2)", (0.5625, 3.0625), 38)
def test_a_ranged_expression_is_its_own_one_sided_limits(source, bounds, k):
    """What continuous_on claims, which lets a density take its values as
    its CDF's slopes: where the rules range an expression on [lo, hi], its
    value at a point is its limit from either side within [lo, hi], up to
    the slack of sampled slopes.  The points are k/64 of the way, and the
    limit's first step is 2^-20 of the width: from farther off, two steps
    onto a flat piece of a max stop it early (the left limit of max(t, 2)
    at 2.046875 would read 2), and 40 halvings of a step of 2^-20 do not reach
    a vertical tangent's limit at a point within 2^-60 of it."""
    node = parse_expression(source)
    lo, hi = bounds
    if continuous_on(node, lo, hi):
        fn = lower_value(node)
        t = lo + k / 64 * (hi - lo)
        if lo < t < hi:
            value = fn(t)
            assert math.isfinite(value), (source, bounds, t)
            for limit, sign in ((lo, -1), (hi, 1)):
                estimate = one_sided_limit(fn, t, (hi - lo) * 2.0**-16, limit, sign)
                assert abs(estimate - value) <= 1e-6 * max(1.0, abs(value)), (source, bounds, t)
    else:
        assert not _proves_convex(node, Interval(lo, hi))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_grammar(st.one_of(_CONSTANTS, st.just("t"), _CONVEX_ATOMS), _EXPONENT,
                variable_exponents=True),
       _INTERVALS, st.integers(0, 63))
@example("sqrt(0.9 - t)", (0.3, 0.9), 0)  # 0.9 - 0.9 is exactly 0, and sqrt needs no less
@example("t - 1.5", (1.5, 2.0), 32)  # exactly [0, 0.5]
@example("sqrt(t*t)", (0.0, 1.0), 0)  # t*t is ranged as t^2, not below 0
@example("(t - 1)*(t - 1)", (0.0, 2.0), 32)  # (t - 1)^2 on [-1, 1] is [0, 1]
# t*t*t*t rounds three times: at hi its float exceeds t^4's range by an ulp
@example("t*t*t*t", (0.4704264069528702, 0.6915027211611547), 0)
def test_a_range_holds_the_float_and_the_exact_values(source, bounds, k):
    """Where the pass ranges an expression on [lo, hi], the range holds its
    float value, lower_value's, at k/64 of the way and at hi itself, and
    its 50-digit value there: each inexact operation is rounded outward,
    each exact one is not."""
    mpmath = pytest.importorskip("mpmath")
    node = parse_expression(source)
    lo, hi = bounds
    try:
        low, high = expressions._shape(node, (lo, hi))[1]
    except (expressions._Unproved, ArithmeticError, ValueError):
        return
    fn = lower_value(node)
    for t in (min(hi, lo + k / 64 * (hi - lo)), hi):
        assert low <= fn(t) <= high, (source, bounds, t)
        with mpmath.workdps(50):
            assert low <= _mp_value(mpmath, node, mpmath.mpf(t)) <= high, (source, bounds, t)
