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
from convex_enclose.convex_core import ConvexFunction, Interval, check_convexity
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
    convex_function_from_expression,
    lower_value,
    parse_expression,
)
from convex_enclose.extreal import INF, ensure_extended
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
        sampled = ConvexFunction.from_callable(lower_value(parse_expression(src)), iv)
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
def test_lowering_matches_tree_walk(source, points):
    tree = parse_expression(source)
    value = lower_value(tree)
    slopes = {sign: _one_sided_walk(tree, sign) for sign in (-1, +1)}
    # the oracles share one walk per point through a memo: call them in both
    # orders, twice, so that both a fresh walk and a memo hit serve each side
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


def _counted_walks(monkeypatch, source):
    """The oracles of source, and a list that grows by one per fused walk."""
    walks = []
    lower_jet = expressions._lower_jet

    def counted_jet(node, side):  # the fused root only: the rest lowers as usual
        if side:
            return lower_jet(node, side)
        monkeypatch.setattr(expressions, "_lower_jet", lower_jet)
        jet = lower_jet(node, side)
        return lambda t: walks.append(t) or jet(t)

    monkeypatch.setattr(expressions, "_lower_jet", counted_jet)
    cf = convex_function_from_expression(source, UNIT)[0]
    return cf.dminus, cf.dplus, walks


def test_slope_oracles_share_one_walk_per_point(monkeypatch):
    dminus, dplus, walks = _counted_walks(monkeypatch, "abs(t - 0.5) + t*t")
    m = 0.5
    assert (dminus(m), dplus(m), dminus(m)) == (0.0, 2.0, 0.0)
    assert walks == [m]
    u = float("0.75")  # equal to the literal below, but another object
    assert dplus(u) == 2.5 and dminus(0.75) == 2.5
    assert len(walks) == 3


def test_slope_oracle_memo_tells_signed_zeros_and_nans_apart(monkeypatch):
    # the slope of t*t at -0.0 is -0.0: a memo keyed by value would return 0.0
    dminus, dplus, walks = _counted_walks(monkeypatch, "t*t")
    assert float.hex(dminus(0.0)) == "0x0.0p+0"
    assert float.hex(dplus(-0.0)) == "-0x0.0p+0"
    assert len(walks) == 2
    # abs of a NaN takes its kink branch, whose two sides differ
    dminus, dplus, walks = _counted_walks(monkeypatch, "abs(t)")
    nan = math.nan
    assert (dminus(nan), dplus(nan)) == (-1.0, 1.0)
    assert dplus(float("nan")) == 1.0
    assert len(walks) == 2


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
])
def test_slope_oracles_at_side_specific_points(source, point, sign, want):
    cf = convex_function_from_expression(source, UNIT)[0]
    for first in (cf.dminus, cf.dplus):  # with and without the other side memoised
        first_outcome = _outcome(first, point)
        oracle = cf.dplus if sign > 0 else cf.dminus
        if isinstance(want, type):
            with pytest.raises(want):
                oracle(point)
        else:
            assert oracle(point) == want
        assert _outcome(first, point) == first_outcome


def test_slope_oracles_are_thread_safe():
    # four threads share one memo; two and two evaluate the same points
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
    # one term of each benchmark kind but t^t, then a sum of them
    "1.3*(t - 2.1)^2", "0.5*exp(1.2*t)", "0.7*t", "0.7*t - 0.4*t", "1.1*t*ln(t)",
    "t^2 - 0.8*ln(t)", "0.6/t", "t^2 - 0.9*sqrt(t)", "1.2*abs(t - 0.7)",
    "0.4*max(0, t - 0.9)", "0.3*2^t",
    "1.3*(t + 0.2)^2 - 0.8*ln(t) + 0.6/t - 0.9*sqrt(t) + 1.2*abs(t - 0.7) - 0.5*t",
    # the integrator's expression twins
    "exp(t)", "t*ln(t)", "abs(t - 0.6)", "max(0, t - 0.6)", "abs(t - 0.6) + t*ln(t)",
    "t^(-2)", "-sqrt(t)",
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
    assert f.proved_convex


@pytest.mark.parametrize("source, lo, hi", [
    ("ln(t)", 1.0, 2.0), ("sqrt(t)", 1.0, 2.0), ("-t^2", 1.0, 2.0), ("-exp(t)", 1.0, 2.0),
    ("t^0.5", 1.0, 2.0), ("-abs(t-1.5)", 1.0, 2.0), ("-t*t", 0.0, 1.0),
    ("t*t-max(0,1e-3-abs(t-0.50413))", 0.0, 1.0),  # a dip between the sampled points
    ("0*sqrt(t)", 0.0, 1.0),  # its slope at 0 is 0 * inf
    ("1e400", 0.0, 1.0), ("1e308*2+t^2", 0.0, 1.0), ("exp(t)", 0.0, 800.0),
    ("2^t", -2000.0, 2000.0), ("t*ln(t)", 0.0, 1.0), ("1/t", -1.0, 1.0), ("t^t", 0.5, 2.0),
    ("t*t*t", -1.0, 1.0), ("max(t, 2*t - 1) * -1", 0.0, 1.0), ("sqrt(0) + t", 0.0, 1.0),
    ("max(1e300 - 1e300, -1e300 + t)", 0.0, 1.0),  # t is lost in rounding
])
def test_prover_leaves_unprovable_expressions_to_sampling(source, lo, hi):
    f = convex_function_from_expression(source, Interval(lo, hi))[0]
    assert not f.proved_convex


_CONVEX_ATOMS = st.sampled_from(("t", "(t)*(t)", "exp(t)", "-(sqrt(t))", "-(ln(t))", "abs(t)",
                                 "(t)*ln(t)", "1/(t)"))
_INTERVALS = st.one_of(
    st.sampled_from(((0.0, 1.0), (0.0, 3.0), (-1.0, 1.0), (0.5, 2.0), (-3.0, -0.5))),
    st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 8.0)).map(lambda p: (p[0], p[0] + p[1])))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_grammar(st.one_of(_CONSTANTS, _CONVEX_ATOMS), _EXPONENT), _INTERVALS)
@example("-(max(t, (2)*(t)))", (-1.0, 1.0))  # max of affine functions is convex, not affine
@example("max(sqrt(0), abs(t), 2)", (0.0, 1.0))  # the slope of sqrt(0) is 0/0
@example("max(sqrt(1e-3) - max(0.25, 1e300), -1e300 + t)", (0.0, 1.0))  # t is lost
@example("exp(-(sqrt(t)) - 1000)", (0.0, 1.0))  # its slope at 0 is 0 * -inf
@example("(t)/(1e-200)", (0.0, 1.0))  # its slope divides by 1e-400, which is 0
def test_proof_implies_sampled_check_passes(source, bounds):
    """Soundness: every function the rules prove passes check_convexity,
    whose grid values and slopes do not raise.  The intervals lie near 0:
    on a narrow interval far from it the rounding noise of t*t exceeds
    the check's own tolerance, a false alarm of the sampled check."""
    f = convex_function_from_expression(source, Interval(*bounds))[0]
    if f.proved_convex:
        assert check_convexity(f).ok, (source, bounds)
