import pytest

from convex_enclose.convex_core import Interval
from convex_enclose.errors import ExtendedArithmeticError
from convex_enclose.expressions import convex_function_from_expression
from convex_enclose.extreal import INF, ensure_extended, xsum


def test_total_order_with_infinities():
    assert -INF < -1e308 < -1.0 < 0.0 < 1.0 < 1e308 < INF


def test_ensure_extended_rejects_nan():
    with pytest.raises(ExtendedArithmeticError):
        ensure_extended(float("nan"))
    assert ensure_extended(INF) == INF
    assert ensure_extended(3) == 3.0


def _slope_at_zero(source, side="right"):
    f = convex_function_from_expression(source, Interval(-1.0, 1.0))[0]
    return getattr(f, f"{side}_derivative")(0.0)


def test_addition_propagates_infinity():
    assert _slope_at_zero("t + sqrt(t)") == INF
    assert _slope_at_zero("t - sqrt(t)") == -INF
    assert xsum([-INF, 2.0]) == -INF


def test_inf_minus_inf_is_an_error():
    with pytest.raises(ExtendedArithmeticError):
        _slope_at_zero("sqrt(t) - sqrt(t)")
    with pytest.raises(ExtendedArithmeticError):
        xsum(iter([INF, 1.0, -INF]))


def test_multiplication_sign_propagation():
    assert _slope_at_zero("2*sqrt(t)") == INF
    assert _slope_at_zero("-(2*sqrt(t))") == -INF
    assert _slope_at_zero("(t - 3)*sqrt(t)") == -INF
    assert _slope_at_zero("(t - 3)*(1 - sqrt(t))") == INF


def test_zero_times_inf_is_an_error():
    with pytest.raises(ExtendedArithmeticError):
        _slope_at_zero("0*sqrt(t)")
    # the NaN that 0 * inf leaves behind is rejected where terms are summed
    with pytest.raises(ExtendedArithmeticError):
        xsum([1.0, float("nan")])


def test_xsum_finite_is_compensated():
    terms = [0.1] * 10
    assert xsum(terms) == 1.0


def test_xsum_with_infinities():
    assert xsum([1.0, INF, 2.0]) == INF
    with pytest.raises(ExtendedArithmeticError):
        xsum([INF, -INF])


def test_xsum_lets_errors_from_the_terms_through():
    def terms():
        yield 1.0
        raise ValueError("math domain error")

    with pytest.raises(ValueError, match="math domain error"):
        xsum(terms())


# At t = 0 the slope of sqrt(t) is +inf, so each of these meets inf - inf or
# 0 * inf somewhere in its slope; some of them drop the NaN in a comparison
# (max), a discarded operand (^0), or a sign-only use (^0.5, sqrt).
UNDEFINED_SLOPES = [
    "t*sqrt(t)",
    "sqrt(t)-sqrt(t)",
    "max(t, 0*sqrt(t))",
    "max(0*sqrt(t), t)",
    "max(0*sqrt(t) - 1, t)",
    "max(t+1, 0*sqrt(t))",
    "(0*sqrt(t))^0",
    "(0*sqrt(t))^0.5",
    "(0*sqrt(t))^2",
    "sqrt(0*sqrt(t))",
    "abs(0*sqrt(t))",
    "exp(0*sqrt(t))",
]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("source", UNDEFINED_SLOPES)
def test_symbolic_slope_rejects_undefined_forms(source, side):
    with pytest.raises(ExtendedArithmeticError):
        _slope_at_zero(source, side)

