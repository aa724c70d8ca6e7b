import math
import random
from dataclasses import replace

import pytest

from convex_enclose import catalog, means, oracle
from convex_enclose.cli import run
from convex_enclose.convex_core import Interval
from convex_enclose.errors import BudgetExceededError, DomainError, OracleFailureError
from convex_enclose.expressions import convex_function_from_expression
from convex_enclose.extreal import INF
from convex_enclose.means import mean_comparison, special_means, verify_mean_inequalities
from convex_enclose.oracle import reference_integral
from convex_enclose.quadrature import integrate_adaptive
from convex_enclose.selftest import random_interval


def expression(src, a, b):
    return convex_function_from_expression(src, Interval(a, b))[0]


def test_affine_is_tight_on_both_sides():
    f = catalog.affine(0.0, 1.0, Interval(0.0, 2.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.lower == pytest.approx(0.5, rel=1e-13)
    assert comp.gap.lo == comp.gap.hi == pytest.approx(0.5, rel=1e-13)
    assert comp.upper == pytest.approx(0.5, rel=1e-13)


def test_square_worked_case():
    f = catalog.shifted_square(0.0, Interval(0.0, 2.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.lower == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert comp.gap.lo == comp.gap.hi == pytest.approx(1.0, rel=1e-12)
    assert comp.upper == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_full_interval_subinterval_gives_zero_gap():
    f = catalog.abs_shift(0.5, Interval(0.0, 1.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.gap.lo == comp.gap.hi == 0.0
    assert comp.lower == pytest.approx(-0.25, rel=1e-13)
    assert comp.lower <= 0.0 <= comp.upper


def test_subinterval_must_nest():
    f = catalog.shifted_square(0.0, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        mean_comparison(f, Interval(0.5, 1.5))


def test_infinite_slope_propagates_to_upper():
    f = catalog.neg_sqrt(Interval(0.0, 1.0))
    comp = mean_comparison(f, Interval(0.25, 0.75))
    assert comp.upper == INF
    assert comp.gap.lo == comp.gap.hi
    assert comp.lower <= comp.gap.lo


def test_affine_double_tightness_fuzz():
    rng = random.Random(71)
    for _ in range(25):
        lo = rng.uniform(-2.0, 1.0)
        iv = Interval(lo, lo + rng.uniform(0.5, 3.0))
        f = catalog.affine(rng.uniform(-2, 2), rng.uniform(-3, 3), iv)
        c = rng.uniform(iv.lo, iv.hi - 0.1)
        sub = Interval(c, rng.uniform(c + 0.05, iv.hi))
        comp = mean_comparison(f, sub)
        assert comp.gap.lo == comp.gap.hi
        scale = max(1.0, abs(comp.gap.lo))
        assert abs(comp.lower - comp.gap.lo) <= 1e-13 * scale
        assert abs(comp.upper - comp.gap.lo) <= 1e-13 * scale


def test_sandwich_fuzz_over_positive_kernels():
    rng = random.Random(73)
    for _ in range(40):
        iv = random_interval(rng, 0.05, 4.0, 0.2)
        f = rng.choice([
            catalog.power(2.0, iv),
            catalog.power(3.0, iv),
            catalog.power(-0.5, iv),
            catalog.power(-1.0, iv),
            catalog.neg_log(iv),
        ])
        c = rng.uniform(iv.lo, iv.hi - 0.05)
        d = rng.uniform(c + 0.02, iv.hi)
        comp = mean_comparison(f, Interval(c, d))
        assert comp.gap.lo == comp.gap.hi
        slack = 1e-10 * max(1.0, abs(comp.lower), abs(comp.gap.lo), abs(comp.upper))
        assert comp.lower - slack <= comp.gap.lo <= comp.upper + slack


# (source, same function in mpmath, a, b, c, d, interior kinks); the floats
# in the mpmath functions are the parsed constants, converted exactly
_MP_CASES = [
    ("t*t+abs(t-1)", lambda mp, t: t * t + abs(t - 1), 0.0, 2.0, 0.5, 1.5, (1.0,)),
    ("exp(t)+abs(t-0.3)", lambda mp, t: mp.exp(t) + abs(t - 0.3), -1.0, 1.0, 0.4, 0.9, (0.3,)),
    ("exp(t)+abs(t-0.3)", lambda mp, t: mp.exp(t) + abs(t - 0.3), -1.0, 1.0, 0.2, 0.9, (0.3,)),
    ("max(t, 2-t)", lambda mp, t: max(t, 2 - t), 0.25, 3.0, 0.5, 1.75, (1.0,)),
    ("t^t", lambda mp, t: t**t, 0.2, 1.5, 0.25, 1.0, ()),
    ("t^t", lambda mp, t: t**t, 0.0, 1.5, 0.25, 1.0, ()),  # f'+(0) = -inf: upper = inf
    ("t*ln(t)", lambda mp, t: t * mp.log(t), 0.5, 2.0, 0.6, 1.1, ()),
    ("1/t", lambda mp, t: 1 / t, 0.1, 3.0, 1.0, 2.0, ()),
    ("-sqrt(t)", lambda mp, t: -mp.sqrt(t), 0.0, 1.0, 0.0, 0.5, ()),
    ("-sqrt(t)", lambda mp, t: -mp.sqrt(t), 0.0, 1.0, 0.25, 0.75, ()),
    ("-sqrt(t)", lambda mp, t: -mp.sqrt(t), 0.0, 1.0, 1e-6, 1.0, ()),
]


@pytest.mark.parametrize("case", _MP_CASES,
                         ids=lambda c: f"{c[0]}:[{c[2]:g},{c[3]:g}]/[{c[4]:g},{c[5]:g}]")
def test_expression_certificates_contain_the_true_gap(case):
    mpmath = pytest.importorskip("mpmath")
    src, mp_f, a, b, c, d, kinks = case
    comp = mean_comparison(expression(src, a, b), Interval(c, d))
    with mpmath.workdps(50):
        def mean(lo, hi):
            points = [lo, *(k for k in kinks if lo < k < hi), hi]
            return mpmath.quad(lambda t: mp_f(mpmath, t), points) / (mpmath.mpf(hi) - lo)
        gap = mean(a, b) - mean(c, d)
        # zero slack: certificates that are not points absorb their rounding
        assert comp.lower <= gap <= comp.upper
        assert comp.gap.lo <= gap <= comp.gap.hi


def test_affine_expression_certificates_keep_a_relative_slack():
    # a point certificate cannot absorb rounding; the means of 2t + 1 are
    # a + b + 1, so the gap is 4 - 3.5
    comp = mean_comparison(expression("2*t+1", 0.0, 3.0), Interval(0.5, 2.0))
    slack = 1e-13 * 0.5
    assert comp.lower - slack <= 0.5 <= comp.upper + slack
    assert comp.gap.lo - slack <= 0.5 <= comp.gap.hi + slack
    assert comp.upper - comp.lower <= slack


def test_infinite_endpoint_slope_falls_back_to_hermite_hadamard():
    # -sqrt(t) has f'+(0) = -inf, so the integrator cannot run on [0, 1] or
    # [0, 0.5]; such a mean is bracketed by f(mid) and (f(lo) + f(hi))/2
    comp = mean_comparison(expression("-sqrt(t)", 0.0, 1.0), Interval(0.0, 0.5))
    mean_full = (-math.sqrt(0.5), -0.5)
    mean_sub = (-0.5, -0.5 * math.sqrt(0.5))
    assert comp.gap.lo == pytest.approx(mean_full[0] - mean_sub[1], rel=1e-15)
    assert comp.gap.hi == pytest.approx(mean_full[1] - mean_sub[0], abs=1e-16)
    assert comp.upper == INF
    assert comp.lower <= -2.0 / 3.0 + (2.0 / 3.0) * math.sqrt(0.5)


def test_exceeded_cell_budget_keeps_the_best_result(monkeypatch):
    # [0.25, 0.75] has finite slopes, but -sqrt(t) does not reach the
    # tolerance there within a budget of 8 cells; [0, 1] still falls back to
    # Hermite-Hadamard
    monkeypatch.setattr(means, "_MAX_CELLS", 8)
    f = expression("-sqrt(t)", 0.0, 1.0)
    sub = Interval(0.25, 0.75)
    hh_width = 0.5 * (f(0.25) + f(0.75)) - f(0.5)  # upper = inf: the sub's own width
    with pytest.raises(BudgetExceededError) as info:
        integrate_adaptive(replace(f, domain=sub), 1e-3 * hh_width * sub.width, max_cells=8)
    best = info.value.best.integral_bounds
    comp = mean_comparison(f, sub)
    assert comp.gap.lo == -math.sqrt(0.5) - best.hi / sub.width
    assert comp.gap.hi == -0.5 - best.lo / sub.width
    mean_sub = -(2.0 / 3.0) * (0.75**1.5 - 0.25**1.5) / sub.width
    assert comp.gap.lo <= -2.0 / 3.0 - mean_sub <= comp.gap.hi
    assert comp.lower <= -2.0 / 3.0 - mean_sub


@pytest.mark.parametrize("src, a, b, c, d", [
    ("-sqrt(t)", 0.0, 1.0, 0.25, 0.75),
    ("-sqrt(t)", 0.0, 1.0, 1e-6, 1.0),
    ("t^t", 0.0, 1.5, 0.25, 1.0),
])
def test_infinite_endpoint_slope_keeps_a_finite_tolerance(monkeypatch, src, a, b, c, d):
    # upper = inf: the sub-interval's Hermite-Hadamard width sets the
    # tolerance, which the integrator meets well within its cell budget
    runs = []

    def integrate(f, tol, max_cells):
        result = integrate_adaptive(f, tol, max_cells=max_cells)
        runs.append((tol, result))
        return result

    monkeypatch.setattr(means, "integrate_adaptive", integrate)
    f = expression(src, a, b)
    comp = mean_comparison(f, Interval(c, d))
    assert comp.upper == INF
    hh_width = 0.5 * (f(c) + f(d)) - f(0.5 * (c + d))
    [(tol, result)] = runs  # the full domain falls back to Hermite-Hadamard
    assert tol == 1e-3 * hh_width * (d - c)
    assert result.width <= tol and result.cells < 200


def test_expressions_never_call_adaptive_simpson(monkeypatch, capsys):
    def refuse(*args):
        raise OracleFailureError("adaptive Simpson called")

    monkeypatch.setattr(oracle, "_adaptive", refuse)
    comp = mean_comparison(expression("t*t+abs(t-1)", 0.0, 2.0), Interval(0.5, 1.5))
    assert comp.gap.lo <= 0.5 <= comp.gap.hi
    assert run(["means", "--fn", "exp(t)+abs(t-0.3)", "--a=-1", "--b", "1", "--c", "0.2",
                "--d", "0.9"]) == 0
    assert '"mean_difference"' in capsys.readouterr().out


def test_special_means_examples():
    sm = special_means(1.0, math.e, 2.0)
    assert sm.logarithmic == pytest.approx(math.e - 1.0, rel=1e-14)
    assert sm.identric == pytest.approx(math.exp(1.0 / (math.e - 1.0)), rel=1e-14)
    assert sm.arithmetic == pytest.approx(0.5 * (1.0 + math.e), rel=1e-15)

    # L_1 reduces to the arithmetic mean
    rng = random.Random(79)
    for _ in range(10):
        a = rng.uniform(0.1, 3.0)
        b = a + rng.uniform(0.1, 2.0)
        sm = special_means(a, b, 1.0)
        assert sm.p_logarithmic == pytest.approx(sm.arithmetic, rel=1e-13)


def test_special_means_rejects_bad_input():
    with pytest.raises(DomainError):
        special_means(-1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        special_means(2.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        special_means(1.0, 2.0, -1.0)
    with pytest.raises(DomainError):
        special_means(1.0, 2.0, 0.0)


def test_special_means_rejects_non_finite_input():
    for a, b, p in ((1.0, 2.0, math.nan), (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf),
                    (1.0, math.inf, 2.0), (math.nan, 2.0, 2.0)):
        with pytest.raises(DomainError):
            special_means(a, b, p)


def test_special_means_match_integral_means():
    rng = random.Random(83)
    for _ in range(20):
        iv = random_interval(rng, 0.05, 4.0, 0.2)
        a, b = iv.lo, iv.hi
        width = b - a
        for p in (2.0, 3.0, -0.5, -2.0):
            mean = reference_integral(catalog.power(p, iv)).value / width
            lp = special_means(a, b, p).p_logarithmic
            assert mean == pytest.approx(lp**p, rel=1e-12)
        mean_inv = reference_integral(catalog.power(-1.0, iv)).value / width
        assert mean_inv == pytest.approx(1.0 / special_means(a, b, 2.0).logarithmic, rel=1e-12)
        mean_neglog = reference_integral(catalog.neg_log(iv)).value / width
        assert mean_neglog == pytest.approx(-math.log(special_means(a, b, 2.0).identric), rel=1e-12)


def test_verify_mean_inequalities_report():
    entries = verify_mean_inequalities(0.5, 3.0, 1.0, 2.0, 2.0)
    assert [e.kernel for e in entries] == ["t^2", "1/t", "-ln(t)"]
    for e in entries:
        comp = e.comparison
        assert comp.gap.lo == comp.gap.hi
        assert comp.lower <= comp.gap.lo <= comp.upper
        assert comp.gap.lo == pytest.approx(e.gap_closed_form,
                                            abs=1e-12 * max(1.0, abs(comp.gap.lo)))


def test_verify_mean_inequalities_identical_intervals():
    entries = verify_mean_inequalities(1.0, 2.0, 1.0, 2.0, 2.0)
    for e in entries:
        assert e.comparison.gap.lo == e.comparison.gap.hi == 0.0
        assert e.comparison.lower <= 0.0 <= e.comparison.upper
        assert e.gap_closed_form == pytest.approx(0.0, abs=1e-15)


def test_verify_mean_inequalities_validates_nesting():
    with pytest.raises(DomainError):
        verify_mean_inequalities(1.0, 2.0, 0.5, 1.5, 2.0)


def test_verify_mean_inequalities_rejects_non_finite_p():
    for p in (math.nan, INF, -INF):
        with pytest.raises(DomainError, match="finite p"):
            verify_mean_inequalities(0.5, 3.0, 1.0, 2.0, p)
