import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_enclose import catalog
from convex_enclose.convex_core import (
    ConvexFunction,
    Interval,
    check_convexity,
    require_convex,
    require_supporting_lines,
)
from convex_enclose.errors import DomainError, NonConvexError, UndefinedSideError
from convex_enclose.extreal import INF
from convex_enclose.expressions import convex_function_from_expression
from identities import NotDifferentiableError, two_sided_derivative

UNIT = Interval(0.0, 1.0)


def test_interval_rejects_degenerate_and_infinite():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1e308, 1.7e308), (-1.7e308, -1e308)])
def test_interval_rejects_an_overflowing_width_or_midpoint(lo, hi):
    with pytest.raises(DomainError, match=r"is too wide for float arithmetic"):
        Interval(lo, hi)


def test_interval_accepts_the_whole_positive_axis():
    iv = Interval(math.ulp(0.0), 1.7976931348623157e308)
    assert iv.width == iv.hi and math.isfinite(iv.midpoint)


def test_interval_properties():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0
    assert iv.contains(3.0) and not iv.strictly_contains(3.0)
    assert iv.encloses(Interval(0.0, 1.0))


def test_eval_examples():
    assert catalog.abs_shift(0.5, UNIT)(0.5) == 0.0
    assert catalog.shifted_square(0.0, UNIT)(0.5) == 0.25
    # -ln(e) = -1
    f = catalog.neg_log(Interval(1.0, math.e))
    assert f(math.e) == pytest.approx(-1.0, abs=1e-15)


def test_eval_outside_domain():
    with pytest.raises(DomainError):
        catalog.shifted_square(0.0, UNIT)(1.5)


def test_right_derivative_examples():
    # kink witness k|t - (a+b)/2| has right slope k at the center
    f = catalog.centered_kink(UNIT, k=1.0)
    assert f.right_derivative(0.5) == 1.0
    aff = catalog.affine(1.0, 3.0, UNIT)
    assert aff.right_derivative(0.7) == 3.0
    assert catalog.neg_sqrt(UNIT).right_derivative(0.0) == -INF


def test_left_derivative_examples():
    f = catalog.abs_shift(0.5, UNIT)
    assert f.left_derivative(0.5) == -1.0
    assert catalog.shifted_square(0.0, UNIT).left_derivative(1.0) == 2.0
    # hinge: the left slope at the kink is the limit of difference quotients
    hinge = catalog.hinge(0.5, UNIT)
    quotients = [(hinge(0.5) - hinge(0.5 - h)) / h for h in (0.1, 0.01, 1e-4, 1e-8)]
    assert max(abs(q) for q in quotients) == 0.0
    assert hinge.left_derivative(0.5) == 0.0


def test_undefined_sides():
    f = catalog.shifted_square(0.0, UNIT)
    with pytest.raises(UndefinedSideError):
        f.right_derivative(1.0)
    with pytest.raises(UndefinedSideError):
        f.left_derivative(0.0)
    with pytest.raises(DomainError):
        f.right_derivative(-0.5)


def test_endpoint_slopes_examples():
    s = catalog.abs_shift(0.5, UNIT).endpoint_slopes()
    assert (s.at_lo, s.at_hi) == (-1.0, 1.0)
    s = catalog.shifted_square(0.0, UNIT).endpoint_slopes()
    assert (s.at_lo, s.at_hi) == (0.0, 2.0)
    s = catalog.neg_sqrt(UNIT).endpoint_slopes()
    assert s.at_lo == -INF
    assert s.at_hi == -0.5
    assert not s.both_finite


def test_sampled_oracle_agrees_with_closed_form():
    cases = [
        (catalog.shifted_square(0.0, UNIT), lambda t: 2.0 * t),
        (catalog.exponential(Interval(-1.0, 1.0)), math.exp),
        (catalog.t_log_t(Interval(0.5, 2.0)), lambda t: math.log(t) + 1.0),
    ]
    rng = random.Random(7)
    for f, dexact in cases:
        sampled = ConvexFunction.from_callable(f.fn, f.domain)
        assert not sampled.certified
        for _ in range(20):
            t = f.domain.lo + f.domain.width * rng.uniform(0.1, 0.9)
            assert sampled.right_derivative(t) == pytest.approx(dexact(t), abs=1e-6)
            assert sampled.left_derivative(t) == pytest.approx(dexact(t), abs=1e-6)


def test_difference_quotient_monotone_in_h():
    # the estimation routine's correctness basis
    rng = random.Random(3)
    f = catalog.exponential(Interval(-1.0, 2.0))
    for _ in range(50):
        t = rng.uniform(-1.0, 1.0)
        h1 = rng.uniform(1e-6, 0.3)
        h2 = rng.uniform(h1, 0.9)
        q1 = (f(t + h1) - f(t)) / h1
        q2 = (f(t + h2) - f(t)) / h2
        assert q1 <= q2 + 1e-12


def test_slope_monotonicity_across_catalog():
    rng = random.Random(11)
    functions = [
        catalog.shifted_square(0.3, UNIT),
        catalog.abs_shift(0.4, UNIT),
        catalog.hinge(0.6, UNIT),
        catalog.neg_log(Interval(0.2, 2.0)),
        catalog.power(3.0, Interval(0.0, 2.0)),
    ]
    for f in functions:
        pts = sorted(
            f.domain.lo + f.domain.width * rng.uniform(0.01, 0.99) for _ in range(30)
        )
        for s, t in zip(pts, pts[1:]):
            assert f.right_derivative(s) <= f.left_derivative(t)
            assert f.left_derivative(t) <= f.right_derivative(t)


def test_check_convexity_passes_convex():
    assert check_convexity(catalog.shifted_square(0.0, UNIT), tol=1e-12).ok
    assert check_convexity(catalog.abs_shift(0.0, Interval(-1.0, 1.0)), tol=1e-12).ok


def test_check_convexity_evaluates_each_grid_point_once():
    square = catalog.shifted_square(0.0, UNIT)
    calls = []

    def counted(t):
        calls.append(t)
        return square.fn(t)

    assert check_convexity(dataclasses.replace(square, fn=counted)) == check_convexity(square)
    # 129 grid values, 255 grid-pair midpoints, 129 random pairs of 3 values each
    assert len(calls) == 129 + 255 + 3 * 129


def test_check_convexity_allows_for_rounding_far_from_zero():
    # |f| ~ 1.8e11 rounds by ~3e-5, far above 1e-9 of the value spread
    narrow = Interval(423239.6893567201, 423239.68984358833)
    report = check_convexity(catalog.shifted_square(0.0, narrow))
    assert report.ok
    assert report.tol > 8 * math.ulp(423239.68984358833 ** 2)
    assert not check_convexity(ConvexFunction.from_callable(lambda t: -t * t, UNIT)).ok


def test_check_convexity_grid_holds_each_float_once():
    # [1, 1 + 2 ulp] holds three floats; the 129-point grid repeated them
    f = catalog.exponential(Interval(1.0, 1.0000000000000004))
    calls = []
    counted = dataclasses.replace(f, fn=lambda t: calls.append(t) or f.fn(t))
    assert check_convexity(counted).ok
    assert sorted(set(calls[:3])) == calls[:3] == [1.0, 1.0000000000000002, 1.0000000000000004]


def test_check_convexity_fails_sine_with_witness():
    f = ConvexFunction.from_callable(math.sin, Interval(0.0, 3.0))
    report = check_convexity(f, tol=1e-12)
    assert not report.ok
    assert report.worst_violation > 1e-3
    s, t = report.witness
    # witness pair actually violates midpoint convexity
    assert math.sin(0.5 * (s + t)) > 0.5 * (math.sin(s) + math.sin(t))
    with pytest.raises(NonConvexError) as exc_info:
        require_convex(f, tol=1e-12)
    assert exc_info.value.report.worst_violation == report.worst_violation


def test_check_convexity_rejects_non_finite_values():
    # an infinite constant, and a NaN at the grid point t = 0.5
    for fn in (lambda t: INF, lambda t: t * t + (math.nan if t == 0.5 else 0.0)):
        f = ConvexFunction.from_callable(fn, UNIT)
        with pytest.raises(DomainError, match="not finite"):
            check_convexity(f)
        with pytest.raises(DomainError, match="not finite"):
            require_convex(f)


def test_require_convex_on_black_box_affine():
    # estimation noise on an exactly affine black box must not flag
    f = ConvexFunction.from_callable(lambda t: 2.0 - 3.0 * t, Interval(-1.0, 4.0))
    assert require_convex(f).method == "sampled"


def test_require_convex_trusts_a_proof_without_evaluating():
    square = convex_function_from_expression("t*t", UNIT)[0]
    assert square.proved_convex
    calls = []

    def counted(t):
        calls.append(t)
        return square.fn(t)

    def refused(t):
        raise AssertionError("a proved function needs no slopes")

    report = require_convex(dataclasses.replace(square, fn=counted, dminus=refused,
                                                dplus=refused))
    assert calls == []
    assert report.ok and report.checks == 0 and report.method == "proved"
    # the sampled check stays pure sampling
    assert check_convexity(square).method == "sampled"
    assert check_convexity(square).checks > 0


def test_supporting_lines_hold_for_convex_functions():
    for f in (catalog.shifted_square(0.0, UNIT), catalog.abs_shift(0.5, UNIT),
              catalog.neg_sqrt(UNIT)):  # f'+(0) = -inf
        require_supporting_lines(f, (0.0, 0.5, 0.5, 1.0))


def test_supporting_lines_catch_a_dip_between_samples():
    # a dip 2e-3 wide at x: the line at x with slope f'+(x) = 2.008 predicts
    # f(1) >= 1.249, but f(1) = 1
    f = convex_function_from_expression("t*t-max(0,1e-3-abs(t-0.50413))", UNIT)[0]
    require_convex(f)  # the sampled check steps over the dip
    with pytest.raises(NonConvexError, match="support line"):
        require_supporting_lines(f, (0.0, 0.50413, 0.5, 1.0))


def test_scaled_and_add_affine_compose_exactly():
    f = catalog.abs_shift(0.25, UNIT).scaled(2.0).add_affine(-0.5, 1.0)
    # f(t) = 2|t - 1/4| - 1/2 + t
    assert f(0.25) == pytest.approx(-0.25)
    assert f.left_derivative(0.25) == pytest.approx(-1.0)
    assert f.right_derivative(0.25) == pytest.approx(3.0)
    anti = f.antiderivative
    width = anti(1.0) - anti(0.0)
    # integral: 2 * (0.25^2 + 0.75^2)/2 - 0.5 + 0.5 = 0.625
    assert width == pytest.approx(0.625, rel=1e-14)
    assert f.kinks == (0.25,)
    with pytest.raises(ValueError):
        f.scaled(-1.0)


def test_two_sided_derivative():
    f = catalog.shifted_square(0.0, UNIT)
    assert two_sided_derivative(f, 0.5) == 1.0
    with pytest.raises(NotDifferentiableError):
        two_sided_derivative(catalog.abs_shift(0.5, UNIT), 0.5)


def test_certified_requires_oracles():
    with pytest.raises(ValueError):
        ConvexFunction(domain=UNIT, fn=lambda t: t, certified=True)


# Every catalog factory, with the points where its jet could part from its
# oracles: the domain ends, the kink and the floats next to it.
_JET_CASES = [
    (catalog.power(2.0, Interval(0.0, 3.0)), ()),
    (catalog.power(1.0, Interval(0.0, 3.0)), ()),
    (catalog.power(3.5, Interval(0.0, 2.0)), ()),
    (catalog.power(-1.0, Interval(0.5, 4.0)), ()),
    (catalog.power(-2.0, Interval(0.3, 0.55)), ()),
    (catalog.neg_log(Interval(0.1, 5.0)), ()),
    (catalog.t_log_t(Interval(0.1, 5.0)), ()),
    (catalog.exponential(Interval(-2.0, 3.0)), ()),
    (catalog.abs_shift(0.3, UNIT), (0.3,)),
    (catalog.abs_shift(0.0, UNIT), (0.0,)),
    (catalog.hinge(0.7, Interval(-1.0, 2.0)), (0.7,)),
    (catalog.hinge(1.0, UNIT), (1.0,)),
    (catalog.affine(0.5, -2.0, Interval(-1.0, 1.0)), ()),
    (catalog.neg_sqrt(Interval(0.0, 2.0)), (0.0,)),
    (catalog.shifted_square(0.2, UNIT), (0.2,)),
    (catalog.centered_kink(Interval(-1.0, 3.0)), (1.0,)),
]


def _outcome(func, t):
    """float.hex of each of f, f'- and f'+ (signed zeros included), or the
    exception's type and message."""
    try:
        return tuple(float.hex(x) for x in func(t))
    except Exception as exc:
        return type(exc), str(exc)


def _jet_points(f, specials):
    lo, hi = f.domain.lo, f.domain.hi
    points = [lo, hi, f.domain.midpoint, math.nextafter(lo, INF), math.nextafter(hi, -INF)]
    for c in specials:
        points += [c, math.nextafter(c, -INF), math.nextafter(c, INF)]
    return points


def _adapter(f):
    """The three-oracle adapter of f."""
    return dataclasses.replace(f, jet=None).interior_jet()


@pytest.mark.parametrize("f, specials", _JET_CASES, ids=lambda c: getattr(c, "name", ""))
def test_catalog_jets_match_their_oracles(f, specials):
    assert f.jet is not None and f.interior_jet() is f.jet.call
    adapter = _adapter(f)
    for t in _jet_points(f, specials):
        assert _outcome(f.jet.call, t) == _outcome(adapter, t), (f.name, t)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(range(len(_JET_CASES))), st.floats(0.0, 1.0))
def test_catalog_jets_match_their_oracles_anywhere(case, u):
    f = _JET_CASES[case][0]
    t = min(f.domain.lo + u * f.domain.width, f.domain.hi)
    assert _outcome(f.jet.call, t) == _outcome(_adapter(f), t)


def test_a_jet_stands_only_for_the_oracles_it_fuses():
    f = catalog.exponential(UNIT)
    assert (f.jet.fn, f.jet.dminus, f.jet.dplus) == (f.fn, f.dminus, f.dplus)
    assert dataclasses.replace(f, domain=Interval(0.25, 0.5)).interior_jet() is f.jet.call
    assert dataclasses.replace(f, name="e^t").interior_jet() is f.jet.call
    double = lambda t: 2.0 * math.exp(t)
    for changed in ({"fn": double}, {"dminus": double}, {"dplus": double}):
        g = dataclasses.replace(f, **changed)
        assert g.interior_jet() is not f.jet.call
        assert g.interior_jet()(0.5) == (g.fn(0.5), g.dminus(0.5), g.dplus(0.5))
    # derived functions and black boxes have no jet: the adapter serves them
    assert f.scaled(2.0).jet is None and f.add_affine(1.0, 1.0).jet is None
    box = ConvexFunction.from_callable(math.exp, UNIT)
    assert box.interior_jet()(0.5) == (math.exp(0.5), box.left_derivative(0.5),
                                       box.right_derivative(0.5))
