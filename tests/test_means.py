import math
import random

import pytest

from convex_enclose import catalog
from convex_enclose.convex_core import Interval
from convex_enclose.errors import DomainError
from convex_enclose.extreal import INF
from convex_enclose.means import mean_comparison, special_means, verify_mean_inequalities
from convex_enclose.oracle import reference_integral
from convex_enclose.selftest import random_positive_interval


def test_affine_is_tight_on_both_sides():
    f = catalog.affine(0.0, 1.0, Interval(0.0, 2.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.lower == pytest.approx(0.5, rel=1e-13)
    assert comp.gap == pytest.approx(0.5, rel=1e-13)
    assert comp.upper == pytest.approx(0.5, rel=1e-13)


def test_square_worked_case():
    f = catalog.shifted_square(0.0, Interval(0.0, 2.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.lower == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert comp.gap == pytest.approx(1.0, rel=1e-12)
    assert comp.upper == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_full_interval_subinterval_gives_zero_gap():
    f = catalog.abs_shift(0.5, Interval(0.0, 1.0))
    comp = mean_comparison(f, Interval(0.0, 1.0))
    assert comp.gap == 0.0
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
    assert comp.lower <= comp.gap


def test_affine_double_tightness_fuzz():
    rng = random.Random(71)
    for _ in range(25):
        lo = rng.uniform(-2.0, 1.0)
        iv = Interval(lo, lo + rng.uniform(0.5, 3.0))
        f = catalog.affine(rng.uniform(-2, 2), rng.uniform(-3, 3), iv)
        c = rng.uniform(iv.lo, iv.hi - 0.1)
        sub = Interval(c, rng.uniform(c + 0.05, iv.hi))
        comp = mean_comparison(f, sub)
        scale = max(1.0, abs(comp.gap))
        assert abs(comp.lower - comp.gap) <= 1e-13 * scale
        assert abs(comp.upper - comp.gap) <= 1e-13 * scale


def test_sandwich_fuzz_over_positive_kernels():
    rng = random.Random(73)
    for _ in range(40):
        iv = random_positive_interval(rng)
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
        slack = 1e-10 * max(1.0, abs(comp.lower), abs(comp.gap), abs(comp.upper))
        assert comp.lower - slack <= comp.gap <= comp.upper + slack


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
        iv = random_positive_interval(rng)
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
        assert comp.lower <= comp.gap <= comp.upper
        assert comp.gap == pytest.approx(e.gap_closed_form, abs=1e-12 * max(1.0, abs(comp.gap)))


def test_verify_mean_inequalities_identical_intervals():
    entries = verify_mean_inequalities(1.0, 2.0, 1.0, 2.0, 2.0)
    for e in entries:
        assert e.comparison.gap == 0.0
        assert e.comparison.lower <= 0.0 <= e.comparison.upper
        assert e.gap_closed_form == pytest.approx(0.0, abs=1e-15)


def test_verify_mean_inequalities_validates_nesting():
    with pytest.raises(DomainError):
        verify_mean_inequalities(1.0, 2.0, 0.5, 1.5, 2.0)


def test_verify_mean_inequalities_rejects_non_finite_p():
    for p in (math.nan, INF, -INF):
        with pytest.raises(DomainError, match="finite p"):
            verify_mean_inequalities(0.5, 3.0, 1.0, 2.0, p)
