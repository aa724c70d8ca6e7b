import dataclasses
import math
import random

import pytest

from convex_enclose import catalog
from convex_enclose.convex_core import ConvexFunction, Interval, check_convexity
from convex_enclose.errors import DomainError, InconsistentModelError
from convex_enclose.extreal import INF
from convex_enclose.oracle import reference_integral
from convex_enclose.probability import (
    cdf_enclosure,
    cdf_gap_enclosure,
    median_point_probability,
    model_from_density,
    power_density_model,
    step_density_model,
    uniform_model,
)
from convex_enclose.quadrature import midpoint_rule
from convex_enclose.selftest import random_density_model


def expectation_from_cdf(m):
    """Recover E(X) = b - integral of F via the reference oracle.

    Cross-checks the model's stored expectation; a mismatch beyond 1e-8
    means the density, CDF, and expectation do not belong together.
    """
    value = m.support.hi - reference_integral(m.cdf).value
    if abs(value - m.expectation) > 1e-8 * max(1.0, abs(m.expectation)):
        raise InconsistentModelError(f"expectation {m.expectation} vs cdf-derived {value}")
    return value


def test_uniform_gap_enclosure_has_zero_width():
    m = uniform_model(0.0, 1.0)
    rng = random.Random(3)
    for _ in range(20):
        x = rng.uniform(0.01, 0.99)
        enc = cdf_gap_enclosure(m, x)
        assert enc.width == 0.0
        assert enc.lo == pytest.approx(0.5 - x, rel=1e-13)


def test_uniform_cdf_enclosure_pins_the_value():
    m = uniform_model(0.0, 1.0)
    enc = cdf_enclosure(m, 0.3)
    assert enc.width == 0.0
    assert enc.lo == pytest.approx(0.3, rel=1e-13)


def test_linear_density_worked_case():
    # density 2t on [0, 1]: F(x) = x^2, E = 2/3
    m = power_density_model(1.0, 0.0, 1.0)
    assert m.expectation == pytest.approx(2.0 / 3.0, rel=1e-14)
    gap = cdf_gap_enclosure(m, 0.5)
    assert gap.as_tuple() == (0.0, 0.25)
    true_gap = 1.0 - m.expectation - 1.0 * m.cdf(0.5)
    assert true_gap == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert gap.contains(true_gap)

    enc = cdf_enclosure(m, 0.5)
    assert enc.lo == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert enc.hi == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert enc.contains(0.25)

    med = median_point_probability(m)
    assert med.as_tuple() == enc.as_tuple()


def test_step_density_worked_case():
    # 0 on [0, 1/2), 2 on (1/2, 1]
    m = step_density_model(0.0, 1.0, 0.5, 0.0)
    assert m.expectation == 0.75
    assert m.cdf(0.5) == 0.0
    assert m.cdf.left_derivative(0.5) == 0.0
    assert m.cdf.right_derivative(0.5) == 2.0
    gap = cdf_gap_enclosure(m, 0.5)
    assert gap.as_tuple() == (0.25, 0.25)
    enc = cdf_enclosure(m, 0.5)
    assert enc.as_tuple() == (0.0, 0.0)
    assert median_point_probability(m).as_tuple() == (0.0, 0.0)


def test_median_equals_cdf_enclosure_at_midpoint():
    rng = random.Random(5)
    for _ in range(12):
        m = random_density_model(rng)
        assert median_point_probability(m).as_tuple() == \
            cdf_enclosure(m, m.support.midpoint).as_tuple()


def test_endpoints_expose_only_the_upper_line():
    m = power_density_model(2.0, 0.0, 1.0)
    gap = cdf_gap_enclosure(m, 0.0)
    assert gap.lo == -INF
    assert math.isfinite(gap.hi)
    enc = cdf_enclosure(m, 0.0)
    assert enc.contains(0.0)
    assert cdf_enclosure(m, 1.0).contains(1.0)
    with pytest.raises(DomainError):
        cdf_gap_enclosure(m, 1.5)


def test_expectation_from_cdf():
    assert expectation_from_cdf(uniform_model(0.0, 1.0)) == pytest.approx(0.5, abs=1e-10)
    assert expectation_from_cdf(power_density_model(1.0, 0.0, 1.0)) == pytest.approx(
        2.0 / 3.0, abs=1e-10
    )
    assert expectation_from_cdf(step_density_model(0.0, 1.0, 0.5, 0.0)) == pytest.approx(
        0.75, abs=1e-10
    )


def test_expectation_mismatch_is_rejected():
    m = uniform_model(0.0, 1.0)
    broken = dataclasses.replace(m, expectation=0.75)
    with pytest.raises(InconsistentModelError):
        expectation_from_cdf(broken)


def test_decreasing_density_is_rejected():
    with pytest.raises(InconsistentModelError):
        model_from_density(lambda t: 2.0 - 2.0 * t, 0.0, 1.0)


def test_unnormalized_density_is_rejected():
    with pytest.raises(InconsistentModelError):
        model_from_density(lambda t: t, 0.0, 2.0)


@pytest.mark.parametrize("density, value", [
    (lambda t: 1e308 * t * 10, "inf"),
    (lambda t: 1e308 * t * 10 - 1e308 * t * 10 + 1, "nan"),
], ids=["inf", "nan"])
def test_non_finite_density_is_rejected_before_integrating(density, value):
    with pytest.raises(DomainError, match=rf"density\(0\.1875\) = {value} is not finite"):
        model_from_density(density, 0.0, 1.0)


def test_step_that_would_decrease_is_rejected():
    with pytest.raises(InconsistentModelError):
        step_density_model(0.0, 1.0, 0.5, 1.9)


def test_cdf_is_convex_for_all_families():
    rng = random.Random(7)
    for _ in range(8):
        m = random_density_model(rng)
        assert check_convexity(m.cdf).ok


def test_black_box_density_matches_closed_form():
    m = model_from_density(lambda t: 2.0 * t, 0.0, 1.0)
    assert not m.cdf.certified
    assert m.expectation == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert m.cdf(0.5) == pytest.approx(0.25, abs=1e-8)
    assert m.cdf.right_derivative(0.5) == pytest.approx(1.0, abs=1e-6)
    enc = cdf_enclosure(m, 0.5)
    assert enc.contains(0.25, slack=1e-6)


def test_continuous_density_is_checked_once_before_integrating():
    calls = []

    def falling(t):
        calls.append(t)
        return 2.0 - 2.0 * t

    with pytest.raises(InconsistentModelError):
        model_from_density(falling, 0.0, 1.0, continuous=True)
    assert len(calls) == 65  # the validation grid, and no integration
    m = model_from_density(lambda t: 2.0 * t, 0.0, 1.0, continuous=True)
    assert m.cdf.certified
    assert m.cdf.endpoint_slopes() == (0.0, 2.0)
    assert (m.cdf.left_derivative(0.25), m.cdf.right_derivative(0.25)) == (0.5, 0.5)
    assert median_point_probability(m).contains(0.25)


def test_density_is_never_called_outside_its_support():
    # ends with 3 decimals, as prob requests draw them; for some, a + (b - a) rounds above b.
    # Every uniform grid comes from Interval.grid: the density check's, the
    # convexity check's and midpoint_rule's; none may step past b.
    rng = random.Random(89)
    rounds_above = 0
    for _ in range(300):
        a = round(rng.uniform(0.0, 1.0), 3)
        b = round(a + rng.uniform(0.5, 2.0), 3)
        rounds_above += a + (b - a) > b
        calls = []
        model_from_density(lambda t: calls.append(t) or 1.0 / (b - a), a, b)
        assert a <= min(calls) and max(calls) <= b, (a, b)
        sup = Interval(a, b)
        for cells in (1, 64, 128):
            grid = sup.grid(cells)
            assert len(grid) == cells + 1 and grid[0] == a and grid[-1] == b, (a, b, cells)
            assert midpoint_rule(catalog.exponential(sup), cells).nodes[-1] == b, (a, b, cells)
        calls = []
        record = lambda g: lambda t: calls.append(t) or g(t)
        square = ConvexFunction(sup, fn=record(lambda t: t * t),
                                dminus=record(lambda t: 2.0 * t), dplus=record(lambda t: 2.0 * t))
        assert check_convexity(square).ok and a <= min(calls) and max(calls) <= b, (a, b)
    assert rounds_above > 0


def test_containment_fuzz():
    rng = random.Random(11)
    for _ in range(25):
        m = random_density_model(rng)
        for _ in range(8):
            x = m.support.lo + m.support.width * rng.uniform(0.02, 0.98)
            enc = cdf_enclosure(m, x)
            true = m.cdf(x)
            assert enc.contains(true, slack=1e-10)
