import math
import random

import pytest

from convex_enclose import catalog
from convex_enclose.convex_core import Interval
from convex_enclose.divergence import (
    DiscreteDistribution,
    hh_divergence,
    kernel_by_name,
)
from convex_enclose.errors import DomainError, OracleFailureError
from convex_enclose.oracle import (
    ADAPTIVE_SIMPSON,
    CLOSED_FORM,
    brute_force_hh,
    integrate_callable,
    reference_integral,
)
from convex_enclose.selftest import random_convex_case
from black_box import sampled_function

UNIT = Interval(0.0, 1.0)


def test_closed_form_square():
    res = reference_integral(catalog.shifted_square(0.0, UNIT))
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert res.method == CLOSED_FORM


def test_closed_form_splits_at_kink():
    res = reference_integral(catalog.abs_shift(0.3, UNIT))
    # (0.3^2 + 0.7^2) / 2
    assert res.value == pytest.approx(0.29, rel=1e-14)


def test_closed_form_exponential():
    res = reference_integral(catalog.exponential(UNIT))
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-15)


def test_subinterval_and_domain_check():
    f = catalog.shifted_square(0.0, Interval(0.0, 2.0))
    assert reference_integral(f, Interval(0.0, 1.0)).value == pytest.approx(1.0 / 3.0)
    with pytest.raises(DomainError):
        reference_integral(f, Interval(1.0, 3.0))


def test_simpson_path_matches_closed_forms():
    rng = random.Random(21)
    for _ in range(30):
        f = random_convex_case(rng)
        closed = reference_integral(f)
        numeric = reference_integral(f, method=ADAPTIVE_SIMPSON)
        assert numeric.method == ADAPTIVE_SIMPSON
        assert numeric.value == pytest.approx(closed.value, abs=1e-11 * max(1.0, abs(closed.value)))


def test_simpson_on_black_box_kink():
    f = sampled_function(lambda t: abs(t - 0.3), UNIT)
    res = reference_integral(f, tol=1e-12)
    assert res.method == ADAPTIVE_SIMPSON
    assert res.value == pytest.approx(0.29, abs=1e-11)


def test_oracle_methods_are_auto_and_simpson_only():
    # the closed form is taken whenever an antiderivative exists; it is a
    # result label, not a method a caller can force
    for f in (catalog.shifted_square(0.0, UNIT), sampled_function(lambda t: t * t, UNIT)):
        for method in (CLOSED_FORM, "simpson"):
            with pytest.raises(ValueError, match="unknown oracle method"):
                reference_integral(f, method=method)


def test_brute_force_hh_matches_closed_chi_square():
    p = DiscreteDistribution((0.5, 0.5))
    q = DiscreteDistribution((0.25, 0.75))
    assert brute_force_hh(kernel_by_name("chi2"), p, q) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_brute_force_hh_zero_for_equal_distributions():
    p = DiscreteDistribution((0.2, 0.3, 0.5))
    assert brute_force_hh(kernel_by_name("chi2"), p, p) == 0.0


def test_brute_force_hh_cross_checks_kl_kernel():
    p = DiscreteDistribution((0.5, 0.5))
    q = DiscreteDistribution((0.25, 0.75))
    kernel = kernel_by_name("kl")
    assert brute_force_hh(kernel, p, q) == pytest.approx(
        hh_divergence(kernel, p, q), abs=1e-10
    )


def test_adaptive_simpson_stops_at_rounding_noise():
    # values near 1e15 leave rounding noise far above tol in every panel; splitting
    # cannot shrink it, so the integrator must stop instead of splitting to the depth limit
    value = integrate_callable(lambda t: 1e12 * math.sqrt(t), 1.0, 1e6, 1e-10)
    assert value == pytest.approx(1e12 * (2.0 / 3.0) * (1e9 - 1.0), rel=1e-12)


def test_adaptive_simpson_fails_fast_on_overflow():
    with pytest.raises(OracleFailureError):
        integrate_callable(lambda t: 2.0 * t, -1e200, 0.5, 1e-10)
