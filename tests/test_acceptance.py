"""End-to-end acceptance checks.

One test per criterion, each at its stated tolerance, each printing a
single PASS line (run with -s to see them).  The whole module is meant
to finish in well under a minute.
"""

import dataclasses
import math
import random

from convex_enclose import catalog
from convex_enclose.convex_core import Interval
from convex_enclose.divergence import (
    hh_divergence,
    hh_gap_bounds,
    hh_sandwich,
    kernel_by_name,
    lin_wong_divergence,
)
from convex_enclose.means import mean_comparison
from convex_enclose.oracle import ADAPTIVE_SIMPSON, reference_integral
from convex_enclose.pointwise import (
    hh_refinement,
    ostrowski_enclosure,
    ostrowski_lower,
    ostrowski_upper,
)
from convex_enclose.probability import (
    cdf_enclosure,
    cdf_gap_enclosure,
    median_point_probability,
    step_density_model,
    uniform_model,
)
from convex_enclose.quadrature import (
    integrate_adaptive,
    midpoint_rule,
    remainder_enclosure,
    riemann_sum,
)
from convex_enclose.selftest import (
    random_convex_case,
    random_density_model,
    random_distribution,
    random_interval,
    random_partition,
)
from identities import centered_kink, differentiable_lower_form, remainder_upper_by_node

UNIT = Interval(0.0, 1.0)


def rel_close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def slack_for(*values):
    finite = [abs(v) for v in values if math.isfinite(v)]
    return 1e-10 * max([1.0] + finite)


def random_kink_family(rng):
    a = rng.uniform(-3.0, 2.0)
    b = a + rng.uniform(0.4, 3.5)
    k = rng.uniform(0.1, 5.0)
    return centered_kink(Interval(a, b), k), k


def test_criterion_1_pointwise_sharpness():
    rng = random.Random(2024)
    for _ in range(20):
        f, k = random_kink_family(rng)
        a, b = f.domain.lo, f.domain.hi
        x = f.domain.midpoint
        true = reference_integral(f).value - (b - a) * f(x)
        assert rel_close(true, 0.25 * k * (b - a) ** 2, 1e-12)
        assert rel_close(ostrowski_lower(f, x), true, 1e-12)
        assert rel_close(ostrowski_upper(f, x), true, 1e-12)
    print("ACCEPTANCE 1 (sharpness of the pointwise constants): PASS")


def test_criterion_2_gap_sharpness():
    rng = random.Random(2025)
    for _ in range(20):
        f, k = random_kink_family(rng)
        a, b = f.domain.lo, f.domain.hi
        enc = hh_refinement(f)
        true_gap = reference_integral(f).value / (b - a) - f(f.domain.midpoint)
        assert enc.width == 0.0
        assert rel_close(enc.lo, true_gap, 1e-12)

        # the window gap: the integral over the middle half minus h f(x),
        # h times the Hermite-Hadamard gap of f restricted to the window
        h = 0.5 * (b - a)
        x = f.domain.midpoint
        window = Interval(x - 0.5 * h, x + 0.5 * h)
        wenc = hh_refinement(dataclasses.replace(f, domain=window))
        w_lo, w_hi = h * wenc.lo, h * wenc.hi
        true_window = reference_integral(f, window).value - h * f(x)
        assert w_hi - w_lo == 0.0
        assert rel_close(w_lo, true_window, 1e-12)
    print("ACCEPTANCE 2 (sharpness of the midpoint-gap constants): PASS")


def test_criterion_3_pointwise_containment():
    rng = random.Random(2026)
    for _ in range(1000):
        f = random_convex_case(rng)
        x = f.domain.lo + f.domain.width * rng.uniform(0.02, 0.98)
        enc = ostrowski_enclosure(f, x)
        gap = reference_integral(f).value - f.domain.width * f(x)
        assert enc.contains(gap, slack=slack_for(enc.lo, enc.hi, gap))
    print("ACCEPTANCE 3 (pointwise containment, 1000 fuzz cases): PASS")


def test_criterion_4_composite_containment():
    rng = random.Random(2027)
    for _ in range(500):
        f = random_convex_case(rng)
        part = random_partition(rng, f.domain, max_cells=32)
        enc = remainder_enclosure(f, part)
        remainder = reference_integral(f).value - riemann_sum(f, part)
        assert enc.contains(remainder, slack=slack_for(enc.lo, enc.hi, remainder))
        by_node = remainder_upper_by_node(f, part)
        if math.isinf(enc.hi) or math.isinf(by_node):
            assert enc.hi == by_node
        else:
            assert rel_close(by_node, enc.hi, 1e-12)
    for _ in range(100):
        f = random_convex_case(rng, smooth_only=True)
        part = random_partition(rng, f.domain, max_cells=32)
        lower = remainder_enclosure(f, part).lo
        assert rel_close(differentiable_lower_form(f, part), lower, 1e-12)
    print("ACCEPTANCE 4 (composite containment, regrouping, smooth lower form): PASS")


def test_criterion_5_midpoint_width_decay():
    sq = catalog.shifted_square(0.0, UNIT)
    for n in (1, 2, 3, 4, 5, 8, 16, 32, 64):
        width = midpoint_rule(sq, n).remainder.width
        assert rel_close(width, 1.0 / (4.0 * n * n), 1e-12)
    res = midpoint_rule(sq, 2)
    assert res.remainder.width == 0.0625
    assert res.remainder.contains(1.0 / 48.0)
    smooth = (
        catalog.shifted_square(0.0, UNIT),
        catalog.exponential(UNIT),
        catalog.neg_log(Interval(1.0, math.e)),
        catalog.power(3.0, Interval(0.0, 2.0)),
    )
    for f in smooth:
        for n in (1, 2, 4, 8, 16, 32):
            ratio = midpoint_rule(f, 2 * n).remainder.width / midpoint_rule(f, n).remainder.width
            assert abs(ratio - 0.25) <= 1e-9
    print("ACCEPTANCE 5 (midpoint enclosure width decay): PASS")


def test_criterion_6_adaptive_certificates():
    cases = [
        (catalog.exponential(UNIT), math.e - 1.0),
        (catalog.shifted_square(0.0, UNIT), 1.0 / 3.0),
        (catalog.neg_log(Interval(1.0, math.e)), -1.0),
        (catalog.abs_shift(0.3, UNIT), 0.29),
    ]
    for f, exact in cases:
        res = integrate_adaptive(f, tol=1e-6)
        assert res.width <= 1e-6
        assert res.cells <= 2**16
        assert res.integral_bounds.contains(exact, slack=1e-14)
    print("ACCEPTANCE 6 (adaptive certified integration): PASS")


def test_criterion_7_means_sandwich():
    rng = random.Random(2028)
    builders = [
        lambda iv: catalog.power(2.0, iv),
        lambda iv: catalog.power(3.0, iv),
        lambda iv: catalog.power(-0.5, iv),
        lambda iv: catalog.power(-1.0, iv),
        catalog.neg_log,
    ]
    for build in builders:
        for _ in range(200):
            iv = random_interval(rng, 0.05, 4.0, 0.2)
            f = build(iv)
            c = rng.uniform(iv.lo, iv.hi - 0.05)
            d = rng.uniform(c + 0.02, iv.hi)
            comp = mean_comparison(f, Interval(c, d))
            assert comp.gap.lo == comp.gap.hi
            slack = slack_for(comp.lower, comp.gap.lo, comp.upper)
            assert comp.lower - slack <= comp.gap.lo <= comp.upper + slack
    comp = mean_comparison(catalog.shifted_square(0.0, Interval(0.0, 2.0)), Interval(0.0, 1.0))
    assert rel_close(comp.lower, 1.0 / 3.0, 1e-12)
    assert comp.gap.lo == comp.gap.hi
    assert rel_close(comp.gap.lo, 1.0, 1e-12)
    assert rel_close(comp.upper, 7.0 / 3.0, 1e-12)
    print("ACCEPTANCE 7 (integral-means sandwich): PASS")


def test_criterion_8_probability_enclosures():
    rng = random.Random(2029)
    for _ in range(20):
        m = random_density_model(rng)
        for _ in range(50):
            x = m.support.lo + m.support.width * rng.uniform(0.02, 0.98)
            enc = cdf_enclosure(m, x)
            true = m.cdf(x)
            assert enc.contains(true, slack=slack_for(enc.lo, enc.hi, true))
    uniform = uniform_model(0.25, 1.75)
    for _ in range(50):
        x = rng.uniform(0.3, 1.7)
        assert cdf_gap_enclosure(uniform, x).width == 0.0
    step = step_density_model(0.0, 1.0, 0.5, 0.0)
    assert median_point_probability(step).as_tuple() == (0.0, 0.0)
    assert step.cdf(0.5) == 0.0
    print("ACCEPTANCE 8 (cdf and median-probability enclosures): PASS")


def test_criterion_9_divergence_sandwich_and_gap():
    rng = random.Random(2030)
    kernels = [kernel_by_name(name) for name in ("chi2", "kl", "tv", "reverse_kl")]
    for _ in range(500):
        size = rng.randint(2, 16)
        p = random_distribution(rng, size)
        q = random_distribution(rng, size)
        for kernel in kernels:
            triple = hh_sandwich(kernel, p, q)
            slack = slack_for(triple.lin_wong, triple.hh, triple.half_csiszar)
            assert triple.lin_wong <= triple.hh + slack
            assert triple.hh <= triple.half_csiszar + slack
            bounds = hh_gap_bounds(kernel, p, q)
            gap = triple.hh - triple.lin_wong
            assert bounds.contains(gap, slack=slack_for(bounds.lo, bounds.hi, gap))

    from convex_enclose.divergence import DiscreteDistribution, csiszar_divergence

    p = DiscreteDistribution((0.5, 0.5))
    q = DiscreteDistribution((0.25, 0.75))
    chi2 = kernel_by_name("chi2")
    assert rel_close(csiszar_divergence(chi2, p, q), 0.25, 1e-12)
    assert rel_close(lin_wong_divergence(chi2, p, q), 0.0625, 1e-12)
    assert rel_close(hh_divergence(chi2, p, q), 1.0 / 12.0, 1e-12)
    bounds = hh_gap_bounds(chi2, p, q)
    assert bounds.lo == 0.0
    assert rel_close(bounds.hi, 0.0625, 1e-12)

    shifted = kernel_by_name("shifted_abs")
    gap = hh_divergence(shifted, p, q) - lin_wong_divergence(shifted, p, q)
    assert rel_close(gap, 1.0 / 16.0, 1e-12)
    tight = hh_gap_bounds(shifted, p, q)
    assert rel_close(tight.lo, 1.0 / 16.0, 1e-12)
    assert rel_close(tight.hi, 1.0 / 16.0, 1e-12)
    print("ACCEPTANCE 9 (divergence sandwich and gap enclosure): PASS")


def test_criterion_10_oracle_independence():
    rng = random.Random(2031)
    for _ in range(100):
        f = random_convex_case(rng)
        closed = reference_integral(f)
        numeric = reference_integral(f, method=ADAPTIVE_SIMPSON)
        assert closed.method == "closed-form"
        assert numeric.method == "adaptive-simpson"
        assert abs(closed.value - numeric.value) <= 1e-11 * max(1.0, abs(closed.value))
    print("ACCEPTANCE 10 (closed-form vs adaptive-Simpson oracle agreement): PASS")
