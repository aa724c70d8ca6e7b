import dataclasses
import math
import random

import pytest

from convex_enclose import catalog
from convex_enclose.convex_core import Interval
from convex_enclose.errors import (
    DomainError,
    InternalInconsistencyError,
    NumericalFailureError,
    UnboundedSlopeError,
)
from convex_enclose.extreal import INF
from convex_enclose.oracle import reference_integral
from convex_enclose.pointwise import (
    Enclosure,
    classical_ostrowski_bound,
    hh_refinement,
    ostrowski_enclosure,
    ostrowski_lower,
    ostrowski_upper,
)
from convex_enclose.selftest import random_convex_case
from identities import (
    DegenerateSlopesError,
    NotDifferentiableError,
    centered_kink,
    differentiable_lower,
    quadratic_form_upper,
)

UNIT = Interval(0.0, 1.0)


def oracle_gap(f, x):
    return reference_integral(f).value - f.domain.width * f(x)


def test_enclosure_invariants():
    e = Enclosure(1.0, 2.5)
    assert e.width == 1.5
    assert e.contains(2.0)
    assert not e.contains(3.0)
    assert e.contains(2.5 + 1e-12, slack=1e-11)
    assert Enclosure(0.0, INF).width == INF
    with pytest.raises(InternalInconsistencyError):
        Enclosure(2.0, 1.0)


def test_enclosure_of_no_real_number_is_a_numerical_failure():
    # a bound that overflowed: [inf, inf] or [-inf, -inf] holds no real number
    for lo, hi in ((INF, INF), (-INF, -INF)):
        with pytest.raises(NumericalFailureError, match="holds no real number"):
            Enclosure(lo, hi)
    assert Enclosure(-INF, INF).width == INF
    assert Enclosure(-INF, 0.0).as_tuple() == (-INF, 0.0)


def test_enclosure_is_an_immutable_value():
    e = Enclosure(1, hi=2.5)
    assert type(e.lo) is float
    assert e == Enclosure(1.0, 2.5) and hash(e) == hash(Enclosure(1.0, 2.5))
    assert e != Enclosure(1.0, 3.0) and e != (1.0, 2.5)
    assert repr(e) == "Enclosure(lo=1.0, hi=2.5)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.lo = 0.0
    assert not hasattr(e, "__dict__")


def test_lower_bound_examples():
    kink = catalog.abs_shift(0.5, UNIT)
    assert ostrowski_lower(kink, 0.5) == 0.25
    assert oracle_gap(kink, 0.5) == pytest.approx(0.25, rel=1e-14)

    aff = catalog.affine(0.0, 1.0, UNIT)
    assert ostrowski_lower(aff, 0.3) == pytest.approx(0.2, rel=1e-14)
    assert oracle_gap(aff, 0.3) == pytest.approx(0.2, rel=1e-14)

    sq = catalog.shifted_square(0.0, UNIT)
    assert ostrowski_lower(sq, 0.5) == 0.0
    assert oracle_gap(sq, 0.5) == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_lower_bound_requires_interior_x():
    f = catalog.shifted_square(0.0, UNIT)
    with pytest.raises(DomainError):
        ostrowski_lower(f, 0.0)
    with pytest.raises(DomainError):
        ostrowski_lower(f, 1.0)


def test_upper_bound_examples():
    assert ostrowski_upper(catalog.abs_shift(0.5, UNIT), 0.5) == 0.25
    sq = catalog.shifted_square(0.0, UNIT)
    assert ostrowski_upper(sq, 0.5) == 0.25
    assert oracle_gap(sq, 0.5) <= 0.25
    # infinite endpoint slope propagates
    assert ostrowski_upper(catalog.neg_sqrt(UNIT), 0.5) == INF
    # valid on the closed interval
    assert ostrowski_upper(sq, 0.0) == 1.0


def test_enclosure_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    enc = ostrowski_enclosure(sq, 0.5)
    assert enc.as_tuple() == (0.0, 0.25)
    assert enc.contains(1.0 / 12.0)
    kink = catalog.abs_shift(0.5, UNIT)
    assert ostrowski_enclosure(kink, 0.5).as_tuple() == (0.25, 0.25)


def test_affine_enclosure_has_zero_width():
    rng = random.Random(5)
    for _ in range(25):
        lo = rng.uniform(-3.0, 1.0)
        f = catalog.affine(rng.uniform(-2, 2), rng.uniform(-3, 3), Interval(lo, lo + rng.uniform(0.5, 3)))
        x = f.domain.lo + f.domain.width * rng.uniform(0.05, 0.95)
        enc = ostrowski_enclosure(f, x)
        assert enc.width <= 1e-14 * max(1.0, abs(enc.lo))


def test_hh_refinement_examples():
    assert hh_refinement(catalog.abs_shift(0.5, UNIT)).as_tuple() == (0.25, 0.25)
    enc = hh_refinement(catalog.shifted_square(0.0, UNIT))
    assert enc.as_tuple() == (0.0, 0.25)
    # true mean gap 1/3 - 1/4
    assert enc.contains(1.0 / 12.0)
    assert hh_refinement(catalog.affine(2.0, -1.0, UNIT)).as_tuple() == (0.0, 0.0)
    assert hh_refinement(catalog.neg_sqrt(UNIT)).hi == INF


def test_hh_refinement_nonnegative_lower():
    rng = random.Random(13)
    for _ in range(50):
        f = random_convex_case(rng)
        enc = hh_refinement(f)
        assert enc.lo >= 0.0
        assert enc.hi >= enc.lo


def test_hh_chain_against_oracle():
    rng = random.Random(17)
    for _ in range(50):
        f = random_convex_case(rng)
        mean = reference_integral(f).value / f.domain.width
        mid = f(f.domain.midpoint)
        ends = 0.5 * (f(f.domain.lo) + f(f.domain.hi))
        slack = 1e-12 * max(1.0, abs(mean), abs(mid), abs(ends))
        assert mid <= mean + slack
        assert mean <= ends + slack


def test_differentiable_lower_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    assert differentiable_lower(sq, 0.25) == pytest.approx(0.125, rel=1e-14)
    mean_gap = reference_integral(sq).value - sq(0.25)
    assert mean_gap == pytest.approx(1.0 / 3.0 - 1.0 / 16.0, rel=1e-13)
    assert differentiable_lower(sq, 0.25) <= mean_gap

    assert differentiable_lower(sq, 0.5) == 0.0

    ex = catalog.exponential(UNIT)
    assert differentiable_lower(ex, 0.25) == pytest.approx(0.25 * math.exp(0.25), rel=1e-14)
    assert differentiable_lower(ex, 0.25) <= math.e - 1.0 - math.exp(0.25)

    with pytest.raises(NotDifferentiableError):
        differentiable_lower(catalog.abs_shift(0.5, UNIT), 0.5)


def test_quadratic_form_matches_upper_bound():
    kink = catalog.abs_shift(0.5, UNIT)
    assert quadratic_form_upper(kink, 0.5) == pytest.approx(0.25, rel=1e-14)
    sq = catalog.shifted_square(0.0, UNIT)
    assert quadratic_form_upper(sq, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert quadratic_form_upper(sq, 0.0) == pytest.approx(1.0, rel=1e-14)

    rng = random.Random(23)
    for _ in range(20):
        f = random_convex_case(rng, finite_slopes=True)
        at_lo, at_hi = f.endpoint_slopes()
        if at_hi == at_lo:
            continue
        for _ in range(5):
            x = f.domain.lo + f.domain.width * rng.random()
            qf = quadratic_form_upper(f, x)
            ub = ostrowski_upper(f, x)
            assert qf == pytest.approx(ub, abs=1e-12 * max(1.0, abs(ub)))

    with pytest.raises(DegenerateSlopesError):
        quadratic_form_upper(catalog.affine(0.0, 1.0, UNIT), 0.5)


def test_classical_bound_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    assert classical_ostrowski_bound(sq, 0.5) == pytest.approx(0.5, rel=1e-14)
    assert abs(sq(0.5) - reference_integral(sq).value) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert classical_ostrowski_bound(sq, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert classical_ostrowski_bound(catalog.affine(0.0, 1.0, UNIT), 0.5) == pytest.approx(0.25)
    with pytest.raises(UnboundedSlopeError):
        classical_ostrowski_bound(catalog.neg_sqrt(UNIT), 0.5)


def test_classical_bound_contains_true_deviation():
    rng = random.Random(31)
    for _ in range(40):
        f = random_convex_case(rng, finite_slopes=True)
        mean = reference_integral(f).value / f.domain.width
        x = f.domain.lo + f.domain.width * rng.random()
        bound = classical_ostrowski_bound(f, x)
        assert abs(f(x) - mean) <= bound + 1e-10 * max(1.0, bound)


def test_sharpness_family():
    rng = random.Random(37)
    for _ in range(5):
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 3.0)
        k = rng.uniform(0.2, 4.0)
        f = centered_kink(Interval(a, b), k)
        x = f.domain.midpoint
        true = oracle_gap(f, x)
        lo = ostrowski_lower(f, x)
        hi = ostrowski_upper(f, x)
        assert lo == hi
        assert lo == pytest.approx(true, rel=1e-12)
        assert lo == pytest.approx(0.25 * k * (b - a) ** 2, rel=1e-12)


def test_containment_fuzz():
    rng = random.Random(41)
    for _ in range(100):
        f = random_convex_case(rng)
        x = f.domain.lo + f.domain.width * rng.uniform(0.03, 0.97)
        enc = ostrowski_enclosure(f, x)
        gap = oracle_gap(f, x)
        finite = [abs(v) for v in (enc.lo, enc.hi, gap) if math.isfinite(v)]
        assert enc.contains(gap, slack=1e-10 * max([1.0] + finite))
