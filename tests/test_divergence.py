import math
import random
from dataclasses import replace

import pytest

from convex_enclose import divergence
from convex_enclose.convex_core import ConvexFunction, Interval
from convex_enclose.divergence import (
    POSITIVE_AXIS,
    DiscreteDistribution,
    csiszar_divergence,
    hh_divergence,
    hh_gap_bounds,
    hh_sandwich,
    kernel_by_name,
    lin_wong_divergence,
)
from convex_enclose.errors import (
    DomainError,
    InternalInconsistencyError,
    InvalidDistributionError,
    NumericalFailureError,
)
from convex_enclose.expressions import convex_function_from_expression
from convex_enclose.oracle import brute_force_hh
from convex_enclose.quadrature import integrate_adaptive
from convex_enclose.selftest import random_distribution
from black_box import counting_copy, sampled_function
from identities import (
    csiszar_by_atom,
    gap_bounds_by_atom,
    lin_wong_by_atom,
    sandwich_by_atom,
)

P = DiscreteDistribution((0.5, 0.5))
Q = DiscreteDistribution((0.25, 0.75))
ALL_KERNELS = [kernel_by_name(name) for name in ("chi2", "kl", "tv", "reverse_kl")]


def test_distribution_validation():
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution(())
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution((0.5, 0.5, 0.1))
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution((1.0, 0.0))
    with pytest.raises(InvalidDistributionError):
        DiscreteDistribution((1.5, -0.5))


@pytest.mark.parametrize("weights, error, message", [
    ((), InvalidDistributionError, "empty weight vector"),
    ((math.nan, 0.5, 0.5), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((0.5, 0.5, math.nan), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((0.5, -1.0, math.nan), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((math.inf, 0.5), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((0.5, -math.inf, 0.5), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((0.0, 1.0), InvalidDistributionError, "weights must be finite and strictly positive"),
    ((1.5, -0.5), InvalidDistributionError, "weights must be finite and strictly positive"),
    (("x", 1.0), ValueError, "could not convert string to float: 'x'"),
    ((0.5, 0.6), InvalidDistributionError, "weights sum to 1.1, not 1"),
])
def test_distribution_errors_keep_their_class_and_message(weights, error, message):
    with pytest.raises(error) as exc_info:
        DiscreteDistribution(weights)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


def test_alphabet_mismatch():
    with pytest.raises(InvalidDistributionError):
        csiszar_divergence(kernel_by_name("chi2"), P, DiscreteDistribution((0.2, 0.3, 0.5)))


def test_custom_kernel_must_hold_one_and_every_ratio():
    # on [0.5, 2] the kernel is (t - 1)^2; below 0.5 its formula is not
    # convex, and q_1/p_1 = 0.1 lies there
    kernel = convex_function_from_expression("(t-1)^2 - 3*max(0, 0.5-t)", Interval(0.5, 2.0))[0]
    p, q = DiscreteDistribution((0.5, 0.5)), DiscreteDistribution((0.05, 0.95))
    for divergence_fn in (hh_gap_bounds, hh_sandwich, csiszar_divergence, lin_wong_divergence,
                          hh_divergence, brute_force_hh):
        with pytest.raises(DomainError, match="must hold 1 and every q_i/p_i"):
            divergence_fn(kernel, p, q)
    # a domain that holds every ratio but not 1
    with pytest.raises(DomainError, match="here 0.1 to 1.9"):
        hh_gap_bounds(replace(kernel_by_name("chi2"), domain=Interval(0.05, 0.9)), p, q)
    # where it holds them, the kernel is chi2's (t - 1)^2
    assert hh_gap_bounds(kernel, P, Q) == hh_gap_bounds(kernel_by_name("chi2"), P, Q)
    assert hh_sandwich(kernel, P, Q).lin_wong == hh_sandwich(kernel_by_name("chi2"), P, Q).lin_wong


def test_kernel_registry():
    assert kernel_by_name("chi2").name == "chi2"
    with pytest.raises(ValueError):
        kernel_by_name("nope")


def test_kernel_must_vanish_at_one():
    bad = ConvexFunction(domain=POSITIVE_AXIS, fn=lambda t: t, dminus=lambda t: 1.0,
                         dplus=lambda t: 1.0, name="bad")
    with pytest.raises(ValueError):
        hh_sandwich(bad, P, Q)


def test_csiszar_examples():
    assert csiszar_divergence(kernel_by_name("chi2"), P, Q) == pytest.approx(0.25, rel=1e-14)
    # sum p f(q/p) for f = t ln t equals (1/4)ln(1/2) + (3/4)ln(3/2)
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert csiszar_divergence(kernel_by_name("kl"), P, Q) == pytest.approx(expected, rel=1e-14)
    for kernel in ALL_KERNELS:
        assert csiszar_divergence(kernel, P, P) == pytest.approx(0.0, abs=1e-15)


def test_lin_wong_examples():
    assert lin_wong_divergence(kernel_by_name("chi2"), P, Q) == pytest.approx(0.0625, rel=1e-14)
    shifted_abs = kernel_by_name("shifted_abs")
    assert lin_wong_divergence(shifted_abs, P, Q) == pytest.approx(0.0, abs=1e-15)
    for kernel in ALL_KERNELS:
        assert lin_wong_divergence(kernel, P, P) == pytest.approx(0.0, abs=1e-15)


def test_hh_examples():
    assert hh_divergence(kernel_by_name("chi2"), P, Q) == pytest.approx(1.0 / 12.0, rel=1e-13)
    shifted_abs = kernel_by_name("shifted_abs")
    assert hh_divergence(shifted_abs, P, Q) == pytest.approx(1.0 / 16.0, rel=1e-13)
    for kernel in ALL_KERNELS:
        assert hh_divergence(kernel, P, P) == pytest.approx(0.0, abs=1e-15)


def test_hh_quadrature_fallback_matches_closed_form():
    closed = kernel_by_name("chi2")
    numeric = replace(closed, name="chi2-numeric", antiderivative=None)
    want = hh_divergence(closed, P, Q)
    got = hh_divergence(numeric, P, Q)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("name", ["chi2", "kl"])
def test_hh_quadrature_fallback_is_bounded(name, monkeypatch):
    # an absolute tolerance of 1e-12 is out of reach on such atoms (BudgetExceededError)
    cells = []

    def integrate(f, tol):
        result = integrate_adaptive(f, tol)
        cells.append(result.cells)
        return result
    monkeypatch.setattr(divergence, "integrate_adaptive", integrate)
    closed = kernel_by_name(name)
    numeric = replace(closed, antiderivative=None)
    rng = random.Random(7)
    for _ in range(2):
        size = rng.randint(2, 4)
        p, q = random_distribution(rng, size), random_distribution(rng, size)
        want = hh_divergence(closed, p, q)
        assert hh_divergence(numeric, p, q) == pytest.approx(want, rel=1e-10, abs=0.0)
    assert max(cells) < 2000


def test_sandwich_worked_case():
    triple = hh_sandwich(kernel_by_name("chi2"), P, Q)
    assert triple.lin_wong == pytest.approx(0.0625, rel=1e-14)
    assert triple.hh == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert triple.half_csiszar == pytest.approx(0.125, rel=1e-14)


def test_sandwich_rejects_non_convex_kernel():
    concave = ConvexFunction(domain=POSITIVE_AXIS, fn=lambda t: -((t - 1.0) ** 2),
                             dminus=lambda t: -2.0 * (t - 1.0),
                             dplus=lambda t: -2.0 * (t - 1.0),
                             antiderivative=lambda t: -((t - 1.0) ** 3) / 3.0,
                             name="concave")
    with pytest.raises(InternalInconsistencyError):
        hh_sandwich(concave, P, Q)


@pytest.mark.parametrize("kernel, tiny", [("tv", 1e-300), ("kl", 1e-300), ("tv", 5e-324)])
def test_sandwich_rejects_values_beyond_the_float_range(kernel, tiny):
    # all three are finite for positive weights; here q_i / p_i overflows
    p, q = DiscreteDistribution((tiny, 1.0)), DiscreteDistribution((0.5, 0.5))
    with pytest.raises(NumericalFailureError, match="exceeds the float range") as exc_info:
        hh_sandwich(kernel_by_name(kernel), p, q)
    assert not isinstance(exc_info.value, InternalInconsistencyError)


@pytest.mark.parametrize("name", ["chi2", "kl"])
def test_gap_bounds_enclose_an_overflowed_ratio_by_zero_and_inf(name):
    # q_1 / p_1 and m_1 overflow, and the slopes there are inf; the kernel
    # is differentiable, so no slope at m_1 is read and [0, inf] encloses
    p, q = DiscreteDistribution((1e-310, 1.0)), DiscreteDistribution((0.5, 0.5))
    assert hh_gap_bounds(kernel_by_name(name), p, q).as_tuple() == (0.0, math.inf)


def test_gap_bounds_worked_cases():
    enc = hh_gap_bounds(kernel_by_name("chi2"), P, Q)
    assert enc.as_tuple() == (0.0, 0.0625)
    true_gap = hh_divergence(kernel_by_name("chi2"), P, Q) - lin_wong_divergence(
        kernel_by_name("chi2"), P, Q
    )
    assert true_gap == pytest.approx(1.0 / 48.0, rel=1e-13)
    assert enc.contains(true_gap)

    # doubly tight kinked case
    enc = hh_gap_bounds(kernel_by_name("shifted_abs"), P, Q)
    assert enc.lo == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert enc.hi == pytest.approx(1.0 / 16.0, rel=1e-14)

    assert hh_gap_bounds(kernel_by_name("kl"), P, P).as_tuple() == (0.0, 0.0)


def test_gap_upper_bound_uses_cell_slopes_below_one():
    # tv is affine on each cell between 1 and q_i/p_i, so the gap is 0 and
    # the sharp bound is [0, 0]; the atom with q_i < p_i lives on [r, 1]
    tv = kernel_by_name("tv")
    assert hh_gap_bounds(tv, P, Q).as_tuple() == (0.0, 0.0)
    true_gap = hh_divergence(tv, P, Q) - lin_wong_divergence(tv, P, Q)
    assert true_gap == 0.0

    # the worked cases against their true gaps, now with q_i < p_i atoms
    # on both sides: swapping p and q mirrors every cell
    for kernel in (kernel_by_name("chi2"), kernel_by_name("shifted_abs"), tv):
        for p, q in ((P, Q), (Q, P)):
            enc = hh_gap_bounds(kernel, p, q)
            gap = hh_divergence(kernel, p, q) - lin_wong_divergence(kernel, p, q)
            assert enc.contains(gap, slack=1e-15)
    assert hh_gap_bounds(kernel_by_name("chi2"), Q, P).lo == 0.0


def test_gap_bounds_accept_a_kernel_with_sampled_slopes():
    sampled = sampled_function(lambda t: (t - 1.0) ** 2, Interval(0.1, 10.0))
    got = hh_gap_bounds(sampled, P, Q)
    want = hh_gap_bounds(kernel_by_name("chi2"), P, Q)
    assert got.lo == pytest.approx(want.lo, abs=1e-7)
    assert got.hi == pytest.approx(want.hi, rel=1e-7)


@pytest.mark.parametrize("name, fn", [("chi2", lambda t: (t - 1.0) ** 2),
                                      ("kl", lambda t: t * math.log(t))])
def test_gap_bounds_accept_a_sampled_kernel_on_the_positive_axis(name, fn):
    # the sampled slopes must probe near t even though the domain is ~1e308 wide
    sampled = sampled_function(fn, POSITIVE_AXIS)
    got = hh_gap_bounds(sampled, P, Q)
    want = hh_gap_bounds(kernel_by_name(name), P, Q)
    assert got.lo == pytest.approx(want.lo, abs=1e-7)
    assert got.hi == pytest.approx(want.hi, rel=1e-7)


def test_differentiable_kernels_have_zero_lower_gap():
    rng = random.Random(17)
    for kernel in (kernel_by_name("chi2"), kernel_by_name("kl"), kernel_by_name("reverse_kl")):
        for _ in range(10):
            size = rng.randint(2, 8)
            p = random_distribution(rng, size)
            q = random_distribution(rng, size)
            assert hh_gap_bounds(kernel, p, q).lo == 0.0


def test_upper_bound_shift_invariance():
    # sum(q - p) = 0, so the slopes at 1 enter only through their jump there
    rng = random.Random(19)
    for kernel in ALL_KERNELS:
        jump_at_one = kernel.dplus(1.0) - kernel.dminus(1.0)
        for _ in range(15):
            size = rng.randint(2, 10)
            p = random_distribution(rng, size)
            q = random_distribution(rng, size)
            with_shift = hh_gap_bounds(kernel, p, q).hi
            inner = [kernel.dminus(qi / pi) if qi >= pi else kernel.dplus(qi / pi)
                     for pi, qi in zip(p, q)]
            raw = 0.125 * (
                math.fsum(d * (qi - pi) for d, pi, qi in zip(inner, p, q))
                - jump_at_one * math.fsum(pi - qi for pi, qi in zip(p, q) if qi < pi)
            )
            assert with_shift == pytest.approx(raw, abs=1e-12 * max(1.0, abs(raw)))


def test_sandwich_and_gap_fuzz():
    rng = random.Random(23)
    for _ in range(60):
        size = rng.randint(2, 16)
        p = random_distribution(rng, size)
        q = random_distribution(rng, size)
        for kernel in ALL_KERNELS:
            triple = hh_sandwich(kernel, p, q)
            slack = 1e-10 * max(1.0, abs(triple.lin_wong), abs(triple.half_csiszar))
            assert triple.lin_wong <= triple.hh + slack
            assert triple.hh <= triple.half_csiszar + slack
            assert csiszar_divergence(kernel, p, q) >= -slack
            gap = triple.hh - triple.lin_wong
            assert gap >= -slack
            bounds = hh_gap_bounds(kernel, p, q)
            assert bounds.lo >= 0.0
            assert bounds.contains(gap, slack=slack)


def _hex(values):
    return [v.hex() for v in values]


def _assert_matches_per_atom_loops(kernel, p, q):
    triple = hh_sandwich(kernel, p, q)
    got = (triple.lin_wong, triple.hh, triple.half_csiszar)
    assert _hex(got) == _hex(sandwich_by_atom(kernel, p, q))
    assert _hex(hh_gap_bounds(kernel, p, q).as_tuple()) == _hex(
        gap_bounds_by_atom(kernel, p, q).as_tuple())


@pytest.mark.parametrize("name", sorted(divergence.KERNELS))
def test_passes_match_the_per_atom_loops_bit_for_bit(name):
    kernel = kernel_by_name(name)
    rng = random.Random(f"passes:{name}")
    for size in (2, 3, 5, 8, 16, 33, 64):
        p, q = random_distribution(rng, size), random_distribution(rng, size)
        _assert_matches_per_atom_loops(kernel, p, q)
        _assert_matches_per_atom_loops(kernel, p, p)  # every m_i and r_i is 1
    # atoms with p_i = q_i among others
    p = DiscreteDistribution((0.25, 0.25, 0.5))
    _assert_matches_per_atom_loops(kernel, p, DiscreteDistribution((0.25, 0.375, 0.375)))


def test_passes_match_the_per_atom_loops_without_an_antiderivative():
    kernel = replace(kernel_by_name("kl"), antiderivative=None)
    rng = random.Random(29)
    for size in (2, 3):
        p, q = random_distribution(rng, size), random_distribution(rng, size)
        _assert_matches_per_atom_loops(kernel, p, q)


def test_mixture_ratios_at_a_kink_match_the_per_atom_loops():
    # m_i = (0.25 + 0.375) / 0.5 = 1.25 exactly, the kink of shifted_abs
    p = DiscreteDistribution((0.25, 0.25, 0.5))
    q = DiscreteDistribution((0.375, 0.375, 0.25))
    shifted_abs = kernel_by_name("shifted_abs")
    _assert_matches_per_atom_loops(shifted_abs, p, q)
    assert hh_gap_bounds(shifted_abs, p, q).lo == 0.0625
    # tv's kink is 1, the mixture ratio of an atom with p_i = q_i
    _assert_matches_per_atom_loops(kernel_by_name("tv"), p, DiscreteDistribution((0.25, 0.5, 0.25)))


def test_sampled_kernel_reads_its_upper_slopes_as_the_per_atom_loop():
    # a sampled kernel declares no kinks: its lower bound is 0, where the
    # loop's slope estimates at the mixture ratios leave noise of 1e-9
    sampled = sampled_function(lambda t: (t - 1.0) ** 2, Interval(0.1, 10.0))
    rng = random.Random(31)
    for size in (2, 5, 9):
        p, q = random_distribution(rng, size), random_distribution(rng, size)
        assert csiszar_divergence(sampled, p, q).hex() == csiszar_by_atom(sampled, p, q).hex()
        assert lin_wong_divergence(sampled, p, q).hex() == lin_wong_by_atom(sampled, p, q).hex()
        got, want = hh_gap_bounds(sampled, p, q), gap_bounds_by_atom(sampled, p, q)
        assert got.hi.hex() == want.hi.hex()
        assert got.lo == 0.0
        assert want.lo == pytest.approx(0.0, abs=1e-7)


def _logged(kernel):
    """kernel whose slope oracles record where they are read."""
    points = []

    def logged(oracle):
        def read(t):
            points.append(t)
            return oracle(t)
        return read
    return replace(kernel, dminus=logged(kernel.dminus), dplus=logged(kernel.dplus)), points


@pytest.mark.parametrize("name", ["chi2", "kl", "reverse_kl"])
def test_gap_bounds_read_one_slope_per_atom_without_kinks(name):
    kernel, points = _logged(kernel_by_name(name))
    counted, calls = counting_copy(kernel)
    p, q = random_distribution(random.Random(37), 12), random_distribution(random.Random(41), 12)
    hh_gap_bounds(counted, p, q)
    assert calls["dminus"] + calls["dplus"] == len(p) + 2
    assert calls["fn"] == 0
    # f'-(1), f'+(1) and one slope at each r_i, none at an m_i
    assert sorted(points) == sorted([1.0, 1.0, *(qi / pi for pi, qi in zip(p, q))])


def test_gap_bounds_read_tv_slopes_at_a_mixture_ratio_only_at_its_kink():
    kernel, points = _logged(kernel_by_name("tv"))
    counted, calls = counting_copy(kernel)
    p = DiscreteDistribution((0.25, 0.25, 0.5))
    q = DiscreteDistribution((0.25, 0.375, 0.375))  # m_i = 1 for the first atom only
    hh_gap_bounds(counted, p, q)
    # f'-(1), f'+(1), one slope per atom at r_i, and both slopes at m_1 = 1
    assert calls["dminus"] + calls["dplus"] == 2 + 3 + 2
    assert sorted(points) == sorted([1.0, 1.0, 1.0, 1.5, 0.75, 1.0, 1.0])


def test_an_undeclared_kink_only_loosens_the_lower_bound():
    tv = kernel_by_name("tv")
    hidden = replace(tv, kinks=())
    rng = random.Random(43)
    cases = [(DiscreteDistribution((0.25, 0.25, 0.5)), DiscreteDistribution((0.25, 0.375, 0.375)))]
    cases += [(random_distribution(rng, 6), random_distribution(rng, 6)) for _ in range(10)]
    for p, q in cases:
        enc = hh_gap_bounds(hidden, p, q)
        assert enc.lo == 0.0
        assert enc.hi == hh_gap_bounds(tv, p, q).hi
        gap = hh_divergence(hidden, p, q) - lin_wong_divergence(hidden, p, q)
        assert enc.contains(gap, slack=1e-15)
    # shifted_abs has a jump at m_i = 1.25 for these atoms: the bound drops to 0
    p = DiscreteDistribution((0.25, 0.25, 0.5))
    q = DiscreteDistribution((0.375, 0.375, 0.25))
    shifted_abs = kernel_by_name("shifted_abs")
    enc = hh_gap_bounds(replace(shifted_abs, kinks=()), p, q)
    gap = hh_divergence(shifted_abs, p, q) - lin_wong_divergence(shifted_abs, p, q)
    assert enc.lo == 0.0 < hh_gap_bounds(shifted_abs, p, q).lo
    assert enc.contains(gap, slack=1e-15)
