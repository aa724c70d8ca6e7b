import dataclasses
import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_enclose import catalog
from convex_enclose.convex_core import ConvexFunction, Interval
from convex_enclose.errors import (
    BudgetExceededError,
    DomainError,
    ExtendedArithmeticError,
    NonConvexError,
    PartitionError,
    UnboundedSlopeError,
)
from convex_enclose.expressions import convex_function_from_expression
from convex_enclose.extreal import INF
from convex_enclose.oracle import reference_integral
from convex_enclose.quadrature import (
    DEFAULT_MAX_CELLS,
    Partition,
    _result,
    integrate_adaptive,
    midpoint_rule,
    remainder_enclosure,
    riemann_sum,
)
from convex_enclose.selftest import random_convex_case, random_partition
from black_box import counting_copy, sampled_function
from identities import (
    NotDifferentiableError,
    differentiable_lower_form,
    integrate_by_midpoint_cells,
    midpoint_rule_by_cell,
    remainder_upper_by_node,
)

UNIT = Interval(0.0, 1.0)
HALVES = Partition((0.0, 0.5, 1.0), (0.25, 0.75))


def _midpoint_partition(nodes):
    """The sorted nodes tagged at their cells' midpoints."""
    nodes = sorted(nodes)
    return Partition(nodes, [0.5 * (u + v) for u, v in zip(nodes, nodes[1:])])


def _spans(res, interval):
    return (min(res.nodes), max(res.nodes)) == (interval.lo, interval.hi)


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition((0.0,), ())
    with pytest.raises(PartitionError):
        Partition((0.0, 0.0), (0.0,))
    with pytest.raises(PartitionError):
        Partition((0.0, 1.0), (1.5,))
    with pytest.raises(PartitionError):
        Partition((0.0, 0.5, 1.0), (0.25,))
    with pytest.raises(PartitionError):
        midpoint_rule(catalog.exponential(UNIT), 0)


def test_uniform_partition_rules():
    # midpoint_rule's n equal cells, tagged at their midpoints after the
    # interior nodes are read
    f = catalog.exponential(UNIT)
    points = []
    jet = f.jet.call
    res = midpoint_rule(dataclasses.replace(f, jet=lambda t: points.append(t) or jet(t)), 4)
    assert res.cells == 4
    assert res.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert points == [0.25, 0.5, 0.75, 0.125, 0.375, 0.625, 0.875]


def test_partition_must_span_domain():
    f = catalog.shifted_square(0.0, Interval(0.0, 2.0))
    with pytest.raises(PartitionError):
        riemann_sum(f, HALVES)


def test_riemann_sum_examples():
    aff = catalog.affine(0.0, 1.0, UNIT)
    assert riemann_sum(aff, Partition((0.0, 1.0), (0.0,))) == 0.0
    sq = catalog.shifted_square(0.0, UNIT)
    assert riemann_sum(sq, HALVES) == 0.3125
    kink = catalog.abs_shift(0.5, UNIT)
    assert riemann_sum(kink, Partition((0.0, 1.0), (0.5,))) == 0.0


def test_remainder_enclosure_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    enc = remainder_enclosure(sq, HALVES)
    assert enc.as_tuple() == (0.0, 0.0625)
    true = reference_integral(sq).value - 0.3125
    assert true == pytest.approx(1.0 / 48.0, rel=1e-13)
    assert enc.contains(true)

    aff = catalog.affine(0.0, 1.0, UNIT)
    enc = remainder_enclosure(aff, Partition((0.0, 1.0), (0.0,)))
    assert enc.as_tuple() == (0.5, 0.5)

    kink = catalog.abs_shift(0.5, UNIT)
    enc = remainder_enclosure(kink, Partition((0.0, 1.0), (0.5,)))
    assert enc.as_tuple() == (0.25, 0.25)


def test_remainder_enclosure_with_infinite_endpoint_slope():
    f = catalog.neg_sqrt(UNIT)
    # interior tag: the upper bound picks up f'+(0) = -inf and blows up
    enc = remainder_enclosure(f, Partition((0.0, 1.0), (0.5,)))
    assert enc.hi == INF
    assert math.isfinite(enc.lo)
    rem = reference_integral(f).value - riemann_sum(f, Partition((0.0, 1.0), (0.5,)))
    assert enc.contains(rem, slack=1e-12)
    # tag pinned at the singular endpoint: the lower bound degenerates instead
    enc = remainder_enclosure(f, Partition((0.0, 1.0), (0.0,)))
    assert enc.lo == -INF
    assert math.isfinite(enc.hi)


def test_remainder_enclosure_keeps_its_bits():
    # acceptance criterion 4's 500 partitions with random tags: float.hex of
    # both ends, as the loop of four checked slope reads per cell gave them
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for _ in range(500):
        f = random_convex_case(rng)
        enc = remainder_enclosure(f, random_partition(rng, f.domain, max_cells=32))
        digest.update(f"{enc.lo.hex()} {enc.hi.hex()};".encode())
    assert digest.hexdigest()[:16] == "242bd05f87012db4"


def test_remainder_enclosure_reads_each_tag_and_node_once():
    # one jet call per interior tag and per interior node, the two endpoint
    # slopes, and f at a tag on a domain end
    for f in (catalog.exponential(UNIT),
              convex_function_from_expression("abs(t - 0.63) + t*ln(t)", Interval(0.4, 1.1))[0]):
        lo, hi = f.domain.lo, f.domain.hi
        mid = 0.5 * (lo + hi)
        for nodes, tags, ends in (((lo, mid, hi), (0.5 * (lo + mid), hi), 1),
                                  ((lo, mid, hi), (lo, mid), 1),
                                  ((lo, hi), (mid,), 0),
                                  (tuple(f.domain.grid(7)), tuple(f.domain.grid(7)[1:]), 1)):
            part = Partition(nodes, tags)
            g, calls = counting_copy(f)
            got = remainder_enclosure(g, part)
            assert got == remainder_enclosure(dataclasses.replace(f, jet=None), part)
            interior = (len(nodes) - 2) + sum(lo < t < hi for t in tags)
            assert [calls[k] for k in ("jet", "fn", "dminus", "dplus")] == [interior, ends, 1, 1]
            assert set(calls) <= {"jet", "fn", "dminus", "dplus"}


def test_remainder_enclosure_rejects_slopes_out_of_order():
    # the slopes fall from 1 to -1: f'+(0.5) = 0 > f'-(1) = -1
    falling = ConvexFunction(domain=UNIT, fn=lambda t: t, dminus=lambda t: 1.0 - 2.0 * t,
                             dplus=lambda t: 1.0 - 2.0 * t)
    # f'+ lies 2 above f'- everywhere, so f'-(m) > f'+(m) fails too
    jumping = ConvexFunction(domain=UNIT, fn=lambda t: t * t, dminus=lambda t: 2.0 * t + 2.0,
                             dplus=lambda t: 2.0 * t)
    for f in (falling, jumping):
        for part in (Partition((0.0, 1.0), (0.5,)), HALVES,
                     Partition((0.0, 0.25, 1.0), (0.0, 0.3))):
            with pytest.raises(NonConvexError, match="out of order"):
                remainder_enclosure(f, part)


def test_regrouped_upper_bound_identity():
    rng = random.Random(43)
    for _ in range(60):
        f = random_convex_case(rng)
        part = random_partition(rng, f.domain, max_cells=12)
        by_cell = remainder_enclosure(f, part).hi
        by_node = remainder_upper_by_node(f, part)
        if math.isinf(by_cell) or math.isinf(by_node):
            assert by_cell == by_node
        else:
            assert by_node == pytest.approx(by_cell, abs=1e-12 * max(1.0, abs(by_cell)))


def test_differentiable_lower_form_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    eighths = _midpoint_partition(UNIT.grid(8))
    assert differentiable_lower_form(sq, eighths) == pytest.approx(0.0, abs=1e-16)
    assert differentiable_lower_form(sq, Partition((0.0, 1.0), (0.25,))) == pytest.approx(0.125)

    ex = catalog.exponential(UNIT)
    part = Partition((0.0, 0.5, 1.0), (0.0, 0.5))  # left tags
    expected = (1.0 + math.exp(0.5)) / 8.0
    assert differentiable_lower_form(ex, part) == pytest.approx(expected, rel=1e-14)

    kink = catalog.abs_shift(0.5, UNIT)
    with pytest.raises(NotDifferentiableError):
        differentiable_lower_form(kink, Partition((0.0, 1.0), (0.5,)))


def test_differentiable_lower_form_equals_general_lower():
    rng = random.Random(47)
    for _ in range(40):
        f = random_convex_case(rng, smooth_only=True)
        part = random_partition(rng, f.domain, max_cells=10)
        general = remainder_enclosure(f, part).lo
        smooth = differentiable_lower_form(f, part)
        assert smooth == pytest.approx(general, abs=1e-12 * max(1.0, abs(general)))


def test_midpoint_rule_examples():
    sq = catalog.shifted_square(0.0, UNIT)
    res = midpoint_rule(sq, 2)
    assert res.estimate == 0.3125
    assert res.remainder.as_tuple() == (0.0, 0.0625)
    assert res.remainder.contains(1.0 / 48.0)
    assert res.integral_bounds.contains(1.0 / 3.0)

    kink = catalog.abs_shift(0.5, UNIT)
    res = midpoint_rule(kink, 1)
    assert res.estimate == 0.0
    assert res.remainder.as_tuple() == (0.25, 0.25)

    aff = catalog.affine(1.0, -2.0, UNIT)
    for n in (1, 3, 7):
        assert midpoint_rule(aff, n).remainder.width == 0.0


def test_midpoint_rule_matches_general_enclosure():
    # the midpoint rule is the tagged rule at midpoint tags, bit for bit
    rng = random.Random(53)
    for _ in range(30):
        f = random_convex_case(rng)
        n = rng.randint(1, 9)
        res = midpoint_rule(f, n)
        part = _midpoint_partition(res.nodes)
        assert res.nodes == part.nodes
        general = (riemann_sum(f, part), *remainder_enclosure(f, part).as_tuple())
        assert _hex(res.estimate, *res.remainder.as_tuple()) == _hex(*general)


def test_midpoint_rule_matches_its_cell_loop_bit_for_bit():
    # midpoint_rule reads the jet; the rule's own loop reads f and its
    # one-sided derivatives
    rng = random.Random(25)
    cases = [(random_convex_case(rng), rng.randint(1, 16)) for _ in range(150)]
    for source, a, b in (("t*ln(t)", 0.5, 2.0), ("abs(t - 0.3) + t*ln(t)", 0.1, 1.0),
                         ("-sqrt(t)", 0.0, 1.0), ("t^t", 0.5, 2.0),
                         ("0.5*(t - 0.3)^2 + 0.7*exp(1.2*t)", 0.0, 1.0)):
        f = convex_function_from_expression(source, Interval(a, b))[0]
        cases += [(f, n) for n in (1, 9, 64)]
    unbounded = 0
    for f, n in cases:
        estimate, remainder, partition = midpoint_rule_by_cell(f, n)
        want = tuple(float.hex(x) for x in (estimate, remainder.lo, remainder.hi,
                                            *partition.nodes, *partition.tags))
        res = midpoint_rule(f, n)
        assert res.cells == n
        assert _bits(res) == want
        unbounded += remainder.hi == INF
    assert unbounded > 3  # -sqrt(t) from 0, where f'+(0) = -inf


def test_midpoint_rule_errors():
    # the slopes of -t^2 fall, so they are out of order in every cell
    with pytest.raises(NonConvexError):
        midpoint_rule(sampled_function(lambda t: -t * t, UNIT), 4)
    # one ulp: the cell's midpoint rounds to one of its ends
    with pytest.raises(PartitionError):
        midpoint_rule(catalog.exponential(Interval(1.0, math.nextafter(1.0, 2.0))), 1)


def test_midpoint_rule_reads_each_node_once():
    # n midpoint jets, one jet for both slopes at each of the n - 1 interior
    # nodes, and the two endpoint slopes
    for f in (catalog.exponential(UNIT),
              convex_function_from_expression("abs(t - 0.63) + t*ln(t)", Interval(0.4, 1.1))[0]):
        for n in (1, 2, 64):
            g, calls = counting_copy(f)
            assert midpoint_rule(g, n) == midpoint_rule(dataclasses.replace(f, jet=None), n)
            assert calls == {"jet": 2 * n - 1, "dplus": 1, "dminus": 1}
    # nodes that repeat the ends are refused before any slope is read there
    with pytest.raises(PartitionError):
        midpoint_rule(catalog.exponential(Interval(1.0, math.nextafter(1.0, 2.0))), 3)


def test_midpoint_remainder_nonnegative():
    rng = random.Random(59)
    for _ in range(30):
        f = random_convex_case(rng)
        assert midpoint_rule(f, rng.randint(1, 16)).remainder.lo >= 0.0


def test_quadratic_width_decay():
    for f in (catalog.shifted_square(0.0, UNIT), catalog.exponential(UNIT)):
        for n in (1, 2, 4, 8, 16):
            w1 = midpoint_rule(f, n).remainder.width
            w2 = midpoint_rule(f, 2 * n).remainder.width
            assert w2 / w1 == pytest.approx(0.25, abs=1e-9)


def test_refinement_never_widens():
    rng = random.Random(61)
    for _ in range(25):
        f = random_convex_case(rng)
        nodes = sorted({f.domain.lo, f.domain.hi,
                        *(rng.uniform(f.domain.lo, f.domain.hi) for _ in range(4))})
        tags = [0.5 * (u + v) for u, v in zip(nodes, nodes[1:])]
        coarse = Partition(tuple(nodes), tuple(tags))
        fine_nodes = []
        for u, v in zip(nodes, nodes[1:]):
            fine_nodes.extend([u, 0.5 * (u + v)])
        fine_nodes.append(nodes[-1])
        fine_tags = [0.5 * (u + v) for u, v in zip(fine_nodes, fine_nodes[1:])]
        fine = Partition(tuple(fine_nodes), tuple(fine_tags))
        w_coarse = remainder_enclosure(f, coarse).width
        w_fine = remainder_enclosure(f, fine).width
        if math.isinf(w_coarse):
            continue
        assert w_fine <= w_coarse + 1e-12 * max(1.0, w_coarse)


def test_containment_fuzz():
    rng = random.Random(67)
    for _ in range(80):
        f = random_convex_case(rng)
        part = random_partition(rng, f.domain, max_cells=16)
        enc = remainder_enclosure(f, part)
        rem = reference_integral(f).value - riemann_sum(f, part)
        finite = [abs(v) for v in (enc.lo, enc.hi, rem) if math.isfinite(v)]
        assert enc.contains(rem, slack=1e-10 * max([1.0] + finite))


def test_integrate_adaptive_examples():
    res = integrate_adaptive(catalog.exponential(UNIT), 1e-6)
    assert res.width <= 1e-6
    assert res.cells <= 1024
    assert res.integral_bounds.contains(math.e - 1.0)

    res = integrate_adaptive(catalog.affine(2.0, 3.0, UNIT), 1e-12)
    assert res.cells == 1
    assert res.width == 0.0

    res = integrate_adaptive(catalog.abs_shift(0.3, UNIT), 1e-4)
    assert res.width <= 1e-4
    assert res.integral_bounds.contains(0.29)


def test_integrate_adaptive_errors():
    with pytest.raises(UnboundedSlopeError):
        integrate_adaptive(catalog.neg_sqrt(UNIT), 1e-6)
    with pytest.raises(DomainError):
        integrate_adaptive(catalog.exponential(UNIT), 0.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate_adaptive(catalog.exponential(UNIT), 1e-12, max_cells=16)
    best = exc_info.value.best
    assert best is not None
    assert best.cells == 16
    assert best.integral_bounds.contains(math.e - 1.0)
    # f'+ jumps above f'- everywhere, so f'+(m) - f'-(m) > f'-(1) - f'+(0)
    not_convex = ConvexFunction(domain=UNIT, fn=lambda t: t * t, dminus=lambda t: 2.0 * t,
                                dplus=lambda t: 2.0 * t + 2.0)
    with pytest.raises(NonConvexError, match="out of order"):
        integrate_adaptive(not_convex, 1e-6)
    # the slopes fall from 1 to -1, though f(1) - f(0) keeps to the first:
    # the only cell has a negative width
    falling = ConvexFunction(domain=UNIT, fn=lambda t: t, dminus=lambda t: 1.0 - 2.0 * t,
                             dplus=lambda t: 1.0 - 2.0 * t)
    with pytest.raises(NonConvexError, match="out of order"):
        integrate_adaptive(falling, 1e-6)


def _counted(f):
    """A copy of f whose value and slope oracle calls are counted."""
    calls = {"fn": 0, "slope": 0}

    def counting(key, oracle):
        def wrapped(t):
            calls[key] += 1
            return oracle(t)
        return wrapped

    g = ConvexFunction(domain=f.domain, fn=counting("fn", f.fn),
                       dminus=counting("slope", f.dminus), dplus=counting("slope", f.dplus),
                       kinks=f.kinks, name=f.name)
    return g, calls


def _ramps(centers, interval):
    """sum of max(0, t - c): piecewise linear with a kink at every center."""
    return ConvexFunction(
        domain=interval,
        fn=lambda t: math.fsum(max(0.0, t - c) for c in centers),
        dminus=lambda t: float(sum(c < t for c in centers)),
        dplus=lambda t: float(sum(c <= t for c in centers)),
        kinks=tuple(centers),
    )


@pytest.mark.parametrize("f, tol, ceiling", [
    (catalog.exponential(UNIT), 1e-8, 5000),
    (catalog.abs_shift(0.3, UNIT), 1e-8, 2),
    (catalog.neg_sqrt(Interval(1e-6, 1.0)), 1e-6, 600),
    (catalog.power(-2.0, Interval(0.05, 4.0)), 1e-6, 16000),
])
def test_integrate_adaptive_cell_ceilings(f, tol, ceiling):
    res = integrate_adaptive(f, tol)
    assert res.width <= tol
    assert res.cells <= ceiling
    assert res.integral_bounds.contains(reference_integral(f).value, slack=1e-10)


def test_integrate_adaptive_is_deterministic():
    for f, tol in ((catalog.t_log_t(Interval(0.5, 2.0)), 1e-8),
                   (catalog.power(-1.0, Interval(0.1, 3.0)), 1e-7),
                   (catalog.shifted_square(0.2, UNIT), 1e-8)):
        first = integrate_adaptive(f, tol)
        second = integrate_adaptive(f, tol)
        assert (first.estimate, first.remainder, first.cells) == \
            (second.estimate, second.remainder, second.cells)
        assert sorted(first.nodes) == sorted(second.nodes)


def test_integrate_adaptive_containment_fuzz():
    rng = random.Random(71)
    for _ in range(50):
        f = random_convex_case(rng, finite_slopes=True)
        assert all(map(math.isfinite, f.endpoint_slopes()))
        tol = 1e-7
        res = integrate_adaptive(f, tol)
        assert res.width <= tol
        exact = reference_integral(f).value
        assert res.integral_bounds.contains(exact, slack=1e-10 * max(1.0, abs(exact)))


def test_integrate_adaptive_partition_is_valid():
    f = catalog.power(-1.0, Interval(0.1, 3.0))
    res = integrate_adaptive(f, 1e-6)
    part = _midpoint_partition(res.nodes)  # passes validation
    assert part.spans(f.domain)
    assert len(part.tags) == res.cells
    widths = {v - u for u, v in zip(part.nodes, part.nodes[1:])}
    assert len(widths) > 1  # refined where the slope changes fastest
    assert res.estimate == _trapezoid_sum(f, part.nodes)
    # a trapezoid cell's width is the upper remainder term of its midpoint cell
    general = remainder_enclosure(f, part)
    assert res.remainder.hi == 0.0
    assert res.remainder.lo == pytest.approx(-general.hi, rel=1e-12)


def test_integrate_adaptive_seeds_kinks():
    for f in (catalog.abs_shift(0.3, UNIT), catalog.hinge(0.7, Interval(-1.0, 2.0))):
        res = integrate_adaptive(f, 1e-9)
        assert f.kinks and set(f.kinks) <= set(res.nodes)
        assert res.cells == 2
        assert res.width == 0.0
    # a kink that is not seeded costs cells
    unseeded = ConvexFunction(domain=UNIT, fn=lambda t: abs(t - 0.3),
                              dminus=lambda t: -1.0 if t <= 0.3 else 1.0,
                              dplus=lambda t: 1.0 if t >= 0.3 else -1.0)
    assert integrate_adaptive(unseeded, 1e-9).cells > 2


def test_integrate_adaptive_reuses_slopes():
    # f once at every node: once at each seed node and once (with both
    # slopes) at each split's midpoint; the only other slopes are the two
    # endpoint ones and both sides of each kink
    for f in (catalog.exponential(UNIT), catalog.abs_shift(0.3, UNIT).scaled(2.0),
              catalog.t_log_t(Interval(0.5, 2.0)), _ramps([0.2, 0.45, 0.7], UNIT)):
        g, calls = _counted(f)
        res = integrate_adaptive(g, 1e-8)
        seeded = len(f.kinks) + 1
        assert calls["fn"] == res.cells + 1
        assert calls["slope"] == 2 * (res.cells - seeded) + 2 + 2 * len(f.kinks)


def test_integrate_adaptive_calls_the_jet_once_per_new_midpoint():
    for f in (catalog.exponential(UNIT), catalog.abs_shift(0.3, Interval(-1.0, 2.0)),
              convex_function_from_expression("abs(t - 0.63) + t*ln(t)", Interval(0.4, 1.1))[0],
              convex_function_from_expression("t^t", Interval(0.5, 2.0))[0]):
        calls = []
        jet = f.jet.call
        g = dataclasses.replace(f, jet=lambda t: calls.append(t) or jet(t))
        res = integrate_adaptive(g, 1e-6)
        seeded = len(f.kinks) + 1
        assert len(calls) == len(set(calls)) == res.cells - seeded
        assert set(calls) == set(filter(f.domain.strictly_contains, res.nodes)) - set(f.kinks)
        assert res == integrate_adaptive(dataclasses.replace(f, jet=None), 1e-6)
        # f once at each seed node, and the slopes of the seeds from the oracles
        g, counts = counting_copy(f)
        assert integrate_adaptive(g, 1e-6) == res
        kinks = len(f.kinks)
        assert [counts[k] for k in ("jet", "fn", "dminus", "dplus")] == \
            [res.cells - seeded, seeded + 1, 1 + kinks, 1 + kinks]
        assert set(counts) <= {"jet", "fn", "dminus", "dplus"}


def test_integrate_adaptive_reads_replaced_oracles():
    # a replaced oracle retires the jet that fused the old one
    f = catalog.exponential(UNIT)
    res = integrate_adaptive(f, 1e-6)
    doubled = integrate_adaptive(dataclasses.replace(f, fn=lambda t: 2.0 * math.exp(t)), 1e-6)
    assert doubled.estimate == 2.0 * res.estimate
    assert doubled.nodes == res.nodes

    class Called(Exception):
        pass

    def refuse(name):
        oracle = getattr(f, name)

        def refused(t):
            if 0.0 < t < 1.0:
                raise Called(name)
            return oracle(t)
        return refused

    # f'- first, then f'+, then f: the order in which the oracles were read
    # before they had a jet
    for names in (("dminus", "dplus", "fn"), ("dplus", "fn"), ("fn",)):
        g = dataclasses.replace(f, **{name: refuse(name) for name in names})
        with pytest.raises(Called, match=names[0]):
            integrate_adaptive(g, 1e-6)


def test_integrate_adaptive_keeps_an_undefined_value():
    # 1e308*t overflows, so abs takes the NaN inf - inf; its slopes are finite
    f = convex_function_from_expression("abs(1e308*t - 1e308*t) + t*t", Interval(9.0, 11.0))[0]
    assert math.isnan(f.jet.call(10.0)[0]) and math.isnan(f.fn(10.0))
    with pytest.raises(ExtendedArithmeticError):
        integrate_adaptive(f, 1e-3)


@pytest.mark.parametrize("a, b", [(-0.25, 0.75), (-0.75, 0.25)])
def test_integrate_adaptive_child_of_undefined_width(a, b):
    # the first split puts the kink at 0 on the left (or the right) child's
    # midpoint, where both of its remainder terms overflow to inf: its width
    # inf - inf is taken as INF, and its split ends the refinement
    f = convex_function_from_expression("1.7e308*abs(t)", Interval(a, b))[0]
    assert not f.kinks
    res = integrate_adaptive(f, 1e-3)
    assert res.cells == 3
    assert 0.0 in res.nodes
    assert res.integral_bounds.contains(1.7e308 * (a * a + b * b) / 2)


def test_integrate_adaptive_budget_with_a_cell_of_undefined_width():
    # 0 is never a node, so some cell always straddles the kink with an
    # infinite width
    f = convex_function_from_expression("1.7e308*abs(t)", Interval(-0.5, 1.0))[0]
    best = _budget_best(f, 1e-3, 64)
    assert best.cells == 64
    assert best.remainder.lo == -INF
    assert _spans(best, f.domain)


def test_midpoint_rule_weights_that_overflow_are_not_a_bare_overflow():
    # (h/2) ** 2 raised OverflowError; (h/2) * (h/2) is inf, and inf - inf
    # in the remainder is an undefined extended-real form
    with pytest.raises(ExtendedArithmeticError):
        midpoint_rule(catalog.affine(0.0, 1e-10, Interval(0.0, 1e308)), 4)


def test_integrate_adaptive_floating_point_resolution():
    one_ulp = Interval(1.0, math.nextafter(1.0, 2.0))
    with pytest.raises(PartitionError):
        integrate_adaptive(catalog.exponential(one_ulp), 1e-30)
    # two ulps: one cell, which cannot be bisected any further
    two_ulps = Interval(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0))
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate_adaptive(catalog.exponential(two_ulps), 1e-300)
    assert exc_info.value.best.cells == 1


def _random_expression_integrand(rng):
    """A sum of one to three convex terms on a positive interval, with its
    kinks inside."""
    a = round(rng.uniform(0.3, 1.5), 3)
    b = round(a + rng.uniform(0.3, 1.5), 3)
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = round(rng.uniform(0.2, 2.0), 3)
        k = round(rng.uniform(a, b), 3)
        terms.append(rng.choice((
            f"{c}*(t - {k})^2", f"{c}*exp({round(k / b, 3)}*t)", f"{c}*t*ln(t)", f"{c}/t",
            f"{c}*abs(t - {k})", f"{c}*max(0, t - {k})", f"-{c}*sqrt(t)", f"{c}*t^4",
        )))
    return convex_function_from_expression(" + ".join(terms), Interval(a, b))[0]


def _hex(*values):
    return tuple(map(float.hex, values))


def _bits(res):
    part = _midpoint_partition(res.nodes)
    return _hex(res.estimate, res.remainder.lo, res.remainder.hi, *part.nodes, *part.tags)


def test_integrate_adaptive_fail_fast_spares_every_request_that_can_succeed():
    # the tightest budget a request can succeed under is the cell count it
    # needs; the checkpoints must let it run to the same result, bit for bit
    rng = random.Random(18)
    cases = [pin for pin in (case() for case, _ in _PINNED) if pin[2] is None]
    for k in range(240):
        f = random_convex_case(rng, finite_slopes=True) if k % 2 else \
            _random_expression_integrand(rng)
        scale = max(1.0, abs(f(f.domain.lo)), abs(f(f.domain.hi))) * f.domain.width
        cases.append((f, scale * 10.0 ** rng.uniform(-8.0, -5.0), None))
    assert len(cases) == 246
    for f, tol, _ in cases:
        res = integrate_adaptive(f, tol)
        assert _bits(integrate_adaptive(f, tol, max_cells=res.cells)) == _bits(res)


@pytest.mark.parametrize("source, a, b, tol, max_cells, integral", [
    ("t*t*t", 0.0, 2.0, 1e-12, DEFAULT_MAX_CELLS, 4.0),
    ("exp(t)", 0.0, 709.0, 1e-3, DEFAULT_MAX_CELLS, math.expm1(709.0)),
    ("t^2", 0.0, 1.0, 1e-300, 10**11, 1.0 / 3.0),
    ("exp(t)", -800.0, 0.0, 1e-300, DEFAULT_MAX_CELLS, -math.expm1(-800.0)),
    # longer than 2^20 cells narrower than 2^512, whose squares are finite:
    # stopped before the first split, where 2^20 cells of infinite width took 5 s
    ("exp(t/1e300)", 0.0, 1e301, 1e298, DEFAULT_MAX_CELLS, 1e300 * math.expm1(10.0)),
    ("(t/1e200)*(t/1e200)", 0.0, 1e201, 1e190, DEFAULT_MAX_CELLS, 1e203 / 3.0),
])
def test_integrate_adaptive_fails_fast(source, a, b, tol, max_cells, integral):
    # without the checkpoints each request builds all its max_cells cells
    # and still misses tol (2^20 cells take 7 to 10 s; 10^11 do not fit in
    # memory); a checkpoint stops it after 256 cells at most
    f = convex_function_from_expression(source, Interval(a, b))[0]
    best = _budget_best(f, tol, max_cells)
    assert best.cells == 1 if b - a > max_cells * 2.0**512 else best.cells <= 256
    assert best.width > tol
    assert best.integral_bounds.contains(integral)
    assert _spans(best, f.domain)


# float.hex of the estimate and of both remainder ends; 32 and 16 ulps wide,
# so every cell retires before the checkpoint of 32 cells could stop the
# request (wider domains stop there)
@pytest.mark.parametrize("width, cells, want", [
    (2.0**-47, 16, ("0x1.5bf0a8b14577fp-46", "-0x1.6000000000000p-151", "0x0.0p+0")),
    (2.0**-48, 8, ("0x1.5bf0a8b145774p-47", "-0x1.6000000000000p-152", "0x0.0p+0")),
])
def test_integrate_adaptive_retires_cells_too_narrow_to_bisect(width, cells, want):
    # cells leave the queue as too narrow to bisect, until none is left;
    # the best result's partition holds the retired cells in node order
    domain = Interval(1.0, 1.0 + width)
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate_adaptive(catalog.exponential(domain), 1e-300)
    best = exc_info.value.best
    assert best.cells == cells
    assert (float.hex(best.estimate), float.hex(best.remainder.lo),
            float.hex(best.remainder.hi)) == want
    assert _midpoint_partition(best.nodes).spans(domain)  # passes validation


def test_integrate_adaptive_memory_per_cell():
    # the traced peak covers the cells, the queue and the result; a cell of
    # eight boxed floats and its slot fits in 512 B, so a wider cell, or copies
    # of the cells, show here before they show in the RSS
    f = catalog.power(-2.0, Interval(0.05, 4.0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        res = integrate_adaptive(f, 1e-6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert res.cells > 10000
    assert peak <= 512 * res.cells


def test_integrate_adaptive_keeps_no_cells():
    # a returned result keeps the cells' left ends, one float each; the
    # 9-field cell tuples (about 300 B each) are gone
    f = catalog.power(-2.0, Interval(0.05, 4.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = integrate_adaptive(f, 1e-6)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.cells == 14399
    assert kept <= 64 * res.cells


def _trapezoid_sum(f, nodes):
    """fsum of h (f(x0)/2 + f(x1)/2) over the cells, through f.__call__."""
    return math.fsum((x1 - x0) * (0.5 * f(x0) + 0.5 * f(x1)) for x0, x1 in zip(nodes, nodes[1:]))


def test_integrate_adaptive_estimate_is_the_trapezoid_sum_of_its_nodes():
    # the integrator sums its cells in whatever order they lie; the
    # trapezoid sum walks its nodes left to right through f.__call__, which
    # the Jet contract makes equal to the jet's value
    rng = random.Random(24)
    cases = [(random_convex_case(rng, finite_slopes=True), 1e-7) for _ in range(8)]
    for source, a, b in (("t*ln(t)", 0.5, 2.0), ("t^-1", 0.1, 3.0), ("1/(t + 1)", 0.0, 1.0),
                         ("abs(t - 0.3) + t*ln(t)", 0.1, 1.0),
                         ("0.5*(t - 0.3)^2 + 0.7*exp(1.2*t)", 0.0, 1.0)):
        cases.append((convex_function_from_expression(source, Interval(a, b))[0], 1e-8))
    results = [(f, integrate_adaptive(f, tol)) for f, tol in cases]
    budget = catalog.exponential(UNIT)
    results.append((budget, _budget_best(budget, 1e-9, 1024)))
    assert results[-1][1].cells == 32
    for f, res in results:
        part = _midpoint_partition(res.nodes)
        assert len(part.tags) == res.cells
        assert float.hex(res.estimate) == float.hex(_trapezoid_sum(f, part.nodes))
        # the width sums (1/8) h^2 (f'-(x1) - f'+(x0)) over the same cells
        widths = (0.125 * ((x1 - x0) * (x1 - x0))
                  * (f.left_derivative(x1) - f.right_derivative(x0))
                  for x0, x1 in zip(part.nodes, part.nodes[1:]))
        assert float.hex(res.width) == float.hex(math.fsum(widths))
        assert res.remainder.hi == 0.0


def _cells(*terms):
    """Trapezoid cells on [0, 1] for (x0, x1, T), in the order given."""
    return [(-0.0, slot, x0, x1, 0.0, 0.0, 0.0, 0.0, t) for slot, (x0, x1, t) in enumerate(terms)]


def test_result_sums_again_in_node_order_on_overflow():
    left, middle, right = (0.0, 0.25, -1e308), (0.25, 0.5, 1e308), (0.5, 1.0, 1e308)
    # in the order given the partial sums overflow; in node order they do
    # not, and node order is what the sum has always been taken in
    cells = _cells(middle, right, left)
    with pytest.raises(OverflowError):
        math.fsum(cell[8] for cell in cells)
    res = _result(cells, 1.0)
    assert res.estimate == 1e308
    assert sorted(res.nodes) == [0.0, 0.25, 0.5, 1.0]
    # a sum that overflows in node order too still raises
    with pytest.raises(OverflowError):
        _result(_cells(middle, right, (0.0, 0.25, 1e308)), 1.0)
    # one that overflows only in node order has a correctly rounded value
    left, middle, right = (0.0, 0.25, 1e308), (0.25, 0.5, 1e308), (0.5, 1.0, -1e308)
    assert _result(_cells(right, left, middle), 1.0).estimate == 1e308


def test_integrate_adaptive_max_cells():
    for bad in (0, -1):
        with pytest.raises(DomainError):
            integrate_adaptive(catalog.exponential(UNIT), 1e-6, max_cells=bad)
    res = integrate_adaptive(catalog.exponential(UNIT), 0.25, max_cells=1)
    assert res.cells == 1
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate_adaptive(catalog.exponential(UNIT), 1e-6, max_cells=1)
    assert exc_info.value.best.cells == 1

    ramps = _ramps([0.05 + 0.1 * k for k in range(9)], UNIT)
    res = integrate_adaptive(ramps, 1e-12, max_cells=10)
    assert res.cells == 10
    assert res.width == 0.0
    for cap in (1, 4, 9):
        with pytest.raises(BudgetExceededError) as exc_info:
            integrate_adaptive(ramps, 1e-12, max_cells=cap)
        best = exc_info.value.best
        assert best.cells == cap
        assert _spans(best, ramps.domain)
        assert best.integral_bounds.contains(reference_integral(ramps).value, slack=1e-12)

    # the first cells' widths overflow to inf; they are split first
    huge = catalog.exponential(Interval(0.0, 709.0))
    for cap, top in ((2, INF), (16, 8.5e307)):
        with pytest.raises(BudgetExceededError) as exc_info:
            integrate_adaptive(huge, 1e-3, max_cells=cap)
        best = exc_info.value.best
        assert best.cells == cap
        assert best.integral_bounds.hi <= top
        assert best.integral_bounds.contains(math.expm1(709.0))


def _catalog_sum(f, g):
    return ConvexFunction(domain=f.domain, fn=lambda t: f.fn(t) + g.fn(t),
                          dminus=lambda t: f.dminus(t) + g.dminus(t),
                          dplus=lambda t: f.dplus(t) + g.dplus(t), kinks=f.kinks + g.kinks)


def _budget_best(f, tol, max_cells):
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate_adaptive(f, tol, max_cells=max_cells)
    return exc_info.value.best


# Each case gives (f, tol, max_cells); max_cells None means the default budget,
# within which the request succeeds.  The result is pinned as the float.hex of
# the estimate and of both remainder ends, the cells, and a digest of the
# partition's nodes and tags: any change of the refinement order or of the
# summation fails here
_PINNED = [
    (lambda: (catalog.exponential(Interval(-0.5, 0.5)), 1e-8, None),
     ("0x1.0acd011b02c72p+0", "-0x1.5774a41756270p-27", "0x0.0p+0", 3784, "9b4f07d2895b0c95")),
    (lambda: (catalog.t_log_t(Interval(0.5, 2.0)), 1e-8, None),
     ("0x1.1224e6167bd39p-1", "-0x1.5780cac423354p-27", "0x0.0p+0", 6645, "74a35f1c00ddc0dc")),
    (lambda: (catalog.power(-2.0, Interval(0.3, 0.55)), 1e-7, None),
     ("0x1.83e0f95c6200bp+0", "-0x1.ad7bbc17c761fp-24", "0x0.0p+0", 2183, "17bdef169823d607")),
    (lambda: (_catalog_sum(catalog.abs_shift(0.63, Interval(0.4, 1.1)),
                           catalog.t_log_t(Interval(0.4, 1.1))), 1e-8, None),
     ("0x1.5fa9441042c74p-8", "-0x1.575674c2740b2p-27", "0x0.0p+0", 2687, "26c41f0c855d684c")),
    (lambda: (convex_function_from_expression(
        "abs(t - 0.63) + t*ln(t)", Interval(0.4, 1.1))[0], 1e-8, None),
     ("0x1.5fa94414ca834p-8", "-0x1.576d89107464dp-27", "0x0.0p+0", 2694, "05a8024696a8933a")),
    (lambda: (convex_function_from_expression("-sqrt(t)", Interval(0.05, 0.5))[0], 1e-7, None),
     ("-0x1.d37405142e2b1p-3", "-0x1.ac07a72d811cfp-24", "0x0.0p+0", 567, "ad5a7d67c2c5d052")),
    # 1024 or 1000 cells would leave about 2e-7 > 4 tol: both stop at the
    # checkpoint of 32 cells
    (lambda: (catalog.exponential(UNIT), 1e-9, 1024),
     ("0x1.b7ea7b5fcbf11p+0", "-0x1.b7e151628aed2p-13", "0x0.0p+0", 32, "a06f6819222126f5")),
    (lambda: (catalog.shifted_square(0.2, UNIT), 1e-9, 1000),
     ("0x1.6351eb851eb86p-3", "-0x1.0000000000000p-12", "0x0.0p+0", 32, "a06f6819222126f5")),
    # the same requests at tol 1e-7, within 4 tol of their prediction, run to
    # the budget; cells of one size have equal widths in the second, so the
    # tie rule shapes its partition
    (lambda: (catalog.exponential(UNIT), 1e-7, 1024),
     ("0x1.b7e153ad0cae6p+0", "-0x1.b7e151628aed2p-23", "0x0.0p+0", 1024, "8742ae7d82e8c8df")),
    (lambda: (catalog.shifted_square(0.2, UNIT), 1e-7, 1000),
     ("0x1.62fcae851eb86p-3", "-0x1.2400000000000p-22", "0x0.0p+0", 1000, "d03dc24446a4b157")),
]


@pytest.mark.parametrize("case, want", _PINNED)
def test_integrate_adaptive_is_pinned_bit_for_bit(case, want):
    f, tol, max_cells = case()
    res = integrate_adaptive(f, tol) if max_cells is None else _budget_best(f, tol, max_cells)
    digest = hashlib.sha256()
    part = _midpoint_partition(res.nodes)
    for x in part.nodes + part.tags:
        digest.update(float.hex(x).encode())
    assert (float.hex(res.estimate), float.hex(res.remainder.lo), float.hex(res.remainder.hi),
            res.cells, digest.hexdigest()[:16]) == want


def _outcome(integrate, f, tol, max_cells=DEFAULT_MAX_CELLS):
    """(ok or budget, sorted nodes, float.hex of the width) of one request."""
    try:
        res, outcome = integrate(f, tol, max_cells), "ok"
    except BudgetExceededError as exc:
        res, outcome = exc.best, "budget"
    return outcome, sorted(res.nodes), float.hex(res.width)


def test_integrate_adaptive_builds_the_midpoint_cells_on_the_catalog():
    # a trapezoid cell's width is its midpoint cell's, float for float,
    # wherever f'-(m) = f'+(m): so the heap, the stop test and the
    # checkpoints see the same numbers, on smooth catalog functions and on
    # kinked ones, whose kinks are seeded, at budgets that succeed and at
    # budgets the checkpoints stop
    rng = random.Random(29)
    outcomes = []
    for _ in range(90):
        f = random_convex_case(rng, finite_slopes=True)
        scale = max(1.0, abs(f(f.domain.lo)), abs(f(f.domain.hi))) * f.domain.width
        tol = scale * 10.0 ** rng.uniform(-8.0, -5.0)
        max_cells = rng.choice((DEFAULT_MAX_CELLS, 1000, 64))
        got = _outcome(integrate_adaptive, f, tol, max_cells)
        assert got == _outcome(integrate_by_midpoint_cells, f, tol, max_cells)
        outcomes.append((got[0], bool(f.kinks)))
    assert {("ok", True), ("ok", False), ("budget", False)} <= set(outcomes)


_SMOOTH_TERMS = ("{c}*(t - {k})^2", "{c}*exp({e}*t)", "{c}*t*ln(t)", "{c}/t", "-{c}*sqrt(t)",
                 "{c}*t^4", "{c}*t^t")


@st.composite
def _smooth_requests(draw):
    """A sum of one to three smooth convex terms on a positive interval, and a tol."""
    a = round(draw(st.floats(0.3, 1.5)), 3)
    b = round(a + draw(st.floats(0.3, 1.5)), 3)
    terms = [draw(st.sampled_from(_SMOOTH_TERMS)).format(
        c=round(draw(st.floats(0.2, 2.0)), 3), k=round(draw(st.floats(a, b)), 3),
        e=round(draw(st.floats(0.1, 1.2)), 3)) for _ in range(draw(st.integers(1, 3)))]
    f = convex_function_from_expression(" + ".join(terms), Interval(a, b))[0]
    return f, (b - a) * 10.0 ** draw(st.floats(-8.0, -5.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_smooth_requests())
def test_integrate_adaptive_builds_the_midpoint_cells_on_expressions(request):
    f, tol = request
    assert _outcome(integrate_adaptive, f, tol) == _outcome(integrate_by_midpoint_cells, f, tol)


def test_integrate_adaptive_kink_on_a_midpoint_costs_one_split():
    # the kink of abs(t - 0.769), not declared, lies on the midpoint of the
    # cell [0.766, 0.772]: the midpoint cell's lower term there equals its
    # upper one, so it has width 0, while the trapezoid cell has the width
    # of its end slopes and is split once more, at the kink
    f = convex_function_from_expression("abs(t - 0.769)", Interval(0.658, 1.426))[0]
    assert not f.kinks
    res = integrate_adaptive(f, 1.4e-8)
    assert (res.cells, res.width) == (9, 0.0)
    midpoint = integrate_by_midpoint_cells(f, 1.4e-8)
    assert (midpoint.cells, midpoint.width) == (8, 0.0)
    assert sorted(res.nodes) == sorted([*midpoint.nodes, 0.769])
    assert res.integral_bounds.contains((0.111**2 + 0.657**2) / 2, slack=1e-15)


def test_integrate_adaptive_overflow_leaves_the_lower_end_infinite():
    # on [354.5, 709] both h (f(x0)/2 + f(x1)/2) and the width overflow, so
    # the estimate is inf and the remainder [-inf, 0]: the integral's lower
    # end is -inf, not the undefined inf - inf
    best = _budget_best(catalog.exponential(Interval(0.0, 709.0)), 1e-3, 2)
    assert best.cells == 2
    assert (best.estimate, best.remainder.lo, best.remainder.hi) == (INF, -INF, 0.0)
    assert best.integral_bounds.as_tuple() == (-INF, INF)
