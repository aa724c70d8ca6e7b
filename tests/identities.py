"""Algebraic rewrites of the library's bounds, kept only to test them.

Each function restates a certified bound in a second closed form (grouped
by node instead of by cell, or specialized to differentiable functions).
The tests check that both forms agree, which pins the algebra of the
bounds without putting the rewrites in the public API.  ``centered_kink``
is the witness of the sharpness criteria: it attains equality in the
sharp bounds.  ``midpoint_rule_by_cell`` is the uniform midpoint rule as
its own loop over f and the one-sided derivatives, the reference for the
library's rule, which runs the tagged rule's one pass.  ``integrate_by_midpoint_cells`` is the adaptive integrator
on midpoint cells, two jet calls per split: the reference for the
library's trapezoid cells, which must build the same cells with the same
widths wherever no kink lies on a cell's midpoint.
The ``*_by_atom`` functions are the divergences and the gap bounds as one
loop step per atom that reads every slope the formulas name, the mixture
ratios' included: the references for the library's passes over the weight
tuples, which read a mixture ratio's slopes only at a declared kink.
"""

import heapq
import math
from dataclasses import replace

from convex_enclose import catalog
from convex_enclose.convex_core import ConvexFunction, Interval, require_slope_order
from convex_enclose.divergence import _INNER_FLOOR, _INNER_SHARE
from convex_enclose.errors import (
    BudgetExceededError,
    ConvexEncloseError,
    DomainError,
    InvalidInputError,
    UnboundedSlopeError,
)
from convex_enclose.extreal import INF, ensure_extended, xsum
from convex_enclose.pointwise import Enclosure
from convex_enclose.quadrature import (
    _RATE_AGREEMENT,
    _STOP_MARGIN,
    DEFAULT_MAX_CELLS,
    Partition,
    QuadratureResult,
    _column_sum,
    _midpoints,
    _require_spanning,
    integrate_adaptive,
    riemann_sum,
)


class DegenerateSlopesError(ConvexEncloseError):
    """The endpoint slopes coincide, so the quadratic form is undefined."""


class NotDifferentiableError(InvalidInputError):
    """Left and right derivatives disagree where a two-sided one is needed."""


def two_sided_derivative(f: ConvexFunction, t: float) -> float:
    """Two-sided derivative where the one-sided slopes agree.

    At a domain endpoint the single existing one-sided slope counts as the
    derivative (it must be finite).  Certified oracles must agree up to
    1e-9 relative; sampled oracles get a 1e-6 relative allowance for
    estimation noise.  Raises NotDifferentiableError at kinks.
    """
    if t == f.domain.lo or t == f.domain.hi:
        d = f.right_derivative(t) if t == f.domain.lo else f.left_derivative(t)
        if math.isfinite(d):
            return d
        raise NotDifferentiableError(f"infinite one-sided derivative at endpoint t={t}")
    dm = f.left_derivative(t)
    dp = f.right_derivative(t)
    if dm == dp and math.isfinite(dm):
        return dm
    tol = 1e-9 if f.certified else 1e-6
    if (
        math.isfinite(dm)
        and math.isfinite(dp)
        and abs(dp - dm) <= tol * max(1.0, abs(dm), abs(dp))
    ):
        return 0.5 * (dm + dp)
    raise NotDifferentiableError(f"left/right derivatives differ at t={t}: {dm} vs {dp}")


def remainder_upper_by_node(f: ConvexFunction, partition: Partition) -> float:
    """The upper remainder bound regrouped by node instead of by cell.

    Algebraically identical to remainder_enclosure's upper bound.
    """
    _require_spanning(f, partition)
    nodes, tags = partition.nodes, partition.tags
    a, b = nodes[0], nodes[-1]
    terms = []
    w_last = (b - tags[-1]) ** 2
    if w_last > 0.0:
        terms.append(w_last * f.left_derivative(b))
    for i in range(1, len(nodes) - 1):
        w_in = (nodes[i] - tags[i - 1]) ** 2
        if w_in > 0.0:
            terms.append(w_in * f.left_derivative(nodes[i]))
        w_out = (tags[i] - nodes[i]) ** 2
        if w_out > 0.0:
            terms.append(-w_out * f.right_derivative(nodes[i]))
    w_first = (tags[0] - a) ** 2
    if w_first > 0.0:
        terms.append(-w_first * f.right_derivative(a))
    return 0.5 * xsum(terms)


def differentiable_lower_form(f: ConvexFunction, partition: Partition) -> float:
    """Lower remainder bound  sum ((x_i + x_i+1)/2 - xi_i) h_i f'(xi_i).

    Valid when f is differentiable at every tag; equals the general lower
    bound there.  Raises NotDifferentiableError at a kinked tag.
    """
    _require_spanning(f, partition)
    return xsum(
        (0.5 * (x0 + x1) - xi) * (x1 - x0) * two_sided_derivative(f, xi)
        for x0, x1, xi in zip(partition.nodes, partition.nodes[1:], partition.tags)
    )


def differentiable_lower(f: ConvexFunction, x: float) -> float:
    """Lower bound ((a+b)/2 - x) * f'(x) for the mean gap mean(f) - f(x).

    Requires f differentiable at x (left and right slopes agree)."""
    if not f.domain.strictly_contains(x):
        raise DomainError("requires a strictly interior x")
    d = two_sided_derivative(f, x)
    return (f.domain.midpoint - x) * d


def quadratic_form_upper(f: ConvexFunction, x: float) -> float:
    """The endpoint-slope upper bound rewritten as a quadratic in x.

    With A = f'+(a), B = f'-(b), x0 = (bB - aA)/(B - A), returns
    (1/2)(B - A)[(x - x0)^2 - AB (b-a)^2 / (B-A)^2], which equals
    ostrowski_upper identically.  Requires finite A != B.
    """
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain")
    a_slope, b_slope = f.endpoint_slopes()
    if not (math.isfinite(a_slope) and math.isfinite(b_slope)):
        raise UnboundedSlopeError("quadratic form needs finite endpoint slopes")
    if b_slope == a_slope:
        raise DegenerateSlopesError("endpoint slopes coincide (affine case); use ostrowski_upper")
    a, b = f.domain.lo, f.domain.hi
    spread = b_slope - a_slope
    x0 = (b * b_slope - a * a_slope) / spread
    return 0.5 * spread * ((x - x0) ** 2 - a_slope * b_slope * (b - a) ** 2 / spread**2)


def centered_kink(interval: Interval, k: float = 1.0) -> ConvexFunction:
    """k * |t - midpoint|: the witness achieving equality in the sharp bounds."""
    f = catalog.abs_shift(interval.midpoint, interval)
    return f if k == 1.0 else f.scaled(k)


def midpoint_rule_by_cell(f: ConvexFunction, n: int):
    """(estimate, remainder, partition) of the uniform midpoint rule on n cells.

    The remainder is sandwiched by the tagged rule's bounds at m_i, whose
    weights (x_i+1 - m_i)^2 and (m_i - x_i)^2 are both (h_i / 2)^2,
        (1/2) sum (h_i/2) ((h_i/2) f'+(m_i)) - (h_i/2) ((h_i/2) f'-(m_i))
    and (1/2) sum (h_i/2) ((h_i/2) f'-(x_i+1)) - (h_i/2) ((h_i/2) f'+(x_i)),
    each slope multiplied by h_i/2 before the second factor, each cell's
    terms read through f's one-sided derivatives and summed left to right.
    """
    nodes = f.domain.grid(n)
    partition = Partition(nodes, _midpoints(nodes))
    estimate = riemann_sum(f, partition)
    lo_terms = []
    hi_terms = []
    for x0, x1, m in zip(nodes, nodes[1:], partition.tags):
        h = 0.5 * (x1 - x0)
        lo_terms.append(h * (h * f.right_derivative(m)) - h * (h * f.left_derivative(m)))
        hi_terms.append(h * (h * f.left_derivative(x1)) - h * (h * f.right_derivative(x0)))
    return estimate, Enclosure(0.5 * xsum(lo_terms), 0.5 * xsum(hi_terms)), partition


def _midpoint_cell(f: ConvexFunction, slot, x0, x1, dp0, dm1) -> tuple:
    """The midpoint cell (-width, slot, x0, x1, f'+(x0), f'-(x1), f'-(m),
    f'+(m), h f(m), lo, hi) from one jet call at m; a NaN width becomes INF."""
    m = 0.5 * (x0 + x1)
    v, dmm, dpm = f.interior_jet()(m)
    slack = f.slope_slack
    if dp0 > dmm:
        require_slope_order(dp0, dmm, x0, m, slack)
    if dpm > dm1:
        require_slope_order(dpm, dm1, m, x1, slack)
    h = x1 - x0
    h2 = h * h
    hi_term = 0.125 * h2 * (dm1 - dp0)
    lo_term = 0.125 * h2 * (dpm - dmm)
    w = hi_term - lo_term
    if w != w:
        ensure_extended(dmm)
        ensure_extended(dpm)
        w = INF
    return (-w, slot, x0, x1, dp0, dm1, dmm, dpm, h * v, lo_term, hi_term)


def _midpoint_result(cells: list, b: float) -> QuadratureResult:
    """The result on midpoint cells that tile [a, b]."""
    lo, hi = _column_sum(cells, 9), _column_sum(cells, 10)
    return QuadratureResult(_column_sum(cells, 8), Enclosure(lo, hi),
                            (*(cell[2] for cell in cells), b))


def integrate_by_midpoint_cells(f: ConvexFunction, tol: float,
                                max_cells: int = DEFAULT_MAX_CELLS):
    """integrate_adaptive on midpoint cells: the same seeds, heap order, tie
    rule, checkpoints and retire rule, each cell evaluated at its midpoint,
    so a split makes two jet calls.  Returns the result or raises
    BudgetExceededError with the best one, as integrate_adaptive does."""
    at_lo, at_hi = f.endpoint_slopes()
    if not (math.isfinite(at_lo) and math.isfinite(at_hi)):
        raise UnboundedSlopeError("infinite endpoint slope")
    lo, hi = f.domain.lo, f.domain.hi
    kinks = sorted({float(k) for k in f.kinks if lo < k < hi})
    if len(kinks) >= max_cells:
        stride = len(kinks) / max_cells
        kinks = [kinks[int((i + 1) * stride)] for i in range(max_cells - 1)]
    nodes = [lo, *kinks, hi]
    _midpoints(nodes)
    cells = [_midpoint_cell(f, i, x0, x1, dp0, dm1) for i, (x0, x1, dp0, dm1) in enumerate(
        zip(nodes, nodes[1:], [at_lo, *map(f.right_derivative, kinks)],
            [*map(f.left_derivative, kinks), at_hi]))]
    heap, done = [], []
    running, unbounded, count = 0.0, 0, len(nodes) - 1
    limit = min(max(16, 1 << (count - 1).bit_length()), max_cells)
    predicted = INF
    for cell in cells:
        if cell[0] == -INF:
            unbounded += 1
        else:
            running -= cell[0]
        if cell[0] < 0.0:
            heapq.heappush(heap, cell)
        else:
            done.append(cell)

    while True:
        if not unbounded and running <= tol:
            result = _midpoint_result(done + heap, hi)
            if result.width <= tol:
                return result
            running = result.width
        if count >= limit or not heap:
            if count >= max_cells or not heap:
                break
            previous = predicted
            predicted = INF if unbounded else running * (count / max_cells) ** 2
            if (predicted > _STOP_MARGIN * tol
                    and abs(predicted / previous - 1.0) <= _RATE_AGREEMENT):
                break
            limit = min(2 * limit, max_cells)
        neg_w, i, x0, x1, dp0, dm1, dmm, dpm = heap[0][:8]
        m = 0.5 * (x0 + x1)
        if not x0 < 0.5 * (x0 + m) < m < 0.5 * (m + x1) < x1:
            done.append(heapq.heappop(heap))
            continue
        heapq.heappop(heap)
        if neg_w == -INF:
            unbounded -= 1
        else:
            running += neg_w
        for cell in (_midpoint_cell(f, i, x0, m, dp0, dmm),
                     _midpoint_cell(f, count, m, x1, dpm, dm1)):
            if cell[0] == -INF:
                unbounded += 1
            else:
                running -= cell[0]
            if cell[0] < 0.0:
                heapq.heappush(heap, cell)
            else:
                done.append(cell)
        count += 1
    done.extend(heap)
    best = _midpoint_result(done, hi)
    raise BudgetExceededError(f"enclosure width {best.width:.3e} > tol {tol:.3e}", best=best)


def csiszar_by_atom(kernel: ConvexFunction, p, q) -> float:
    """sum p_i f(q_i / p_i), one kernel call per atom."""
    return math.fsum(pi * kernel.fn(qi / pi) for pi, qi in zip(p, q))


def lin_wong_by_atom(kernel: ConvexFunction, p, q) -> float:
    """sum p_i f((p_i + q_i) / (2 p_i)), one kernel call per atom."""
    return math.fsum(pi * kernel.fn((pi + qi) / (2.0 * pi)) for pi, qi in zip(p, q))


def hh_by_atom(kernel: ConvexFunction, p, q) -> float:
    """sum p_i * (mean of the kernel between 1 and q_i/p_i), each mean from
    the antiderivative or, without one, from certified quadrature."""
    anti = kernel.antiderivative
    at_one = None if anti is None else anti(1.0)

    def mean_from_one(r):
        if r == 1.0:
            return 0.0
        if anti is not None:
            return (anti(r) - at_one) / (r - 1.0)
        lo, hi = (1.0, r) if r > 1.0 else (r, 1.0)
        f_lo, f_hi = kernel.fn(lo), kernel.fn(hi)
        spread = 0.5 * (f_lo + f_hi) - kernel.fn(0.5 * (lo + hi))
        tol = (hi - lo) * max(_INNER_SHARE * spread,
                              _INNER_FLOOR * max(1.0, abs(f_lo), abs(f_hi)))
        result = integrate_adaptive(replace(kernel, domain=Interval(lo, hi)), tol=tol)
        integral = result.estimate + (2.0 / 3.0) * result.remainder.lo
        signed = integral if r > 1.0 else -integral
        return signed / (r - 1.0)

    return math.fsum(pi * mean_from_one(qi / pi) for pi, qi in zip(p, q))


def sandwich_by_atom(kernel: ConvexFunction, p, q) -> tuple:
    """(lin_wong, hh, csiszar / 2) from the per-atom loops."""
    return (lin_wong_by_atom(kernel, p, q), hh_by_atom(kernel, p, q),
            0.5 * csiszar_by_atom(kernel, p, q))


def gap_bounds_by_atom(kernel: ConvexFunction, p, q) -> Enclosure:
    """The enclosure of hh - lin_wong with both slopes read at every
    mixture ratio m_i, differentiable there or not."""
    dminus, dplus = kernel.dminus, kernel.dplus
    d_minus_one = dminus(1.0)
    d_plus_one = dplus(1.0)
    lo_terms = []
    hi_terms = []
    for pi, qi in zip(p, q):
        mid = (pi + qi) / (2.0 * pi)
        lo_terms.append((dplus(mid) - dminus(mid)) * abs(qi - pi))
        r = qi / pi
        if qi >= pi:
            hi_terms.append((dminus(r) - d_plus_one) * (qi - pi))
        else:
            hi_terms.append((d_minus_one - dplus(r)) * (pi - qi))
    return Enclosure(0.125 * xsum(lo_terms), 0.125 * xsum(hi_terms))
