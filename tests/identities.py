"""Algebraic rewrites of the library's bounds, kept only to test them.

Each function restates a certified bound in a second closed form (grouped
by node instead of by cell, or specialized to differentiable functions).
The tests check that both forms agree, which pins the algebra of the
bounds without putting the rewrites in the public API.  ``centered_kink``
is the witness of the sharpness criteria: it attains equality in the
sharp bounds.  ``midpoint_rule_by_cell`` is the uniform midpoint rule as
its own loop over f and the one-sided derivatives, the reference for the
library's rule, which builds its cells as the adaptive integrator does.
The ``*_by_atom`` functions are the divergences and the gap bounds as one
loop step per atom that reads every slope the formulas name, the mixture
ratios' included: the references for the library's passes over the weight
tuples, which read a mixture ratio's slopes only at a declared kink.
"""

import math
from dataclasses import replace

from convex_enclose import catalog
from convex_enclose.convex_core import ConvexFunction, Interval
from convex_enclose.divergence import _INNER_FLOOR, _INNER_SHARE
from convex_enclose.errors import (
    ConvexEncloseError,
    DomainError,
    InvalidInputError,
    UnboundedSlopeError,
)
from convex_enclose.extreal import xsum
from convex_enclose.pointwise import Enclosure
from convex_enclose.quadrature import (
    Partition,
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
        for x0, x1, xi in partition.iter_cells()
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

    The remainder is sandwiched by
        (1/8) sum [f'+(m_i) - f'-(m_i)] h_i^2
    and (1/8) sum [f'-(x_i+1) - f'+(x_i)] h_i^2,
    each cell's terms read through f's one-sided derivatives and summed
    left to right.
    """
    partition = Partition.uniform(f.domain, n)
    estimate = riemann_sum(f, partition)
    lo_terms = []
    hi_terms = []
    for x0, x1, m in partition.iter_cells():
        h2 = (x1 - x0) ** 2
        lo_terms.append(0.125 * h2 * (f.right_derivative(m) - f.left_derivative(m)))
        hi_terms.append(0.125 * h2 * (f.left_derivative(x1) - f.right_derivative(x0)))
    return estimate, Enclosure(xsum(lo_terms), xsum(hi_terms)), partition


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
        integral = result.estimate + 0.5 * (result.remainder.lo + result.remainder.hi)
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
