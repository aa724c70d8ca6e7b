"""Composite quadrature with certified remainder enclosures.

A tagged partition a = x0 < ... < xn = b with tags xi_i in [x_i, x_i+1]
defines the Riemann sum  sum h_i f(xi_i).  For convex f the pointwise
bounds sandwich each cell's share of the remainder  integral - sum  by
one-sided slopes at its tag and its ends.  One pass, the tagged rule, takes
the sum and both bounds: remainder_enclosure runs it on any tagged
partition, midpoint_rule on n uniform cells tagged at their midpoints.
integrate_adaptive bisects trapezoid cells, one flat tuple each, with one
jet call (f and both one-sided slopes) per split: by the counterpart to
Hermite-Hadamard, a trapezoid cell's remainder lies in
[-(1/8) h^2 [f'-(x_i+1) - f'+(x_i)], 0], the midpoint cell's width where
f'-(m_i) = f'+(m_i).  Slopes or remainder ends out of order raise
NonConvexError.

Per-cell terms are summed with math.fsum in whatever order the cells lie.
fsum rounds correctly, so the bits do not depend on that order; only a sum
that overflows midway does, and it is taken again in node order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter, lt

from .convex_core import ConvexFunction, Interval, require_slope_order
from .errors import (
    BudgetExceededError,
    DomainError,
    NonConvexError,
    PartitionError,
    UnboundedSlopeError,
)
from .extreal import INF, ensure_extended, xsum
from .pointwise import Enclosure

DEFAULT_MAX_CELLS = 2**20
# integrate_adaptive's fail-fast rule (see its docstring).  Of 1,206 requests
# that succeed, none predicts more than 1.31 tol for its own final cell count
# at a checkpoint whose prediction agrees with the one before within 10%.
_STOP_MARGIN = 4.0
_RATE_AGREEMENT = 0.1


@dataclass(frozen=True)
class Partition:
    """Sorted nodes spanning an interval plus one tag per cell."""

    nodes: tuple
    tags: tuple

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        tags = tuple(float(x) for x in self.tags)
        if len(nodes) < 2:
            raise PartitionError("a partition needs at least two nodes")
        if any(u >= v for u, v in zip(nodes, nodes[1:])):
            raise PartitionError("nodes must be strictly increasing")
        if len(tags) != len(nodes) - 1:
            raise PartitionError("need exactly one tag per cell")
        for x0, x1, xi in zip(nodes, nodes[1:], tags):
            if not x0 <= xi <= x1:
                raise PartitionError(f"tag {xi} outside its cell [{x0}, {x1}]")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tags", tags)

    def spans(self, interval: Interval) -> bool:
        return self.nodes[0] == interval.lo and self.nodes[-1] == interval.hi


@dataclass(frozen=True)
class QuadratureResult:
    """Rule value plus a certified enclosure of integral - estimate."""

    estimate: float
    remainder: Enclosure
    nodes: tuple  # the partition's nodes, in any order

    @property
    def cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def integral_bounds(self) -> Enclosure:
        lo, hi = self.remainder.lo, self.remainder.hi  # an infinite end stays infinite
        return Enclosure(lo if lo == -INF else self.estimate + lo,
                         hi if hi == INF else self.estimate + hi)

    @property
    def width(self) -> float:
        return self.remainder.width


def _require_spanning(f: ConvexFunction, partition: Partition):
    if not partition.spans(f.domain):
        raise PartitionError(
            f"partition [{partition.nodes[0]}, {partition.nodes[-1]}] does not span "
            f"the domain [{f.domain.lo}, {f.domain.hi}]"
        )


def riemann_sum(f: ConvexFunction, partition: Partition) -> float:
    """sum of h_i * f(tag_i) over the cells, left to right."""
    _require_spanning(f, partition)
    nodes = partition.nodes
    return xsum((x1 - x0) * f(xi) for x0, x1, xi in zip(nodes, nodes[1:], partition.tags))


def remainder_enclosure(f: ConvexFunction, partition: Partition) -> Enclosure:
    """Certified enclosure of  integral - riemann_sum  for a convex f.

    Lower: (1/2) sum (x_i+1 - xi_i)^2 f'+(xi_i) - (xi_i - x_i)^2 f'-(xi_i)
    Upper: the same with the slopes moved to the cell endpoints.
    A side whose squared weight is zero (tag on a cell endpoint) is never
    used, so tags at the domain ends stay well defined.  Infinite endpoint
    slopes propagate to the corresponding bound.  A tag on its cell's float
    midpoint weighs as the exact midpoint.  Raises NonConvexError when the
    slopes are out of order, or the bounds are.
    """
    _require_spanning(f, partition)
    return _tagged_rule(f, partition.nodes, partition.tags)[1]


def midpoint_rule(f: ConvexFunction, n: int) -> QuadratureResult:
    """Uniform midpoint rule with a certified remainder enclosure.

    remainder_enclosure's tagged rule on n equal cells tagged at their
    midpoints m_i, with 2n - 1 jet calls, where its bounds become
        (1/8) sum [f'+(m_i) - f'-(m_i)] h_i^2   (always >= 0)
    and (1/8) sum [f'-(x_i+1) - f'+(x_i)] h_i^2,
    both attained by kink functions, so the 1/8 cannot be improved.
    Raises PartitionError when a cell has no interior float midpoint.
    """
    if n < 1:
        raise PartitionError("need at least one cell")
    nodes = f.domain.grid(n)
    estimate, remainder = _tagged_rule(f, nodes, _midpoints(nodes))
    return QuadratureResult(estimate, remainder, tuple(nodes))


def integrate_adaptive(f: ConvexFunction, tol: float,
                       max_cells: int = DEFAULT_MAX_CELLS) -> QuadratureResult:
    """Certified integration by global adaptive bisection of trapezoid cells.

    The first nodes are the domain ends and the interior ``f.kinks``.  A
    cell [x0, x1] of length h holds f(x0), f(x1), s0 = f'+(x0) and
    s1 = f'-(x1); by the counterpart to Hermite-Hadamard its integral lies
    in [T - W, T], with T = h (f(x0)/2 + f(x1)/2) and W = (1/8) h^2 (s1 - s0).
    The cell whose width W is largest (ties: the one created first) is
    bisected until the total width is <= tol.  A split makes one jet call
    (see ``ConvexFunction.interior_jet``) at the midpoint m, whose value
    and slopes both children take, so f is evaluated once at every node.
    A cell waits in the heap as the tuple (-W, slot, x0, x1, f(x0), f(x1),
    s0, s1, T).  The left child keeps its parent's slot and the right child
    takes the next number, so ties go to the older cell and no comparison
    reads past the slot.  Cells of no positive width, and cells too narrow
    to bisect twice, go to a ``done`` list.  A running sum of the widths
    only decides when to test the result's own width, summed over ``done``
    and the heap as they lie.

    A request that cannot succeed fails fast.  A cell of length h has a
    finite width only if h * h is finite, h < 2^512, so a domain longer
    than max_cells * 2^512 raises before the first split.  A smooth cell's
    width falls like h^3, so once the kinks are seeded the total width W(N)
    of N cells falls like N^-2.  At each checkpoint, a power of two N >= 16 below
    max_cells, while no cell has an infinite width, W(N) predicts
    P(N) = W(N) (N / max_cells)^2 for the full budget.  When P(N) exceeds
    4 tol (``_STOP_MARGIN``) and agrees with P(N/2) within 10%
    (``_RATE_AGREEMENT``), so that the rate has settled, the budget is
    taken to be out of reach and the best result of N cells is raised.
    A checkpoint only ever raises: a request it lets through ends with the
    same result, bit for bit, as without it.

    The result's estimate is the trapezoid sum and its remainder is
    [-(sum of W), 0] (-inf with an infinite width).  Requires finite
    endpoint slopes (otherwise the width never becomes finite).  Raises
    DomainError when max_cells < 1, NonConvexError when the slopes it
    reads are out of order or a cell of width 0 is not affine, and
    BudgetExceededError carrying the best result when max_cells cells, or
    the floating-point resolution, are exhausted, or when a checkpoint
    predicts that max_cells cells cannot reach tol.  With more kinks than
    fit in max_cells cells, an evenly strided subset of them seeds the
    partition.
    """
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    if max_cells < 1:
        raise DomainError(f"max_cells must be at least 1, got {max_cells}")
    at_lo, at_hi = f.endpoint_slopes()
    if not (math.isfinite(at_lo) and math.isfinite(at_hi)):
        raise UnboundedSlopeError(
            "certified width cannot converge with an infinite endpoint slope"
        )
    lo, hi = f.domain.lo, f.domain.hi
    kinks = sorted({float(k) for k in f.kinks if lo < k < hi})
    if len(kinks) >= max_cells:
        stride = len(kinks) / max_cells
        kinks = [kinks[int((i + 1) * stride)] for i in range(max_cells - 1)]
    nodes = [lo, *kinks, hi]
    _midpoints(nodes)
    values = [*map(f, nodes)]
    seeds = zip(nodes, nodes[1:], values, values[1:], [at_lo, *map(f.right_derivative, kinks)],
                [*map(f.left_derivative, kinks), at_hi])
    jet = f.interior_jet()
    slack = f.slope_slack
    heappop, heapreplace, heappush = heapq.heappop, heapq.heapreplace, heapq.heappush
    heap = []  # cells, (-width, slot, ...): the widest first, ties to the older slot
    done = []  # cells that are never split again
    running = 0.0  # sum of the finite cell widths; it triggers the stop test and predicts
    unbounded = 0  # cells of infinite width
    count = len(nodes) - 1  # cells so far, and the next slot
    # the next checkpoint (a power of two >= 16) or the budget, whichever is first
    limit = min(max(16, 1 << (count - 1).bit_length()), max_cells)
    predicted = INF  # the width predicted for max_cells cells at the last checkpoint
    for i, (x0, x1, v0, v1, s0, s1) in enumerate(seeds):  # in slot order
        h = x1 - x0
        w = 0.125 * (h * h) * (s1 - s0)
        w = INF if w != w else w  # inf - inf
        cell = (-w, i, x0, x1, v0, v1, s0, s1, h * (0.5 * v0 + 0.5 * v1))
        if w == INF:
            unbounded += 1
        else:
            running += w
        if w > 0.0:
            heappush(heap, cell)
        else:
            _require_affine(cell, slack)
            done.append(cell)

    if (hi - lo) / 2.0**512 > max_cells:  # h * h overflows unless h < 2^512
        best = _result(done + heap, hi)
        raise BudgetExceededError(
            f"enclosure width {best.width:.3e} > tol {tol:.3e} after {best.cells} cells; "
            f"a finite width needs cells narrower than 2^512, more than max_cells = {max_cells}",
            best=best)
    while True:
        if not unbounded and running <= tol:
            result = _result(done + heap, hi)
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
        neg_w, i, x0, x1, v0, v1, s0, s1, _ = heap[0]
        m = 0.5 * (x0 + x1)
        if not x0 < 0.5 * (x0 + m) < m < 0.5 * (m + x1) < x1:
            done.append(heappop(heap))  # too narrow to bisect in floating point
            continue
        vm, dmm, dpm = jet(m)
        if s0 > dmm:
            require_slope_order(s0, dmm, x0, m, slack)
        if dmm > dpm:
            require_slope_order(dmm, dpm, m, m, slack)
        if dpm > s1:
            require_slope_order(dpm, s1, m, x1, slack)
        h = m - x0
        wl = 0.125 * (h * h) * (dmm - s0)
        if wl != wl:  # a NaN slope, or inf - inf after an overflow
            ensure_extended(dmm)
            wl = INF
        left = (-wl, i, x0, m, v0, vm, s0, dmm, h * (0.5 * v0 + 0.5 * vm))
        h = x1 - m
        wr = 0.125 * (h * h) * (s1 - dpm)
        if wr != wr:
            ensure_extended(dpm)
            wr = INF
        right = (-wr, count, m, x1, vm, v1, dpm, s1, h * (0.5 * vm + 0.5 * v1))

        if neg_w == -INF:
            unbounded -= 1
        else:
            running += neg_w
        if wl == INF:
            unbounded += 1
        else:
            running += wl
        if wr == INF:
            unbounded += 1
        else:
            running += wr
        if wl > 0.0:
            heapreplace(heap, left)
        else:
            _require_affine(left, slack)
            heappop(heap)
            done.append(left)
        if wr > 0.0:
            heappush(heap, right)
        else:
            _require_affine(right, slack)
            done.append(right)
        count += 1

    note = ""
    if heap and count < max_cells:
        note = (f"; stopped early, since max_cells = {max_cells} cells are predicted "
                f"to leave a width of {predicted:.3e}")
    done.extend(heap)
    del heap  # free the queue before the result's node list is built
    best = _result(done, hi)
    raise BudgetExceededError(
        f"enclosure width {best.width:.3e} > tol {tol:.3e} after {best.cells} cells{note}",
        best=best,
    )


def _midpoints(nodes) -> list:
    """The cells' float midpoints; PartitionError unless every one lies
    strictly inside its cell."""
    uppers = nodes[1:]
    mids = [0.5 * (u + v) for u, v in zip(nodes, uppers)]
    if not (all(map(lt, nodes, mids)) and all(map(lt, mids, uppers))):
        raise PartitionError("a cell is too narrow to have an interior midpoint")
    return mids


def _tagged_rule(f: ConvexFunction, nodes, tags) -> tuple:
    """(Riemann sum, remainder enclosure) of remainder_enclosure's rule on
    nodes spanning f's domain, in one pass: the endpoint slopes, one read
    of each interior node's slopes and one jet call at each interior tag
    (f at a tag on a domain end, whose inner slope is an endpoint slope)."""
    lo, hi = f.domain.lo, f.domain.hi
    at_lo, at_hi = f.endpoint_slopes()
    inner = [*map(f.interior_slopes, nodes[1:-1])]
    rights = [at_lo, *(dp for _, dp in inner)]  # f'+ at nodes[:-1]
    lefts = [*(dm for dm, _ in inner), at_hi]  # f'- at nodes[1:]
    jet = f.interior_jet()
    slack = f.slope_slack
    terms = []
    lo_terms = []
    hi_terms = []
    add_term, add_lo, add_hi = terms.append, lo_terms.append, hi_terms.append
    for x0, x1, xi, dp0, dm1 in zip(nodes, nodes[1:], tags, rights, lefts):
        if lo < xi < hi:
            v, dm, dp = jet(xi)
            if dm > dp:
                require_slope_order(dm, dp, xi, xi, slack)
        else:
            v = f(xi)
            dm = dp = at_lo if xi == lo else at_hi
        add_term((x1 - x0) * v)
        mid = xi == 0.5 * (x0 + x1)  # the float midpoint weighs as the exact one
        right = 0.5 * (x1 - x0) if mid else x1 - xi
        left = right if mid else xi - x0
        cell_lo = 0.0
        cell_hi = 0.0
        if right > 0.0:  # slope first: right * right can overflow where the term does not
            if dp > dm1:
                require_slope_order(dp, dm1, xi, x1, slack)
            cell_lo += right * (right * dp)
            cell_hi += right * (right * dm1)
        if left > 0.0:
            if dp0 > dm:
                require_slope_order(dp0, dm, x0, xi, slack)
            cell_lo -= left * (left * dm)
            cell_hi -= left * (left * dp0)
        add_lo(cell_lo)
        add_hi(cell_hi)
    return xsum(terms), _ordered(0.5 * xsum(lo_terms), 0.5 * xsum(hi_terms))


def _ordered(lo: float, hi: float) -> Enclosure:
    """[lo, hi].  Convex slopes are in order in every cell, and rounded
    arithmetic and fsum are monotone, so ends out of order prove f not convex."""
    if lo > hi:
        raise NonConvexError(
            f"one-sided slopes out of order (remainder bounds [{lo!r}, {hi!r}]); "
            "the function is not convex"
        )
    return Enclosure(lo, hi)


def _result(cells: list, b: float) -> QuadratureResult:
    """The result on trapezoid cells that tile [a, b], with -width in field
    0, x0 in field 2 and the estimate's term in field 8."""
    remainder = _ordered(_column_sum(cells, 0), 0.0)
    return QuadratureResult(_column_sum(cells, 8), remainder, (*map(itemgetter(2), cells), b))


def _require_affine(cell: tuple, slack: float) -> None:
    """NonConvexError unless a trapezoid cell of no positive width is affine
    as far as its values tell: unless h^2 underflowed (s0 < s1),
    f(x1) - f(x0) = s0 h within slack of the values and of s0 h.  (Slopes
    out of order make the remainder's ends out of order; see _ordered.)"""
    _, _, x0, x1, v0, v1, s0, s1, _ = cell
    if s0 < s1:
        return
    h = x1 - x0
    if abs(v1 - v0 - s0 * h) > slack * max(abs(v0), abs(v1), h * max(1.0, abs(s0))):
        raise NonConvexError(
            f"one-sided slopes out of order with the values: f'+({x0!r}) = {s0!r} and "
            f"f'-({x1!r}) = {s1!r}, but the chord's slope is {(v1 - v0) / h!r}; "
            "the function is not convex"
        )


def _column_sum(cells: list, k: int) -> float:
    """xsum of field k of the cells as they lie, or in node order where fsum raises."""
    try:
        total = math.fsum(map(itemgetter(k), cells))
    except (OverflowError, ValueError):  # only an overflow midway depends on the order
        cells.sort(key=itemgetter(2))
        return xsum([cell[k] for cell in cells])
    return ensure_extended(total)
