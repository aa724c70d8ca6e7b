"""Convex functions on closed intervals with one-sided derivative oracles.

A convex function f on [lo, hi] has finite one-sided derivatives at every
interior point, with

    f'+(s) <= f'-(t) <= f'+(t)    for all interior s < t,

and possibly infinite slopes at the endpoints: f'+(lo) may be -inf and
f'-(hi) may be +inf.  Every bound in this package consumes functions
through this interface.  Derivative oracles are either closed form
(``certified=True``: the catalog module and every parsed expression) or
estimated from samples by monotone difference quotients (``certified=False``:
black-box callables, and the CDF of a black-box density).

A function may also carry a ``jet``, one call that returns f and both
one-sided slopes at an interior point, so that the integrator pays one
oracle call per point instead of three (see :class:`Jet`).

Convexity itself is either proved (``proved_convex=True``: the expression
frontend's composition rules) or falsified by sampling: ``require_convex``
trusts a proof and samples everything else with ``check_convexity``.
``require_supporting_lines`` checks the few points a bound consumes, for
a non-convex dip between the samples or slopes out of order.

All objects are immutable and all oracles are pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError, NonConvexError, UndefinedSideError
from .extreal import ensure_extended

_MAX_HALVINGS = 40
_CONVERGENCE_ABS = 1e-9
_NOISE_FLOOR_REL = 1e-6
_CONVEXITY_SAMPLES = 129


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite endpoints and lo < hi, whose
    width and midpoint are finite too."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("interval endpoints must be finite")
        if not lo < hi:
            raise DomainError(f"degenerate interval [{lo}, {hi}]")
        if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
            raise DomainError(f"interval [{lo}, {hi}] is too wide for float arithmetic")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, t: float) -> bool:
        return self.lo <= t <= self.hi

    def strictly_contains(self, t: float) -> bool:
        return self.lo < t < self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class EndpointSlopes:
    """Right derivative at the lower endpoint, left derivative at the upper.

    Either value may be infinite (-inf at the lower end, +inf at the
    upper); for a convex function ``at_lo <= at_hi``.
    """

    at_lo: float
    at_hi: float

    def __post_init__(self):
        object.__setattr__(self, "at_lo", ensure_extended(self.at_lo))
        object.__setattr__(self, "at_hi", ensure_extended(self.at_hi))

    @property
    def both_finite(self) -> bool:
        return math.isfinite(self.at_lo) and math.isfinite(self.at_hi)


def _one_sided_limit(g, t, span, limit, sign):
    """Limit of a monotone g(s) as s tends to t from the side of ``limit``.

    g is a difference quotient (f(s) - f(t)) / (s - t) of a convex f, or a
    monotone density.  Steps are halved from span/16, capped at
    max(1, |t|) so that a huge domain is still probed near t, and stop
    when successive values stabilize, when their differences start
    growing again after nearly stabilizing (the floating-point noise
    floor), or after 40 halvings.  Divergent sequences (a vertical
    tangent) run the full 40 halvings and return a value of large
    magnitude.
    """
    h = min(span / 16.0, max(1.0, abs(t)), abs(limit - t))
    prev = None
    prev_d = None
    for _ in range(_MAX_HALVINGS + 1):
        s = t + sign * h
        if (sign > 0 and s > limit) or (sign < 0 and s < limit):
            s = limit
        if s == t:
            break
        v = g(s)
        if prev is not None:
            d = abs(v - prev)
            scale = max(1.0, abs(v))
            if d <= _CONVERGENCE_ABS * scale:
                return v
            if prev_d is not None and d > prev_d and prev_d <= _NOISE_FLOOR_REL * scale:
                return prev
            prev_d = d
        prev = v
        h *= 0.5
    return prev


@dataclass(frozen=True)
class Jet:
    """A fused oracle t -> (f(t), f'-(t), f'+(t)) for interior t, and the
    three oracles it fuses: it returns what they return, bit for bit, and
    raises what the first of f'-, f'+ and f to raise would raise."""

    call: Callable[[float], tuple]
    fn: Callable[[float], float]
    dminus: Optional[Callable[[float], float]]
    dplus: Optional[Callable[[float], float]]

    def fuses(self, f: "ConvexFunction") -> bool:
        return self.fn is f.fn and self.dminus is f.dminus and self.dplus is f.dplus


@dataclass(frozen=True)
class ConvexFunction:
    """A convex function with evaluation and one-sided derivative oracles.

    ``certified`` marks closed-form derivative oracles; functions wrapped
    from a bare callable (see :meth:`from_callable`) estimate their
    one-sided derivatives from samples instead and carry
    ``certified=False``.

    ``antiderivative``, when present, must be exact on the whole domain
    (kinks included); only the reference oracle consumes it.  ``kinks``
    lists interior points where the two one-sided derivatives differ.
    ``proved_convex`` marks a function whose convexity on the domain was
    proved, so that :func:`require_convex` need not sample it.

    ``jet`` is an optional :class:`Jet`; a bare callable given here fuses
    the ``fn``, ``dminus`` and ``dplus`` given with it.  It is used only
    while those are still this function's oracles, so that
    ``dataclasses.replace(f, fn=g)``, or a copy that counts calls, reads
    its own oracles.
    """

    domain: Interval
    fn: Callable[[float], float] = field(repr=False)
    dminus: Optional[Callable[[float], float]] = field(default=None, repr=False)
    dplus: Optional[Callable[[float], float]] = field(default=None, repr=False)
    antiderivative: Optional[Callable[[float], float]] = field(default=None, repr=False)
    kinks: tuple = ()
    name: str = ""
    certified: bool = True
    proved_convex: bool = False
    jet: Optional[Jet] = field(default=None, repr=False)

    def __post_init__(self):
        if self.certified and (self.dminus is None or self.dplus is None):
            raise ValueError("certified functions need both closed-form derivative oracles")
        if self.jet is not None and not isinstance(self.jet, Jet):
            object.__setattr__(self, "jet", Jet(self.jet, self.fn, self.dminus, self.dplus))

    @classmethod
    def from_callable(cls, fn, domain: Interval) -> "ConvexFunction":
        """Wrap a black-box callable; derivatives are estimated on demand."""
        return cls(domain=domain, fn=fn, certified=False)

    def __call__(self, t: float) -> float:
        if not self.domain.contains(t):
            raise DomainError(f"t={t} outside domain [{self.domain.lo}, {self.domain.hi}]")
        return float(self.fn(t))

    def right_derivative(self, t: float) -> float:
        """f'+(t) for t in [lo, hi); may be -inf at t = lo."""
        if t == self.domain.hi:
            raise UndefinedSideError("no right derivative at the upper endpoint")
        if not self.domain.contains(t):
            raise DomainError(f"t={t} outside domain [{self.domain.lo}, {self.domain.hi}]")
        if self.dplus is not None:
            return ensure_extended(self.dplus(t))
        return ensure_extended(self._sampled_slope(t, self.domain.hi, +1))

    def left_derivative(self, t: float) -> float:
        """f'-(t) for t in (lo, hi]; may be +inf at t = hi."""
        if t == self.domain.lo:
            raise UndefinedSideError("no left derivative at the lower endpoint")
        if not self.domain.contains(t):
            raise DomainError(f"t={t} outside domain [{self.domain.lo}, {self.domain.hi}]")
        if self.dminus is not None:
            return ensure_extended(self.dminus(t))
        return ensure_extended(self._sampled_slope(t, self.domain.lo, -1))

    def interior_jet(self) -> Callable[[float], tuple]:
        """t -> (f(t), f'-(t), f'+(t)) for interior t, without domain checks.

        The fused ``jet`` while it fuses this function's oracles; otherwise
        an adapter that calls f'-, f'+ and f in that order (sampled slopes
        where there is no closed form).
        """
        if self.jet is not None and self.jet.fuses(self):
            return self.jet.call
        fn = self.fn
        dminus = self.dminus or self.left_derivative
        dplus = self.dplus or self.right_derivative

        def adapter(t):
            dm = dminus(t)
            dp = dplus(t)
            return fn(t), dm, dp
        return adapter

    def _sampled_slope(self, t: float, limit: float, sign: int) -> float:
        """Limit of the difference quotients at t towards ``limit``."""
        fn = self.fn
        f0 = fn(t)
        return _one_sided_limit(lambda s: (fn(s) - f0) / (s - t), t, self.domain.width,
                                limit, sign)

    @property
    def slope_slack(self) -> float:
        """Relative slack of :func:`require_slope_order` for this function's
        slopes: closed-form slopes differ only by rounding, sampled ones are
        estimates."""
        return 1e-9 if self.certified else 1e-6

    def endpoint_slopes(self) -> EndpointSlopes:
        return EndpointSlopes(
            self.right_derivative(self.domain.lo),
            self.left_derivative(self.domain.hi),
        )

    def scaled(self, k: float) -> "ConvexFunction":
        """k * f for k > 0 (preserves convexity and all oracles exactly)."""
        k = float(k)
        if not (math.isfinite(k) and k > 0.0):
            raise ValueError("scale factor must be positive and finite")
        fn, dm, dp, anti = self.fn, self.dminus, self.dplus, self.antiderivative
        return ConvexFunction(
            domain=self.domain,
            fn=lambda t: k * fn(t),
            dminus=None if dm is None else (lambda t: k * dm(t)),
            dplus=None if dp is None else (lambda t: k * dp(t)),
            antiderivative=None if anti is None else (lambda t: k * anti(t)),
            kinks=self.kinks,
            name=f"{k:g}*({self.name})" if self.name else "",
            certified=self.certified,
        )

    def add_affine(self, offset: float, slope: float) -> "ConvexFunction":
        """f + offset + slope * t (exact, preserves convexity)."""
        offset = float(offset)
        slope = float(slope)
        fn, dm, dp, anti = self.fn, self.dminus, self.dplus, self.antiderivative
        return ConvexFunction(
            domain=self.domain,
            fn=lambda t: fn(t) + offset + slope * t,
            dminus=None if dm is None else (lambda t: dm(t) + slope),
            dplus=None if dp is None else (lambda t: dp(t) + slope),
            antiderivative=None
            if anti is None
            else (lambda t: anti(t) + offset * t + 0.5 * slope * t * t),
            kinks=self.kinks,
            name=f"({self.name}) + affine" if self.name else "",
            certified=self.certified,
        )


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a convexity check: "sampled" falsification, or "proved"
    by composition rules (no checks run)."""

    ok: bool
    worst_violation: float
    witness: Optional[tuple]
    checks: int
    tol: float
    method: str = "sampled"


def check_convexity(f: ConvexFunction, tol: Optional[float] = None) -> ConvexityReport:
    """Sampled falsification of convexity.

    Raises DomainError when f takes a non-finite value on the grid.
    Midpoint convexity f((s+t)/2) <= (f(s)+f(t))/2 is tested on pairs from
    a uniform grid of 129 points (fewer on an interval holding fewer
    floats) plus 129 random pairs (seed 0), and slope monotonicity
    f'+(s) <= f'-(t) <= f'+(t) along the grid.  The default tolerance is
    1e-9 relative to the sampled value range plus 8 ulp of the largest |f|
    on the grid, because floating-point midpoint tests on exactly convex
    functions can show round-off violations; sampled derivative oracles
    get a wider allowance for estimation noise.
    """
    lo, hi = f.domain.lo, f.domain.hi
    n = _CONVEXITY_SAMPLES
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    grid[-1] = hi
    grid = list(dict.fromkeys(grid))  # an interval of fewer than n floats repeats points
    values = [f(t) for t in grid]
    for t, v in zip(grid, values):
        if not math.isfinite(v):
            raise DomainError(f"f({t!r}) = {v!r} is not finite")
    spread = max(values) - min(values)
    base = 1e-9 if tol is None else float(tol)
    # plus the rounding of f itself, which far from 0 outgrows a narrow spread
    mid_tol = base * max(1.0, spread) + 8 * math.ulp(max(map(abs, values)))

    worst = -math.inf
    witness = None
    checks = 0
    ok = True

    def record(violation, pair, limit):
        nonlocal worst, witness, checks, ok
        checks += 1
        if violation > worst:
            worst = violation
            witness = pair
        if violation > limit:
            ok = False

    # grid pairs one and two steps apart reuse the grid values; then random pairs
    for step in (1, 2):
        for i in range(len(grid) - step):
            s, t = grid[i], grid[i + step]
            violation = f(0.5 * (s + t)) - 0.5 * (values[i] + values[i + step])
            record(violation, (s, t), mid_tol)
    rng = random.Random(0)
    for _ in range(n):
        s = rng.uniform(lo, hi)
        t = rng.uniform(lo, hi)
        if s != t:
            s, t = min(s, t), max(s, t)
            violation = f(0.5 * (s + t)) - 0.5 * (f(s) + f(t))
            record(violation, (s, t), mid_tol)

    rights = [f.right_derivative(t) for t in grid[:-1]]
    lefts = [None] + [f.left_derivative(t) for t in grid[1:]]
    finite = [abs(d) for d in rights + lefts[1:] if d is not None and math.isfinite(d)]
    dscale = max([1.0] + finite)
    deriv_tol = base * dscale * (1.0 if f.certified else 1e3)
    for i in range(1, len(grid) - 1):
        # Interior points: left slope must not exceed right slope.
        record(lefts[i] - rights[i], (grid[i], grid[i]), deriv_tol)
    for i in range(len(grid) - 1):
        gap = rights[i] - lefts[i + 1]
        if math.isnan(gap):  # -inf at lo paired with -inf estimate never occurs; be safe
            gap = -math.inf
        record(gap, (grid[i], grid[i + 1]), deriv_tol)

    if worst == -math.inf:
        worst = 0.0
    return ConvexityReport(ok=ok, worst_violation=worst, witness=witness, checks=checks,
                           tol=mid_tol)


def require_convex(f: ConvexFunction, tol: Optional[float] = None) -> ConvexityReport:
    """Trust a function whose convexity was proved (``proved_convex``, set
    by the expression frontend's composition rules) without evaluating it;
    otherwise run check_convexity and raise NonConvexError on failure."""
    if f.proved_convex:
        return ConvexityReport(ok=True, worst_violation=0.0, witness=None, checks=0, tol=0.0,
                               method="proved")
    report = check_convexity(f, tol=tol)
    if not report.ok:
        s, t = report.witness
        raise NonConvexError(
            f"convexity violated by {report.worst_violation:.3e} at pair ({s!r}, {t!r})",
            report=report,
        )
    return report


def require_slope_order(d0, d1, x0, x1, slack):
    """NonConvexError when the slope d0 at x0 < x1 exceeds the slope d1 at
    x1 by more than slack * max(1, min(|d0|, |d1|)); an infinite slope out
    of order with a finite one always exceeds it."""
    if d0 - d1 > slack * max(1.0, min(abs(d0), abs(d1))):
        raise NonConvexError(
            f"one-sided slopes out of order: {d0!r} at t={x0!r} > {d1!r} at t={x1!r}; "
            "the function is not convex"
        )


def require_supporting_lines(f: ConvexFunction, points) -> None:
    """Raise NonConvexError unless the support line at each point lies below
    f at every other point (slack 1e-9 relative to the terms compared), and
    f'+(p) <= f'-(q) for every pair p < q of the points (slack
    ``f.slope_slack``, see :func:`require_slope_order`).

    A bound that consumes f and its one-sided slopes at these points
    trusts exactly this; it catches a non-convex dip that the sampled check
    stepped over, and slopes whose disorder lies below the support lines'
    slack but would put the bounds out of order.  The line towards larger
    t takes f'+, towards smaller t f'-.
    """
    points = sorted(set(points))
    values = [f(p) for p in points]
    lo, hi = f.domain.lo, f.domain.hi
    rights = [f.right_derivative(p) if p < hi else None for p in points]
    lefts = [f.left_derivative(p) if p > lo else None for p in points]
    for i, (p, fp) in enumerate(zip(points, values)):
        for j, (q, fq) in enumerate(zip(points, values)):
            if i == j:
                continue
            rise = (rights[i] if j > i else lefts[i]) * (q - p)
            excess = fp + rise - fq
            if excess > 1e-9 * max(1.0, abs(fp), abs(fq), abs(rise)):
                raise NonConvexError(f"not convex: the support line at t={p!r} lies "
                                     f"{excess:.3e} above f({q!r}) = {fq!r}")
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            require_slope_order(rights[i], lefts[j], p, points[j], f.slope_slack)
