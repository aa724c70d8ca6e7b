"""Convex functions on closed intervals with one-sided derivative oracles.

A convex function f on [lo, hi] has finite one-sided derivatives at every
interior point, with

    f'+(s) <= f'-(t) <= f'+(t)    for all interior s < t,

and possibly infinite slopes at the endpoints: f'+(lo) may be -inf and
f'-(hi) may be +inf.  Every bound in this package consumes functions
through this interface, and every function carries both slope oracles.
They are either closed form (``certified=True``: the catalog module, every
parsed expression, and the CDF of a density model, whose slopes are the
density's values) or estimated from samples (``certified=False``), which
only a library caller supplies: the command line certifies nothing from
estimated slopes.

A function may also carry a ``jet``, one call that returns f and both
one-sided slopes at an interior point, so that the integrator pays one
oracle call per point instead of three, and a bound that reads both slopes
one instead of two (see :class:`Jet` and ``ConvexFunction.interior_slopes``).
The endpoint slopes are read once per function and kept.

Convexity itself is decided before any bound reads f: a function may carry
a verdict (``convexity``, a :class:`ConvexityReport`), which the expression
frontend gives by composition rules or, where they fail, by a second-order
interval walk.  ``require_convex``, the one gate, trusts a proof and
raises on a disproof without evaluating anything; only a function without
a verdict is sampled, then checked at the few points a bound consumes.

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

_CONVEXITY_SAMPLES = 129
_CONVEXITY_REL_TOL = 1e-9


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

    def grid(self, cells: int) -> list:
        """The cells + 1 evenly spaced points from lo to hi; the last is hi
        itself, as lo + (hi - lo) can round above hi.  Where width * cells
        overflows, width * i is scaled by a power of two, which is exact."""
        lo, width = self.lo, self.hi - self.lo
        up = 2.0 ** cells.bit_length() if math.isinf(width * cells) else 1.0
        width /= up
        return [lo + width * i / cells * up for i in range(cells)] + [self.hi]


@dataclass(frozen=True)
class Jet:
    """A fused oracle t -> (f(t), f'-(t), f'+(t)) for interior t, and the
    three oracles it fuses: it returns what they return, bit for bit, and
    raises what the first of f'-, f'+ and f to raise would raise."""

    call: Callable[[float], tuple]
    fn: Callable[[float], float]
    dminus: Callable[[float], float]
    dplus: Callable[[float], float]

    def fuses(self, f: "ConvexFunction") -> bool:
        return self.fn is f.fn and self.dminus is f.dminus and self.dplus is f.dplus


@dataclass(frozen=True)
class ConvexFunction:
    """A convex function with evaluation and one-sided derivative oracles.

    ``dminus`` and ``dplus`` give f'-(t) and f'+(t); both are required.
    ``certified`` marks closed-form slopes; ``certified=False`` marks
    slopes estimated from samples, which get a wider slack.  Estimated
    slopes are for library callers only: every function that the command
    line builds has closed-form slopes.

    ``antiderivative``, when present, must be exact on the whole domain
    (kinks included); the reference oracle and ``divergence.hh_divergence``
    consume it.  ``kinks`` lists interior points where the two one-sided
    derivatives differ.  Three readers use them: the adaptive integrator
    seeds its cells at them, the reference oracle splits its rule there,
    and ``divergence.hh_gap_bounds`` reads the slope jump only there for
    its lower bound.  A kink left out only loosens that lower bound, which
    stays valid; the integrator then needs more cells and the oracle
    loses accuracy.
    ``convexity`` is a verdict on the function's convexity on the domain,
    a :class:`ConvexityReport` that proves (``ok``) or disproves it, so that
    :func:`require_convex` need not sample it; None leaves it to sampling.

    ``jet`` is an optional :class:`Jet`; a bare callable given here fuses
    the ``fn``, ``dminus`` and ``dplus`` given with it.  It is used only
    while those are still this function's oracles, so that
    ``dataclasses.replace(f, fn=g)``, or a copy that counts calls, reads
    its own oracles.
    """

    domain: Interval
    fn: Callable[[float], float] = field(repr=False)
    dminus: Callable[[float], float] = field(repr=False)
    dplus: Callable[[float], float] = field(repr=False)
    antiderivative: Optional[Callable[[float], float]] = field(default=None, repr=False)
    kinks: tuple = ()
    name: str = ""
    certified: bool = True
    convexity: Optional[ConvexityReport] = None
    jet: Optional[Jet] = field(default=None, repr=False)

    def __post_init__(self):
        if self.jet is not None and not isinstance(self.jet, Jet):
            object.__setattr__(self, "jet", Jet(self.jet, self.fn, self.dminus, self.dplus))

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
        return ensure_extended(self.dplus(t))

    def left_derivative(self, t: float) -> float:
        """f'-(t) for t in (lo, hi]; may be +inf at t = hi."""
        if t == self.domain.lo:
            raise UndefinedSideError("no left derivative at the lower endpoint")
        if not self.domain.contains(t):
            raise DomainError(f"t={t} outside domain [{self.domain.lo}, {self.domain.hi}]")
        return ensure_extended(self.dminus(t))

    def interior_slopes(self, t: float) -> tuple:
        """(f'-(t), f'+(t)) at an interior t from one call of the ``jet``
        while it fuses this function's oracles, else from the two checked
        oracles; a NaN slope raises as they raise it."""
        jet = self.jet
        if jet is not None and jet.fuses(self) and self.domain.strictly_contains(t):
            _, dm, dp = jet.call(t)
            return ensure_extended(dm), ensure_extended(dp)
        return self.left_derivative(t), self.right_derivative(t)

    def interior_jet(self) -> Callable[[float], tuple]:
        """t -> (f(t), f'-(t), f'+(t)) for interior t, without domain checks.

        The fused ``jet`` while it fuses this function's oracles; otherwise
        an adapter that calls f'-, f'+ and f in that order.
        """
        if self.jet is not None and self.jet.fuses(self):
            return self.jet.call
        fn, dminus, dplus = self.fn, self.dminus, self.dplus

        def adapter(t):
            dm = dminus(t)
            dp = dplus(t)
            return fn(t), dm, dp
        return adapter

    @property
    def slope_slack(self) -> float:
        """Relative slack of this function's slopes in :func:`require_slope_order`
        and :func:`check_convexity`: closed-form slopes differ only by
        rounding, sampled ones are estimates."""
        return 1e-9 if self.certified else 1e-6

    def endpoint_slopes(self) -> tuple:
        """(f'+(lo), f'-(hi)); either may be infinite (-inf at lo, +inf at
        hi), and for a convex function the first is at most the second.
        Read on the first call and kept, once across threads; a
        ``dataclasses.replace`` copy reads its own."""
        if "_endpoint_slopes" not in self.__dict__:
            self.__dict__.setdefault("_endpoint_slopes", (
                self.right_derivative(self.domain.lo), self.left_derivative(self.domain.hi)))
        return self.__dict__["_endpoint_slopes"]

    def scaled(self, k: float) -> "ConvexFunction":
        """k * f for k > 0 (preserves convexity and all oracles exactly)."""
        k = float(k)
        if not (math.isfinite(k) and k > 0.0):
            raise ValueError("scale factor must be positive and finite")
        fn, dm, dp, anti = self.fn, self.dminus, self.dplus, self.antiderivative
        return ConvexFunction(
            domain=self.domain,
            fn=lambda t: k * fn(t),
            dminus=lambda t: k * dm(t),
            dplus=lambda t: k * dp(t),
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
            dminus=lambda t: dm(t) + slope,
            dplus=lambda t: dp(t) + slope,
            antiderivative=None
            if anti is None
            else (lambda t: anti(t) + offset * t + 0.5 * slope * t * t),
            kinks=self.kinks,
            name=f"({self.name}) + affine" if self.name else "",
            certified=self.certified,
        )


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a convexity check: "sampled" falsification, "proved" by
    composition rules (no checks run), or decided by the second-order
    "walk" (``checks`` counts its interval walks and slope joins; a
    disproof's ``witness`` is the piece and its f'' range (s, t, lo, hi),
    and its ``worst_violation`` is -hi)."""

    ok: bool
    worst_violation: float
    witness: Optional[tuple]
    checks: int
    tol: float
    method: str = "sampled"


def _midpoint(s: float, t: float) -> float:
    """(s + t) / 2, halved before the sum only where the sum overflows."""
    m = 0.5 * (s + t)
    return 0.5 * s + 0.5 * t if math.isinf(m) else m


def check_convexity(f: ConvexFunction) -> ConvexityReport:
    """Sampled falsification of convexity.

    Raises DomainError when f takes a non-finite value on the grid.
    Midpoint convexity f((s+t)/2) <= (f(s)+f(t))/2 is tested on pairs from
    a uniform grid of 129 points (fewer on an interval holding fewer
    floats) plus 129 random pairs (seed 0), and slope monotonicity
    f'+(s) <= f'-(t) <= f'+(t) along the grid.  The tolerance is
    1e-9 relative to the sampled value range plus 8 ulp of the largest |f|
    on the grid, because floating-point midpoint tests on exactly convex
    functions can show round-off violations; the slopes' tolerance is
    ``f.slope_slack`` relative to the largest finite slope on the grid.
    """
    lo, hi = f.domain.lo, f.domain.hi
    n = _CONVEXITY_SAMPLES
    grid = list(dict.fromkeys(f.domain.grid(n - 1)))  # an interval of < n floats repeats points
    values = [f(t) for t in grid]
    for t, v in zip(grid, values):
        if not math.isfinite(v):
            raise DomainError(f"f({t!r}) = {v!r} is not finite")
    spread = max(values) - min(values)
    # plus the rounding of f itself, which far from 0 outgrows a narrow spread
    mid_tol = _CONVEXITY_REL_TOL * max(1.0, spread) + 8 * math.ulp(max(map(abs, values)))

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
            violation = f(_midpoint(s, t)) - 0.5 * (values[i] + values[i + step])
            record(violation, (s, t), mid_tol)
    rng = random.Random(0)
    for _ in range(n):
        s = rng.uniform(lo, hi)
        t = rng.uniform(lo, hi)
        if s != t:
            s, t = min(s, t), max(s, t)
            violation = f(_midpoint(s, t)) - 0.5 * (f(s) + f(t))
            record(violation, (s, t), mid_tol)

    rights = [f.right_derivative(t) for t in grid[:-1]]
    lefts = [None] + [f.left_derivative(t) for t in grid[1:]]
    finite = [abs(d) for d in rights + lefts[1:] if d is not None and math.isfinite(d)]
    dscale = max([1.0] + finite)
    deriv_tol = f.slope_slack * dscale
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


def require_slope_order(d0, d1, x0, x1, slack):
    """NonConvexError when the slope d0 at x0 < x1 exceeds the slope d1 at
    x1 by more than slack * max(1, min(|d0|, |d1|)); an infinite slope out
    of order with a finite one always exceeds it."""
    if d0 - d1 > slack * max(1.0, min(abs(d0), abs(d1))):
        raise NonConvexError(
            f"one-sided slopes out of order: {d0!r} at t={x0!r} > {d1!r} at t={x1!r}; "
            "the function is not convex"
        )


def require_convex(f: ConvexFunction, points=()) -> ConvexityReport:
    """Act on a function's verdict (``convexity``, set by the expression
    frontend's composition rules or its second-order walk) without
    evaluating it, even at ``points``: return a proof's report, or raise
    NonConvexError naming a disproof's piece and f'' range.  Without a
    verdict, raise NonConvexError unless f passes
    check_convexity and, at the ``points`` a bound consumes, the support
    line at each point lies below f at every other point (slack 1e-9
    relative to the terms compared) and f'+(p) <= f'-(q) for every pair
    p < q (slack ``f.slope_slack``, see :func:`require_slope_order`).

    The points catch a non-convex dip that the sampled check stepped over,
    and slopes out of order below the support lines' slack, which would
    put the bounds out of order.  The line towards larger t takes f'+,
    towards smaller t f'-."""
    verdict = f.convexity
    if verdict is not None:
        if verdict.ok:
            return verdict
        s, t, low, high = verdict.witness
        raise NonConvexError(f"convexity disproved: f'' lies in [{low:.3e}, {high:.3e}] "
                             f"on [{s!r}, {t!r}]", report=verdict)
    report = check_convexity(f)
    if not report.ok:
        s, t = report.witness
        raise NonConvexError(
            f"convexity violated by {report.worst_violation:.3e} at pair ({s!r}, {t!r})",
            report=report,
        )
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
    return report
