"""Certified CDF and median-probability enclosures.

For a random variable on [a, b] whose density is monotone nondecreasing,
the CDF F is convex, and the identity  integral of F = b - E(X)  turns
the pointwise convex bounds on F into computable enclosures of

    b - E(X) - (b - a) F(x)

and hence of F(x) itself.  The one-sided limits of the density are F's
one-sided derivatives, so a model is its CDF (and E(X)).

Each factory checks the density on a grid that ends at b itself; the
uniform, power and exponential densities, and a black-box density, share
``_smooth_model``, which makes the density both one-sided slopes of the
CDF.  That holds only for a density continuous on [a, b], the precondition
of ``model_from_density``; a jump is given as a step density instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .convex_core import ConvexFunction, Interval
from .errors import DomainError, InconsistentModelError
from .extreal import INF
from .oracle import integrate_callable
from .pointwise import Enclosure, ostrowski_lower, ostrowski_upper

_NORMALIZATION_TOL = 1e-9
_DENSITY_INTEGRAL_TOL = 1e-10
_VALIDATION_CELLS = 64


@dataclass(frozen=True)
class RandomVariableModel:
    """Monotone nondecreasing density on [a, b], held as its convex CDF.

    The CDF's domain is the support, and its one-sided derivatives
    ``cdf.left_derivative`` / ``cdf.right_derivative`` are the one-sided
    limits of the density (they differ only at jump points).  The density
    itself is not kept: each factory samples it on a grid once, to
    validate it, before it builds the model, which checks that its CDF
    runs from 0 to 1 and that E(X) lies in the support.
    """

    cdf: ConvexFunction = field(repr=False)
    expectation: float

    def __post_init__(self):
        a, b = self.support.lo, self.support.hi
        f0 = self.cdf(a)
        f1 = self.cdf(b)
        if abs(f0) > _NORMALIZATION_TOL or abs(f1 - 1.0) > _NORMALIZATION_TOL:
            raise InconsistentModelError(
                f"cdf spans [{f0}, {f1}]; the density must integrate to 1"
            )
        if not a <= self.expectation <= b:
            raise InconsistentModelError("expectation outside the support")

    @property
    def support(self) -> Interval:
        return self.cdf.domain


def check_density(density, sup: Interval) -> None:
    """The density must be finite, nonnegative and nondecreasing on a grid."""
    grid = sup.grid(_VALIDATION_CELLS)
    values = [density(t) for t in grid]
    for t, v in zip(grid, values):
        if not math.isfinite(v):
            raise DomainError(f"density({t}) = {v} is not finite")
    if any(v < 0.0 for v in values):
        raise InconsistentModelError("density takes a negative value")
    scale = max(1.0, max(values))
    for s, t, u, v in zip(grid, grid[1:], values, values[1:]):
        if u > v + 1e-9 * scale:
            raise InconsistentModelError(
                f"density decreases between t={s} and t={t} ({u} > {v})"
            )


def _smooth_model(sup: Interval, density, cdf_fn, expectation) -> RandomVariableModel:
    """The model of a continuous density: the density is checked on the
    grid, then it is both one-sided slopes of the CDF, and
    ``expectation()`` gives E(X)."""
    check_density(density, sup)
    cdf = ConvexFunction(domain=sup, fn=cdf_fn, dminus=density, dplus=density)
    return RandomVariableModel(cdf=cdf, expectation=expectation())


def uniform_model(a: float, b: float) -> RandomVariableModel:
    """Constant density on [a, b]."""
    sup = Interval(a, b)
    c = 1.0 / sup.width
    return _smooth_model(sup, lambda t: c, lambda x: (x - sup.lo) * c, lambda: sup.midpoint)


def power_density_model(k: float, a: float, b: float) -> RandomVariableModel:
    """Density proportional to t**k, k >= 0, on [a, b] with a >= 0."""
    k = float(k)
    if k < 0.0:
        raise DomainError("power density needs k >= 0 to be nondecreasing")
    sup = Interval(a, b)
    if sup.lo < 0.0:
        raise DomainError("power density needs a >= 0")
    norm = (math.pow(sup.hi, k + 1.0) - math.pow(sup.lo, k + 1.0)) / (k + 1.0)
    return _smooth_model(
        sup,
        lambda t: math.pow(t, k) / norm,
        lambda x: (math.pow(x, k + 1.0) - math.pow(sup.lo, k + 1.0)) / ((k + 1.0) * norm),
        lambda: (math.pow(sup.hi, k + 2.0) - math.pow(sup.lo, k + 2.0)) / ((k + 2.0) * norm),
    )


def exponential_density_model(a: float, b: float) -> RandomVariableModel:
    """Density proportional to exp(t) on [a, b]."""
    sup = Interval(a, b)
    norm = math.exp(sup.hi) - math.exp(sup.lo)
    return _smooth_model(
        sup,
        lambda t: math.exp(t) / norm,
        lambda x: (math.exp(x) - math.exp(sup.lo)) / norm,
        lambda: ((sup.hi - 1.0) * math.exp(sup.hi) - (sup.lo - 1.0) * math.exp(sup.lo)) / norm,
    )


def step_density_model(a: float, b: float, split: float, low: float) -> RandomVariableModel:
    """Two-level density: ``low`` on [a, split), a higher level on (split, b].

    The upper level is fixed by normalization; it must not drop below
    ``low`` (the density has to be nondecreasing).
    """
    sup = Interval(a, b)
    split = float(split)
    low = float(low)
    if not sup.lo < split < sup.hi:
        raise DomainError("split point must be interior")
    if not low >= 0.0:  # NaN included
        raise DomainError("density level must be nonnegative")
    high = (1.0 - low * (split - sup.lo)) / (sup.hi - split)
    if high < low:
        raise InconsistentModelError(
            f"normalization forces a decreasing step ({low} -> {high})"
        )
    density = lambda t: low if t < split else high
    check_density(density, sup)

    def cdf_fn(x):
        if x <= split:
            return low * (x - sup.lo)
        return low * (split - sup.lo) + high * (x - split)

    cdf = ConvexFunction(
        domain=sup, fn=cdf_fn, dminus=lambda t: low if t <= split else high,
        dplus=density, kinks=(split,),
    )
    expectation = 0.5 * low * (split**2 - sup.lo**2) + 0.5 * high * (sup.hi**2 - split**2)
    return RandomVariableModel(cdf=cdf, expectation=expectation)


def model_from_density(fn, a: float, b: float) -> RandomVariableModel:
    """Build a model from a black-box density that is continuous on [a, b].

    Continuity is the caller's precondition: it makes the density its own
    one-sided limits, so ``_smooth_model`` checks it on the validation grid
    and makes its values the CDF's slopes.  The CDF and expectation come
    from the adaptive Simpson integrator at tolerance 1e-10.
    """
    sup = Interval(a, b)
    return _smooth_model(
        sup, fn,
        lambda x: 0.0 if x == sup.lo else integrate_callable(fn, sup.lo, x, _DENSITY_INTEGRAL_TOL),
        lambda: integrate_callable(lambda t: t * fn(t), sup.lo, sup.hi, _DENSITY_INTEGRAL_TOL),
    )


def cdf_gap_enclosure(m: RandomVariableModel, x: float) -> Enclosure:
    """Enclosure of  b - E(X) - (b-a) F(x).

    The lower line needs a strictly interior x; at an endpoint only the
    upper line applies and the lower bound is reported as -inf.
    """
    if not m.support.contains(x):
        raise DomainError(f"x={x} outside support")
    upper = ostrowski_upper(m.cdf, x)
    if m.support.strictly_contains(x):
        lower = ostrowski_lower(m.cdf, x)
    else:
        lower = -INF
    return Enclosure(lower, upper)


def cdf_enclosure(m: RandomVariableModel, x: float) -> Enclosure:
    """Certified bounds for F(x), clipped to [0, 1]."""
    gap = cdf_gap_enclosure(m, x)
    a, b = m.support.lo, m.support.hi
    rest = b - m.expectation
    lo = (rest - gap.hi) / (b - a)
    hi = (rest - gap.lo) / (b - a)
    return Enclosure(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def median_point_probability(m: RandomVariableModel) -> Enclosure:
    """Certified bounds for Pr(X <= (a+b)/2).

    This is the CDF enclosure specialized at the midpoint:
    (b-E)/(b-a) - (1/8)(b-a)[f-(b) - f+(a)]  <=  Pr  <=
    (b-E)/(b-a) - (1/8)(b-a)[f+(m) - f-(m)], clipped to [0, 1].  (The
    unscaled variant of these bounds is only dimensionless on unit-width
    supports; this form is valid for every b - a.)
    """
    return cdf_enclosure(m, m.support.midpoint)
