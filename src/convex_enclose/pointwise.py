"""Pointwise certified enclosures for convex functions.

All bounds here sandwich the Ostrowski difference

    D(x) = integral of f over [a, b]  -  (b - a) * f(x)

of a convex function f.  The lower bound uses the one-sided slopes at x,
the upper bound the endpoint slopes; both are attained by kink functions
k*|t - (a+b)/2| at x = (a+b)/2, so neither constant can be improved.
Bounds are computed in ordinary binary floating point; callers that need
guaranteed containment should verify at a small relative slack rather
than at ULP level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .convex_core import ConvexFunction
from .errors import (
    DomainError,
    InternalInconsistencyError,
    NumericalFailureError,
    UnboundedSlopeError,
)
from .extreal import INF, ensure_extended


@dataclass(frozen=True, slots=True, init=False)
class Enclosure:
    """Certified pair lo <= hi of extended reals bounding a scalar.

    A pair that holds no real number, lo = +inf or hi = -inf (a bound that
    overflowed), raises NumericalFailureError.
    """

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        lo = ensure_extended(lo)
        hi = ensure_extended(hi)
        if lo > hi:
            raise InternalInconsistencyError(f"enclosure bounds out of order: [{lo}, {hi}]")
        if lo == INF or hi == -INF:
            raise NumericalFailureError(
                f"enclosure [{lo}, {hi}] holds no real number: a bound overflowed")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        if self.lo == self.hi:
            return 0.0
        return self.hi - self.lo

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def as_tuple(self):
        return (self.lo, self.hi)


def _interior_slopes(f: ConvexFunction, x: float):
    """One-sided slopes at an interior point, from one jet call where f has
    a fused jet (see ``ConvexFunction.interior_slopes``); finite for any
    real convex f."""
    dm, dp = f.interior_slopes(x)
    if not (math.isfinite(dm) and math.isfinite(dp)):
        raise UnboundedSlopeError(
            f"infinite one-sided derivative at interior point t={x}; "
            "the function is not finite and convex on its closed domain"
        )
    return dm, dp


def ostrowski_lower(f: ConvexFunction, x: float) -> float:
    """Lower bound for the Ostrowski difference at a strictly interior x.

    Returns (1/2) * [(b-x)^2 f'+(x) - (x-a)^2 f'-(x)].
    """
    if not f.domain.strictly_contains(x):
        raise DomainError("the lower bound requires a strictly interior x")
    a, b = f.domain.lo, f.domain.hi
    dm, dp = _interior_slopes(f, x)
    right, left = b - x, x - a
    return ensure_extended(0.5 * (right * right * dp - left * left * dm))


def ostrowski_upper(f: ConvexFunction, x: float) -> float:
    """Upper bound for the Ostrowski difference, valid on the closed interval.

    Returns (1/2) * [(b-x)^2 f'-(b) - (x-a)^2 f'+(a)], or +inf when an
    endpoint slope is infinite (the bound then holds trivially).  Like the
    lower bound, it raises ExtendedArithmeticError where a square overflows
    into an undefined form (inf - inf, 0 * inf).
    """
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain")
    at_lo, at_hi = f.endpoint_slopes()
    if at_lo == -INF or at_hi == INF:
        return INF
    right, left = f.domain.hi - x, x - f.domain.lo
    return ensure_extended(0.5 * (right * right * at_hi - left * left * at_lo))


def ostrowski_enclosure(f: ConvexFunction, x: float) -> Enclosure:
    """Two-sided enclosure of the Ostrowski difference at an interior x."""
    return Enclosure(ostrowski_lower(f, x), ostrowski_upper(f, x))


def hh_refinement(f: ConvexFunction) -> Enclosure:
    """Enclosure of the Hermite-Hadamard gap  mean(f) - f((a+b)/2).

    The gap lies in [(1/8)(f'+(m) - f'-(m))(b-a), (1/8)(f'-(b) - f'+(a))(b-a)]
    with m the midpoint; the lower bound is always >= 0, sharpening the
    classical statement that the gap is nonnegative.
    """
    a, b = f.domain.lo, f.domain.hi
    m = f.domain.midpoint
    dm, dp = _interior_slopes(f, m)
    lo = 0.125 * (dp - dm) * (b - a)
    at_lo, at_hi = f.endpoint_slopes()
    if at_lo == -INF or at_hi == INF:
        hi = INF
    else:
        hi = 0.125 * (at_hi - at_lo) * (b - a)
    return Enclosure(lo, hi)


def classical_ostrowski_bound(f: ConvexFunction, x: float) -> float:
    """Comparison baseline |f(x) - mean(f)| <= [1/4 + (x-m)^2/(b-a)^2](b-a) M.

    M = max(|f'+(a)|, |f'-(b)|) bounds |f'| on the interval; requires
    finite endpoint slopes.
    """
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain")
    at_lo, at_hi = f.endpoint_slopes()
    if not (math.isfinite(at_lo) and math.isfinite(at_hi)):
        raise UnboundedSlopeError("classical bound needs finite endpoint slopes")
    a, b = f.domain.lo, f.domain.hi
    m = max(abs(at_lo), abs(at_hi))
    centered = x - f.domain.midpoint
    return (0.25 + centered**2 / (b - a) ** 2) * (b - a) * m
