"""Closed-form convex function catalog.

Each factory returns a ConvexFunction with exact one-sided derivatives
and an exact antiderivative, covering the smooth, kinked, and
infinite-endpoint-slope regimes.  Each also has a jet, t -> (f, f'-, f'+),
that computes a subterm the three oracles share once and returns their
values bit for bit.  Scaled and affine-shifted variants are available
through ConvexFunction.scaled / add_affine; they have no jet.
"""

import math

from .convex_core import ConvexFunction, Interval
from .errors import DomainError
from .extreal import INF


def power(p: float, interval: Interval) -> ConvexFunction:
    """t**p, convex for p <= 0 or p >= 1 on the nonnegative axis."""
    p = float(p)
    if 0.0 < p < 1.0:
        raise DomainError("t**p is concave for 0 < p < 1")
    if p < 0.0 and interval.lo <= 0.0:
        raise DomainError("t**p with p < 0 needs lo > 0")
    if p >= 1.0 and interval.lo < 0.0:
        raise DomainError("t**p with p >= 1 needs lo >= 0")

    def fn(t):
        return math.pow(t, p)

    def deriv(t):
        if t == 0.0:
            return 1.0 if p == 1.0 else 0.0
        return p * math.pow(t, p - 1.0)

    def jet(t):
        d = deriv(t)
        return math.pow(t, p), d, d

    if p == -1.0:
        anti = math.log
    else:
        anti = lambda t: math.pow(t, p + 1.0) / (p + 1.0)
    return ConvexFunction(domain=interval, fn=fn, dminus=deriv, dplus=deriv, jet=jet,
                          antiderivative=anti, name=f"t^{p:g}")


def neg_log(interval: Interval) -> ConvexFunction:
    """-ln(t) on an interval with lo > 0."""
    if interval.lo <= 0.0:
        raise DomainError("-ln(t) needs lo > 0")

    def jet(t):
        d = -1.0 / t
        return -math.log(t), d, d

    return ConvexFunction(
        domain=interval,
        fn=lambda t: -math.log(t),
        dminus=lambda t: -1.0 / t,
        dplus=lambda t: -1.0 / t,
        jet=jet,
        antiderivative=lambda t: t - t * math.log(t),
        name="-ln(t)",
    )


def t_log_t(interval: Interval) -> ConvexFunction:
    """t*ln(t) on an interval with lo > 0."""
    if interval.lo <= 0.0:
        raise DomainError("t*ln(t) needs lo > 0")

    def jet(t):
        log = math.log(t)
        d = log + 1.0
        return t * log, d, d

    return ConvexFunction(
        domain=interval,
        fn=lambda t: t * math.log(t),
        dminus=lambda t: math.log(t) + 1.0,
        dplus=lambda t: math.log(t) + 1.0,
        jet=jet,
        antiderivative=lambda t: 0.5 * t * t * math.log(t) - 0.25 * t * t,
        name="t*ln(t)",
    )


def exponential(interval: Interval) -> ConvexFunction:
    """exp(t)."""

    def jet(t):
        v = math.exp(t)
        return v, v, v

    return ConvexFunction(
        domain=interval,
        fn=math.exp,
        dminus=math.exp,
        dplus=math.exp,
        jet=jet,
        antiderivative=math.exp,
        name="exp(t)",
    )


def abs_shift(center: float, interval: Interval) -> ConvexFunction:
    """|t - center| with a kink when center is interior."""
    c = float(center)
    return ConvexFunction(
        domain=interval,
        fn=lambda t: abs(t - c),
        dminus=lambda t: -1.0 if t <= c else 1.0,
        dplus=lambda t: 1.0 if t >= c else -1.0,
        jet=lambda t: (abs(t - c), -1.0 if t <= c else 1.0, 1.0 if t >= c else -1.0),
        antiderivative=lambda t: 0.5 * (t - c) * abs(t - c),
        kinks=(c,) if interval.lo < c < interval.hi else (),
        name=f"abs(t - {c:g})",
    )


def hinge(center: float, interval: Interval) -> ConvexFunction:
    """max(0, t - center)."""
    c = float(center)
    return ConvexFunction(
        domain=interval,
        fn=lambda t: max(0.0, t - c),
        dminus=lambda t: 0.0 if t <= c else 1.0,
        dplus=lambda t: 1.0 if t >= c else 0.0,
        jet=lambda t: (max(0.0, t - c), 0.0 if t <= c else 1.0, 1.0 if t >= c else 0.0),
        antiderivative=lambda t: 0.5 * max(0.0, t - c) ** 2,
        kinks=(c,) if interval.lo < c < interval.hi else (),
        name=f"max(0, t - {c:g})",
    )


def affine(intercept: float, slope: float, interval: Interval) -> ConvexFunction:
    """intercept + slope * t (the equality case of every bound)."""
    a0 = float(intercept)
    b0 = float(slope)
    return ConvexFunction(
        domain=interval,
        fn=lambda t: a0 + b0 * t,
        dminus=lambda t: b0,
        dplus=lambda t: b0,
        jet=lambda t: (a0 + b0 * t, b0, b0),
        antiderivative=lambda t: a0 * t + 0.5 * b0 * t * t,
        name=f"{a0:g} + {b0:g}*t",
    )


def neg_sqrt(interval: Interval) -> ConvexFunction:
    """-sqrt(t); the right derivative at t = 0 is -inf."""
    if interval.lo < 0.0:
        raise DomainError("-sqrt(t) needs lo >= 0")

    def deriv(t):
        if t == 0.0:
            return -INF
        return -0.5 / math.sqrt(t)

    def jet(t):
        root = math.sqrt(t)
        d = -INF if t == 0.0 else -0.5 / root
        return -root, d, d

    return ConvexFunction(
        domain=interval,
        fn=lambda t: -math.sqrt(t),
        dminus=deriv,
        dplus=deriv,
        jet=jet,
        antiderivative=lambda t: -(2.0 / 3.0) * t * math.sqrt(t),
        name="-sqrt(t)",
    )


def shifted_square(center: float, interval: Interval) -> ConvexFunction:
    """(t - center)**2 on any interval."""
    c = float(center)

    def jet(t):
        u = t - c
        d = 2.0 * u
        return u**2, d, d

    return ConvexFunction(
        domain=interval,
        fn=lambda t: (t - c) ** 2,
        dminus=lambda t: 2.0 * (t - c),
        dplus=lambda t: 2.0 * (t - c),
        jet=jet,
        antiderivative=lambda t: (t - c) ** 3 / 3.0,
        name=f"(t - {c:g})^2",
    )

