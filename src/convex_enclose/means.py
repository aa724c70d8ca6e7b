"""Integral-mean comparison over nested intervals, and classical special means.

For convex f on [a, b] and a subinterval [c, d], the difference
mean_[a,b](f) - mean_[c,d](f) admits computable two-sided bounds.  With
the kernels t^p, 1/t and -ln t the three quantities reduce to classical
special means (p-logarithmic, logarithmic, identric), giving a ready
supply of verifiable inequalities.

Every number :func:`mean_comparison` reports is certified: the two
integral means come from the certified integrator (or, for catalog
functions, their exact antiderivatives, which is all it asks of the
reference oracle), run to a tolerance tied to the width of the
certificate they feed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import catalog
from .convex_core import ConvexFunction, Interval
from .errors import (
    BudgetExceededError,
    DomainError,
    InternalInconsistencyError,
    UnboundedSlopeError,
)
from .extreal import INF
from .oracle import reference_integral
from .pointwise import Enclosure
from .quadrature import integrate_adaptive

_SANDWICH_SLACK = 1e-8
# A share of the certificate's a-priori width that either integral mean may
# add to it, and a floor relative to |f| for certificates of width 0 or inf.
_WIDTH_SHARE = 1e-3
_REL_FLOOR = 1e-9
_MAX_CELLS = 4096


@dataclass(frozen=True)
class MeanComparison:
    """Certified  lower <= gap <= upper  for a mean difference; ``gap`` is
    itself an enclosure of the difference."""

    lower: float
    gap: Enclosure
    upper: float


def _integral_enclosure(f: ConvexFunction, interval: Interval, tol: float) -> Enclosure:
    """Certified enclosure of the integral of f over ``interval``.

    Catalog antiderivatives give a point; otherwise the certified
    integrator runs to ``tol`` (its best result when the cell budget runs
    out, still certified, only wider).  An infinite endpoint slope leaves
    the Hermite-Hadamard bracket  h f(mid) <= integral <= h (f(lo) + f(hi))/2.
    On f's own domain f itself is integrated, so its endpoint slopes, kept
    after their first read, are not read again.
    """
    if f.antiderivative is not None:
        value = reference_integral(f, interval).value
        return Enclosure(value, value)
    g = f if interval == f.domain else replace(f, domain=interval)
    try:
        result = integrate_adaptive(g, tol, max_cells=_MAX_CELLS)
    except BudgetExceededError as exc:
        result = exc.best
    except UnboundedSlopeError:
        h = interval.width
        return Enclosure(h * f(interval.midpoint),
                         h * 0.5 * (f(interval.lo) + f(interval.hi)))
    return result.integral_bounds


def mean_comparison(f: ConvexFunction, sub: Interval) -> MeanComparison:
    """Bound  mean over the full domain  minus  mean over ``sub``.

    lower uses the secant data of f on [c, d] and a certified lower bound
    of mean_[c,d] f; upper uses the endpoint slopes of f on [a, b] (and is
    +inf when one of them is infinite).  Hermite-Hadamard,
    mean_[c,d] f <= (f(c) + f(d))/2, bounds the certificate's width from
    below before anything is integrated; each integral mean is enclosed to
    within 1e-3 of that estimate (floor 1e-9 max(1, |f(c)|, |f(d)|)), so
    lower gives up at most about 0.1% of the width.  When upper is +inf the
    estimate is the width of the Hermite-Hadamard bracket of mean_[c,d] f,
    (f(c) + f(d))/2 - f((c+d)/2), so lower gives up at most about 0.1% of
    that.  ``gap`` encloses the true difference, from the same two
    integrations.
    """
    if not f.domain.encloses(sub):
        raise DomainError("comparison subinterval must lie inside the domain")
    a, b = f.domain.lo, f.domain.hi
    c, d = sub.lo, sub.hi
    fc, fd = f(c), f(d)
    base = 0.5 * (a + b) * (fd - fc) / (d - c) - (d * fd - c * fc) / (d - c)
    at_lo, at_hi = f.endpoint_slopes()
    if at_lo == -INF or at_hi == INF:
        upper = INF
    else:
        bd, bc, da, ca = b - d, b - c, d - a, c - a
        hd, hc, ld, lc = at_hi * bd, at_hi * bc, at_lo * da, at_lo * ca  # slopes first
        upper = (bd * hd + bd * hc + bc * hc - (da * ld + da * lc + ca * lc)) / (6.0 * (b - a))
    if upper == INF:  # the sub-interval's own Hermite-Hadamard width instead
        estimate = 0.5 * (fc + fd) - f(0.5 * (c + d))
    else:
        estimate = upper - (base + 0.5 * (fc + fd))
    rel = _REL_FLOOR * max(1.0, abs(fc), abs(fd))
    if math.isfinite(estimate) and _WIDTH_SHARE * estimate > rel:
        rel = _WIDTH_SHARE * estimate
    part = _integral_enclosure(f, sub, rel * (d - c))
    full = _integral_enclosure(f, f.domain, rel * (b - a))
    lower = base + part.lo / (d - c)
    gap = Enclosure(full.lo / (b - a) - part.hi / (d - c),
                    full.hi / (b - a) - part.lo / (d - c))

    slack = _SANDWICH_SLACK * max(1.0, abs(lower), abs(gap.lo), abs(gap.hi))
    if gap.hi < lower - slack or (math.isfinite(upper) and gap.lo > upper + slack):
        raise InternalInconsistencyError(
            f"mean sandwich failed: {lower} <= [{gap.lo}, {gap.hi}] <= {upper}; "
            "input is not convex"
        )
    return MeanComparison(lower=lower, gap=gap, upper=upper)


@dataclass(frozen=True)
class SpecialMeans:
    """Arithmetic, logarithmic, identric, and p-logarithmic means of a < b."""

    arithmetic: float
    logarithmic: float
    identric: float
    p_logarithmic: float


def special_means(a: float, b: float, p: float) -> SpecialMeans:
    """Closed-form special means of two positive numbers a < b.

    A = (a+b)/2,  L = (b-a)/(ln b - ln a),
    I = (1/e)(b^b / a^a)^(1/(b-a)),
    L_p = [(b^(p+1) - a^(p+1)) / ((p+1)(b-a))]^(1/p)  for p not in {-1, 0}.
    """
    a = float(a)
    b = float(b)
    p = float(p)
    if not all(map(math.isfinite, (a, b, p))):
        raise DomainError("special means need finite a, b and p")
    if not 0.0 < a < b:
        raise DomainError("special means need 0 < a < b")
    if p == -1.0 or p == 0.0:
        raise DomainError("p-logarithmic mean excludes p in {-1, 0}")
    return SpecialMeans(
        arithmetic=0.5 * (a + b),
        logarithmic=(b - a) / (math.log(b) - math.log(a)),
        # log-domain form of (1/e)(b^b/a^a)^(1/(b-a)), safe from overflow
        identric=math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0),
        p_logarithmic=((math.pow(b, p + 1.0) - math.pow(a, p + 1.0))
                       / ((p + 1.0) * (b - a))) ** (1.0 / p),
    )


@dataclass(frozen=True)
class MeanInequalityEntry:
    kernel: str
    comparison: MeanComparison
    gap_closed_form: float


def verify_mean_inequalities(a: float, b: float, c: float, d: float, p: float):
    """Run the mean comparison for t^p, 1/t, and -ln t over [c, d] in [a, b].

    The gaps reduce to differences of special means:
    L_p(a,b)^p - L_p(c,d)^p, 1/L(a,b) - 1/L(c,d), and
    ln I(c,d) - ln I(a,b); each sandwich is asserted.
    """
    if not (0.0 < a < b and a <= c < d <= b):
        raise DomainError("need [c, d] inside [a, b] inside the positive axis")
    if not math.isfinite(p):
        raise DomainError("the kernel suite needs a finite p")
    full = Interval(a, b)
    sub = Interval(c, d)
    outer, inner = special_means(a, b, p), special_means(c, d, p)
    kernels = [
        (f"t^{p:g}", catalog.power(p, full), outer.p_logarithmic ** p - inner.p_logarithmic ** p),
        ("1/t", catalog.power(-1.0, full), 1.0 / outer.logarithmic - 1.0 / inner.logarithmic),
        ("-ln(t)", catalog.neg_log(full), math.log(inner.identric) - math.log(outer.identric)),
    ]
    entries = []
    for label, fn, closed in kernels:
        comparison = mean_comparison(fn, sub)
        entries.append(MeanInequalityEntry(kernel=label, comparison=comparison,
                                           gap_closed_form=closed))
    return entries
