"""Integral-mean comparison over nested intervals, and classical special means.

For convex f on [a, b] and a subinterval [c, d], the difference
mean_[a,b](f) - mean_[c,d](f) admits computable two-sided bounds.  With
the kernels t^p, 1/t and -ln t the three quantities reduce to classical
special means (p-logarithmic, logarithmic, identric), giving a ready
supply of verifiable inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import catalog
from .convex_core import ConvexFunction, Interval
from .errors import DomainError, InternalInconsistencyError
from .extreal import INF
from .oracle import reference_integral

_SANDWICH_SLACK = 1e-8


@dataclass(frozen=True)
class MeanComparison:
    """Certified triple  lower <= gap <= upper  for a mean difference."""

    lower: float
    gap: float
    upper: float


def mean_comparison(f: ConvexFunction, sub: Interval) -> MeanComparison:
    """Bound  mean over the full domain  minus  mean over ``sub``.

    lower uses the secant data of f on [c, d]; upper uses the endpoint
    slopes of f on [a, b] (and is +inf when one of them is infinite).
    The reported gap itself comes from the reference oracle, so the
    triple is independently verifiable.
    """
    if not f.domain.encloses(sub):
        raise DomainError("comparison subinterval must lie inside the domain")
    a, b = f.domain.lo, f.domain.hi
    c, d = sub.lo, sub.hi
    fc, fd = f(c), f(d)
    mean_sub = reference_integral(f, sub).value / (d - c)
    lower = (
        0.5 * (a + b) * (fd - fc) / (d - c)
        - (d * fd - c * fc) / (d - c)
        + mean_sub
    )
    slopes = f.endpoint_slopes()
    if slopes.at_lo == -INF or slopes.at_hi == INF:
        upper = INF
    else:
        upper = (
            slopes.at_hi * ((b - d) ** 2 + (b - d) * (b - c) + (b - c) ** 2)
            - slopes.at_lo * ((d - a) ** 2 + (d - a) * (c - a) + (c - a) ** 2)
        ) / (6.0 * (b - a))
    mean_full = reference_integral(f).value / (b - a)
    gap = mean_full - mean_sub

    slack = _SANDWICH_SLACK * max(1.0, abs(lower), abs(gap))
    if gap < lower - slack or (math.isfinite(upper) and gap > upper + slack):
        raise InternalInconsistencyError(
            f"mean sandwich failed: {lower} <= {gap} <= {upper}; input is not convex"
        )
    return MeanComparison(lower=lower, gap=gap, upper=upper)


@dataclass(frozen=True)
class SpecialMeans:
    """Arithmetic, logarithmic, identric, and p-logarithmic means of a < b."""

    arithmetic: float
    logarithmic: float
    identric: float
    p_logarithmic: float
    p: float


def _logarithmic_mean(a: float, b: float) -> float:
    return (b - a) / (math.log(b) - math.log(a))


def _identric_mean(a: float, b: float) -> float:
    # log-domain form of (1/e)(b^b/a^a)^(1/(b-a)), safe from overflow
    return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)


def _p_logarithmic_mean(a: float, b: float, p: float) -> float:
    return ((math.pow(b, p + 1.0) - math.pow(a, p + 1.0)) / ((p + 1.0) * (b - a))) ** (1.0 / p)


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
        logarithmic=_logarithmic_mean(a, b),
        identric=_identric_mean(a, b),
        p_logarithmic=_p_logarithmic_mean(a, b, p),
        p=p,
    )


@dataclass(frozen=True)
class MeanInequalityEntry:
    kernel: str
    comparison: MeanComparison
    gap_closed_form: float


def verify_mean_inequalities(a: float, b: float, c: float, d: float, p: float):
    """Run the mean comparison for t^p, 1/t, and -ln t over [c, d] in [a, b].

    The oracle gaps reduce to differences of special means:
    L_p(a,b)^p - L_p(c,d)^p, 1/L(a,b) - 1/L(c,d), and
    ln I(c,d) - ln I(a,b); each sandwich is asserted.
    """
    if not (0.0 < a < b and a <= c < d <= b):
        raise DomainError("need [c, d] inside [a, b] inside the positive axis")
    if not math.isfinite(p):
        raise DomainError("the kernel suite needs a finite p")
    if p == -1.0 or p == 0.0:
        raise DomainError("p-logarithmic mean excludes p in {-1, 0}")
    full = Interval(a, b)
    sub = Interval(c, d)
    kernels = [
        (f"t^{p:g}", catalog.power(p, full),
         _p_logarithmic_mean(a, b, p) ** p - _p_logarithmic_mean(c, d, p) ** p),
        ("1/t", catalog.power(-1.0, full),
         1.0 / _logarithmic_mean(a, b) - 1.0 / _logarithmic_mean(c, d)),
        ("-ln(t)", catalog.neg_log(full),
         math.log(_identric_mean(c, d)) - math.log(_identric_mean(a, b))),
    ]
    entries = []
    for label, fn, closed in kernels:
        comparison = mean_comparison(fn, sub)
        entries.append(MeanInequalityEntry(kernel=label, comparison=comparison,
                                           gap_closed_form=closed))
    return entries
