"""Black-box callables wrapped as ConvexFunctions, kept only for the tests.

The library's functions carry closed-form slopes.  Tests that wrap a bare
callable estimate its one-sided slopes here, as one-sided limits of
monotone difference quotients (``one_sided_limit``).  ``counting_copy``
counts how often a function's oracles are read.
"""

import collections
import dataclasses

from convex_enclose.convex_core import ConvexFunction, Interval, Jet

_MAX_HALVINGS = 40
_CONVERGENCE_ABS = 1e-9
_NOISE_FLOOR_REL = 1e-6


def one_sided_limit(g, t, span, limit, sign):
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


def sampled_function(fn, domain: Interval) -> ConvexFunction:
    """fn on ``domain`` with sampled one-sided slopes (``certified=False``)."""

    def slope(t, limit, sign):
        f0 = fn(t)
        return one_sided_limit(lambda s: (fn(s) - f0) / (s - t), t, domain.width, limit, sign)

    return ConvexFunction(
        domain=domain,
        fn=fn,
        dminus=lambda t: slope(t, domain.lo, -1),
        dplus=lambda t: slope(t, domain.hi, +1),
        certified=False,
    )


def counting_copy(f: ConvexFunction):
    """(g, calls): a copy of f that counts each call of its fn, dminus,
    dplus and jet in the Counter ``calls``, under those names.  g's jet
    fuses the counting oracles, so g reads its points as f does."""
    calls = collections.Counter()

    def counted(name, func):
        def oracle(t):
            calls[name] += 1
            return func(t)
        return oracle

    fn, dminus, dplus = (counted(name, getattr(f, name)) for name in ("fn", "dminus", "dplus"))
    jet = None if f.jet is None else Jet(counted("jet", f.jet.call), fn, dminus, dplus)
    return dataclasses.replace(f, fn=fn, dminus=dminus, dplus=dplus, jet=jet), calls
