"""Black-box callables wrapped as ConvexFunctions, kept only for the tests.

The library's functions carry closed-form slopes, or (the CDF of a
density model) their own sampled limits.  Tests that wrap a bare callable
estimate its one-sided slopes here, as one-sided limits of monotone
difference quotients.
"""

from convex_enclose.convex_core import ConvexFunction, Interval, _one_sided_limit


def sampled_function(fn, domain: Interval) -> ConvexFunction:
    """fn on ``domain`` with sampled one-sided slopes (``certified=False``)."""

    def slope(t, limit, sign):
        f0 = fn(t)
        return _one_sided_limit(lambda s: (fn(s) - f0) / (s - t), t, domain.width, limit, sign)

    return ConvexFunction(
        domain=domain,
        fn=fn,
        dminus=lambda t: slope(t, domain.lo, -1),
        dplus=lambda t: slope(t, domain.hi, +1),
        certified=False,
    )
