"""Black-box callables wrapped as ConvexFunctions, kept only for the tests.

The library's functions carry closed-form slopes, or (the CDF of a
density model) their own sampled limits.  Tests that wrap a bare callable
estimate its one-sided slopes here, as one-sided limits of monotone
difference quotients.  ``counting_copy`` counts how often a function's
oracles are read.
"""

import collections
import dataclasses

from convex_enclose.convex_core import ConvexFunction, Interval, Jet, _one_sided_limit


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
