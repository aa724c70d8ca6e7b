"""Extended-real arithmetic on plain floats.

IEEE floats already carry +inf and -inf with the correct total order
(-inf < finite < +inf), so extended reals are represented as ordinary
floats throughout the package.  What IEEE gets wrong for certified
bounds is that the undefined forms (inf - inf, 0 * inf) silently turn
into NaN; the checked operations below raise instead, and NaN is
rejected everywhere.
"""

import math
from collections.abc import Sized

from .errors import ExtendedArithmeticError

INF = math.inf


def ensure_extended(x):
    """Coerce to float, rejecting NaN."""
    v = float(x)
    if math.isnan(v):
        raise ExtendedArithmeticError("NaN is not an extended real")
    return v


def xadd(a, b):
    a = ensure_extended(a)
    b = ensure_extended(b)
    if math.isinf(a) and math.isinf(b) and (a > 0.0) != (b > 0.0):
        raise ExtendedArithmeticError("inf - inf is undefined")
    return a + b


def xsub(a, b):
    return xadd(a, -ensure_extended(b))


def xmul(a, b):
    a = ensure_extended(a)
    b = ensure_extended(b)
    if (a == 0.0 and math.isinf(b)) or (b == 0.0 and math.isinf(a)):
        raise ExtendedArithmeticError("0 * inf is undefined")
    return a * b


def xsum(terms):
    """Deterministic sum of extended reals.

    Uses compensated summation when all terms are finite; falls back to
    checked left-to-right accumulation as soon as an infinity appears.
    Sized collections (lists, arrays) are summed without a copy.
    """
    items = terms if isinstance(terms, Sized) else list(terms)
    try:
        total = math.fsum(items)
    except ValueError:  # inf + -inf: let the checked path raise
        total = math.nan
    if math.isfinite(total):
        return total
    total = 0.0
    for t in items:
        total = xadd(total, t)
    return total
