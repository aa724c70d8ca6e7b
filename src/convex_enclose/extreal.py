"""Extended-real arithmetic on plain floats.

IEEE floats already carry +inf and -inf with the correct total order
(-inf < finite < +inf), so extended reals are ordinary floats and the
bound formulas use plain float arithmetic.  The undefined forms
(inf - inf, 0 * inf) become a NaN that sticks through every later
addition and multiplication, and math.fsum raises on inf + -inf, so
validity is checked once where a value leaves as a result, not on every
operation:

- ``ensure_extended``, in the one-sided derivative oracles
  (``ConvexFunction.left_derivative``/``right_derivative`` and the
  symbolic slopes that ``expressions.convex_function_from_expression``
  builds) and in ``Enclosure``;
- ``xsum``, for every sum of per-cell or per-atom terms;
- the NaN-width test of ``quadrature.integrate_adaptive``.

A comparison does not carry a NaN along (``max(1.0, nan)`` is 1.0), so
code that compares or discards a possibly undefined slope checks it
first; see ``expressions._lower_slope``, to which ``expressions._lower_jet``
hands every such point.
"""

import math
from collections.abc import Sized

from .errors import ExtendedArithmeticError

INF = math.inf


def ensure_extended(x):
    """Coerce to float, rejecting NaN (the trace of inf - inf or 0 * inf)."""
    v = float(x)
    if math.isnan(v):
        raise ExtendedArithmeticError(
            "undefined extended-real result (NaN, inf - inf or 0 * inf)"
        )
    return v


def xsum(terms):
    """Correctly rounded sum (math.fsum) of extended reals.

    Raises ExtendedArithmeticError when the terms hold both infinities or
    a NaN; one-signed infinities sum to that infinity.  Iterators are
    drained first, so an error raised while producing a term propagates
    unchanged.
    """
    items = terms if isinstance(terms, Sized) else list(terms)
    try:
        total = math.fsum(items)
    except ValueError:
        raise ExtendedArithmeticError("inf - inf is undefined") from None
    return ensure_extended(total)
