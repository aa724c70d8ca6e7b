"""Independent ground truth for containment and equality tests.

Two paths: exact antiderivatives (closed form), taken whenever the
function carries one unless Simpson is asked for, and an adaptive Simpson
integrator with kink-aware splitting.  The Simpson path shares no code
or formulas with the certified bound modules, so containment tests
against it are non-circular.  Neither path returns an error estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .convex_core import ConvexFunction, Interval
from .errors import DomainError, OracleFailureError

CLOSED_FORM = "closed-form"
ADAPTIVE_SIMPSON = "adaptive-simpson"

_MAX_DEPTH = 60
_DEFAULT_REL = 1e-13
_ROUNDING_REL = 64.0 * sys.float_info.epsilon
_BRUTE_FORCE_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str


def _simpson(fn, a, b):
    return (b - a) / 6.0 * (fn(a) + 4.0 * fn(0.5 * (a + b)) + fn(b))


def _adaptive(fn, a, b, fa, fm, fb, whole, tol, floor, depth):
    m = 0.5 * (a + b)
    if not a < m < b:
        # no representable midpoint; the panel is rounding-limited
        return whole
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0 or not math.isfinite(delta):
        raise OracleFailureError(f"adaptive Simpson did not converge on [{a}, {b}]")
    if abs(delta) <= _ROUNDING_REL * (abs(left) + abs(right)):
        # only rounding noise is left; refining would split down to the depth limit
        return left + right + delta / 15.0
    # the child tolerance never drops below the rounding floor, else
    # integrable endpoint singularities would recurse without limit
    child_tol = max(0.5 * tol, floor)
    return (_adaptive(fn, a, m, fa, flm, fm, left, child_tol, floor, depth - 1)
            + _adaptive(fn, m, b, fm, frm, fb, right, child_tol, floor, depth - 1))


def _breakpoints(lo, hi, kinks):
    inner = sorted({float(k) for k in kinks if lo < k < hi})
    return [lo] + inner + [hi]


def integrate_callable(fn, lo: float, hi: float, tol: float, breakpoints=()):
    """Adaptive Simpson on a plain callable; returns the integral's value.

    ``breakpoints`` are split exactly so each recursive pass only ever
    sees a smooth integrand.
    """
    pts = _breakpoints(lo, hi, breakpoints)
    span = hi - lo
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        piece_tol = tol * (b - a) / span if span > 0 else tol
        floor = 1e-4 * piece_tol
        fa, fb = fn(a), fn(b)
        fm = fn(0.5 * (a + b))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _adaptive(fn, a, b, fa, fm, fb, whole, piece_tol, floor, _MAX_DEPTH)
    return total


def reference_integral(f: ConvexFunction, interval: Optional[Interval] = None,
                       tol: Optional[float] = None, method: str = "auto") -> OracleResult:
    """Definite integral of f over ``interval`` (default: its whole domain).

    Catalog functions carry exact antiderivatives and are evaluated in
    closed form (kink points split exactly); everything else goes through
    adaptive Simpson with tolerance ``tol``, default 1e-13 * (1 + |result|).
    ``method=ADAPTIVE_SIMPSON`` skips the antiderivative.
    """
    target = interval if interval is not None else f.domain
    if not f.domain.encloses(target):
        raise DomainError("integration interval must lie inside the function domain")
    if method not in ("auto", ADAPTIVE_SIMPSON):
        raise ValueError(f"unknown oracle method {method!r}")

    pts = _breakpoints(target.lo, target.hi, f.kinks)
    if f.antiderivative is not None and method == "auto":
        anti = f.antiderivative
        total = math.fsum(anti(b) - anti(a) for a, b in zip(pts, pts[1:]))
        return OracleResult(value=total, method=CLOSED_FORM)

    if tol is None:
        rough = math.fsum(_simpson(f.fn, a, b) for a, b in zip(pts, pts[1:]))
        tol = _DEFAULT_REL * (1.0 + abs(rough))
    value = integrate_callable(f.fn, target.lo, target.hi, tol, breakpoints=f.kinks)
    return OracleResult(value=value, method=ADAPTIVE_SIMPSON)


def brute_force_hh(kernel, p, q) -> float:
    """Numeric evaluation of the per-atom integral-mean divergence.

    Every inner integral runs through the adaptive-Simpson oracle path to
    tolerance 1e-12, ignoring the kernel's closed form, so this validates
    the divergence module's closed-form sums.
    """
    from .divergence import _require_compatible

    _require_compatible(kernel, p, q)
    terms = []
    for pi, qi in zip(p.weights, q.weights):
        r = qi / pi
        if r == 1.0:
            continue
        lo, hi = (1.0, r) if r > 1.0 else (r, 1.0)
        piece = reference_integral(kernel, Interval(lo, hi), tol=_BRUTE_FORCE_TOL,
                                   method=ADAPTIVE_SIMPSON)
        signed = piece.value if r > 1.0 else -piece.value
        terms.append(pi * signed / (r - 1.0))
    return math.fsum(terms)
