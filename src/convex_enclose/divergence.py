"""Divergences of finite discrete distributions built from convex kernels.

A normalized convex kernel f (f(1) = 0) on the positive axis induces, for
strictly positive probability vectors p and q over the same alphabet:

  csiszar:   sum p_i f(q_i / p_i)
  lin_wong:  sum p_i f((p_i + q_i) / (2 p_i))        (kernel at the mixture)
  hh:        sum p_i * mean of f between 1 and q_i/p_i

and the chain  lin_wong <= hh <= csiszar / 2  holds.  The gap hh - lin_wong
is itself enclosed two-sidedly: the lower bound collects the kernel's kink
jumps at the mixture ratios (zero for differentiable kernels), the upper
bound its slope increase across each cell between 1 and the raw ratio.

Counting measure on a finite alphabet only; zero weights are rejected
because q_i/p_i and the per-atom mean degenerate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .convex_core import ConvexFunction, Interval
from .errors import InternalInconsistencyError, InvalidDistributionError
from .extreal import xsum
from .pointwise import Enclosure
from .quadrature import integrate_adaptive

_WEIGHT_SUM_TOL = 1e-12
_SANDWICH_SLACK = 1e-10
_INNER_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite strictly positive probability vector."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w:
            raise InvalidDistributionError("empty weight vector")
        if any(not math.isfinite(x) or x <= 0.0 for x in w):
            raise InvalidDistributionError("weights must be finite and strictly positive")
        total = math.fsum(w)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidDistributionError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def _require_same_length(p: DiscreteDistribution, q: DiscreteDistribution):
    if len(p) != len(q):
        raise InvalidDistributionError(
            f"distributions live on different alphabets ({len(p)} vs {len(q)})"
        )


@dataclass(frozen=True)
class DivergenceKernel:
    """Convex kernel on (0, inf), normalized so fn(1) == 0.

    The optional antiderivative gives closed-form per-atom means; kernels
    without one fall back to certified quadrature.
    """

    name: str
    fn: Callable[[float], float] = field(repr=False)
    dminus: Callable[[float], float] = field(repr=False)
    dplus: Callable[[float], float] = field(repr=False)
    antiderivative: Optional[Callable[[float], float]] = field(default=None, repr=False)
    kinks: tuple = ()

    def __post_init__(self):
        if abs(self.fn(1.0)) > 1e-12:
            raise ValueError(f"kernel {self.name!r} must vanish at 1")

    def on_interval(self, lo: float, hi: float) -> ConvexFunction:
        """The kernel as a ConvexFunction on [lo, hi] in (0, inf)."""
        return ConvexFunction(
            domain=Interval(lo, hi),
            fn=self.fn,
            dminus=self.dminus,
            dplus=self.dplus,
            antiderivative=self.antiderivative,
            kinks=tuple(k for k in self.kinks if lo < k < hi),
            name=self.name,
        )

    def mean_from_one(self, r: float) -> float:
        """(1/(r-1)) * integral of the kernel from 1 to r; 0 at r = 1."""
        if r == 1.0:
            return 0.0
        if self.antiderivative is not None:
            return (self.antiderivative(r) - self.antiderivative(1.0)) / (r - 1.0)
        lo, hi = (1.0, r) if r > 1.0 else (r, 1.0)
        result = integrate_adaptive(self.on_interval(lo, hi), tol=_INNER_TOL)
        integral = result.estimate + 0.5 * (result.remainder.lo + result.remainder.hi)
        signed = integral if r > 1.0 else -integral
        return signed / (r - 1.0)


def chi_square_kernel() -> DivergenceKernel:
    """(t - 1)^2."""
    return DivergenceKernel(
        name="chi2",
        fn=lambda t: (t - 1.0) ** 2,
        dminus=lambda t: 2.0 * (t - 1.0),
        dplus=lambda t: 2.0 * (t - 1.0),
        antiderivative=lambda t: (t - 1.0) ** 3 / 3.0,
    )


def kl_kernel() -> DivergenceKernel:
    """t ln t."""
    return DivergenceKernel(
        name="kl",
        fn=lambda t: t * math.log(t),
        dminus=lambda t: math.log(t) + 1.0,
        dplus=lambda t: math.log(t) + 1.0,
        antiderivative=lambda t: 0.5 * t * t * math.log(t) - 0.25 * t * t,
    )


def total_variation_kernel() -> DivergenceKernel:
    """|t - 1|."""
    return DivergenceKernel(
        name="tv",
        fn=lambda t: abs(t - 1.0),
        dminus=lambda t: -1.0 if t <= 1.0 else 1.0,
        dplus=lambda t: 1.0 if t >= 1.0 else -1.0,
        antiderivative=lambda t: 0.5 * (t - 1.0) * abs(t - 1.0),
        kinks=(1.0,),
    )


def reverse_kl_kernel() -> DivergenceKernel:
    """-ln t + t - 1."""
    return DivergenceKernel(
        name="reverse_kl",
        fn=lambda t: -math.log(t) + t - 1.0,
        dminus=lambda t: 1.0 - 1.0 / t,
        dplus=lambda t: 1.0 - 1.0 / t,
        antiderivative=lambda t: 0.5 * t * t - t * math.log(t),
    )


def shifted_abs_kernel() -> DivergenceKernel:
    """|t - 5/4| - 1/4 (kinked and sign-changing, yet normalized)."""
    return DivergenceKernel(
        name="shifted_abs",
        fn=lambda t: abs(t - 1.25) - 0.25,
        dminus=lambda t: -1.0 if t <= 1.25 else 1.0,
        dplus=lambda t: 1.0 if t >= 1.25 else -1.0,
        antiderivative=lambda t: 0.5 * (t - 1.25) * abs(t - 1.25) - 0.25 * t,
        kinks=(1.25,),
    )


KERNELS = {
    "chi2": chi_square_kernel,
    "kl": kl_kernel,
    "tv": total_variation_kernel,
    "reverse_kl": reverse_kl_kernel,
    "shifted_abs": shifted_abs_kernel,
}


def kernel_by_name(name: str) -> DivergenceKernel:
    try:
        return KERNELS[name]()
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(KERNELS)}") from None


def csiszar_divergence(kernel: DivergenceKernel, p: DiscreteDistribution,
                       q: DiscreteDistribution) -> float:
    """sum p_i f(q_i / p_i)."""
    _require_same_length(p, q)
    return math.fsum(pi * kernel.fn(qi / pi) for pi, qi in zip(p, q))


def lin_wong_divergence(kernel: DivergenceKernel, p: DiscreteDistribution,
                        q: DiscreteDistribution) -> float:
    """The kernel divergence of p against the even mixture (p + q)/2."""
    _require_same_length(p, q)
    return math.fsum(pi * kernel.fn((pi + qi) / (2.0 * pi)) for pi, qi in zip(p, q))


def hh_divergence(kernel: DivergenceKernel, p: DiscreteDistribution,
                  q: DiscreteDistribution) -> float:
    """sum p_i * (integral mean of the kernel between 1 and q_i/p_i).

    Atoms with q_i = p_i contribute their limit 0 (the inner mean tends
    to f(1) = 0).  Inner integrals use the kernel's closed form when
    available, else certified quadrature at tolerance 1e-12.
    """
    _require_same_length(p, q)
    return math.fsum(pi * kernel.mean_from_one(qi / pi) for pi, qi in zip(p, q))


@dataclass(frozen=True)
class HHSandwich:
    lin_wong: float
    hh: float
    half_csiszar: float


def hh_sandwich(kernel: DivergenceKernel, p: DiscreteDistribution,
                q: DiscreteDistribution) -> HHSandwich:
    """The ordered triple  lin_wong <= hh <= csiszar / 2  (asserted).

    A violation beyond numerical slack means the kernel is not convex or
    not normalized and raises InternalInconsistencyError.
    """
    lw = lin_wong_divergence(kernel, p, q)
    hh = hh_divergence(kernel, p, q)
    half = 0.5 * csiszar_divergence(kernel, p, q)
    slack = _SANDWICH_SLACK * max(1.0, abs(lw), abs(hh), abs(half))
    if lw > hh + slack or hh > half + slack:
        raise InternalInconsistencyError(
            f"divergence sandwich failed for kernel {kernel.name!r}: "
            f"{lw} <= {hh} <= {half}"
        )
    return HHSandwich(lin_wong=lw, hh=hh, half_csiszar=half)


def hh_gap_bounds(kernel: DivergenceKernel, p: DiscreteDistribution,
                  q: DiscreteDistribution) -> Enclosure:
    """Certified enclosure of  hh - lin_wong.

    Atom i contributes p_i times the midpoint-rule remainder of the kernel's
    mean over the cell between 1 and r_i = q_i/p_i, whose length is
    |q_i - p_i| / p_i:

    lower = (1/8) sum [f'+(m_i) - f'-(m_i)] |q_i - p_i|,  m_i = (p_i+q_i)/(2 p_i)
    upper = (1/8) sum [f'-(x1) - f'+(x0)] |q_i - p_i|  on the cell [x0, x1],
            that is [1, r_i] when q_i >= p_i and [r_i, 1] when q_i < p_i.

    The lower bound is >= 0 and vanishes for differentiable kernels.
    """
    _require_same_length(p, q)
    d_minus_one = kernel.dminus(1.0)
    d_plus_one = kernel.dplus(1.0)
    lo_terms = []
    hi_terms = []
    for pi, qi in zip(p, q):
        mid = (pi + qi) / (2.0 * pi)
        lo_terms.append((kernel.dplus(mid) - kernel.dminus(mid)) * abs(qi - pi))
        r = qi / pi
        if qi >= pi:
            hi_terms.append((kernel.dminus(r) - d_plus_one) * (qi - pi))
        else:
            hi_terms.append((d_minus_one - kernel.dplus(r)) * (pi - qi))
    return Enclosure(0.125 * xsum(lo_terms), 0.125 * xsum(hi_terms))
