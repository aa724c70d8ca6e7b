"""Seeded fuzz corpus shared by the test suite and the CLI self-test."""

from __future__ import annotations

import math
import random

from . import catalog, divergence
from .convex_core import Interval
from .oracle import ADAPTIVE_SIMPSON, reference_integral
from .pointwise import ostrowski_enclosure
from .probability import (
    exponential_density_model,
    power_density_model,
    step_density_model,
    uniform_model,
)
from .quadrature import Partition, remainder_enclosure, riemann_sum

FAMILIES = ("square", "power", "exp", "neg_log", "t_log_t", "abs", "hinge",
            "affine", "neg_sqrt")


def random_interval(rng: random.Random, lo=-3.0, hi=3.0, min_width=0.25) -> Interval:
    a = rng.uniform(lo, hi - min_width)
    b = rng.uniform(a + min_width, hi)
    return Interval(a, b)


def random_convex_case(rng: random.Random, finite_slopes: bool = False,
                       smooth_only: bool = False):
    """One random catalog function on a random admissible interval."""
    families = FAMILIES
    if smooth_only:
        families = ("square", "power", "exp", "neg_log", "t_log_t", "affine")
    name = rng.choice(families)
    if name == "square":
        iv = random_interval(rng)
        return catalog.shifted_square(rng.uniform(iv.lo - 1.0, iv.hi + 1.0), iv)
    if name == "power":
        iv = random_interval(rng, 0.05, 4.0, 0.2)
        p = rng.choice((1.5, 2.0, 3.0, -0.5, -1.0, -2.0))
        return catalog.power(p, iv)
    if name == "exp":
        return catalog.exponential(random_interval(rng))
    if name == "neg_log":
        return catalog.neg_log(random_interval(rng, 0.05, 4.0, 0.2))
    if name == "t_log_t":
        return catalog.t_log_t(random_interval(rng, 0.05, 4.0, 0.2))
    if name == "abs":
        iv = random_interval(rng)
        c = rng.uniform(iv.lo + 0.1 * iv.width, iv.hi - 0.1 * iv.width)
        return catalog.abs_shift(c, iv).scaled(rng.uniform(0.3, 3.0))
    if name == "hinge":
        iv = random_interval(rng)
        c = rng.uniform(iv.lo + 0.1 * iv.width, iv.hi - 0.1 * iv.width)
        return catalog.hinge(c, iv)
    if name == "affine":
        return catalog.affine(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0),
                              random_interval(rng))
    # -sqrt(t); touch the vertical tangent occasionally unless forbidden
    lo = rng.uniform(0.05, 0.5) if finite_slopes else rng.choice((0.0, rng.uniform(0.05, 0.5)))
    return catalog.neg_sqrt(Interval(lo, lo + rng.uniform(0.5, 3.0)))


def random_partition(rng: random.Random, interval: Interval, max_cells: int = 32) -> Partition:
    n = rng.randint(1, max_cells)
    cuts = sorted(rng.uniform(interval.lo, interval.hi) for _ in range(n - 1))
    nodes = [interval.lo] + [c for c in cuts if interval.lo < c < interval.hi] + [interval.hi]
    nodes = sorted(set(nodes))
    tags = [rng.uniform(u, v) for u, v in zip(nodes, nodes[1:])]
    return Partition(tuple(nodes), tuple(tags))


def random_distribution(rng: random.Random, size: int) -> divergence.DiscreteDistribution:
    raw = [rng.uniform(0.05, 1.0) for _ in range(size)]
    total = math.fsum(raw)
    return divergence.DiscreteDistribution(tuple(w / total for w in raw))


def random_density_model(rng: random.Random):
    kind = rng.choice(("uniform", "power", "exponential", "step"))
    a = rng.uniform(0.0, 1.0)
    b = a + rng.uniform(0.5, 2.5)
    if kind == "uniform":
        return uniform_model(a, b)
    if kind == "power":
        return power_density_model(rng.choice((0.5, 1.0, 2.0, 3.0)), a, b)
    if kind == "exponential":
        return exponential_density_model(a, b)
    split = rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a))
    low = rng.uniform(0.0, 0.8 / (b - a))
    return step_density_model(a, b, split, low)


def _slack(*values) -> float:
    finite = [abs(v) for v in values if math.isfinite(v)]
    return 1e-10 * max([1.0] + finite)


def run_self_test(seed: int = 0) -> dict:
    """Condensed containment fuzz across all certified bounds."""
    rng = random.Random(seed)
    checks = []

    failures = 0
    worst = 0.0
    cases = 150
    for _ in range(cases):
        f = random_convex_case(rng)
        x = f.domain.lo + f.domain.width * rng.uniform(0.05, 0.95)
        enc = ostrowski_enclosure(f, x)
        gap = reference_integral(f).value - f.domain.width * f(x)
        s = _slack(enc.lo, enc.hi, gap)
        err = max(enc.lo - gap, gap - enc.hi if math.isfinite(enc.hi) else -math.inf)
        worst = max(worst, err)
        if not enc.contains(gap, slack=s):
            failures += 1
    checks.append({"name": "pointwise containment", "cases": cases,
                   "failures": failures, "worst_excess": worst})

    failures = 0
    cases = 60
    for _ in range(cases):
        f = random_convex_case(rng)
        part = random_partition(rng, f.domain, max_cells=16)
        enc = remainder_enclosure(f, part)
        rem = reference_integral(f).value - riemann_sum(f, part)
        if not enc.contains(rem, slack=_slack(enc.lo, enc.hi, rem)):
            failures += 1
    checks.append({"name": "composite containment", "cases": cases, "failures": failures})

    failures = 0
    cases = 80
    kernels = [divergence.KERNELS[name] for name in ("chi2", "kl", "tv", "reverse_kl")]
    for _ in range(cases):
        size = rng.randint(2, 12)
        p = random_distribution(rng, size)
        q = random_distribution(rng, size)
        for kernel in kernels:
            triple = divergence.hh_sandwich(kernel, p, q)
            bounds = divergence.hh_gap_bounds(kernel, p, q)
            gap = triple.hh - triple.lin_wong
            if not bounds.contains(gap, slack=_slack(bounds.lo, bounds.hi, gap)):
                failures += 1
    checks.append({"name": "divergence sandwich and gap", "cases": cases * len(kernels),
                   "failures": failures})

    failures = 0
    cases = 40
    from .probability import cdf_enclosure
    for _ in range(cases):
        model = random_density_model(rng)
        x = model.support.lo + model.support.width * rng.uniform(0.02, 0.98)
        enc = cdf_enclosure(model, x)
        true = model.cdf(x)
        if not enc.contains(true, slack=_slack(enc.lo, enc.hi, true)):
            failures += 1
    checks.append({"name": "cdf containment", "cases": cases, "failures": failures})

    failures = 0
    cases = 25
    for _ in range(cases):
        f = random_convex_case(rng)
        closed = reference_integral(f)
        numeric = reference_integral(f, method=ADAPTIVE_SIMPSON)
        if abs(closed.value - numeric.value) > 1e-11 * max(1.0, abs(closed.value)):
            failures += 1
    checks.append({"name": "oracle agreement", "cases": cases, "failures": failures})

    ok = all(c["failures"] == 0 for c in checks)
    return {"ok": ok, "seed": seed, "checks": checks}
