"""Spans and exact counters recorded from outside the program.

A :class:`Tracer` swaps the public functions each module calls across a
module boundary (``cli`` -> ``expressions``, ``convex_core``, ``pointwise``,
``quadrature``, ``oracle``, ``means``, ``probability``, ``divergence``;
``means`` -> ``oracle``; ``expressions`` -> its parser) for wrappers that
record a span: name, request, parent span, start, end, outcome and
the counter deltas seen inside it.  Each module is one layer.

Counters come from call-counting copies of the objects the program
evaluates, made with ``dataclasses.replace``: ``ConvexFunction`` (values,
closed-form one-sided slopes), ``DivergenceKernel`` (kernel values and
slopes) and density callables.  Values of expression-built functions are
also timed, which is most of the tracing overhead.

Spans are timed with the thread's CPU clock, like the end-to-end latencies
(see run.py); the per-call value and slope timers use ``perf_counter``,
whose call costs a quarter as much and which they call ~10^5 times.

``extreal`` is only called from inside other modules, so it has no layer
here.  Spans stay in memory; :func:`layer_metrics` reduces them.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

_perf = time.perf_counter
_clock = time.thread_time

COUNTERS = ("fn", "slope", "sampled_fn", "expr_value_calls", "expr_slope_calls",
            "kernel", "density")
_TIMERS = ("expr_value_s", "expr_slope_s")


@dataclasses.dataclass
class Span:
    name: str  # "<layer>.<call>"; the root span of an operation is "op"
    request: int
    span_id: int
    parent: int | None
    start: float
    end: float
    status: str
    deltas: dict
    extra: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with tracer.installed(lib): ...``; state is per tracer."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.timers = dict.fromkeys(_TIMERS, 0.0)
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._counting_fns: set = set()
        self.cli_mode = False

    # -- spans -----------------------------------------------------------

    def spanned(self, name, func, before=None, after=None):
        """``func`` wrapped in a span.  ``before(args)`` maps the arguments
        outside the span; ``after(outcome, extra, args)`` sees the result or
        exception, may add to the span's ``extra`` and may replace a result."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in below
            self._stack.append(span_id)
            snapshot = dict(counts)
            status = "ok"
            extra = {}
            start = _clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                status = type(exc).__name__
                if after is not None:
                    after(exc, extra, args)
                raise
            finally:
                end = _clock()
                self._stack.pop()
                deltas = {k: counts[k] - snapshot[k] for k in COUNTERS}
                self.spans[span_id] = Span(name, self.request, span_id, parent,
                                           start, end, status, deltas, extra)
            if after is not None:
                result = after(result, extra, args)
            return result

        return wrapper

    def run_request(self, request, func, *args):
        """Run one operation under a root span named ``op``."""
        self.request = request
        return self.spanned("op", func)(*args)

    # -- counting copies ---------------------------------------------------

    def _count(self, keys, func):
        counts = self.counts

        def counted(t):
            for k in keys:
                counts[k] += 1
            return func(t)

        return counted

    def _count_timed(self, keys, timer, func):
        counts, timers = self.counts, self.timers

        def counted(t):
            for k in keys:
                counts[k] += 1
            start = _perf()
            try:
                return func(t)
            finally:
                timers[timer] += _perf() - start

        return counted

    def count_function(self, f, expression: bool):
        """A copy of ConvexFunction ``f`` whose evaluations are counted; the
        values and slopes of expression-built functions are also timed."""
        if f.fn in self._counting_fns:
            return f
        keys = ("fn",) if f.certified else ("fn", "sampled_fn")
        if expression:
            fn = self._count_timed(keys + ("expr_value_calls",), "expr_value_s", f.fn)
        else:
            fn = self._count(keys, f.fn)
        slopes = {}
        for side in ("dminus", "dplus"):
            oracle = getattr(f, side)
            if oracle is None:
                continue
            if expression:
                slopes[side] = self._count_timed(("slope", "expr_slope_calls"),
                                                 "expr_slope_s", oracle)
            else:
                slopes[side] = self._count(("slope",), oracle)
        self._counting_fns.add(fn)
        return dataclasses.replace(f, fn=fn, **slopes)

    def count_kernel(self, kernel):
        return dataclasses.replace(
            kernel,
            fn=self._count(("kernel",), kernel.fn),
            dminus=self._count(("kernel",), kernel.dminus),
            dplus=self._count(("kernel",), kernel.dplus),
        )

    # -- installation --------------------------------------------------------

    def _patches(self, lib):
        """(module, attribute, replacement) for every traced call site."""
        from convex_enclose import means, probability

        exprs, quad, div = lib.expressions, lib.quadrature, lib.divergence

        def built(result, extra, args):
            if isinstance(result, Exception):
                return result
            f, warnings = result
            return self.count_function(f, expression=True), warnings

        def count_arg(args):
            return (self.count_function(args[0], expression=False),) + tuple(args[1:])

        def cells(result, extra, args):
            best = getattr(result, "best", result)
            if best is not None and hasattr(best, "cells"):
                extra["cells"] = best.cells
            return result

        def density_arg(args):
            return (self._count(("density",), args[0]),) + tuple(args[1:])

        def kernel_out(result, extra, args):
            return result if isinstance(result, Exception) else self.count_kernel(result)

        def atoms(result, extra, args):
            extra["atoms"] = len(args[1])
            return result

        plan = [
            (exprs, "parse_expression", "expressions.parse", None, None),
            (exprs, "convex_function_from_expression", "expressions.build", None, built),
            (quad, "integrate_adaptive", "quadrature.integrate", count_arg, cells),
            (div, "kernel_by_name", "divergence.kernel_by_name", None, kernel_out),
            (means, "reference_integral", "oracle.reference_integral", None, None),
            (means, "mean_comparison", "means.mean_comparison", None, None),
            (probability, "uniform_model", "probability.model_build", None, None),
            (probability, "step_density_model", "probability.model_build", None, None),
            (probability, "model_from_density", "probability.model_build", density_arg, None),
            (probability, "median_point_probability", "probability.median", None, None),
            (probability, "cdf_gap_enclosure", "probability.cdf_gap_enclosure", None, None),
            (probability, "cdf_enclosure", "probability.cdf_enclosure", None, None),
            (div, "hh_sandwich", "divergence.hh_sandwich", None, atoms),
            (div, "hh_gap_bounds", "divergence.hh_gap_bounds", None, atoms),
        ]
        if lib.cli is not None:
            cli = lib.cli
            plan += [
                (cli, "parse_expression", "expressions.parse", None, None),
                (cli, "convex_function_from_expression", "expressions.build", None, built),
                (cli, "require_convex", "convex_core.require_convex", None, None),
                (cli, "integrate_adaptive", "quadrature.integrate", count_arg, cells),
                (cli, "reference_integral", "oracle.reference_integral", None, None),
                (cli, "mean_comparison", "means.mean_comparison", None, None),
                (cli, "special_means", "means.special_means", None, None),
                (cli, "verify_mean_inequalities", "means.verify_mean_inequalities", None, None),
            ] + [(cli, name, f"pointwise.{name}", None, None)
                 for name in ("ostrowski_lower", "ostrowski_upper", "hh_refinement",
                              "classical_ostrowski_bound")]
        return [(mod, attr, self.spanned(name, getattr(mod, attr), before, after))
                for mod, attr, name, before, after in plan]

    def installed(self, lib):
        self.cli_mode = lib.cli is not None
        return _Installed(self._patches(lib))


class _Installed:
    def __init__(self, patches):
        self.patches = patches
        self.saved = []

    def __enter__(self):
        for mod, attr, replacement in self.patches:
            self.saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, replacement)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()
        return False


# --------------------------------------------------------------------------
# Reduction to per-layer metrics
# --------------------------------------------------------------------------

def _mean(values, scale=1.0):
    return scale * statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer):
    """{metric: (value, unit, samples)} for every per-layer metric."""
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in tracer.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent] += s.duration
    counts, timers = tracer.counts, tracer.timers

    def durations(*names):
        return [s.duration for n in names for s in by_name[n]]

    def deltas(key, *names):
        return [s.deltas[key] for n in names for s in by_name[n]]

    roots = by_name["op"]
    cli_self = [s.duration - children[s.span_id] for s in roots] if tracer.cli_mode else []
    require = by_name["convex_core.require_convex"]
    integrate = by_name["quadrature.integrate"]
    budget = [s for s in integrate if s.status == "BudgetExceededError"]
    total_cells = sum(s.extra.get("cells", 0) for s in integrate)
    total_quad_fn = sum(deltas("fn", "quadrature.integrate"))
    pointwise = [n for n in by_name if n.startswith("pointwise.")]
    sandwich = by_name["divergence.hh_sandwich"]
    gap = by_name["divergence.hh_gap_bounds"]
    atoms = sum(s.extra.get("atoms", 0) for s in sandwich)
    kernel_evals = sum(deltas("kernel", "divergence.hh_sandwich", "divergence.hh_gap_bounds"))

    def per_atom(spans, scale=1.0):
        return scale * sum(s.duration for s in spans) / atoms if atoms else 0.0

    m = {
        "cli.self_ms": (_mean(cli_self, 1e3), "ms", len(cli_self)),
        "expressions.parse_us": (_mean(durations("expressions.parse"), 1e6), "us",
                                 len(by_name["expressions.parse"])),
        "expressions.value_calls": (counts["expr_value_calls"], "count", 1),
        "expressions.value_busy_ms": (1e3 * timers["expr_value_s"], "ms", 1),
        "expressions.slope_calls": (counts["expr_slope_calls"], "count", 1),
        "expressions.slope_busy_ms": (1e3 * timers["expr_slope_s"], "ms", 1),
        "convex_core.require_convex_ms": (_mean([s.duration for s in require], 1e3), "ms",
                                          len(require)),
        "convex_core.require_convex.fn_evals": (_mean([s.deltas["fn"] for s in require]),
                                                "count", len(require)),
        "convex_core.require_convex.slope_evals": (_mean([s.deltas["slope"] for s in require]),
                                                   "count", len(require)),
        "convex_core.rejected": (sum(s.status == "NonConvexError" for s in require), "count",
                                 len(require)),
        "convex_core.sampled.fn_evals": (counts["sampled_fn"], "count", 1),
        "pointwise.bounds_us": (_mean(durations(*pointwise), 1e6), "us",
                                len(durations(*pointwise))),
        "quadrature.integrate_ms": (_mean([s.duration for s in integrate], 1e3), "ms",
                                    len(integrate)),
        "quadrature.cells": (_mean([s.extra.get("cells", 0) for s in integrate]), "count",
                             len(integrate)),
        "quadrature.fn_evals": (_mean([s.deltas["fn"] for s in integrate]), "count",
                                len(integrate)),
        "quadrature.slope_evals": (_mean([s.deltas["slope"] for s in integrate]), "count",
                                   len(integrate)),
        "quadrature.cells_per_fn_eval": (total_cells / total_quad_fn if total_quad_fn else 0.0,
                                         "ratio", len(integrate)),
        "quadrature.budget_exceeded": (len(budget), "count", len(integrate)),
        "quadrature.budget_ms": (_mean([s.duration for s in budget], 1e3), "ms", len(budget)),
        "oracle.reference_integral_ms": (_mean(durations("oracle.reference_integral"), 1e3),
                                         "ms", len(by_name["oracle.reference_integral"])),
        "oracle.calls": (len(by_name["oracle.reference_integral"]), "count", 1),
        "means.mean_comparison_ms": (_mean(durations("means.mean_comparison"), 1e3), "ms",
                                     len(by_name["means.mean_comparison"])),
        "means.special_means_us": (_mean(durations("means.special_means"), 1e6), "us",
                                   len(by_name["means.special_means"])),
        "probability.model_build_ms": (_mean(durations("probability.model_build"), 1e3), "ms",
                                       len(by_name["probability.model_build"])),
        "probability.cdf_enclosure_ms": (_mean(durations("probability.cdf_enclosure"), 1e3),
                                         "ms", len(by_name["probability.cdf_enclosure"])),
        "probability.density_evals": (counts["density"], "count", 1),
        "divergence.sandwich_us_per_atom": (per_atom(sandwich, 1e6), "us", len(sandwich)),
        "divergence.gap_bounds_us_per_atom": (per_atom(gap, 1e6), "us", len(gap)),
        "divergence.kernel_evals_per_atom": (kernel_evals / atoms if atoms else 0.0,
                                             "count/atom", len(sandwich)),
    }
    return m


def exact_counts(tracer: Tracer):
    """Everything a traced replay counts; two replays of one seed must agree."""
    out = dict(tracer.counts)
    calls = defaultdict(int)
    for s in tracer.spans:
        calls[f"calls.{s.name}"] += 1
        if "cells" in s.extra:
            calls["cells"] += s.extra["cells"]
    out.update(calls)
    return out
