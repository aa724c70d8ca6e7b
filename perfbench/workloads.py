"""Seeded input generators and operation runners for the three workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs are plain JSON-able specs
drawn from ``random.Random(f"{workload}:{seed}")``; the program under test
receives only what a spec describes (an argv list, a catalog or expression
function plus a tolerance, or two weight vectors and a kernel name).

Each stream is a sequence of *decks*: a deck has a fixed composition of
categories, shuffled, with fresh parameters.  The fixed composition keeps
the latency quantiles of two seeds comparable; the parameters still vary.

This module imports nothing heavier than the program itself, so the
cold-start probe can run a workload's first operation with it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

# --------------------------------------------------------------------------
# Expressions: a sum of terms, each with a source form the CLI parses and a
# description the checker evaluates independently (see checks.py).
# --------------------------------------------------------------------------

# term kinds: sq c*(t - s)^2, exp c*exp(k*t), lin c*t (c may be negative),
# tlnt c*t*ln(t), nlog -c*ln(t), inv c/t, nsqrt -c*sqrt(t), abs c*abs(t - s),
# hinge c*max(0, t - s), and the variable exponents pow2t c*2^t, tpowt c*t^t
_POSITIVE = ("tlnt", "nlog", "inv", "nsqrt", "tpowt")  # need t > 0
_SMOOTH = ("sq", "exp", "tlnt", "nlog", "inv", "nsqrt")
_KINKED = ("abs", "hinge")
_NEGATED = ("nlog", "nsqrt")


def _num(x: float) -> str:
    return repr(float(x))


def _offset(s: float) -> str:
    return f"t - {_num(s)}" if s >= 0 else f"t + {_num(-s)}"


def term_source(term) -> str:
    """Source text of one term, without its leading sign for negated kinds."""
    kind, c, p = term
    c = _num(abs(c))
    return {
        "sq": lambda: f"{c}*({_offset(p)})^2",
        "exp": lambda: f"{c}*exp({_num(p)}*t)",
        "lin": lambda: f"{c}*t",
        "tlnt": lambda: f"{c}*t*ln(t)",
        "nlog": lambda: f"{c}*ln(t)",
        "inv": lambda: f"{c}/t",
        "nsqrt": lambda: f"{c}*sqrt(t)",
        "abs": lambda: f"{c}*abs({_offset(p)})",
        "hinge": lambda: f"{c}*max(0, {_offset(p)})",
        "pow2t": lambda: f"{c}*2^t",
        "tpowt": lambda: f"{c}*t^t",
    }[kind]()


def _negative(term) -> bool:
    return term[0] in _NEGATED or (term[0] == "lin" and term[1] < 0)


def expression_source(terms) -> str:
    """Join terms; the first term is never negative, so no leading '-'."""
    parts = [term_source(terms[0])]
    for term in terms[1:]:
        parts.append((" - " if _negative(term) else " + ") + term_source(term))
    return "".join(parts)


def _coef(rng, lo=0.2, hi=2.0) -> float:
    return round(rng.uniform(lo, hi), 3)


def _interval(rng, positive: bool):
    a = round(rng.uniform(0.1, 1.5), 3) if positive else round(rng.uniform(-1.0, 1.5), 3)
    b = round(a + rng.uniform(0.5, 2.0), 3)
    return a, b


def _inner(rng, a, b, margin=0.1) -> float:
    w = b - a
    return round(rng.uniform(a + margin * w, b - margin * w), 3)


def _term(rng, kind, a, b):
    if kind == "sq":
        return (kind, _coef(rng), round(rng.uniform(a - 0.5, b + 0.5), 3))
    if kind == "exp":
        return (kind, _coef(rng, 0.2, 1.0), round(rng.uniform(0.5, 1.5), 3))
    if kind == "lin":
        return (kind, round(rng.uniform(-1.0, 1.0), 3), 0.0)
    if kind in _KINKED:
        return (kind, _coef(rng), _inner(rng, a, b))
    return (kind, _coef(rng), 0.0)


def random_expression(rng, kinked: bool, variable_exponent: bool = False, extra=None):
    """(terms, a, b): a convex sum of 1 + ``extra`` terms on [a, b] (``extra``
    drawn from 0..2 if not given)."""
    if variable_exponent:
        kinds = [rng.choice(("pow2t", "tpowt"))]
    elif kinked:
        kinds = [rng.choice(_KINKED)]
    else:
        kinds = [rng.choice(("sq", "exp", "tlnt", "inv"))]
    for _ in range(rng.randrange(0, 3) if extra is None else extra):
        kinds.append(rng.choice(_SMOOTH + ("lin",) + (_KINKED if kinked else ())))
    positive = any(k in _POSITIVE for k in kinds)
    a, b = _interval(rng, positive)
    return [_term(rng, k, a, b) for k in kinds], a, b


# --------------------------------------------------------------------------
# cli_mix
# --------------------------------------------------------------------------

def _cli(category, argv, expect, **ref):
    return {"kind": "cli", "category": category, "argv": argv, "expect": expect, "ref": ref}


def _enclose(rng, kinked, variable_exponent=False, extra=None):
    terms, a, b = random_expression(rng, kinked, variable_exponent, extra)
    u = rng.random()
    x = a if u < 0.05 else (b if u < 0.1 else _inner(rng, a, b, 0.02))
    argv = ["enclose", f"--fn={expression_source(terms)}", f"--a={_num(a)}",
            f"--b={_num(b)}", f"--x={_num(x)}"]
    if rng.random() < 0.1:
        argv.append("--oracle")
    return _cli("enclose", argv, "ok", terms=terms, a=a, b=b, x=x)


def _integrate(rng, kinked, extra, width_u, tol_u):
    """``width_u`` and ``tol_u`` in [0, 1) place the width and the tolerance
    in their ranges (the deck stratifies them)."""
    terms, a, _ = random_expression(rng, kinked, extra=extra)
    if any(t[0] in _POSITIVE for t in terms):
        a = max(a, 0.3)  # 1/t and ln t slopes near 0.1 would need 2^16 cells
    b = round(a + 0.3 + 0.7 * width_u, 3)  # keeps the integrator off the median
    if kinked:
        terms = [t if t[0] not in _KINKED else (t[0], t[1], _inner(rng, a, b)) for t in terms]
    tol = float(f"{10 ** (-6.0 + tol_u):.2g}")
    argv = ["integrate", f"--fn={expression_source(terms)}", f"--a={_num(a)}",
            f"--b={_num(b)}", f"--tol={_num(tol)}"]
    return _cli("integrate", argv, "ok", terms=terms, a=a, b=b, tol=tol)


def _subinterval(rng, a, b):
    """[c, d] inside [a, b], at least a tenth of its width long."""
    w = b - a
    c = round(rng.uniform(a, b - 0.2 * w), 3)
    return c, round(rng.uniform(c + 0.1 * w, b), 3)


def _means(rng, kinked, variable_exponent=False, extra=None):
    terms, a, b = random_expression(rng, kinked, variable_exponent, extra)
    c, d = _subinterval(rng, a, b)
    argv = ["means", f"--fn={expression_source(terms)}", f"--a={_num(a)}", f"--b={_num(b)}",
            f"--c={_num(c)}", f"--d={_num(d)}"]
    return _cli("means", argv, "ok", terms=terms, a=a, b=b, c=c, d=d)


def _kernel_suite(rng):
    a = round(rng.uniform(0.2, 1.0), 3)
    b = round(a + rng.uniform(0.5, 3.0), 3)
    c, d = _subinterval(rng, a, b)
    p = rng.choice((round(rng.uniform(1.2, 3.0), 2), round(rng.uniform(-3.0, -1.2), 2)))
    argv = ["means", f"--a={_num(a)}", f"--b={_num(b)}", f"--c={_num(c)}", f"--d={_num(d)}",
            f"--kernel-suite={_num(p)}"]
    return _cli("means_suite", argv, "ok", a=a, b=b, c=c, d=d, p=p)


def _special_means(rng):
    a = round(rng.uniform(0.1, 5.0), 3)
    b = round(a * rng.uniform(1.2, 4.0), 3)
    p = rng.choice((round(rng.uniform(0.2, 3.0), 2), round(rng.uniform(-3.0, -1.2), 2)))
    argv = ["special-means", f"--a={_num(a)}", f"--b={_num(b)}", f"--p={_num(p)}"]
    return _cli("special_means", argv, "ok", a=a, b=b, p=p)


def _density(rng):
    """(density argument, a, b, spec) of a nondecreasing density on [a, b]."""
    form = rng.choice(("uniform", "step", "linear", "power", "exp"))
    a = round(rng.uniform(0.0, 1.0), 3)
    b = round(a + rng.uniform(0.5, 2.0), 3)
    w = b - a
    if form == "uniform":
        return "uniform", a, b, ("uniform",)
    if form == "step":
        split = _inner(rng, a, b)
        low = round(rng.uniform(0.1, 0.9) / w, 3)
        return f"step:{_num(split)},{_num(low)}", a, b, ("step", split, low)
    if form == "linear":
        # alpha + beta*t with alpha + beta*a >= 0, integrating to 1
        beta = rng.uniform(0.1, 1.0)
        alpha = (1.0 - 0.5 * beta * (b * b - a * a)) / w
        if alpha + beta * a < 0.0:
            alpha, beta = 1.0 / w, 0.0
        text = f"{_num(alpha)} + {_num(beta)}*t" if alpha >= 0 else \
            f"{_num(beta)}*t - {_num(-alpha)}"
        return text, a, b, ("linear", alpha, beta)
    if form == "power":
        k = rng.randrange(1, 4)
        norm = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        coef = 1.0 / norm
        return f"{_num(coef)}*t^{k}", a, b, ("power", coef, k)
    coef = 1.0 / (math.exp(b) - math.exp(a))
    return f"{_num(coef)}*exp(t)", a, b, ("exp", coef)


def _prob(rng):
    density, a, b, spec = _density(rng)
    argv = ["prob", f"--density={density}", f"--a={_num(a)}", f"--b={_num(b)}"]
    x = None
    if rng.random() < 0.7:
        x = _inner(rng, a, b, 0.02)
        argv.append(f"--x={_num(x)}")
    return _cli("prob", argv, "ok", density=spec, a=a, b=b, x=x)


KERNEL_NAMES = ("chi2", "kl", "tv", "reverse_kl", "shifted_abs")


def random_weights(rng, n):
    """n positive weights summing to 1; ratios between two are below 101."""
    raw = [rng.random() + 0.01 for _ in range(n)]
    total = math.fsum(raw)
    w = [x / total for x in raw]
    # fold the rounding residue into the largest weight so fsum(w) is 1
    i = max(range(n), key=w.__getitem__)
    w[i] += 1.0 - math.fsum(w)
    return w


def _weights_text(w):
    return ",".join(_num(x) for x in w)


def _divergence(rng):
    n = rng.randrange(2, 9)
    kernel = rng.choice(KERNEL_NAMES)
    p, q = random_weights(rng, n), random_weights(rng, n)
    argv = ["divergence", f"--kernel={kernel}", f"--p={_weights_text(p)}",
            f"--q={_weights_text(q)}"]
    return _cli("divergence", argv, "ok", kernel=kernel, p=p, q=q)


def _invalid(rng):
    """A request that must exit 2 or 3 (ROADMAP D: every input gets 0/2/3)."""
    kind = rng.choice(("syntax", "non_convex", "x_outside", "bad_distribution",
                       "extreme_magnitude", "tiny_interval", "budget"))
    if kind == "syntax":
        fn = rng.choice(("t^2 +", "2*(t", "sin(t)", "t ** 2", "abs(t", "", "t $ 2", "max(t)"))
        argv = ["enclose", f"--fn={fn}", "--a=0.0", "--b=1.0", "--x=0.5"]
    elif kind == "non_convex":
        fn = rng.choice(("ln(t)", "sqrt(t)", "-t^2", "-exp(t)", "t^0.5", "-abs(t - 1.5)"))
        argv = [rng.choice(("enclose", "integrate")), f"--fn={fn}", "--a=1.0", "--b=2.0"]
        if argv[0] == "enclose":
            argv.append("--x=1.5")
    elif kind == "x_outside":
        terms, a, b = random_expression(rng, kinked=rng.random() < 0.5)
        x = b + round(rng.uniform(0.01, 1.0), 3) if rng.random() < 0.5 else \
            a - round(rng.uniform(0.01, 1.0), 3)
        argv = ["enclose", f"--fn={expression_source(terms)}", f"--a={_num(a)}",
                f"--b={_num(b)}", f"--x={_num(x)}"]
    elif kind == "bad_distribution":
        argv = rng.choice((
            ["divergence", "--kernel=kl", "--p=0.5,0.6", "--q=0.5,0.5"],
            ["divergence", "--kernel=chi2", "--p=0.5,0.5", "--q=0.25,0.25,0.5"],
            ["divergence", "--kernel=tv", "--p=1.5,-0.5", "--q=0.5,0.5"],
            ["divergence", "--kernel=kl", "--p=0.5,x", "--q=0.5,0.5"],
            ["divergence", "--kernel=hellinger", "--p=0.5,0.5", "--q=0.5,0.5"],
            ["prob", "--density=step:0.5,1.5", "--a=0.0", "--b=1.0"],
            ["prob", "--density=t", "--a=0.0", "--b=1.0"],
            ["prob", "--density=2 - 2*t", "--a=0.0", "--b=1.0"],
        ))
    elif kind == "extreme_magnitude":
        argv = rng.choice((
            ["enclose", "--fn=t^2", "--a=-inf", "--b=1.0", "--x=0.5"],
            ["enclose", "--fn=t^2", "--a=0.0", "--b=nan", "--x=0.5"],
            ["enclose", "--fn=t^2", "--a=0.0", "--b=2.0", "--x=1e308"],
            ["enclose", "--fn=exp(t)", "--a=0.0", "--b=800.0", "--x=1.0"],
            ["integrate", "--fn=t^2", "--a=0.0", "--b=2.0", "--tol=0.0"],
        ))
    elif kind == "tiny_interval":
        a = round(rng.uniform(-1.0, 1.0), 3)
        argv = ["enclose", "--fn=t^2", f"--a={_num(a)}", f"--b={_num(a)}", f"--x={_num(a)}"]
        if rng.random() < 0.5:
            argv[2:4] = [f"--a={_num(a + 1.0)}", f"--b={_num(a)}"]
    else:  # budget: the cell budget cannot reach tol, so the request exits 3
        argv = ["integrate", "--fn=exp(t)", "--a=0.0", "--b=1.0", "--tol=1e-09",
                f"--max-cells={rng.choice((4, 16, 64))}"]
    return _cli(f"invalid:{kind}", argv, "reject")


def known_crash(rng):
    """A request from a ROADMAP D crash class; today it escapes cli.run.

    These are executed once per deck outside the timed stream (see
    run.py), because the benchmark's timed workloads must not contain
    operations that fail; their outcome is still reported every run.
    """
    kind = rng.choice(("overflow", "subnormal_interval", "max_cells_zero"))
    if kind == "overflow":
        argv = rng.choice((
            ["enclose", "--fn=abs(t)", "--a=-1e200", "--b=1e200", "--x=1.0"],
            ["special-means", "--a=1e-300", "--b=1e300", "--p=2.0"],
        ))
    elif kind == "subnormal_interval":
        argv = ["enclose", "--fn=t^2", "--a=0.0", "--b=1e-300", "--x=5e-301"]
    else:
        argv = ["integrate", "--fn=exp(t)", "--a=0.0", "--b=1.0",
                f"--max-cells={rng.choice((0, -1))}"]
    return _cli(f"known_crash:{kind}", argv, "reject")


def cli_mix_decks(rng):
    """40 requests: all six subcommands, 5% variable exponents, 10% invalid.

    About a third are cheap (special-means, prob, divergence, the kernel
    suite, rejections), so the median lands among the expression requests
    whose fixed costs (parser, require_convex, JSON) the workload is about.
    The costly ones (integrate, means) set the p90; their number of terms,
    and integrate's width and tolerance, are stratified over the deck, so
    the cost mix of two seeds matches closely.
    """
    deck = [_enclose(rng, kinked=i % 2 == 1, extra=i % 3) for i in range(11)]
    deck += [_integrate(rng, i % 2 == 1, i % 3, ((2 * i) % 5 + rng.random()) / 5,
                        (i + rng.random()) / 5) for i in range(5)]
    deck += [_means(rng, kinked=i % 2 == 1, extra=i % 3) for i in range(5)]
    deck.append(_kernel_suite(rng))
    deck.append(_enclose(rng, kinked=False, variable_exponent=True))
    deck.append(_means(rng, kinked=False, variable_exponent=True))
    deck += [_special_means(rng) for _ in range(3)]
    deck += [_prob(rng) for _ in range(5)]
    deck += [_divergence(rng) for _ in range(4)]
    deck += [_invalid(rng) for _ in range(4)]
    rng.shuffle(deck)
    return [deck]


# --------------------------------------------------------------------------
# integrate_tight
# --------------------------------------------------------------------------

INTEGRAND_FAMILIES = ("exp", "t_log_t", "abs_shift", "hinge", "abs_plus_tlnt",
                      "power_m2", "neg_sqrt")
# family -> (range of the lower end, range of the width).  With tol in
# [1e-8, 1e-7] uniform doubling needs about 1k to 16k cells.
_INTEGRAND_RANGES = {
    "exp": ((-1.0, 1.0), (0.5, 1.0)),
    "t_log_t": ((0.3, 1.5), (0.5, 1.0)),
    "abs_shift": ((0.0, 1.0), (0.4, 0.8)),
    "hinge": ((0.0, 1.0), (0.4, 0.8)),
    "abs_plus_tlnt": ((0.3, 1.0), (0.3, 0.6)),
    "power_m2": ((0.3, 0.8), (0.1, 0.3)),   # lo >= 0.2
    "neg_sqrt": ((0.02, 0.3), (0.3, 0.6)),  # lo > 0
}
_CYCLE = 8


def integrand_source(family, center):
    return {
        "exp": "exp(t)",
        "t_log_t": "t*ln(t)",
        "abs_shift": f"abs({_offset(center)})",
        "hinge": f"max(0, {_offset(center)})",
        "abs_plus_tlnt": f"abs({_offset(center)}) + t*ln(t)",
        "power_m2": "t^(-2)",
        "neg_sqrt": "-sqrt(t)",
    }[family]


def _integrand(rng, family, twin, lo, width, tol, max_cells=None):
    a = round(lo, 3)
    b = round(a + width, 3)
    center = _inner(rng, a, b) if family in ("abs_shift", "hinge", "abs_plus_tlnt") else 0.0
    spec = {"kind": "integrate", "family": family, "twin": twin, "a": a, "b": b,
            "center": center, "tol": float(f"{tol:.2g}"), "max_cells": max_cells,
            "expect": "budget" if max_cells else "ok"}
    if twin:
        spec["source"] = integrand_source(family, center)
    return spec


def _strata(rng, lo, hi, step):
    """One draw from each of _CYCLE equal strata of [lo, hi], the strata
    visited in the order j * step mod _CYCLE."""
    return [lo + (hi - lo) * ((j * step) % _CYCLE + rng.random()) / _CYCLE
            for j in range(_CYCLE)]


def integrate_tight_decks(rng):
    """A cycle of _CYCLE decks.  Each deck has every family once from the catalog
    and once as its expression twin, plus one request whose max_cells cannot
    reach tol (BudgetExceededError).  Lower ends, widths and tolerances are
    stratified over the cycle and paired stratum to stratum in a fixed
    pattern, so the cost mix of two seeds matches closely (the latency p90
    rests on a few dozen of the costliest requests) while every value
    still differs."""
    params = {}
    for family, (lo_range, width_range) in _INTEGRAND_RANGES.items():
        for twin in (False, True):
            draws = list(zip(_strata(rng, *lo_range, 1), _strata(rng, *width_range, 3),
                             (10 ** e for e in _strata(rng, -8.0, -7.0, 5))))
            rng.shuffle(draws)
            params[family, twin] = draws
    decks = []
    for k in range(_CYCLE):
        deck = [_integrand(rng, fam, twin, *params[fam, twin][k])
                for fam in INTEGRAND_FAMILIES for twin in (False, True)]
        # a smooth family: a kink at a cell midpoint can make the enclosure exact
        fam = rng.choice(("exp", "t_log_t", "power_m2", "neg_sqrt"))
        lo_range, width_range = _INTEGRAND_RANGES[fam]
        deck.append(_integrand(rng, fam, rng.random() < 0.5, rng.uniform(*lo_range),
                               rng.uniform(*width_range), 1e-9,
                               max_cells=rng.choice((256, 1024))))
        rng.shuffle(deck)
        decks.append(deck)
    return decks


# --------------------------------------------------------------------------
# divergence_batch
# --------------------------------------------------------------------------

def divergence_batch_decks(rng):
    """One pair per octave of atoms in [16, 1024) for each of the five kernels."""
    deck = []
    for octave in range(6):
        for kernel in KERNEL_NAMES:
            n = int(16 * 2 ** (octave + rng.random()))
            deck.append({"kind": "divergence", "kernel": kernel,
                         "p": random_weights(rng, n), "q": random_weights(rng, n),
                         "expect": "ok"})
    rng.shuffle(deck)
    return [deck]


# --------------------------------------------------------------------------

WORKLOADS = {
    # fixed per-request costs (argparse, parsing, require_convex, JSON) of CLI users
    "cli_mix": cli_mix_decks,
    # the certified integrator at tight tolerance: thousands of cells per op
    "integrate_tight": integrate_tight_decks,
    # closed-form divergences: no expressions and no quadrature (the control)
    "divergence_batch": divergence_batch_decks,
}


def stream(workload: str, seed: int, salt: str = ""):
    """Endless seeded sequence of (deck index, spec)."""
    rng = random.Random(f"{workload}:{seed}{salt}")
    make_decks = WORKLOADS[workload]
    index = 0
    while True:
        for deck in make_decks(rng):
            for spec in deck:
                yield index, spec
            index += 1


def known_crashes(seed: int, count: int):
    rng = random.Random(f"known_crash:{seed}")
    return [known_crash(rng) for _ in range(count)]


# --------------------------------------------------------------------------
# Operation runners.  ``lib`` holds the program's modules; every call goes
# through a module attribute, so tracing.py can swap in span recorders
# without a second code path here.
# --------------------------------------------------------------------------

def load_program(with_cli: bool):
    """Import the program (from sys.path) and return its modules."""
    import types

    import convex_enclose
    from convex_enclose import catalog, divergence, expressions, quadrature

    lib = types.SimpleNamespace(
        catalog=catalog, divergence=divergence,
        expressions=expressions, quadrature=quadrature,
        Interval=convex_enclose.Interval, ConvexFunction=convex_enclose.ConvexFunction,
        BudgetExceededError=convex_enclose.BudgetExceededError, cli=None,
    )
    if with_cli:
        from convex_enclose import cli

        lib.cli = cli
    return lib


def run_cli(lib, spec):
    """(exit code or None, stdout, escaped exception or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lib.cli.run(spec["argv"])
        except Exception as exc:  # an escaped exception is a failure the checker reports
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def _catalog_sum(lib, f, g):
    """f + g with closed-form slopes and antiderivative (both certified)."""
    return lib.ConvexFunction(
        domain=f.domain,
        fn=lambda t: f.fn(t) + g.fn(t),
        dminus=lambda t: f.dminus(t) + g.dminus(t),
        dplus=lambda t: f.dplus(t) + g.dplus(t),
        antiderivative=lambda t: f.antiderivative(t) + g.antiderivative(t),
        kinks=f.kinks + g.kinks,
        name=f"{f.name} + {g.name}",
    )


def build_integrand(lib, spec):
    interval = lib.Interval(spec["a"], spec["b"])
    if spec["twin"]:
        f, _warnings = lib.expressions.convex_function_from_expression(spec["source"], interval)
        return f
    cat = lib.catalog
    family, c = spec["family"], spec["center"]
    if family == "exp":
        return cat.exponential(interval)
    if family == "t_log_t":
        return cat.t_log_t(interval)
    if family == "abs_shift":
        return cat.abs_shift(c, interval)
    if family == "hinge":
        return cat.hinge(c, interval)
    if family == "abs_plus_tlnt":
        return _catalog_sum(lib, cat.abs_shift(c, interval), cat.t_log_t(interval))
    if family == "power_m2":
        return cat.power(-2.0, interval)
    return cat.neg_sqrt(interval)


def run_integrate(lib, spec):
    """('ok', (lo, hi, width, cells)) or ('budget', best or None)."""
    f = build_integrand(lib, spec)
    kwargs = {} if spec["max_cells"] is None else {"max_cells": spec["max_cells"]}
    try:
        res = lib.quadrature.integrate_adaptive(f, spec["tol"], **kwargs)
    except lib.BudgetExceededError as exc:
        best = exc.best
        if best is None:
            return "budget", None
        b = best.integral_bounds
        return "budget", (b.lo, b.hi, best.width, best.cells)
    b = res.integral_bounds
    return "ok", (b.lo, b.hi, res.width, res.cells)


def run_divergence(lib, spec):
    """('ok', (lin_wong, hh, half_csiszar, gap_lo, gap_hi))."""
    div = lib.divergence
    kernel = div.kernel_by_name(spec["kernel"])
    p = div.DiscreteDistribution(spec["p"])
    q = div.DiscreteDistribution(spec["q"])
    s = div.hh_sandwich(kernel, p, q)
    g = div.hh_gap_bounds(kernel, p, q)
    return "ok", (s.lin_wong, s.hh, s.half_csiszar, g.lo, g.hi)


def run_op(lib, spec):
    """Run one operation; the result is whatever the checker needs."""
    kind = spec["kind"]
    if kind == "cli":
        return run_cli(lib, spec)
    try:
        if kind == "integrate":
            return run_integrate(lib, spec)
        return run_divergence(lib, spec)
    except Exception as exc:  # an escaped exception is a failure the checker reports
        return "exception", f"{type(exc).__name__}: {exc}"
