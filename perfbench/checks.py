"""Output checker, run outside the timed region.

Every operation's outcome is classified into zero or more failure classes:

  exception        an exception escaped the program
  exit_class       wrong exit code (0 for a valid request, 2/3 otherwise),
                   or success where BudgetExceededError was due
  malformed_json   exit 0 but stdout is not one JSON document of the
                   documented shape
  containment      a certificate misses the independent reference
  width            success reported with width > tol
  sandwich_order   lin_wong <= hh <= csiszar/2 violated
  value            a closed-form value (special means) is off
  budget_best      BudgetExceededError without a usable ``best``

References never call the program's bound formulas: expressions are
evaluated term by term in mpmath (30 digits) from the generator's term
list, with closed-form antiderivatives or ``mpmath.quad``; catalog
integrands use the catalog's exact antiderivatives; divergence gaps use
this module's own kernel antiderivatives (numpy, with mpmath for atoms
whose ratio q/p is within 1e-4 of 1).  Containment allows the README's
relative slack of 1e-10.
"""

from __future__ import annotations

import json
import math

import numpy as np
from mpmath import mp, mpf

from workloads import build_integrand

mp.dps = 30

SLACK = 1e-10
_DOC_KEYS = {"command", "input", "result", "certificates", "warnings"}


def _ext(x):
    """A certificate endpoint as printed by the CLI: number, "inf", "-inf" or null."""
    return None if x is None else float(x)


def contains(lo, hi, ref) -> bool:
    """lo - slack <= ref <= hi + slack; a None endpoint is unbounded."""
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    ref = float(ref)
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        return False
    scale = max([1.0, abs(ref)] + [abs(v) for v in (lo, hi) if math.isfinite(v)])
    slack = SLACK * scale
    return lo - slack <= ref <= hi + slack


# --------------------------------------------------------------------------
# Expressions in mpmath
# --------------------------------------------------------------------------

def _term_value(term, t):
    kind, c, p = term
    c, p = mpf(c), mpf(p)
    if kind == "sq":
        return c * (t - p) ** 2
    if kind == "exp":
        return c * mp.exp(p * t)
    if kind == "lin":
        return c * t
    if kind == "tlnt":
        return c * t * mp.log(t)
    if kind == "nlog":
        return -c * mp.log(t)
    if kind == "inv":
        return c / t
    if kind == "nsqrt":
        return -c * mp.sqrt(t)
    if kind == "abs":
        return c * abs(t - p)
    if kind == "hinge":
        return c * max(mpf(0), t - p)
    if kind == "pow2t":
        return c * mpf(2) ** t
    if kind == "tpowt":
        return c * t ** t
    raise ValueError(kind)


def _term_antiderivative(term, t):
    """None when the term has no elementary antiderivative (t^t)."""
    kind, c, p = term
    c, p = mpf(c), mpf(p)
    if kind == "sq":
        return c * (t - p) ** 3 / 3
    if kind == "exp":
        return c * mp.exp(p * t) / p
    if kind == "lin":
        return c * t * t / 2
    if kind == "tlnt":
        return c * (t * t * mp.log(t) / 2 - t * t / 4)
    if kind == "nlog":
        return -c * (t * mp.log(t) - t)
    if kind == "inv":
        return c * mp.log(t)
    if kind == "nsqrt":
        return -c * 2 * t ** mpf(1.5) / 3
    if kind == "abs":
        return c * (t - p) * abs(t - p) / 2
    if kind == "hinge":
        return c * max(mpf(0), t - p) ** 2 / 2
    if kind == "pow2t":
        return c * mpf(2) ** t / mp.log(2)
    return None


def expr_value(terms, t):
    t = mpf(t)
    return mp.fsum(_term_value(term, t) for term in terms)


def expr_integral(terms, lo, hi):
    lo, hi = mpf(lo), mpf(hi)
    total = []
    for term in terms:
        a_hi = _term_antiderivative(term, hi)
        if a_hi is None:
            total.append(mp.quad(lambda t, term=term: _term_value(term, t), [lo, hi]))
        else:
            total.append(a_hi - _term_antiderivative(term, lo))
    return mp.fsum(total)


# --------------------------------------------------------------------------
# Divergences: hh - lin_wong from this module's own kernel formulas
# --------------------------------------------------------------------------

def _kernel(name, t, m):
    """(f(t), F(t)) with F an antiderivative; ``m`` is math, numpy or mpmath."""
    log = m.log
    if name == "chi2":
        return (t - 1) ** 2, (t - 1) ** 3 / 3
    if name == "kl":
        return t * log(t), t * t * log(t) / 2 - t * t / 4
    if name == "tv":
        return abs(t - 1), (t - 1) * abs(t - 1) / 2
    if name == "reverse_kl":
        return -log(t) + t - 1, t * t / 2 - t * log(t)
    if name == "shifted_abs":
        u = t - 1.25
        return abs(u) - 0.25, u * abs(u) / 2 - t / 4
    raise ValueError(name)


def _atom_gap_mp(name, pi, qi):
    pi, qi = mpf(pi), mpf(qi)
    r, m = qi / pi, (pi + qi) / (2 * pi)
    mean = 0 if r == 1 else (_kernel(name, r, mp)[1] - _kernel(name, mpf(1), mp)[1]) / (r - 1)
    return float(pi * (mean - _kernel(name, m, mp)[0]))


def gap_reference(name, p, q) -> float:
    """sum of p_i * (mean of f between 1 and q_i/p_i  -  f at the mixture ratio)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    r, m = q / p, (p + q) / (2.0 * p)
    far = np.abs(r - 1.0) >= 1e-4  # elsewhere the divided difference cancels
    rf = r[far]
    mean = (_kernel(name, rf, np)[1] - _kernel(name, 1.0, math)[1]) / (rf - 1.0)
    near = [_atom_gap_mp(name, pi, qi) for pi, qi in zip(p[~far].tolist(), q[~far].tolist())]
    return float(np.sum(p[far] * (mean - _kernel(name, m[far], np)[0]))) + math.fsum(near)


def _sandwich_ok(lw, hh, half) -> bool:
    slack = SLACK * max(1.0, abs(lw), abs(hh), abs(half))
    return lw <= hh + slack and hh <= half + slack


# --------------------------------------------------------------------------
# Per-command checks of CLI documents
# --------------------------------------------------------------------------

def _check_enclose(doc, ref):
    terms, a, b, x = ref["terms"], ref["a"], ref["b"], ref["x"]
    integral = expr_integral(terms, a, b)
    width = mpf(b) - mpf(a)
    cert = doc["certificates"]
    lo, hi = (_ext(v) for v in cert["ostrowski_difference"])
    fails = []
    if not contains(lo, hi, integral - width * expr_value(terms, x)):
        fails.append("containment")
    lo, hi = (_ext(v) for v in cert["hh_mean_gap"])
    if not contains(lo, hi, integral / width - expr_value(terms, (mpf(a) + mpf(b)) / 2)):
        fails.append("containment")
    return fails


def _check_integrate(doc, ref):
    lo, hi = (_ext(v) for v in doc["certificates"]["definite_integral"])
    fails = []
    if not contains(lo, hi, expr_integral(ref["terms"], ref["a"], ref["b"])):
        fails.append("containment")
    if not _ext(doc["result"]["width"]) <= ref["tol"]:
        fails.append("width")
    return fails


def _check_means(doc, ref):
    terms, a, b, c, d = ref["terms"], ref["a"], ref["b"], ref["c"], ref["d"]
    gap = (expr_integral(terms, a, b) / (mpf(b) - mpf(a))
           - expr_integral(terms, c, d) / (mpf(d) - mpf(c)))
    lo, hi = (_ext(v) for v in doc["certificates"]["mean_difference"])
    return [] if contains(lo, hi, gap) else ["containment"]


def _check_means_suite(doc, ref):
    a, b, c, d, p = (mpf(ref[k]) for k in ("a", "b", "c", "d", "p"))

    def mean_gap(anti):
        return (anti(b) - anti(a)) / (b - a) - (anti(d) - anti(c)) / (d - c)

    expected = {
        f"t^{ref['p']:g}": mean_gap(lambda t: t ** (p + 1) / (p + 1)),
        "1/t": mean_gap(mp.log),
        "-ln(t)": mean_gap(lambda t: t - t * mp.log(t)),
    }
    cert = doc["certificates"]
    if set(cert) != set(expected):
        return ["malformed_json"]
    fails = []
    for label, gap in expected.items():
        if not contains(_ext(cert[label][0]), _ext(cert[label][1]), gap):
            fails.append("containment")
    return fails


def _check_special_means(doc, ref):
    a, b, p = mpf(ref["a"]), mpf(ref["b"]), mpf(ref["p"])
    expected = {
        "arithmetic": (a + b) / 2,
        "logarithmic": (b - a) / (mp.log(b) - mp.log(a)),
        "identric": mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1),
        "p_logarithmic": ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p),
    }
    res = doc["result"]
    for key, want in expected.items():
        got = _ext(res[key])
        if not abs(got - float(want)) <= SLACK * max(1.0, abs(float(want))):
            return ["value"]
    return []


def _cdf(spec, a, b, x):
    a, b, x = mpf(a), mpf(b), mpf(x)
    form = spec[0]
    if form == "uniform":
        return (x - a) / (b - a)
    if form == "step":
        split, low = mpf(spec[1]), mpf(spec[2])
        high = (1 - low * (split - a)) / (b - split)
        return low * (x - a) if x <= split else low * (split - a) + high * (x - split)
    if form == "linear":
        alpha, beta = mpf(spec[1]), mpf(spec[2])
        return alpha * (x - a) + beta * (x * x - a * a) / 2
    if form == "power":
        coef, k = mpf(spec[1]), spec[2]
        return coef * (x ** (k + 1) - a ** (k + 1)) / (k + 1)
    return mpf(spec[1]) * (mp.exp(x) - mp.exp(a))


def _check_prob(doc, ref):
    spec, a, b, x = ref["density"], ref["a"], ref["b"], ref["x"]
    cert = doc["certificates"]
    fails = []
    lo, hi = (_ext(v) for v in cert["median_probability"])
    if not contains(lo, hi, _cdf(spec, a, b, (mpf(a) + mpf(b)) / 2)):
        fails.append("containment")
    if x is not None:
        lo, hi = (_ext(v) for v in cert["cdf_value"])
        if not contains(lo, hi, _cdf(spec, a, b, x)):
            fails.append("containment")
    return fails


def _check_divergence(doc, ref):
    res = doc["result"]
    fails = []
    if not _sandwich_ok(_ext(res["lin_wong"]), _ext(res["hh"]), 0.5 * _ext(res["csiszar"])):
        fails.append("sandwich_order")
    lo, hi = (_ext(v) for v in doc["certificates"]["hh_minus_lin_wong"])
    if not contains(lo, hi, gap_reference(ref["kernel"], ref["p"], ref["q"])):
        fails.append("containment")
    return fails


_CLI_CHECKS = {
    "enclose": _check_enclose,
    "integrate": _check_integrate,
    "means": _check_means,
    "means_suite": _check_means_suite,
    "special_means": _check_special_means,
    "prob": _check_prob,
    "divergence": _check_divergence,
}


def parse_document(stdout):
    """The CLI's JSON document, or None when it is malformed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or set(doc) != _DOC_KEYS:
        return None
    return doc


def check_cli(spec, outcome):
    code, stdout, exc = outcome
    if exc is not None:
        return ["exception"]
    if spec["expect"] == "reject":
        return [] if code in (2, 3) else ["exit_class"]
    if code != 0:
        return ["exit_class"]
    doc = parse_document(stdout)
    if doc is None:
        return ["malformed_json"]
    try:
        return _CLI_CHECKS[spec["category"]](doc, spec["ref"])
    except (KeyError, TypeError, ValueError):
        return ["malformed_json"]


# --------------------------------------------------------------------------
# Library workloads
# --------------------------------------------------------------------------

def _family_antiderivative(family, c, t):
    t, c = mpf(t), mpf(c)
    if family == "exp":
        return mp.exp(t)
    if family == "t_log_t":
        return t * t * mp.log(t) / 2 - t * t / 4
    if family == "abs_shift":
        return (t - c) * abs(t - c) / 2
    if family == "hinge":
        return max(mpf(0), t - c) ** 2 / 2
    if family == "abs_plus_tlnt":
        return (t - c) * abs(t - c) / 2 + t * t * mp.log(t) / 2 - t * t / 4
    if family == "power_m2":
        return -1 / t
    return -2 * t ** mpf(1.5) / 3


def integral_reference(lib, spec):
    """Catalog integrands: the catalog's own exact antiderivative, split at
    kinks.  Expression twins: mpmath closed forms."""
    a, b = spec["a"], spec["b"]
    if spec["twin"]:
        fam, c = spec["family"], spec["center"]
        return _family_antiderivative(fam, c, b) - _family_antiderivative(fam, c, a)
    f = build_integrand(lib, spec)
    pts = [a] + sorted(k for k in f.kinks if a < k < b) + [b]
    anti = f.antiderivative
    return math.fsum(anti(v) - anti(u) for u, v in zip(pts, pts[1:]))


def check_integrate(lib, spec, outcome):
    status, data = outcome
    if status == "exception":
        return ["exception"]
    if status != ("budget" if spec["expect"] == "budget" else "ok"):
        return ["exit_class"]
    if data is None:
        return ["budget_best"]
    lo, hi, width, cells = data
    fails = []
    if not contains(lo, hi, integral_reference(lib, spec)):
        fails.append("containment")
    if status == "ok" and not width <= spec["tol"]:
        fails.append("width")
    if status == "budget" and not (width > spec["tol"] and cells <= spec["max_cells"]):
        fails.append("budget_best")
    return fails


def check_divergence(spec, outcome):
    status, data = outcome
    if status == "exception":
        return ["exception"]
    lw, hh, half, lo, hi = data
    fails = []
    if not _sandwich_ok(lw, hh, half):
        fails.append("sandwich_order")
    if not contains(lo, hi, gap_reference(spec["kernel"], spec["p"], spec["q"])):
        fails.append("containment")
    return fails


def check(lib, spec, outcome):
    """Failure classes of one operation (empty when it is correct)."""
    kind = spec["kind"]
    if kind == "cli":
        return check_cli(spec, outcome)
    if kind == "integrate":
        return check_integrate(lib, spec, outcome)
    return check_divergence(spec, outcome)


def certificates(spec, outcome):
    """The part of an outcome a traced replay must reproduce exactly."""
    if spec["kind"] != "cli":
        return outcome
    code, stdout, exc = outcome
    doc = parse_document(stdout) if code == 0 else None
    return code, exc, None if doc is None else doc["certificates"]
