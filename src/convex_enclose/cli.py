"""Command-line frontend producing deterministic JSON or CSV.

Every document has the shape {command, input, result, certificates,
warnings}.  Numbers are serialized with 17 significant digits so
round-trips are exact; infinities appear as the strings "inf"/"-inf"
(JSON has no literal for them).

Every option is declared once, in ``_COMMANDS``.  ``_fast_parse`` reads
an argv in canonical form: ``--format`` before or after the subcommand,
exact flag names as ``--flag=value`` or ``--flag value`` (a value not
starting with ``-``), each at most once, every required flag given.
argparse parses every other argv (``-h``, abbreviations, ``--``, unknown
or repeated flags, bad values, ``--a -1e-3``) with its own messages.

Exit codes: 0 success; 2 invalid input, an InvalidInputError (parse
failure, non-convex or non-finite function, bad distribution, domain
violations) or a ValueError; 3 numerical failure, a NumericalFailureError
(budget exceeded, oracle failure, internal inconsistency, undefined
extended-real form) or an ArithmeticError (floating-point overflow or
division by zero).
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import sys
import types
from json.encoder import encode_basestring_ascii as _quote

from . import divergence as div
from . import probability as prob
from .convex_core import Interval, require_convex
from .errors import (
    DomainError,
    InvalidDistributionError,
    InvalidInputError,
    NumericalFailureError,
    UnboundedSlopeError,
)
from .expressions import (
    continuous_on,
    convex_function_from_expression,
    lower_value,
    parse_expression,
)
from .means import mean_comparison, special_means, verify_mean_inequalities
from .oracle import brute_force_hh, reference_integral
from .pointwise import (
    Enclosure,
    classical_ostrowski_bound,
    hh_refinement,
    ostrowski_lower,
    ostrowski_upper,
)
from .quadrature import DEFAULT_MAX_CELLS, integrate_adaptive
from .selftest import run_self_test

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


def _scalar(x, quote=_quote):
    """The text of a leaf; ``quote`` wraps strings and infinities (JSON),
    ``str`` leaves them bare (CSV)."""
    kind = type(x)
    if kind is float:
        text = format(x, ".17g")
        return quote(text) if text[-1] == "f" else text  # "inf", "-inf"
    if kind is str:
        return quote(x)
    if x is None:
        return "null"
    if kind is bool:
        return "true" if x else "false"
    if kind is int:
        return str(x)
    return json.dumps(x)


def _to_json(value, indent=0):
    kind = type(value)
    if kind is dict:
        rows = [f"{_quote(str(k))}: {_to_json(v, indent + 1)}" for k, v in value.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        rows = [_to_json(v, indent + 1) for v in value]
        brackets = "[]"
    else:
        return _scalar(value)
    if not rows:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(rows) + "\n" + "  " * indent + brackets[1]


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _to_csv(doc) -> str:
    rows = ["field,value"]

    def walk(prefix, value):
        kind = type(value)
        if kind is dict:
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif kind is list or kind is tuple:
            for i, v in enumerate(value):
                walk(f"{prefix}.{i}", v)
        else:
            rows.append(f"{_csv_cell(prefix)},{_csv_cell(_scalar(value, str))}")

    walk("", doc)
    return "\n".join(rows)


def _emit(command, parts, fmt: str):
    doc = dict(zip(("command", "input", "result", "certificates", "warnings"),
                   (command, *parts)))
    sys.stdout.write((_to_csv(doc) if fmt == "csv" else _to_json(doc)) + "\n")


def _build_convex_function(src: str, a: float, b: float):
    cf, warnings = convex_function_from_expression(src, Interval(a, b))
    require_convex(cf)
    return cf, warnings


def _parse_weights(text: str):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidDistributionError(f"cannot parse weights {text!r}") from exc
    return div.DiscreteDistribution(values)


# Each _cmd_* handler returns the document's (input, result, certificates,
# warnings); _emit adds the command.

def _cmd_enclose(args):
    cf, warnings = convex_function_from_expression(args.fn, Interval(args.a, args.b))
    if not cf.domain.contains(args.x):
        raise DomainError(f"x={args.x} outside [{args.a}, {args.b}]")
    # the points the bounds read
    require_convex(cf, (cf.domain.lo, args.x, cf.domain.midpoint, cf.domain.hi))
    if cf.domain.strictly_contains(args.x):  # out of order only by rounding: exit 3
        lower, upper = Enclosure(ostrowski_lower(cf, args.x),
                                 ostrowski_upper(cf, args.x)).as_tuple()
    else:
        lower, upper = None, ostrowski_upper(cf, args.x)
        warnings.append("x at an endpoint: only the upper bound applies there")
    hh = hh_refinement(cf)
    try:
        classical = classical_ostrowski_bound(cf, args.x)
    except UnboundedSlopeError:
        classical = None
        warnings.append("classical baseline unavailable: infinite endpoint slope")
    result = {
        "lower": lower,
        "upper": upper,
        "width": (upper - lower) if (lower is not None and math.isfinite(upper)) else None,
        "hh_lower": hh.lo,
        "hh_upper": hh.hi,
        "classical_bound": classical,
    }
    if args.oracle:
        result["oracle_gap"] = reference_integral(cf).value - cf.domain.width * cf(args.x)
    certificates = {"ostrowski_difference": [lower, upper], "hh_mean_gap": [hh.lo, hh.hi]}
    return {"fn": args.fn, "a": args.a, "b": args.b, "x": args.x}, result, certificates, warnings


def _cmd_integrate(args):
    cf, warnings = _build_convex_function(args.fn, args.a, args.b)
    res = integrate_adaptive(cf, tol=args.tol, max_cells=args.max_cells)
    bounds = res.integral_bounds
    result = {
        "estimate": res.estimate,
        "remainder_lower": res.remainder.lo,
        "remainder_upper": res.remainder.hi,
        "integral_lower": bounds.lo,
        "integral_upper": bounds.hi,
        "width": res.width,
        "cells": res.cells,
    }
    if args.oracle:
        result["oracle_value"] = reference_integral(cf).value
    return ({"fn": args.fn, "a": args.a, "b": args.b, "tol": args.tol}, result,
            {"definite_integral": [bounds.lo, bounds.hi]}, warnings)


def _cmd_means(args):
    if args.kernel_suite is not None:
        entries = verify_mean_inequalities(args.a, args.b, args.c, args.d,
                                           args.kernel_suite)
        result = {"entries": [
            {"kernel": e.kernel, "lower": e.comparison.lower,
             "gap": [e.comparison.gap.lo, e.comparison.gap.hi],
             "upper": e.comparison.upper, "gap_closed_form": e.gap_closed_form}
            for e in entries]}
        certificates = {e.kernel: [e.comparison.lower, e.comparison.upper] for e in entries}
        doc_input = {"a": args.a, "b": args.b, "c": args.c, "d": args.d,
                     "kernel_suite_p": args.kernel_suite}
        return doc_input, result, certificates, []
    cf, warnings = _build_convex_function(args.fn, args.a, args.b)
    comparison = mean_comparison(cf, Interval(args.c, args.d))
    result = {
        "lower": comparison.lower,
        "gap": [comparison.gap.lo, comparison.gap.hi],
        "upper": comparison.upper,
    }
    certificates = {"mean_difference": [comparison.lower, comparison.upper]}
    doc_input = {"fn": args.fn, "a": args.a, "b": args.b, "c": args.c, "d": args.d}
    return doc_input, result, certificates, warnings


def _cmd_special_means(args):
    sm = special_means(args.a, args.b, args.p)
    result = {"arithmetic": sm.arithmetic, "logarithmic": sm.logarithmic,
              "identric": sm.identric, "p_logarithmic": sm.p_logarithmic}
    return {"a": args.a, "b": args.b, "p": args.p}, result, {}, []


def _build_model(density: str, a: float, b: float):
    if density == "uniform":
        return prob.uniform_model(a, b)
    if density.startswith("step:"):
        try:
            split_text, low_text = density[len("step:"):].split(",")
            return prob.step_density_model(a, b, float(split_text), float(low_text))
        except ValueError as exc:
            raise DomainError(
                f"bad step density {density!r}; expected step:<split>,<low>"
            ) from exc
    expr = parse_expression(density)
    fn = lower_value(expr)
    if not continuous_on(expr, a, b):
        prob.check_density(fn, Interval(a, b))  # what the grid shows is named first
        raise DomainError(f"density {density!r} is not proved continuous on [{a!r}, {b!r}]; "
                          "give a jump as step:<split>,<low>")
    # a density the rules range is continuous: its values are the CDF's slopes
    return prob.model_from_density(fn, a, b)


def _cmd_prob(args):
    model = _build_model(args.density, args.a, args.b)
    warnings = []
    if model.support.width != 1.0:
        warnings.append(
            "support width differs from 1: median bounds use the scale-corrected "
            "form (the unit-width form only matches when b - a = 1)"
        )
    median = prob.median_point_probability(model)
    result = {
        "expectation": model.expectation,
        "median_lower": median.lo,
        "median_upper": median.hi,
    }
    certificates = {"median_probability": [median.lo, median.hi]}
    if args.x is not None:
        gap = prob.cdf_gap_enclosure(model, args.x)
        cdf = prob.cdf_enclosure(model, args.x)
        result.update({"gap_lower": gap.lo, "gap_upper": gap.hi,
                       "cdf_lower": cdf.lo, "cdf_upper": cdf.hi})
        certificates["cdf_value"] = [cdf.lo, cdf.hi]
        if args.oracle:
            result["oracle_cdf"] = model.cdf(args.x)
    doc_input = {"density": args.density, "a": args.a, "b": args.b, "x": args.x}
    return doc_input, result, certificates, warnings


def _cmd_divergence(args):
    kernel = div.kernel_by_name(args.kernel)
    p = _parse_weights(args.p)
    q = _parse_weights(args.q)
    triple = div.hh_sandwich(kernel, p, q)
    bounds = div.hh_gap_bounds(kernel, p, q)
    result = {"csiszar": 2.0 * triple.half_csiszar, "lin_wong": triple.lin_wong,
              "hh": triple.hh, "gap_bounds": [bounds.lo, bounds.hi]}
    if args.oracle:
        result["oracle_hh"] = brute_force_hh(kernel, p, q)
    return ({"kernel": args.kernel, "p": args.p, "q": args.q}, result,
            {"hh_minus_lin_wong": [bounds.lo, bounds.hi]}, [])


# One option of the command line.  ``convert`` is the callable applied to
# its value (float, int or str), or bool for a flag that takes none;
# ``group`` marks the members of a subcommand's required group, exactly one
# of which must be given.
_Option = collections.namedtuple(
    "_Option", "flag convert required default group help metavar choices",
    defaults=(str, False, None, False, None, None, None))

_FORMAT = _Option("--format", default="json", choices=("json", "csv"))
_GLOBAL_OPTIONS = (
    _Option("--self-test", bool, default=False,
            help="run the seeded fuzz self-test and exit "
                 "(seed from CONVEX_ENCLOSE_SEED)"),
    _FORMAT,
)
_A = _Option("--a", float, required=True)
_B = _Option("--b", float, required=True)
_FN_INTERVAL = (_Option("--fn", required=True, help="expression in t, e.g. 't^2'"), _A, _B)
_ORACLE = _Option("--oracle", bool, default=False)

# subcommand -> (help, handler, options); --format is accepted after each too
_COMMANDS = {
    "enclose": ("pointwise enclosure, HH refinement, baseline", _cmd_enclose, (
        *_FN_INTERVAL, _Option("--x", float, required=True), _ORACLE)),
    "integrate": ("adaptive certified integration", _cmd_integrate, (
        *_FN_INTERVAL,
        _Option("--tol", float, default=1e-6),
        _Option("--max-cells", int, default=DEFAULT_MAX_CELLS,
                help="cell budget; exit 3 once it is spent, or once the "
                     "enclosure's convergence rate predicts it cannot reach --tol"),
        _ORACLE)),
    "means": ("integral-mean comparison over a subinterval", _cmd_means, (
        _Option("--fn", group=True, help="expression in t"),
        _Option("--kernel-suite", float, group=True, metavar="P",
                help="run the t^P, 1/t, -ln t suite instead of --fn"),
        _A, _B, _Option("--c", float, required=True), _Option("--d", float, required=True))),
    "special-means": ("A, L, I, L_p of two positive numbers", _cmd_special_means, (
        _A, _B, _Option("--p", float, required=True))),
    "prob": ("CDF and median enclosures for monotone densities", _cmd_prob, (
        _Option("--density", required=True,
                help="'uniform', 'step:<split>,<low>', or an expression in t"),
        _A, _B, _Option("--x", float), _ORACLE)),
    "divergence": ("kernel divergences of two discrete distributions", _cmd_divergence, (
        _Option("--kernel", required=True, help=f"one of {sorted(div.KERNELS)}"),
        _Option("--p", required=True, help="comma-separated weights"),
        _Option("--q", required=True, help="comma-separated weights"),
        _ORACLE)),
}
# the options each position of argv accepts: before the subcommand (None)
# and after it
_FLAGS = {name: {o.flag: o for o in (_FORMAT, *options)}
          for name, (_, _, options) in _COMMANDS.items()}
_FLAGS[None] = {o.flag: o for o in _GLOBAL_OPTIONS}


@functools.cache
def _make_parser():
    """The argparse parser for every argv that ``_fast_parse`` declines,
    built once from the option table (parse_args leaves it unchanged)."""
    import argparse

    def add(target, option):
        if option.convert is bool:
            target.add_argument(option.flag, action="store_true", help=option.help)
        else:
            target.add_argument(option.flag, type=option.convert, required=option.required,
                                default=option.default, help=option.help,
                                metavar=option.metavar, choices=option.choices)

    parser = argparse.ArgumentParser(
        prog="convex-enclose", description="Certified two-sided bounds for convex functions")
    for option in _GLOBAL_OPTIONS:
        add(parser, option)
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # accepted after the subcommand as well; SUPPRESS keeps the
        # top-level default from being clobbered
        add(p, _FORMAT._replace(default=argparse.SUPPRESS))
        group = None
        for option in options:
            if option.group:
                group = group or p.add_mutually_exclusive_group(required=True)
                add(group, option)
            else:
                add(p, option)
    return parser


def _fast_parse(argv):
    """The namespace ``parse_args(argv)`` returns, for an argv in the
    canonical form of the module docstring; None for any other argv."""
    command, given = None, {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("--"):
            if command is not None or token not in _COMMANDS:
                return None
            command = token
            continue
        flag, eq, text = token.partition("=")
        option = _FLAGS[command].get(flag)
        if option is None or flag in given:
            return None
        if option.convert is bool:
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            # argparse reads a separate value starting with - as an option
            # unless it looks like -1 or -.5
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        try:
            given[flag] = option.convert(text)
        except (TypeError, ValueError):
            return None
        if option.choices is not None and given[flag] not in option.choices:
            return None
    if command is None:
        return None
    values, members, chosen = {"command": command}, 0, 0
    for option in (*_GLOBAL_OPTIONS, *_COMMANDS[command][2]):
        members += option.group
        if option.flag in given:
            chosen += option.group
        elif option.required:
            return None
        values[option.flag[2:].replace("-", "_")] = given.get(option.flag, option.default)
    if members and chosen != 1:
        return None
    return types.SimpleNamespace(**values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        parser = _make_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on usage errors; report the code instead
            return int(exc.code or 0)
        if args.command is None and not args.self_test:
            parser.print_usage(sys.stderr)
            return EXIT_INVALID_INPUT
    if args.self_test:
        seed = int(os.environ.get("CONVEX_ENCLOSE_SEED", "0"))
        report = run_self_test(seed)
        _emit("self-test", ({"seed": seed}, report, {}, []), args.format)
        return EXIT_OK if report["ok"] else EXIT_NUMERICAL_FAILURE
    try:
        parts = _COMMANDS[args.command][1](args)
    except (NumericalFailureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (InvalidInputError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    _emit(args.command, parts, args.format)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
