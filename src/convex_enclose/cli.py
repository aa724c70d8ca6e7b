"""Command-line frontend producing deterministic JSON or CSV.

Every document has the shape {command, input, result, certificates,
warnings}.  Numbers are serialized with 17 significant digits so
round-trips are exact; infinities appear as the strings "inf"/"-inf"
(JSON has no literal for them).

Exit codes: 0 success; 2 invalid input, an InvalidInputError (parse
failure, non-convex or non-finite function, bad distribution, domain
violations) or a ValueError; 3 numerical failure, a NumericalFailureError
(budget exceeded, oracle failure, internal inconsistency, undefined
extended-real form) or an ArithmeticError (floating-point overflow or
division by zero).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import divergence as div
from . import probability as prob
from .convex_core import Interval, require_convex, require_supporting_lines
from .errors import (
    DomainError,
    InvalidDistributionError,
    InvalidInputError,
    NumericalFailureError,
    UnboundedSlopeError,
)
from .expressions import convex_function_from_expression, lower_value, parse_expression
from .means import mean_comparison, special_means, verify_mean_inequalities
from .oracle import reference_integral
from .pointwise import (
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


def _scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return json.dumps(x)


def _to_json(value, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _scalar(value)


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _to_csv(doc) -> str:
    rows = ["field,value"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}.{i}", v)
        else:
            text = _scalar(value)
            if text.startswith('"') and text.endswith('"'):
                text = json.loads(text)
            rows.append(f"{_csv_cell(prefix)},{_csv_cell(text)}")

    walk("", doc)
    return "\n".join(rows)


def _emit(doc, fmt: str):
    if fmt == "csv":
        sys.stdout.write(_to_csv(doc) + "\n")
    else:
        sys.stdout.write(_to_json(doc) + "\n")


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


def _cmd_enclose(args):
    cf, warnings = _build_convex_function(args.fn, args.a, args.b)
    if not cf.domain.contains(args.x):
        raise DomainError(f"x={args.x} outside [{args.a}, {args.b}]")
    require_supporting_lines(cf, (cf.domain.lo, args.x, cf.domain.midpoint, cf.domain.hi))
    interior = cf.domain.strictly_contains(args.x)
    lower = ostrowski_lower(cf, args.x) if interior else None
    upper = ostrowski_upper(cf, args.x)
    if not interior:
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
    return {
        "command": "enclose",
        "input": {"fn": args.fn, "a": args.a, "b": args.b, "x": args.x},
        "result": result,
        "certificates": {
            "ostrowski_difference": [lower, upper],
            "hh_mean_gap": [hh.lo, hh.hi],
        },
        "warnings": warnings,
    }


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
    return {
        "command": "integrate",
        "input": {"fn": args.fn, "a": args.a, "b": args.b, "tol": args.tol},
        "result": result,
        "certificates": {"definite_integral": [bounds.lo, bounds.hi]},
        "warnings": warnings,
    }


def _cmd_means(args):
    if args.kernel_suite is not None:
        entries = verify_mean_inequalities(args.a, args.b, args.c, args.d,
                                           args.kernel_suite)
        result = {
            "entries": [
                {
                    "kernel": e.kernel,
                    "lower": e.comparison.lower,
                    "gap": [e.comparison.gap.lo, e.comparison.gap.hi],
                    "upper": e.comparison.upper,
                    "gap_closed_form": e.gap_closed_form,
                }
                for e in entries
            ]
        }
        certificates = {
            e.kernel: [e.comparison.lower, e.comparison.upper] for e in entries
        }
        doc_input = {"a": args.a, "b": args.b, "c": args.c, "d": args.d,
                     "kernel_suite_p": args.kernel_suite}
        warnings = []
    else:
        cf, warnings = _build_convex_function(args.fn, args.a, args.b)
        comparison = mean_comparison(cf, Interval(args.c, args.d))
        result = {
            "lower": comparison.lower,
            "gap": [comparison.gap.lo, comparison.gap.hi],
            "upper": comparison.upper,
        }
        certificates = {"mean_difference": [comparison.lower, comparison.upper]}
        doc_input = {"fn": args.fn, "a": args.a, "b": args.b, "c": args.c, "d": args.d}
    return {
        "command": "means",
        "input": doc_input,
        "result": result,
        "certificates": certificates,
        "warnings": warnings,
    }


def _cmd_special_means(args):
    sm = special_means(args.a, args.b, args.p)
    return {
        "command": "special-means",
        "input": {"a": args.a, "b": args.b, "p": args.p},
        "result": {
            "arithmetic": sm.arithmetic,
            "logarithmic": sm.logarithmic,
            "identric": sm.identric,
            "p_logarithmic": sm.p_logarithmic,
        },
        "certificates": {},
        "warnings": [],
    }


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
    return prob.model_from_density(lower_value(expr), a, b)


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
        result.update({
            "gap_lower": gap.lo,
            "gap_upper": gap.hi,
            "cdf_lower": cdf.lo,
            "cdf_upper": cdf.hi,
        })
        certificates["cdf_value"] = [cdf.lo, cdf.hi]
        if args.oracle:
            result["oracle_cdf"] = model.cdf(args.x)
    return {
        "command": "prob",
        "input": {"density": args.density, "a": args.a, "b": args.b, "x": args.x},
        "result": result,
        "certificates": certificates,
        "warnings": warnings,
    }


def _cmd_divergence(args):
    kernel = div.kernel_by_name(args.kernel)
    p = _parse_weights(args.p)
    q = _parse_weights(args.q)
    triple = div.hh_sandwich(kernel, p, q)
    bounds = div.hh_gap_bounds(kernel, p, q)
    result = {
        "csiszar": 2.0 * triple.half_csiszar,
        "lin_wong": triple.lin_wong,
        "hh": triple.hh,
        "gap_bounds": [bounds.lo, bounds.hi],
    }
    if args.oracle:
        from .oracle import brute_force_hh

        result["oracle_hh"] = brute_force_hh(kernel, p, q)
    return {
        "command": "divergence",
        "input": {"kernel": args.kernel, "p": args.p, "q": args.q},
        "result": result,
        "certificates": {"hh_minus_lin_wong": [bounds.lo, bounds.hi]},
        "warnings": [],
    }


def _cmd_self_test(args):
    seed = int(os.environ.get("CONVEX_ENCLOSE_SEED", "0"))
    report = run_self_test(seed)
    doc = {
        "command": "self-test",
        "input": {"seed": seed},
        "result": report,
        "certificates": {},
        "warnings": [],
    }
    _emit(doc, args.format)
    return EXIT_OK if report["ok"] else EXIT_NUMERICAL_FAILURE


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first request and then reused
    (parse_args leaves it unchanged): building it costs about twenty
    times as much as parsing with it."""
    parser = argparse.ArgumentParser(
        prog="convex-enclose",
        description="Certified two-sided bounds for convex functions",
    )
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded fuzz self-test and exit "
                             "(seed from CONVEX_ENCLOSE_SEED)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command")

    def sub_parser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # accepted after the subcommand as well; SUPPRESS keeps the
        # top-level default from being clobbered
        p.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
        return p

    def add_fn_interval(p):
        p.add_argument("--fn", required=True, help="expression in t, e.g. 't^2'")
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)

    p = sub_parser("enclose", "pointwise enclosure, HH refinement, baseline")
    add_fn_interval(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub_parser("integrate", "adaptive certified integration")
    add_fn_interval(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-cells", type=int, default=DEFAULT_MAX_CELLS,
                   help="cell budget; exit 3 once it is spent, or once the "
                        "enclosure's convergence rate predicts it cannot reach --tol")
    p.add_argument("--oracle", action="store_true")

    p = sub_parser("means", "integral-mean comparison over a subinterval")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fn", help="expression in t")
    source.add_argument("--kernel-suite", type=float, default=None, metavar="P",
                        help="run the t^P, 1/t, -ln t suite instead of --fn")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)

    p = sub_parser("special-means", "A, L, I, L_p of two positive numbers")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub_parser("prob", "CDF and median enclosures for monotone densities")
    p.add_argument("--density", required=True,
                   help="'uniform', 'step:<split>,<low>', or an expression in t")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--oracle", action="store_true")

    p = sub_parser("divergence", "kernel divergences of two discrete distributions")
    p.add_argument("--kernel", required=True,
                   help=f"one of {sorted(div.KERNELS)}")
    p.add_argument("--p", required=True, help="comma-separated weights")
    p.add_argument("--q", required=True, help="comma-separated weights")
    p.add_argument("--oracle", action="store_true")

    return parser


_HANDLERS = {
    "enclose": _cmd_enclose,
    "integrate": _cmd_integrate,
    "means": _cmd_means,
    "special-means": _cmd_special_means,
    "prob": _cmd_prob,
    "divergence": _cmd_divergence,
}


def run(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; report the code instead
        return int(exc.code or 0)
    if args.self_test:
        return _cmd_self_test(args)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        doc = _HANDLERS[args.command](args)
    except (NumericalFailureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (InvalidInputError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    _emit(doc, args.format)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
