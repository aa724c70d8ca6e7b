import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convex_enclose import cli, convex_core, errors
from convex_enclose.cli import run
from convex_enclose.convex_core import ConvexFunction, Interval, require_slope_order
from convex_enclose.expressions import (
    _PROVED,
    continuous_on,
    convex_function_from_expression,
    parse_expression,
)
from convex_enclose.divergence import KERNELS
from black_box import counting_copy


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_enclose_worked_case(capsys):
    doc = run_json(capsys, ["enclose", "--fn", "t^2", "--a", "0", "--b", "1", "--x", "0.5"])
    assert doc["command"] == "enclose"
    assert doc["input"] == {"fn": "t^2", "a": 0, "b": 1, "x": 0.5}
    result = doc["result"]
    assert result["lower"] == 0.0
    assert result["upper"] == 0.25
    assert result["hh_lower"] == 0.0
    assert result["hh_upper"] == 0.25
    assert result["classical_bound"] == 0.5
    assert doc["certificates"]["ostrowski_difference"] == [0.0, 0.25]
    assert doc["warnings"] == []


def test_enclose_with_oracle_and_diagnostics(capsys):
    doc = run_json(capsys, ["enclose", "--fn", "abs(t - 1/2)", "--a", "0", "--b", "1",
                            "--x", "0.5", "--oracle"])
    result = doc["result"]
    assert result["oracle_gap"] == pytest.approx(0.25, rel=1e-12)
    assert "diagnostics" not in result


def test_enclose_at_endpoint_only_upper(capsys):
    doc = run_json(capsys, ["enclose", "--fn", "t^2", "--a", "0", "--b", "1", "--x", "1"])
    assert doc["result"]["lower"] is None
    assert doc["result"]["upper"] == pytest.approx(0.0, abs=1e-15)
    assert any("endpoint" in w for w in doc["warnings"])


def test_enclose_infinite_upper_serializes_as_string(capsys):
    doc = run_json(capsys, ["enclose", "--fn=-sqrt(t)", "--a", "0", "--b", "1",
                            "--x", "0.5"])
    assert doc["result"]["upper"] == "inf"
    assert doc["result"]["classical_bound"] is None


def test_enclose_variable_exponent_has_closed_form_slopes(capsys):
    # f'+(0) of t^t is -inf, so the upper bound and the baseline degenerate
    doc = run_json(capsys, ["enclose", "--fn", "t^t", "--a", "0", "--b", "1", "--x", "0.3"])
    assert doc["result"]["upper"] == "inf"
    assert doc["result"]["classical_bound"] is None
    assert doc["warnings"] == ["classical baseline unavailable: infinite endpoint slope"]


def test_integrate_certificate(capsys):
    doc = run_json(capsys, ["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1",
                            "--tol", "1e-6"])
    result = doc["result"]
    assert result["width"] <= 1e-6
    assert result["integral_lower"] <= math.e - 1.0 <= result["integral_upper"]
    assert result["cells"] <= 2**16


def test_means_and_kernel_suite(capsys):
    doc = run_json(capsys, ["means", "--fn", "t^2", "--a", "0", "--b", "2",
                            "--c", "0", "--d", "1"])
    lower, upper = doc["result"]["lower"], doc["result"]["upper"]
    gap_lo, gap_hi = doc["result"]["gap"]
    # the expression is integrated to 1e-3 of the certificate's a-priori width
    assert lower <= 1.0 / 3.0 and 1.0 / 3.0 - lower <= 1e-3 * (upper - lower)
    assert gap_lo <= 1.0 <= gap_hi and gap_hi - gap_lo <= 2e-3 * (upper - lower)
    assert upper == pytest.approx(7.0 / 3.0, rel=1e-12)

    doc = run_json(capsys, ["means", "--a", "0.5", "--b", "3", "--c", "1", "--d", "2",
                            "--kernel-suite", "2"])
    entries = doc["result"]["entries"]
    assert [e["kernel"] for e in entries] == ["t^2", "1/t", "-ln(t)"]
    for e in entries:
        gap_lo, gap_hi = e["gap"]
        assert gap_lo == gap_hi
        assert e["lower"] <= gap_lo <= e["upper"]
        assert gap_lo == pytest.approx(e["gap_closed_form"], abs=1e-12)


@pytest.mark.parametrize("source", [
    [],
    ["--fn", "t^2", "--kernel-suite", "2"],
], ids=["neither", "both"])
def test_means_needs_exactly_one_of_fn_and_kernel_suite(capsys, source):
    assert run(["means", "--a", "0.5", "--b", "3", "--c", "1", "--d", "2", *source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert "--fn" in captured.err and "--kernel-suite" in captured.err


def test_special_means_values(capsys):
    doc = run_json(capsys, ["special-means", "--a", "1", "--b", repr(math.e), "--p", "1"])
    result = doc["result"]
    assert result["logarithmic"] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert result["identric"] == pytest.approx(math.exp(1.0 / (math.e - 1.0)), rel=1e-12)
    assert result["p_logarithmic"] == pytest.approx(result["arithmetic"], rel=1e-12)


def test_prob_uniform_and_scale_warning(capsys):
    doc = run_json(capsys, ["prob", "--density", "uniform", "--a", "0", "--b", "1",
                            "--x", "0.25"])
    assert doc["result"]["median_lower"] == 0.5
    assert doc["result"]["median_upper"] == 0.5
    assert doc["result"]["cdf_lower"] == pytest.approx(0.25, rel=1e-13)
    assert doc["warnings"] == []

    doc = run_json(capsys, ["prob", "--density", "uniform", "--a", "0", "--b", "2"])
    assert any("scale-corrected" in w for w in doc["warnings"])


def test_prob_step_density(capsys):
    doc = run_json(capsys, ["prob", "--density", "step:0.5,0", "--a", "0", "--b", "1"])
    assert doc["result"]["median_lower"] == 0.0
    assert doc["result"]["median_upper"] == 0.0
    assert doc["result"]["expectation"] == 0.75


def test_prob_ranged_density_is_its_own_cdf_slope(capsys):
    # the rules range 2*t on [0, 1], so the CDF's slopes are the density's
    # values and the median's lower bound is the formula's 1/12
    assert cli._build_model("2*t", 0.0, 1.0).cdf.certified
    doc = run_json(capsys, ["prob", "--density=2*t", "--a=0", "--b=1"])
    assert doc["result"]["median_lower"] == pytest.approx(1.0 / 12.0, rel=1e-14)


@pytest.mark.parametrize("density, a, b, x", [
    ("1-0^abs(t-0.9)", 0.0, 1.0, 0.9),
    ("1+0^abs(t-0.5)", 0.1, 1.1, 0.5),
])
def test_prob_density_not_ranged_keeps_sampled_slopes(capsys, density, a, b, x):
    # 0^u is 1 at u = 0 and 0 for u > 0: the density's value at x is not its
    # one-sided limits there, which the sampled slopes take
    assert not continuous_on(parse_expression(density), a, b)
    assert not cli._build_model(density, a, b).cdf.certified
    doc = run_json(capsys, ["prob", f"--density={density}", f"--a={a}", f"--b={b}",
                            f"--x={x}"])
    result = doc["result"]
    assert result["cdf_lower"] == result["cdf_upper"]
    assert result["median_lower"] == result["median_upper"]


@pytest.mark.parametrize("scale, kink, norm", [
    (100, "0.95", "1.125"),
    (1000, "0.95", "2.25"),
    (100, "0.97", "1.045"),
])
def test_prob_sampled_slope_next_to_a_flat_stretch(capsys, scale, kink, norm):
    # the density is flat up to the kink and rises after it; + 0*t keeps it
    # from being ranged, so its CDF's slopes are sampled, and the left limit
    # at x = 0.975 starts with two probes on the flat stretch
    density = f"(1 + {scale}*max(0, t - {kink}) + 0*t)/{norm}"
    assert not cli._build_model(density, 0.0, 1.0).cdf.certified
    x, k, n = Fraction("0.975"), Fraction(kink), Fraction(norm)
    exact = float((x + scale * (x - k) ** 2 / 2) / n)  # F(x)
    code = run(["prob", f"--density={density}", "--a=0", "--b=1", "--x=0.975"])
    out = capsys.readouterr().out
    if code == 3:
        assert out == ""
        return
    assert code == 0, out
    lo, hi = json.loads(out)["certificates"]["cdf_value"]
    assert lo <= exact <= hi


def test_prob_density_defined_only_up_to_b(capsys):
    # 0.3 + (0.9 - 0.3) rounds to 0.9000000000000001, where sqrt(0.9 - t) is undefined
    doc = run_json(capsys, ["prob", "--density", "(1 + (2/3)*0.6^1.5)/0.6 - sqrt(0.9 - t)",
                            "--a", "0.3", "--b", "0.9", "--x", "0.5", "--oracle"])
    result = doc["result"]
    assert result["cdf_lower"] <= result["oracle_cdf"] <= result["cdf_upper"]


def test_divergence_worked_case(capsys):
    doc = run_json(capsys, ["divergence", "--kernel", "chi2", "--p", "0.5,0.5",
                            "--q", "0.25,0.75"])
    result = doc["result"]
    assert result["csiszar"] == 0.25
    assert result["lin_wong"] == 0.0625
    assert result["hh"] == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert result["gap_bounds"] == [0.0, 0.0625]


def test_csv_format(capsys):
    code = run(["--format", "csv", "divergence", "--kernel", "chi2", "--p", "0.5,0.5",
                "--q", "0.25,0.75"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    assert "result.csiszar,0.25" in lines
    assert "result.gap_bounds.1,0.0625" in lines
    # --format is accepted after the subcommand as well
    code = run(["divergence", "--kernel", "chi2", "--p", "0.5,0.5", "--q", "0.25,0.75",
                "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == out


def test_output_is_deterministic(capsys):
    argv = ["integrate", "--fn", "t*ln(t)", "--a", "0.5", "--b", "2", "--tol", "1e-8"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_numbers_use_seventeen_significant_digits(capsys):
    run(["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1", "--tol", "1e-6",
         "--oracle"])
    out = capsys.readouterr().out
    value = math.e - 1.0
    assert f'"oracle_value": {format(value, ".17g")}' in out
    assert json.loads(out)["result"]["oracle_value"] == value


def test_exit_code_nonconvex(capsys):
    assert run(["enclose", "--fn=-t^2", "--a", "0", "--b", "1", "--x", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "convexity" in err


def test_exit_code_nonconvex_integrand(capsys):
    # a dip 2e-3 wide falls between the convexity samples, but the
    # integrator's cells then see their slopes out of order
    argv = ["integrate", "--fn", "t*t-max(0,1e-3-abs(t-0.50413))", "--a", "0", "--b", "1",
            "--tol", "1e-10"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "not convex" in err


def test_exit_code_nonconvex_integrand_at_coarse_tol(capsys):
    # at tol 1e-8 two cells hold slopes out of order without upsetting the sum
    argv = ["integrate", "--fn", "t*t-max(0,1e-3-abs(t-0.50413))", "--a", "0", "--b", "1",
            "--tol", "1e-8"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "not convex" in err


def test_exit_code_nonconvex_dip_in_enclose(capsys):
    # the dip between the convexity samples shows in the support lines of the
    # points the bounds consume; the difference was certified as [0.2459, 0.2459]
    # where the true value is 0.0802
    argv = ["enclose", "--fn", "t*t-max(0,1e-3-abs(t-0.50413))", "--a", "0", "--b", "1",
            "--x", "0.50413"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: not convex" in captured.err


def test_exit_code_slopes_out_of_order_below_the_support_line_slack(capsys):
    # -t*t with |f| ~ 1.8e11: f'+(a) - f'-(b) = 9.7e-4 exceeds the slope
    # order's slack of 8.5e-4, while the support lines' 1e-9 relative slack
    # (about 180) misses it; the bounds then came out of order (exit 3)
    argv = ["enclose", "--fn", "max(-t*t,-1e12)", "--a", "423239.6893567201",
            "--b", "423239.68984358833", "--x", "423239.6896"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: one-sided slopes out of order" in captured.err


def _slopes_out_of_order(f, points):
    """Whether f'+(p) > f'-(q) beyond f.slope_slack for some p < q."""
    try:
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                require_slope_order(f.right_derivative(p), f.left_derivative(q), p, q,
                                    f.slope_slack)
    except errors.NonConvexError:
        return True
    return False


def test_proved_slopes_out_of_order_by_rounding_still_enclose(capsys):
    # Within about 1e-4 of 1e4, t^2 and its tangent there tie within
    # rounding, so the float slopes of max jump between 2t and 2e4, out of
    # order by up to 2.7e-4, above the slope order's slack of 2e-5.  The
    # proved function gets no point check, and each certificate must still
    # hold the exact difference of t^2: the slope read belongs to a branch
    # whose line through (x, branch(x)) lies below f, and that branch is
    # within rounding of f(x).  x runs over the tie zone, just right of a or
    # mid-interval; the interval must be 5e-3 wide for max's `-` to be proved
    src = "max(t*t, 20000.0*t - 100000000.0)"
    cases = [(9999.949864, 10000.049863999999, 9999.999865)]
    for k in range(101):
        x = 9999.9999 + k * 5e-7
        cases += [(x - 1e-9, x + 0.006, x), (x - 0.025, x + 0.025, x)]
    out_of_order = 0
    for a, b, x in cases:
        f = convex_function_from_expression(src, Interval(a, b))[0]
        assert f.convexity.method == "proved", (a, b, x)
        out_of_order += _slopes_out_of_order(f, sorted({a, x, f.domain.midpoint, b}))
        doc = run_json(capsys, ["enclose", "--fn", src, "--a", repr(a), "--b", repr(b),
                                "--x", repr(x)])
        A, B, X = Fraction(a), Fraction(b), Fraction(x)
        exact = (B**3 - A**3) / 3 - (B - A) * X * X
        lower, upper = doc["certificates"]["ostrowski_difference"]
        assert lower <= exact <= upper, (a, b, x)
    assert out_of_order >= 50  # inputs that the point check used to refuse


def test_proved_bounds_out_of_order_by_rounding_exit_3(capsys, monkeypatch):
    # an affine function whose f'+(x) exceeds f'-(b) by one ulp puts the
    # Ostrowski lower bound above the upper: a numerical failure of a
    # function proved convex, not invalid input, and never printed
    x = 0.25
    slope = {x: math.nextafter(1.0, 2.0)}
    f = ConvexFunction(Interval(0.0, 1.0), fn=lambda t: t, dminus=lambda t: 1.0,
                       dplus=lambda t: slope.get(t, 1.0), convexity=_PROVED)
    monkeypatch.setattr(cli, "convex_function_from_expression", lambda src, domain: (f, []))
    assert run(["enclose", "--fn", "t", "--a", "0", "--b", "1", "--x", str(x)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: enclosure bounds out of order")


def test_lower_bound_that_overflows_to_nan_exits_3(capsys):
    # both terms of the lower bound overflow to inf, and inf - inf was
    # printed as a bare nan, which is not JSON
    argv = ["enclose", "--fn", "1e307*t*t", "--a", "0", "--b", "4.2", "--x", "2.1"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: undefined extended-real result")


def test_lower_bound_that_overflows_to_inf_exits_3(capsys):
    # (b - x)^2 f'+(x) overflows while (x - a)^2 f'-(x) does not, so the
    # lower bound is inf although the difference, 1.498e308, is a float;
    # [inf, inf] holds no real number
    argv = ["enclose", "--fn", "9.1e306*t*t", "--a", "0", "--b", "4.2", "--x", "1.4"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: enclosure [inf, inf] holds no real")


@pytest.mark.parametrize("argv, code, err", [
    # the slope of t/1e155 is 1e-155; the quotient rule divided by w^2 = inf
    # and read 0, so the support line at x lay above f(0): "not convex"
    (["enclose", "--fn", "t/1e155", "--a", "0", "--b", "1e154", "--x", "5e153"], 0, ""),
    # the slope -t^-2 reads -inf at a, so the rules leave 1/t to the sampled
    # check there, as they leave t^(-1); the quotient rule that divided by w^2
    # read 1e-200 squared as 0 and exited 3
    (["enclose", "--fn=1/t", "--a=1e-200", "--b=1", "--x=0.5"], 0, ""),
    # proved now, and the exact difference, about 2.2e311, overflows
    (["enclose", "--fn", "exp(t/1e307)", "--a", "0", "--b", "1e308", "--x", "1"], 3,
     "numerical failure: enclosure [inf, inf]"),
    # (b - x) ** 2 raised "(34, 'Numerical result out of range')"
    (["enclose", "--fn", "t*1e-10*ln(t*1e-300+1)", "--a", "0", "--b", "1e308", "--x", "1"], 3,
     "numerical failure: enclosure [inf, inf]"),
    # (x - a) * (x - a) * f'+(a) is inf * 0 in the upper bound at x = b: no NaN
    # is printed
    (["enclose", "--fn", "max(0, t - 1)", "--a", "0", "--b", "2e154", "--x", "2e154"], 3,
     "numerical failure: undefined extended-real result"),
    # the classical baseline's (b - a) ** 2 overflows; as (b - a) * (b - a) it
    # read (x - m)^2 / (b - a)^2 as 1e308 / inf = 0 and printed a baseline of
    # 5e153, below |f(b) - mean| = 1e154
    (["enclose", "--fn", "abs(t - 1e150)", "--a", "0", "--b", "2e154", "--x", "2e154"], 3,
     "numerical failure: "),
])
def test_squares_at_the_ends_of_the_float_range(capsys, argv, code, err):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    if code == 0:
        json.loads(captured.out, parse_constant=_reject_constant)


# The benchmark's non-convex requests; all but the kinked one are smooth
_CONCAVE = ("ln(t)", "sqrt(t)", "-t^2", "-exp(t)", "t^0.5", "-abs(t - 1.5)")


@pytest.mark.parametrize("command", ["enclose", "integrate"])
@pytest.mark.parametrize("source", _CONCAVE)
def test_concave_requests_exit_2_and_smooth_ones_sample_nothing(capsys, monkeypatch, source,
                                                                 command):
    argv = [command, f"--fn={source}", "--a", "1", "--b", "2"] + (
        ["--x", "1.5"] if command == "enclose" else [])
    if source != "-abs(t - 1.5)":
        def refused(f):
            raise AssertionError("the walk disproves a smooth concave function")
        monkeypatch.setattr(convex_core, "check_convexity", refused)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if source != "-abs(t - 1.5)":
        assert captured.err.startswith("invalid input: convexity disproved: f'' lies in [")
        assert captured.err.endswith("] on [1.0, 2.0]\n")


def test_enclose_reads_each_point_once(capsys, monkeypatch):
    # each oracle call of an expression is one fused walk: one jet at x and
    # one at the midpoint, and the endpoint slopes once for the three
    # bounds that read them; a proved function is not evaluated to check it
    reads = []

    def build(source, domain):
        f, warnings = convex_function_from_expression(source, domain)
        counted, calls = counting_copy(f)
        reads.append(calls)
        return counted, warnings

    monkeypatch.setattr(cli, "convex_function_from_expression", build)
    run_json(capsys, ["enclose", "--fn", "t*ln(t) + abs(t - 0.3)", "--a", "0.5", "--b", "2",
                      "--x", "1.2"])
    assert reads == [{"jet": 2, "dplus": 1, "dminus": 1}]


def test_slopes_that_exist_on_one_side_only(capsys):
    # f'+(0) = -inf of -sqrt(max(0, t)), while its left slope at 0 is the
    # indeterminate 0/0: a walk shared by both sides must not raise for f'+
    doc = run_json(capsys, ["enclose", "--fn=-sqrt(max(0,t))", "--a", "0", "--b", "1",
                            "--x", "0.5"])
    assert doc["result"] == {"lower": 0, "upper": "inf", "width": None, "hh_lower": 0,
                             "hh_upper": "inf", "classical_bound": None}
    assert doc["certificates"] == {"ostrowski_difference": [0, "inf"],
                                   "hh_mean_gap": [0, "inf"]}
    assert doc["warnings"] == ["classical baseline unavailable: infinite endpoint slope"]
    # f'+(0) = inf + inf, while f'-(0) = inf - inf reaches max as a NaN: the
    # sampled check reads the right slope and rejects the function
    argv = ["enclose", "--fn", "max(sqrt(t) + sqrt(abs(t)), -1)", "--a", "0", "--b", "1",
            "--x", "0.5"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: convexity violated by inf at pair (0.0, 0.0078125)\n"


def test_convexity_check_on_a_narrow_interval_far_from_zero(capsys):
    # the rounding of f ~ 1.8e11 (about 3e-5) once read as non-convexity
    run_json(capsys, ["enclose", "--fn", "abs(t*t)", "--a", "423239.6893567201",
                      "--b", "423239.68984358833", "--x", "423239.6896"])


def test_convexity_check_on_an_interval_of_three_floats(capsys):
    # the grid repeated the upper end, which has no right derivative
    run_json(capsys, ["enclose", "--fn", "t^t", "--a", "1", "--b", "1.0000000000000004",
                      "--x", "1.0000000000000002"])


def test_exit_code_power_overflow(capsys):
    assert run(["enclose", "--fn", "2^t", "--a=-2000", "--b", "2000", "--x", "0"]) == 2
    assert "invalid input: 2.0 ^ 1031.25 overflows near position 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enclose", "--fn=-t^0.01", "--a=0", "--b=1", "--x=5e-324"],
    ["enclose", "--fn=t^(-1)", "--a=1e-200", "--b=1", "--x=0.5"],
])
def test_exit_code_slope_overflow(capsys, argv):
    # the value u^c is finite, but the slope factor c u^(c-1) is not
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: the slope of" in captured.err


@pytest.mark.parametrize("argv", [
    ["enclose", "--fn=t^2", "--a=-1e308", "--b=1e308", "--x=0"],  # the width overflows
    ["enclose", "--fn=t", "--a=1e308", "--b=1.7e308", "--x=1.5e308"],  # the midpoint does
    ["integrate", "--fn=t", "--a=1e308", "--b=1.7e308"],
])
def test_exit_code_interval_too_wide_for_floats(capsys, argv):
    assert run(argv) == 2
    assert "is too wide for float arithmetic" in capsys.readouterr().err


def test_a_wide_interval_is_sampled_inside_its_domain(capsys):
    # the convexity check's grid on [0, 1e308] stays finite: what it finds
    # is that t*ln(t + 1) overflows, not a point outside the domain
    assert run(["enclose", "--fn", "t*ln(t+1)/1000", "--a", "0", "--b", "1e308", "--x", "1"]) == 2
    err = capsys.readouterr().err
    assert "is not finite" in err and "outside domain" not in err


def test_exit_code_parse_error(capsys):
    assert run(["enclose", "--fn", "t +", "--a", "0", "--b", "1", "--x", "0.5"]) == 2
    assert run(["enclose", "--fn", "q^2", "--a", "0", "--b", "1", "--x", "0.5"]) == 2


def test_exit_code_bad_distribution(capsys):
    assert run(["divergence", "--kernel", "chi2", "--p", "0.7,0.5", "--q", "0.25,0.75"]) == 2
    assert run(["divergence", "--kernel", "chi2", "--p", "0.5,0.5", "--q", "0.25,0.5,0.25"]) == 2
    assert run(["divergence", "--kernel", "kl", "--p", "0.5,x", "--q", "0.5,0.5"]) == 2
    assert "cannot parse weights" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, p", [("tv", "1e-300,1"), ("kl", "1e-300,1"),
                                       ("tv", "5e-324,1")])
def test_exit_code_divergence_beyond_the_float_range(capsys, kernel, p):
    # q_i / p_i overflows; the true divergences are finite
    assert run(["divergence", "--kernel", kernel, "--p", p, "--q", "0.5,0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the float range" in captured.err


def test_exit_code_budget_exceeded(capsys):
    code = run(["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1",
                "--tol", "1e-13", "--max-cells", "16"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--fn", "t*t*t", "--a", "0", "--b", "2", "--tol", "1e-12"],
    ["--fn", "exp(t)", "--a", "0", "--b", "709", "--tol", "1e-3"],
    ["--fn", "t^2", "--a", "0", "--b", "1", "--tol", "1e-300", "--max-cells", "100000000000"],
    ["--fn", "exp(t)", "--a=-800", "--b", "0", "--tol", "1e-300"],
])
def test_exit_code_budget_predicted_out_of_reach(capsys, argv):
    # the budget cannot reach tol; the integrator says so after a few cells
    # instead of building all of them
    assert run(["integrate", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stopped early" in captured.err and "max_cells" in captured.err
    cells = int(re.search(r"after (\d+) cells", captured.err).group(1))
    assert cells <= 256


def test_exit_code_nonpositive_max_cells(capsys):
    for cells in ("0", "-1"):
        code = run(["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1",
                    "--max-cells", cells])
        assert code == 2
        assert "max_cells" in capsys.readouterr().err


def test_exit_code_unbounded_slope(capsys):
    assert run(["integrate", "--fn=-sqrt(t)", "--a", "0", "--b", "1"]) == 2


def test_exit_code_unbounded_slope_of_variable_exponent(capsys):
    assert run(["integrate", "--fn", "t^t", "--a", "0", "--b", "1"]) == 2
    assert "infinite endpoint slope" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enclose", "--fn", "(" * 300 + "t" + ")" * 300],
    ["enclose", "--fn", "abs(" * 300 + "t" + ")" * 300],
    ["enclose", "--fn=" + "-" * 1200 + "t"],
    ["enclose", "--fn", "+".join(["t"] * 1500)],
    ["enclose", "--fn", "+".join(["t"] * 900)],
    ["prob", "--density", "(" * 400 + "t" + ")" * 400],
], ids=["parentheses", "abs", "unary-minus", "sum-1500", "sum-900", "density"])
def test_exit_code_deep_expression(capsys, argv):
    assert run(argv + ["--a", "0", "--b", "1", "--x", "0.5"]) == 2
    assert "nests deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enclose", "--fn", "t^2", "--a", "0", "--b", "1", "--x", "2"],
    ["enclose", "--fn", "t^2", "--a", "0", "--b", "1", "--x=-1e-300"],
    ["prob", "--density", "step:0.5", "--a", "0", "--b", "1"],
    ["prob", "--density", "step:a,b", "--a", "0", "--b", "1"],
    ["prob", "--density", "step:0.5,0.2,0.1", "--a", "0", "--b", "1"],
], ids=["x-above-b", "x-below-a", "step-one-field", "step-not-numbers", "step-three-fields"])
def test_exit_code_invalid_input_prints_no_document(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


def test_exit_code_nan_step_level(capsys):
    assert run(["prob", "--density", "step:0.5,nan", "--a", "0", "--b", "1"]) == 2
    assert "density level must be nonnegative" in capsys.readouterr().err


def test_exit_code_overflow_in_bound_formula(capsys):
    # (b - x)^2 overflows in the pointwise bounds
    assert run(["enclose", "--fn", "abs(t)", "--a=-1e200", "--b", "1e200", "--x", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_division_by_zero_in_baseline(capsys):
    # (b - a)^2 underflows to 0 in the classical baseline
    assert run(["enclose", "--fn", "t^2", "--a", "0", "--b", "1e-300", "--x", "5e-301"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_undefined_slope(capsys):
    # the slope of t*sqrt(t) at t = 0 is 1*0 + 0*inf, an undefined form
    assert run(["enclose", "--fn=t*sqrt(t)", "--a", "0", "--b", "1", "--x", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


def test_exit_code_overflow_in_special_means(capsys):
    assert run(["special-means", "--a=1e-300", "--b=1e300", "--p=2"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_density_integral_overflow(capsys):
    # the Simpson panels overflow to inf - inf; the oracle fails at once
    assert run(["prob", "--density=t", "--a=0", "--b=1e300"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    # a negative density is rejected on the grid, before any integral
    assert run(["prob", "--density=2*t", "--a=-1e200", "--b=0.5"]) == 2
    assert "density takes a negative value" in capsys.readouterr().err


def test_exit_code_non_finite_special_means(capsys):
    for a, b, p in (("1", "2", "nan"), ("1", "2", "inf"), ("1", "inf", "2"),
                    ("nan", "2", "2")):
        assert run(["special-means", f"--a={a}", f"--b={b}", f"--p={p}"]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_exit_code_non_finite_function(capsys):
    for argv in (["integrate", "--fn", "1e400", "--a", "0", "--b", "1"],
                 ["enclose", "--fn", "1e300*1e300", "--a", "0", "--b", "1", "--x", "0.5"],
                 ["integrate", "--fn", "1e308*2+t^2", "--a", "0", "--b", "1"],
                 # a density that is inf, or nan, on the grid before any integral
                 ["prob", "--density=1e308*t*10", "--a=0", "--b=1"],
                 ["prob", "--density=1e308*t*10-1e308*t*10+1", "--a=0", "--b=1"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "not finite" in captured.err


def test_exit_code_non_finite_kernel_suite_p(capsys):
    for p in ("nan", "inf"):
        assert run(["means", "--a", "0.5", "--b", "3", "--c", "1", "--d", "2",
                    f"--kernel-suite={p}"]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_exit_code_kernel_suite_excluded_p(capsys):
    # L_p divides by p and by p + 1, as special-means --p rejects too
    for p in ("0", "-1"):
        assert run(["means", "--a", "0.5", "--b", "3", "--c", "1", "--d", "2",
                    f"--kernel-suite={p}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: p-logarithmic mean excludes p in {-1, 0}" in captured.err


def test_every_error_class_has_one_exit_code():
    bases = (errors.InvalidInputError, errors.NumericalFailureError)
    for cls in vars(errors).values():
        if (isinstance(cls, type) and issubclass(cls, errors.ConvexEncloseError)
                and cls not in (errors.ConvexEncloseError, *bases)):
            assert sum(issubclass(cls, base) for base in bases) == 1, cls


def test_no_command_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


_ENCLOSE = ["enclose", "--fn", "t^2", "--a", "0", "--b", "1", "--x", "0.5"]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, stream, text", [
    ([], 2, "err", "usage: convex-enclose [-h] [--self-test] [--format {json,csv}]"),
    (["-h"], 0, "out", "Certified two-sided bounds for convex functions"),
    (["enclose", "-h"], 0, "out", "usage: convex-enclose enclose [-h] [--format {json,csv}]"),
    (["enc", *_ENCLOSE[1:]], 2, "err", "argument command: invalid choice: 'enc'"),
    ([*_ENCLOSE[:7], "--", *_ENCLOSE[7:]], 2, "err",
     "the following arguments are required: --x"),
    ([*_ENCLOSE[:5], *_ENCLOSE[7:]], 2, "err", "the following arguments are required: --b"),
    (["enclose", "--fn", "t^2", "--a", "-1e-3", "--b", "1", "--x", "0.5"], 2, "err",
     "argument --a: expected one argument"),
    (["enclose", "--fn", "t^2", "--a", "-.5e1", "--b", "1", "--x", "0.5"], 2, "err",
     "argument --a: expected one argument"),
    (["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1", "--max-cells=1.5"], 2, "err",
     "argument --max-cells: invalid int value: '1.5'"),
])
def test_usage_is_argparse_own(argv, code, stream, text):
    """Help and usage errors: argparse's exit code, stream and message."""
    got, out, err = _call(argv)
    assert got == code
    written, silent = (out, err) if stream == "out" else (err, out)
    assert text in written
    assert silent == ""


@pytest.mark.parametrize("argv, same_as", [
    ([*_ENCLOSE, "--ora"], [*_ENCLOSE, "--oracle"]),  # an abbreviation
    ([*_ENCLOSE, "--x", "0.25"], [*_ENCLOSE[:7], "--x", "0.25"]),  # argparse keeps the last
])
def test_argv_that_argparse_reads_like_another(argv, same_as):
    code, out, err = _call(argv)
    assert (code, err) == (0, "")
    assert out == _call(same_as)[1]


def test_negative_value_forms(capsys):
    """--a=-1e-3 and --a -0.5 are numbers; --a -1e-3 is an option (exit 2 above)."""
    assert run_json(capsys, [*_ENCLOSE[:3], "--a=-1e-3", *_ENCLOSE[5:]])["input"]["a"] == -1e-3
    assert run_json(capsys, [*_ENCLOSE[:3], "--a", "-0.5", *_ENCLOSE[5:]])["input"]["a"] == -0.5


def test_self_test_flag(capsys, monkeypatch):
    monkeypatch.setenv("CONVEX_ENCLOSE_SEED", "1")
    code = run(["--self-test"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "self-test"
    assert doc["input"]["seed"] == 1
    assert doc["result"]["ok"] is True


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


_EXPRESSIONS = ("t^2", "abs(t)", "abs(t - 1/2)", "exp(t)", "t*ln(t)", "-sqrt(t)", "-ln(t)",
                "2^t", "max(t, 2*t - 1)", "1/t", "-t^2", "t +", "q")
_FLOATS = st.one_of(
    st.floats(),  # includes nan, +-inf, subnormals and extreme magnitudes
    st.sampled_from((0.0, 0.5, 1.0, 2.0, -1.0, 5e-301, 1e-300, 1e200, -1e200, 1e300)),
    st.floats(-4.0, 4.0),
)


def _points(draw, names):
    """--name=value flags, sorted ascending in most draws so requests are often valid."""
    values = draw(st.lists(_FLOATS, min_size=len(names), max_size=len(names)))
    if draw(st.integers(0, 3)):
        values.sort()
    return [f"--{name}={value!r}" for name, value in zip(names, values)]


@st.composite
def _cli_requests(draw):
    command = draw(st.sampled_from(("enclose", "integrate", "means", "special-means", "prob",
                                    "divergence")))
    argv = [command]
    if command in ("enclose", "integrate") or (command == "means" and draw(st.booleans())):
        argv += ["--fn", draw(st.sampled_from(_EXPRESSIONS))]
    if command == "enclose":
        argv += _points(draw, ("a", "x", "b"))
    elif command == "integrate":
        argv += _points(draw, ("a", "b"))
        argv += [f"--tol={draw(st.one_of(st.floats(1e-6, 1e3), st.just(math.inf)))!r}",
                 f"--max-cells={draw(st.integers(-1, 4096))}"]
    elif command == "means":
        argv += _points(draw, ("a", "c", "d", "b"))
        if "--fn" not in argv:
            argv.append(f"--kernel-suite={draw(_FLOATS)!r}")
    elif command == "special-means":
        argv += _points(draw, ("a", "b")) + [f"--p={draw(_FLOATS)!r}"]
    elif command == "prob":
        argv.append("--density=" + draw(st.sampled_from(
            ("uniform", "step:0.5,0.2", "step:0.5", "t", "2*t", "exp(t)", "-t"))))
        argv += _points(draw, ("a", "x", "b") if draw(st.booleans()) else ("a", "b"))
    else:
        weights = st.lists(_FLOATS, min_size=1, max_size=4).map(
            lambda ws: ",".join(repr(w) for w in ws))
        argv += ["--kernel", draw(st.sampled_from(sorted(KERNELS) + ["nope"])),
                 "--p=" + draw(st.one_of(weights, st.just("0.5,0.5"))),
                 "--q=" + draw(st.one_of(weights, st.just("0.25,0.75")))]
    if command in ("enclose", "integrate", "prob", "divergence") and draw(st.booleans()):
        argv.append("--oracle")
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_cli_requests())
def test_exit_code_contract_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# Flags that take a float, where a negative value can be written two ways.
_FLOAT_FLAGS = ("--a", "--b", "--c", "--d", "--x", "--tol")
# mutations that take an argv out of the canonical form the fast path reads
_DECLINED = ("abbreviate", "repeat", "unknown", "positional", "dashdash", "help",
             "switch-value", "late-self-test")
_MUTATIONS = ("none", "negative", "bad-value", "drop", "self-test") + _DECLINED


@st.composite
def _argv_variants(draw):
    """(argv, expect): a _cli_requests() argv respelled and mutated.

    Each flag is written as --flag=value or --flag value (a value that
    starts with - only under the negative mutation); --format may come
    before or after the subcommand (or both); one mutation may abbreviate,
    repeat, add or drop a flag, insert a bare word, -- or -h, give --oracle
    a value, put --self-test before or after the subcommand, make a float
    negative, or give a flag a value its converter may reject.  expect is
    "parse" where the fast path must parse whatever argparse accepts,
    "decline" where it must decline, and None where only their agreement
    is checked.
    """
    command, *tokens = draw(_cli_requests())
    pairs, rest = [], iter(tokens)
    for token in rest:
        flag, eq, value = token.partition("=")
        pairs.append([flag, value if eq else None if flag == "--oracle" else next(rest)])
    before = []
    placement = draw(st.sampled_from((None, "before", "after", "both")))
    fmt = draw(st.sampled_from(("json", "csv", "xml")))
    if placement in ("before", "both"):
        before.append(["--format", fmt])
    if placement in ("after", "both"):
        pairs.insert(draw(st.integers(0, len(pairs))), ["--format", fmt])
    mutation = draw(st.sampled_from(_MUTATIONS))
    pair = draw(st.sampled_from(pairs))
    if mutation == "abbreviate":
        if len(pair[0]) > 3:
            pair[0] = pair[0][:draw(st.integers(3, len(pair[0]) - 1))]
        else:
            mutation = "none"
    elif mutation == "repeat":
        pairs.append(list(pair))
    elif mutation == "unknown":
        pairs.insert(pairs.index(pair), ["--nope", draw(st.sampled_from((None, "1")))])
    elif mutation == "negative" and pair[0] in _FLOAT_FLAGS:
        pair[1] = draw(st.sampled_from(("-1e-3", "-.5e1", "-0.5", "-1", "-inf")))
    elif mutation == "bad-value" and pair[1] is not None:
        pair[1] = draw(st.sampled_from(("nope", "1.5", "", "1e400")))
    elif mutation == "drop":
        pairs.remove(pair)
    elif mutation in ("positional", "dashdash", "help"):
        word = {"positional": draw(st.sampled_from((command, "extra"))),
                "dashdash": "--", "help": "-h"}[mutation]
        pairs.insert(pairs.index(pair), [word, None])
    elif mutation == "switch-value":
        pairs = [p for p in pairs if p[0] != "--oracle"]
        pairs.append(["--oracle", draw(st.sampled_from(("1", "")))])
    elif mutation == "self-test":
        before.insert(0, ["--self-test", None])
    elif mutation == "late-self-test":
        pairs.insert(pairs.index(pair), ["--self-test", None])
    argv, separate_dash = [], False
    for flag, value in before + [[command, None]] + pairs:
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()) or (value.startswith("-") and mutation != "negative"):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
            separate_dash |= value.startswith("-")
    flags = [flag for flag, _ in before + pairs]
    if mutation in _DECLINED or len(set(flags)) < len(flags) or separate_dash:
        return argv, "decline"
    return argv, None if mutation == "drop" else "parse"


def _argparse_vars(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._make_parser().parse_args(argv))
        except SystemExit:
            return None


_MEANS = ["means", "--a=0", "--b=1", "--c=0", "--d=1"]


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_argv_variants())
@example((_MEANS, None))  # neither of the means group
@example((_MEANS + ["--fn=t", "--kernel-suite=2"], None))  # both of it
@example((["--self-test", "--format=csv", "enclose", "--fn=t", "--a=0", "--b=1", "--x=0"],
          "parse"))
def test_fast_parse_agrees_with_argparse(variant):
    """The fast path declines, or returns the namespace argparse returns."""
    argv, expect = variant
    fast = cli._fast_parse(argv)
    expected = _argparse_vars(argv)
    if fast is not None:
        assert expected is not None, argv
        # repr tells -0.0 from 0.0 and matches nan with nan
        assert repr(sorted(vars(fast).items())) == repr(sorted(expected.items())), argv
    if expect == "parse":
        assert (fast is None) == (expected is None), argv
    elif expect == "decline":
        assert fast is None, argv


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_parse_takes_every_benchmark_request():
    """The benchmark's cli_mix traffic is all in --flag=value form."""
    stream = _load_workloads().stream("cli_mix", 11)
    argvs = [spec["argv"] for _, spec in itertools.islice(stream, 6000)]
    assert [argv for argv in argvs if cli._fast_parse(argv) is None] == []


_SPECIAL_FLOATS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                   1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf))


def _documents(text):
    leaves = st.one_of(st.floats(allow_nan=False), _SPECIAL_FLOATS, text)
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(text, children, max_size=4)),
        max_leaves=20)


def _decoded(value):
    """What reading a written document back gives: infinities as strings."""
    if isinstance(value, dict):
        return {k: _decoded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decoded(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@settings(derandomize=True, max_examples=300)
@given(_documents(st.text()))
def test_json_writer_round_trips_every_float(doc):
    """Every float comes back bit for bit (17 digits; integral values are
    written without a point), and every string as it was."""
    back = json.loads(cli._to_json(doc), parse_int=float)
    assert repr(back) == repr(_decoded(doc))


def _csv_rows(value, prefix=""):
    if isinstance(value, dict):
        return [row for k, v in value.items()
                for row in _csv_rows(v, f"{prefix}.{k}" if prefix else k)]
    if isinstance(value, list):
        return [row for i, v in enumerate(value) for row in _csv_rows(v, f"{prefix}.{i}")]
    return [[prefix, format(value, ".17g") if isinstance(value, float) else value]]


@settings(derandomize=True, max_examples=300)
@given(_documents(st.text(st.characters(exclude_characters="\x00"))))
def test_csv_writer_reads_back_cell_by_cell(doc):
    rows = list(csv.reader(io.StringIO(cli._to_csv(doc) + "\n")))
    assert rows == [["field", "value"]] + _csv_rows(doc)


def test_csv_writer_quotes_commas_quotes_and_newlines():
    doc = {"a,b": 'say "hi"', "text": "two\nlines", "plain": 0.1, "top": math.inf}
    assert cli._to_csv(doc).splitlines() == [
        "field,value", '"a,b","say ""hi"""', 'text,"two', 'lines"',
        "plain,0.10000000000000001", "top,inf"]


def test_csv_quotes_a_carriage_return(capsys):
    # a reader ends an unquoted cell at a bare carriage return
    code = run(["--format", "csv", "prob", "--density=2*t\r", "--a=0", "--b=1"])
    out = capsys.readouterr().out
    assert code == 0
    assert 'input.density,"2*t\r"\n' in out
    rows = list(csv.reader(io.StringIO(out)))
    assert ["input.density", "2*t\r"] in rows
    assert all(len(row) == 2 for row in rows)
