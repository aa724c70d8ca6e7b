import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_enclose import errors
from convex_enclose.cli import run
from convex_enclose.divergence import KERNELS


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
    ["enclose", "--fn=t^2", "--a=-1e308", "--b=1e308", "--x=0"],  # the width overflows
    ["enclose", "--fn=t", "--a=1e308", "--b=1.7e308", "--x=1.5e308"],  # the midpoint does
    ["integrate", "--fn=t", "--a=1e308", "--b=1.7e308"],
])
def test_exit_code_interval_too_wide_for_floats(capsys, argv):
    assert run(argv) == 2
    assert "is too wide for float arithmetic" in capsys.readouterr().err


def test_exit_code_parse_error(capsys):
    assert run(["enclose", "--fn", "t +", "--a", "0", "--b", "1", "--x", "0.5"]) == 2
    assert run(["enclose", "--fn", "q^2", "--a", "0", "--b", "1", "--x", "0.5"]) == 2


def test_exit_code_bad_distribution(capsys):
    assert run(["divergence", "--kernel", "chi2", "--p", "0.7,0.5", "--q", "0.25,0.75"]) == 2
    assert run(["divergence", "--kernel", "chi2", "--p", "0.5,0.5", "--q", "0.25,0.5,0.25"]) == 2
    assert run(["divergence", "--kernel", "kl", "--p", "0.5,x", "--q", "0.5,0.5"]) == 2
    assert "cannot parse weights" in capsys.readouterr().err


def test_exit_code_budget_exceeded(capsys):
    code = run(["integrate", "--fn", "exp(t)", "--a", "0", "--b", "1",
                "--tol", "1e-13", "--max-cells", "16"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
    assert run(["prob", "--density=2*t", "--a=-1e200", "--b=0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_non_finite_special_means(capsys):
    for a, b, p in (("1", "2", "nan"), ("1", "2", "inf"), ("1", "inf", "2"),
                    ("nan", "2", "2")):
        assert run(["special-means", f"--a={a}", f"--b={b}", f"--p={p}"]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_exit_code_non_finite_function(capsys):
    for argv in (["integrate", "--fn", "1e400", "--a", "0", "--b", "1"],
                 ["enclose", "--fn", "1e300*1e300", "--a", "0", "--b", "1", "--x", "0.5"],
                 ["integrate", "--fn", "1e308*2+t^2", "--a", "0", "--b", "1"]):
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
