"""Golden CLI documents: stdout and exit code, byte for byte.

Every request below takes its numbers only from + - * /, abs, max and
sqrt, which IEEE 754 rounds correctly, so the documents do not depend on
the platform's libm.  (``t*t`` stands for t^2 because ^ goes through
math.pow.)  A deliberate change of output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from convex_enclose.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (argv, exit code)
REQUESTS = {
    "enclose_square_oracle": (
        ["enclose", "--fn", "t*t", "--a", "0", "--b", "1", "--x", "0.3", "--oracle"], 0),
    "enclose_neg_sqrt_endpoint": (
        ["enclose", "--fn=-sqrt(t)", "--a", "0", "--b", "1", "--x", "0"], 0),
    "enclose_kink_csv": (
        ["--format", "csv", "enclose", "--fn", "abs(t - 0.3) + t*t", "--a=-1", "--b", "1",
         "--x", "0.2"], 0),
    "integrate_kink_oracle": (
        ["integrate", "--fn", "t*t+abs(t-0.3)", "--a", "0", "--b", "1", "--tol", "1e-6",
         "--oracle"], 0),
    "integrate_smooth": (
        ["integrate", "--fn", "1/(t + 1)", "--a", "0", "--b", "1", "--tol", "1e-8"], 0),
    "integrate_budget_exceeded": (
        ["integrate", "--fn", "t*t*t", "--a", "0", "--b", "2", "--tol", "1e-9",
         "--max-cells", "16"], 3),
    "means_kink": (
        ["means", "--fn", "t*t+abs(t-1)", "--a", "0", "--b", "2", "--c", "0.5",
         "--d", "1.5"], 0),
    "prob_linear_oracle": (
        ["prob", "--density", "2*t", "--a", "0", "--b", "1", "--x", "0.3", "--oracle"], 0),
    "prob_step": (
        ["prob", "--density", "step:0.5,0", "--a", "0", "--b", "1", "--x", "0.7"], 0),
    "prob_uniform": (
        ["prob", "--density", "uniform", "--a", "0", "--b", "2", "--x", "0.5"], 0),
    "divergence_tv_oracle": (
        ["divergence", "--kernel", "tv", "--p", "0.5,0.5", "--q", "0.25,0.75", "--oracle"], 0),
    "divergence_shifted_abs_csv": (
        ["divergence", "--kernel", "shifted_abs", "--p", "0.2,0.3,0.5", "--q", "0.4,0.4,0.2",
         "--format", "csv"], 0),
    "enclose_nonconvex": (
        ["enclose", "--fn=-t*t", "--a", "0", "--b", "1", "--x", "0.5"], 2),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_document(name):
    argv, expected_code = REQUESTS[name]
    code, out = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(REQUESTS.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN_DIR / f"{name}.txt").write_text(out, encoding="utf-8")
        print(f"{name}: exit {code}, {len(out)} bytes")
