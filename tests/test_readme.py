"""The README's examples run as written and print what it says they print."""

import ast
import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from convex_enclose.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _code_block(heading, language):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _code_block("CLI", "sh").splitlines()
             if line.startswith("convex-enclose ")]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_readme_lists_the_cli_examples():
    assert len(CLI_LINES) == 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example(line, capsys, monkeypatch):
    monkeypatch.delenv("CONVEX_ENCLOSE_SEED", raising=False)
    argv = shlex.split(line, comments=True)[1:]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert isinstance(doc, dict)


def test_readme_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_code_block("Library quick start", "python"), {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "(0.0, 0.25)"
    assert printed[1] == "(0.0, 0.25)"
    lo, hi = ast.literal_eval(printed[2])
    assert lo <= math.e - 1.0 <= hi
    assert hi - lo <= 1e-6
    assert printed[3] == "OracleResult(value=0.3333333333333333, method='closed-form')"
