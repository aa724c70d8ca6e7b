"""Every import in the package modules and the tests is used, and the
library imports nothing outside the standard library.

The package's __init__.py re-exports by importing and is exempt, as are
``from __future__`` imports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "convex_enclose").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    """Names bound by an import statement and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit()\n") == [
        (1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The self-test and one request of each subcommand, with --oracle where it exists.
REQUESTS = [
    ["--self-test"],
    ["enclose", "--fn", "t*ln(t) + abs(t - 0.3)", "--a", "0.5", "--b", "2", "--x", "1",
     "--oracle"],
    ["integrate", "--fn", "t*t+abs(t-0.3)", "--a", "0", "--b", "1", "--oracle"],
    ["means", "--fn", "t*t+abs(t-1)", "--a", "0", "--b", "2", "--c", "0.5", "--d", "1.5"],
    ["means", "--a", "0.5", "--b", "3", "--c", "1", "--d", "2", "--kernel-suite", "2"],
    ["special-means", "--a", "1", "--b", "2", "--p", "2"],
    ["prob", "--density", "2*t", "--a", "0", "--b", "1", "--x", "0.3", "--oracle"],
    ["divergence", "--kernel", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75", "--oracle"],
]

# Modules loaded at start-up (site hooks) are recorded first and ignored.
PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
from convex_enclose import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted({name.partition(".")[0] for name in set(sys.modules) - before})]))
"""


def test_no_runtime_dependencies():
    # a fresh interpreter: this one already holds the test dependencies
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(REQUESTS)], env=env,
                         capture_output=True, text=True, check=True).stdout
    codes, loaded = json.loads(out)
    assert codes == [0] * len(REQUESTS)
    assert set(loaded) - set(sys.stdlib_module_names) == {"convex_enclose"}


def read_names(source: str):
    """Names read in a module (loads and attribute accesses), leaving out a
    top-level function's or class's reads of its own name."""
    read = set()
    for stmt in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Attribute)
                 or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
        names.discard(getattr(stmt, "name", None))
        read |= names
    return read


def test_read_names_leaves_out_a_definition():
    source = "def f():\n    return f()\n\nclass C:\n    x = C\n\ng = h.k(f)\n"
    assert read_names(source) == {"h", "k", "f"}
    assert read_names("def f():\n    return f()\n") == set()


def test_every_public_name_has_a_caller():
    # the public API is what the library itself or the acceptance criteria call
    package = ROOT / "src" / "convex_enclose"
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    read = set().union(*(read_names(p.read_text(encoding="utf-8"))
                         for p in [*callers, ROOT / "tests" / "test_acceptance.py"]))
    assert sorted(exported - read) == []
