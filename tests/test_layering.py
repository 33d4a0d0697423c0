"""Layering guards.

Only `lyndon` and `liealg` know the free-algebra coordinates: free Lyndon
words are pushed into a quotient by `liealg` alone (its `image_map` and
`free_derivation`), so no other module needs the standard factorization
or the per-degree relation row spaces.

No module touches floating point: the package calls no `float(` and
imports neither cmath nor mpmath, and importing the CLI does not load
mpmath (the tests still use it as an independent oracle).  The package
runs on the standard library alone.  The
records are plain classes, so importing the CLI loads neither dataclasses
nor inspect.  The CLI parses its arguments from its own table, so a
`dims` call loads none of argparse, gettext or locale.  No module reads
the environment.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "anosograph"


def sources():
    return {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_standard_factorization_only_in_lyndon_and_liealg():
    users = {name for name, text in sources().items() if "standard_factorization" in text}
    assert users == {"lyndon.py", "liealg.py"}


def test_reductions_read_only_in_liealg():
    users = {name for name, text in sources().items() if ".reductions" in text}
    assert users <= {"liealg.py"}


def _trees():
    return {name: ast.parse(text) for name, text in sources().items()}


def _importers(top):
    """The modules that import `top` or a submodule of it."""
    users = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in modules):
                users.add(name)
    return users


def test_no_module_imports_mpmath():
    assert _importers("mpmath") == set()


def test_no_module_imports_cmath():
    # unit-root witnesses are exact trace polynomials, not refined roots
    assert _importers("cmath") == set()


def test_cli_import_leaves_mpmath_unloaded():
    # dataclasses would bring inspect, ast, dis and tokenize into every call
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script = ("import sys, anosograph.cli\n"
              "print(sorted({'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_call_leaves_argparse_unloaded(tmp_path):
    graph = tmp_path / "c4.edges"
    graph.write_text("a b\nb c\nc d\nd a\n")
    script = ("import sys, anosograph.cli\n"
              f"code = anosograph.cli.main(['dims', {str(graph)!r}, '--k', '3'])\n"
              "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_no_environment_reads():
    # behaviour depends on the arguments alone, never on the environment
    readers = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names):
                readers.add(name)
    assert readers == set()


def test_no_float_calls():
    callers = {name for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "float"}
    assert callers == set()
