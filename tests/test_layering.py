"""Layering guards.

Only `lyndon` and `liealg` know the free-algebra coordinates: free Lyndon
words are pushed into a quotient by `liealg` alone (its `image_map` and
`free_derivation`), so no other module needs the standard factorization
or the per-degree relation row spaces.

Only `spectra` touches floating point, through mpmath and its
double-precision root hints, and the package calls no `float(`:
approximations are proposals that exact arithmetic then certifies.
"""

import ast
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


def test_only_spectra_imports_mpmath():
    users = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "mpmath" for m in modules):
                users.add(name)
    assert users == {"spectra.py"}


def test_no_float_calls():
    callers = {name for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "float"}
    assert callers == set()
