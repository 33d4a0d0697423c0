"""Layering guard: only `lyndon` and `liealg` know the free-algebra coordinates.

Free Lyndon words are pushed into a quotient by `liealg` alone (its
`image_map` and `free_derivation`), so no other module needs the standard
factorization or the per-degree relation row spaces.
"""

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
