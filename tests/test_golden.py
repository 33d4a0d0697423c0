"""Byte-for-byte guard on the CLI's stdout, exit codes and certificates.

Each case runs `anosograph.cli.main` on inputs under `tests/golden/` and
compares stdout with `tests/golden/<case>.stdout` and the exit code with
the table below.  The C4 synthesize case also compares the certificate
it writes with `--out`; the verify cases read that certificate, the tampered
one after adding 1 to the first entry of the top-degree block, and the
schema-1 certificate `synthesize_c4_k3.schema1.cert.json`.

To re-record after an intended output change:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from anosograph.cli import main
from anosograph.derivations import DerivationAlgebra

GOLDEN = Path(__file__).resolve().parent / "golden"
CERT = "synthesize_c4_k3.cert.json"

# (case, argv with {golden} and {tmp} placeholders, exit code)
CASES = [
    ("analyze_c4_k3", ["analyze", "{golden}/c4.edges", "--k", "3"], 0),
    ("analyze_clique_k3", ["analyze", "{golden}/clique.edges", "--k", "3"], 0),
    ("dims_c4_k3", ["dims", "{golden}/c4.edges", "--k", "3"], 0),
    ("synthesize_c4_k3",
     ["synthesize", "{golden}/c4.edges", "--k", "3", "--out", "{tmp}/cert.json"], 0),
    ("verify_c4_k3", ["verify", "{golden}/c4.edges", "--certificate", "{tmp}/cert.json"], 0),
    ("verify_c4_k3_tampered",
     ["verify", "{golden}/c4.edges", "--certificate", "{tmp}/tampered.json"], 3),
    # the same certificate as an earlier schema wrote it, root disks in
    # place of trace polynomials
    ("verify_c4_k3_schema1",
     ["verify", "{golden}/c4.edges", "--certificate",
      "{golden}/synthesize_c4_k3.schema1.cert.json"], 0),
    ("synthesize_k3_refused", ["synthesize", "{golden}/k3.edges", "--k", "3"], 2),
    # C4's two classes of two are adjacent: a connected union of 4 vertices
    ("synthesize_c4_k4_refused", ["synthesize", "{golden}/c4.edges", "--k", "4"], 2),
    ("synthesize_k33_k3", ["synthesize", "{golden}/k33.edges", "--k", "3"], 0),
    ("derivations_c4_k3", ["derivations", "{golden}/c4.edges", "--k", "3"], 0),
    ("derivations_step2",
     ["derivations", "{golden}/step2.edges", "--quotient", "{golden}/step2.json"], 0),
    ("derivations_step3",
     ["derivations", "{golden}/step3.edges", "--quotient", "{golden}/step3.json"], 0),
    ("search_step2",
     ["search", "{golden}/step2.edges", "--quotient", "{golden}/step2.json",
      "--entry-bound", "2", "--budget", "60"], 0),
    ("search_step3",
     ["search", "{golden}/step3.edges", "--quotient", "{golden}/step3.json",
      "--entry-bound", "1", "--budget", "24"], 0),
    ("search_control_c4",
     ["search", "{golden}/c4.edges", "--k", "2", "--entry-bound", "2", "--budget", "500"], 0),
]


def _run(argv, tmp):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(golden=GOLDEN, tmp=tmp) for a in argv])
    if "--out" in argv and code == 0:
        doc = json.loads((Path(tmp) / "cert.json").read_text())
        top = doc["degree_blocks"][str(doc["k"])]
        top[0][0] += 1
        (Path(tmp) / "tampered.json").write_text(json.dumps(doc))
    return code, out.getvalue()


def _outputs(tmp):
    """Run every case in order; yields (case, expected code, code, stdout)."""
    for case, argv, expected in CASES:
        code, out = _run(argv, tmp)
        yield case, expected, code, out


def test_golden_cli_outputs(tmp_path):
    for case, expected, code, out in _outputs(tmp_path):
        assert code == expected, case
        assert out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8"), case
    assert (tmp_path / "cert.json").read_bytes() == (GOLDEN / CERT).read_bytes()


def test_derivations_never_read_full_matrices(monkeypatch, tmp_path):
    # the CLI only counts derivations, so it never extends them to matrices
    def unread(self):
        raise AssertionError("DerivationAlgebra.basis was read")

    monkeypatch.setattr(DerivationAlgebra, "basis", property(unread))
    cases = [(case, argv) for case, argv, _ in CASES if argv[0] == "derivations"]
    assert len(cases) == 3
    for case, argv in cases:
        code, out = _run(argv, tmp_path)
        assert code == 0, case
        assert out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8"), case


def test_control_search_has_36_findings():
    doc = json.loads((GOLDEN / "search_control_c4.stdout").read_text(encoding="utf-8"))
    assert len(doc["findings"]) == 36


def _record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case, expected, code, out in _outputs(tmp):
            if code != expected:
                sys.exit(f"{case}: exit code {code}, expected {expected}")
            (GOLDEN / f"{case}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / CERT).write_bytes((Path(tmp) / "cert.json").read_bytes())


if __name__ == "__main__":
    _record()
