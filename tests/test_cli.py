import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import anosograph
from anosograph import anosov
from anosograph.anosov import companion_matrix
from anosograph.cli import COMMANDS, REQUIRED, main, parse_args
from anosograph.graphs import coherent_components, parse_graph
from anosograph.intpoly import trace_polynomial
from oracles import argparse_reference, mignotte_palindromic

GOLDEN = Path(__file__).resolve().parent / "golden"
CERT = "synthesize_c4_k3.cert.json"
C4_TEXT = "a b\nb c\nc d\nd a\n"
K3_TEXT = "a b\nb c\nc a\n"


@pytest.fixture
def c4_path(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text(C4_TEXT)
    return str(p)


@pytest.fixture
def k3_path(tmp_path):
    p = tmp_path / "k3.edges"
    p.write_text(K3_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_c4(capsys, c4_path):
    code, out = run(capsys, "analyze", c4_path, "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verdict"]["admits"] is True
    assert doc["partition"]["classes"] == [["a", "c"], ["b", "d"]]


def test_dims_c4_k3(capsys, c4_path):
    code, out = run(capsys, "dims", c4_path, "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 4, 12]
    assert doc["total"] == 20


def test_dims_reads_the_closed_form(capsys, c4_path, monkeypatch):
    def no_build(graph, k):
        raise AssertionError("dims must not build the algebra")

    monkeypatch.setattr("anosograph.cli.quotient_algebra", no_build)
    code, out = run(capsys, "dims", c4_path, "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["dims"], doc["total"], doc["ideal_dims"]) == ([4, 4, 12], 20, [0, 2, 8])
    assert main(["dims", c4_path, "--k", "1"]) == 1
    assert "step k must be >= 2" in capsys.readouterr().err


def test_synthesize_not_admissible_exit_2(capsys, k3_path):
    code, out = run(capsys, "synthesize", k3_path, "--k", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["admits"] is False
    assert doc["violations"]


def test_synthesize_verify_round_trip(capsys, c4_path, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, _ = run(capsys, "synthesize", c4_path, "--k", "2", "--out", cert_path)
    assert code == 0
    code, out = run(capsys, "verify", c4_path, "--certificate", cert_path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_synthesize_verify_round_trip_k33_k4(capsys, tmp_path):
    # blocks up to 132 x 132 with coefficients up to 266 bits; the failing
    # ladder rungs have degree-132 blocks whose gcd(p, rev p) has degree 48
    # and 12, so the lift and the exact-division check run on them
    cert_path = str(tmp_path / "cert.json")
    graph = str(GOLDEN / "k33.edges")
    code, _ = run(capsys, "synthesize", graph, "--k", "4", "--out", cert_path)
    assert code == 0
    code, out = run(capsys, "verify", graph, "--certificate", cert_path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_failure_exit_3(capsys, c4_path, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "synthesize", c4_path, "--k", "2", "--out", cert_path)
    doc = json.loads(open(cert_path).read())
    doc["degree_blocks"]["2"][0][0] += 1
    open(cert_path, "w").write(json.dumps(doc))
    code, out = run(capsys, "verify", c4_path, "--certificate", cert_path)
    assert code == 3
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.update(exponents=None),
    lambda doc: doc["degree_blocks"].update({"2": 5}),
    # each equals the recorded value under Python equality: true == 1 == 1.0
    lambda doc: doc["determinants"].update({"2": True}),
    lambda doc: doc["char_polys"]["1"].__setitem__(-1, 1.0),
    lambda doc: doc["unit_root_certs"]["1"]["symmetric_factor"].__setitem__(0, True),
], ids=["null-exponents", "non-list-degree-block", "bool-determinant",
        "float-char-poly", "bool-in-unit-root-cert"])
def test_malformed_certificate_exit_1(capsys, c4_path, tmp_path, tamper):
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "synthesize", c4_path, "--k", "2", "--out", cert_path)
    doc = json.loads(open(cert_path).read())
    tamper(doc)
    open(cert_path, "w").write(json.dumps(doc))
    code = main(["verify", c4_path, "--certificate", cert_path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load certificate")


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.update(k=40),
    lambda doc: doc["degree_blocks"].update({"9": [[2, 1], [1, 1]]}),
    lambda doc: doc["degree_blocks"].update({"9": [[1, 0], [0, 1]]}),
], ids=["k-40", "extra-hyperbolic-degree", "extra-identity-degree"])
def test_block_shape_checked_before_algebra(capsys, tmp_path, tamper):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert time.perf_counter() - start < 5
    assert code == 3
    assert json.loads(out)["report"]["first_failure"] == "block-shape"


def test_block_shape_of_a_large_k_is_quick(capsys, tmp_path):
    # 1x1 blocks for degrees 4..5000: the dimension count stops at the
    # independent sets of C4 instead of running its recurrence to k = 5000
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    doc["k"] = 5000
    doc["degree_blocks"].update({str(m): [[1]] for m in range(4, 5001)})
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert time.perf_counter() - start < 2
    assert code == 3
    assert json.loads(out)["report"]["first_failure"] == "block-shape"


@pytest.mark.parametrize("command", ["dims", "verify"])
def test_recursion_past_the_limit_is_one_error_line(capsys, tmp_path, command):
    # the independence sum of a 2,200-vertex path at k = 1100 recurses
    # 1,101 deep: the path is connected and no two of its vertices are
    # twins; verify reaches it through the block-shape check of a
    # certificate that passes every earlier check, one class per vertex
    n, k = 2200, 1100
    text = "".join(f"v{i} v{i + 1}\n" for i in range(n - 1))
    graph = tmp_path / "path.edges"
    graph.write_text(text)
    g = parse_graph(text)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "schema": 1, "graph_digest": g.digest(), "k": k,
        "classes": coherent_components(g).class_labels(),
        "components": [{"matrix": [[0]]}] * n, "exponents": [1] * n,
        "degree_blocks": {str(m): [] for m in range(1, k + 1)},
        "char_polys": {}, "unit_root_certs": {}, "determinants": {}}))
    argv = {"dims": ["dims", str(graph), "--k", str(k)],
            "verify": ["verify", str(graph), "--certificate", str(cert)]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_dims_of_1000_isolated_vertices_at_k_1000(capsys, tmp_path):
    # the 1,000 vertices are false twins, one item of the independence sum
    graph = tmp_path / "isolated.edges"
    graph.write_text("".join(f"vertex: v{i}\n" for i in range(1000)))
    start = time.perf_counter()
    code, out = run(capsys, "dims", str(graph), "--k", "1000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["dims"] == [1000] + [0] * 999


def test_dims_of_a_480_edge_matching_at_k_960(capsys, tmp_path):
    # no two vertices are twins, but each edge is a component of the
    # independence sum, so I(-t) = (1 - 2t)^e is taken as a product.  Then
    # -log I(-t) = e sum_m (2t)^m / m, so e 2^m = sum_{d | m} d dims[d]
    e, k = 480, 960
    graph = tmp_path / "matching.edges"
    graph.write_text("".join(f"u{i} v{i}\n" for i in range(e)))
    start = time.perf_counter()
    code, out = run(capsys, "dims", str(graph), "--k", str(k))
    assert time.perf_counter() - start < 2
    assert code == 0
    dims = json.loads(out)["dims"]
    assert len(dims) == k
    for m in range(1, k + 1):
        assert sum(d * dims[d - 1] for d in range(1, m + 1) if m % d == 0) == e * 2 ** m, m


def test_edgeless_pair_at_large_k(capsys, tmp_path):
    # degree 2 of the edgeless pair lies wholly in the ideal, so every later
    # degree does too; neither command lists or eliminates those degrees
    graph = tmp_path / "pair.edges"
    graph.write_text("vertex: a\nvertex: b\n")
    cert_path = str(tmp_path / "cert.json")
    for argv in (["synthesize", str(graph), "--k", "40", "--out", cert_path],
                 ["verify", str(graph), "--certificate", cert_path]):
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["report"]["determinants"]["40"] == 1


@pytest.mark.parametrize("exponent, detail", [
    (4, "degree-one block is not the recorded block-diagonal power"),
    (23, "degree-one block is not the recorded block-diagonal power"),
    (24, "exponent 24 is too large"),  # 4*d*bit_length(d*M) with d = 2, M = 3
    (10 ** 9, "exponent 1000000000 is too large"),
])
def test_exponent_bounded_before_powering(capsys, tmp_path, exponent, detail):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    doc["exponents"][1] = exponent
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert time.perf_counter() - start < 1
    assert code == 3
    report = json.loads(out)["report"]
    assert report["first_failure"] == "degree-one-shape"
    assert report["checks"][-1]["detail"].startswith(detail)


def test_close_roots_get_a_trace_witness_exit_0(capsys, tmp_path):
    # one class of 6 isolated vertices whose degree-one block is the
    # companion of a polynomial with roots about 2^-200 apart: root disks
    # at 256 bits could not separate them (exit 1), the trace polynomial
    # needs no separation
    a = companion_matrix(mignotte_palindromic())
    text = "".join(f"vertex: v{i}\n" for i in range(6))
    graph_path = tmp_path / "six.edges"
    graph_path.write_text(text)
    ok, payload = anosov._check_blocks({1: a, 2: []}, anosov.unit_root_free)
    assert ok
    recorded = {field: {str(m): v for m, v in values.items()}
                for field, values in anosov._recorded(payload).items()}
    assert recorded["unit_root_certs"]["1"]["witness"] == {
        "trace_poly": trace_polynomial(mignotte_palindromic()).to_json()}
    doc = {
        "schema": 2,
        "graph_digest": parse_graph(text).digest(),
        "k": 2,
        "classes": [[f"v{i}" for i in range(6)]],
        "components": [anosov._component(a, anosov.char_poly(a), 2).to_json()],
        "exponents": [1],
        "degree_blocks": {"1": a, "2": []},
        **recorded,
    }
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(graph_path), "--certificate", str(cert_path))
    assert code == 0 and json.loads(out)["ok"] is True


def test_synthesize_has_no_component_search_options(capsys, c4_path):
    for option in ("--coeff-bound", "--seed", "--max-exponent", "--budget"):
        assert main(["synthesize", c4_path, "--k", "2", option, "0"]) == 1
        assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err


def test_synthesize_budget_exhausted_exit_4(capsys, c4_path, monkeypatch):
    # one rung, (1, 1), whose degree-two block has a unit-modulus eigenvalue
    monkeypatch.setattr(anosov, "MAX_RUNGS", 1)
    code, out = run(capsys, "synthesize", c4_path, "--k", "2")
    assert code == 4
    doc = json.loads(out)
    assert doc["admits"] is True
    assert doc["error"] == ("synthesis budget 1 exhausted (last failure: exponents (1, 1): "
                            "degree-2 block has a unit-modulus eigenvalue)")


def test_synthesize_ladder_exhausted_exit_4(capsys, c4_path, monkeypatch):
    monkeypatch.setattr(anosov, "MAX_EXPONENT", 1)
    code, out = run(capsys, "synthesize", c4_path, "--k", "2")
    assert code == 4
    doc = json.loads(out)
    assert doc["admits"] is True
    assert doc["error"].startswith("exponent ladder exhausted at max_exponent 1 ")


def test_synthesize_unwritable_out_exit_1(capsys, c4_path, tmp_path):
    out_path = tmp_path / "no" / "such" / "dir" / "c.json"
    code = main(["synthesize", c4_path, "--k", "2", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out_path}: ")
    assert captured.err.count("\n") == 1


def _nested_list(depth):
    v = []
    for _ in range(depth):
        v = [v]
    return v


def _assert_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_deeply_nested_certificate_exit_1(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("[" * 100000)
    _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                    "--certificate", str(cert_path)])


def test_deeply_nested_certificate_field_exit_1(capsys, tmp_path):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    doc["unit_root_certs"]["1"]["nested"] = _nested_list(900)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                    "--certificate", str(cert_path)])


def _bogus_block_first(key):
    # int() reads key as degree 1, and the real block after it would
    # overwrite the bogus one, which would then go unchecked
    def tamper(doc):
        n = len(doc["degree_blocks"]["1"])
        doc["degree_blocks"] = {key: [[7] * n for _ in range(n)], **doc["degree_blocks"]}
    return tamper


def _rekey_determinant(doc):
    doc["determinants"] = {("0" + m if m == "2" else m): v
                           for m, v in doc["determinants"].items()}


@pytest.mark.parametrize("tamper, field", [
    (lambda doc: doc.update(extra=_nested_list(900)), "extra"),
    (lambda doc: doc["components"][0].update(extra=_nested_list(900)), "components[0].extra"),
    (lambda doc: doc.update({"x" * 100000: 1}), "x" * 64),
    (_bogus_block_first("01"), "degree_blocks"),
    (_bogus_block_first(" 1"), "degree_blocks"),
    (_bogus_block_first("+1"), "degree_blocks"),
    (_rekey_determinant, "determinants"),
], ids=["top-level", "component", "long-key", "degree-key-leading-zero",
        "degree-key-leading-space", "degree-key-plus-sign", "degree-key-only-copy"])
def test_unknown_certificate_key_exit_1(capsys, tmp_path, tamper, field):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    err = _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                          "--certificate", str(cert_path)])
    assert err == f"error: cannot load certificate: malformed certificate field {field!r}\n"


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.update(schema=99),
    lambda doc: doc.update(schema=None),
    lambda doc: doc.update(schema=True),
    lambda doc: doc.update(schema=_nested_list(900)),
    lambda doc: doc.pop("schema"),
], ids=["99", "null", "true", "deep-list", "missing"])
def test_certificate_schema_must_be_1_or_2(capsys, tmp_path, tamper):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    err = _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                          "--certificate", str(cert_path)])
    reason = "malformed certificate field 'schema'" if "schema" in doc else "'schema'"
    assert err == f"error: cannot load certificate: {reason}\n"


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.update(schema=99),
    lambda doc: doc.update(schema=None),
    lambda doc: doc.update(schema=True),
    lambda doc: doc.update(schema=_nested_list(900)),
    lambda doc: doc.pop("schema"),
], ids=["99", "null", "true", "deep-list", "missing"])
def test_certificate_schema_must_be_1(capsys, tmp_path, tamper):
    # a certificate with root disks is refused at load the same way when
    # its schema field is malformed
    doc = json.loads((GOLDEN / "synthesize_c4_k3.schema1.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    err = _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                          "--certificate", str(cert_path)])
    reason = "malformed certificate field 'schema'" if "schema" in doc else "'schema'"
    assert err == f"error: cannot load certificate: {reason}\n"


def test_nested_spec_coefficient_is_one_short_line(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"step": 3, "vector": {"a.a.b": _nested_list(900)}}))
    err = _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step3.edges"),
                                          "--quotient", str(spec)])
    assert "(got a list)" in err and len(err) < 200


def test_bool_spec_coefficient_exit_1(capsys, tmp_path):
    # Python takes true for 1; a spec coefficient is a number or a string
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"step": 3, "vector": {"a.a.b": True}}))
    err = _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step3.edges"),
                                          "--quotient", str(spec)])
    assert "(got a bool)" in err


def _spec_file(vector):
    return "spec.json", json.dumps({"step": 3, "vector": vector})


@pytest.mark.parametrize("name, text, quoted", [
    (*_spec_file({"a." * 50000 + "b": 1}), "a." * 32),  # not a degree-3 basis word
    (*_spec_file({"a.a." + "x" * 100000: 1}), repr("x" * 64)),  # unknown vertex
    (*_spec_file({"a.a." + "b" * 100000: [1]}), "a.a." + "b" * 60),  # bad coefficient
    ("g.edges", "a b c" + "x" * 99995 + "\n", repr("a b c" + "x" * 59)),  # not 'u v'
    ("g.edges", "y" * 100000 + " " + "y" * 100000 + "\n", repr("y" * 64)),  # self-loop
], ids=["word", "vertex", "coefficient", "edge-line", "self-loop"])
def test_long_spec_text_is_cut_in_the_error_line(capsys, tmp_path, name, text, quoted):
    # a line, word or label from an input file is quoted by its first 64
    # characters only
    path = tmp_path / name
    path.write_text(text)
    if name.endswith(".edges"):
        argv = ["dims", str(path), "--k", "2"]
    else:
        argv = ["derivations", str(GOLDEN / "step3.edges"), "--quotient", str(path)]
    err = _assert_one_error_line(capsys, argv)
    assert quoted in err and len(err) < 200


def test_step2_unknown_vertex_is_cut_in_the_error_line(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"step": 2, "alpha": "y" * 100000, "beta": "b",
                                "gamma": "c", "delta": "d"}))
    err = _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step2.edges"),
                                          "--quotient", str(spec)])
    assert err == f"error: unknown vertex {'y' * 64!r}\n"


def test_closed_stdout_is_no_traceback():
    # `anosograph analyze ... | head -1` after head has gone: the write fails
    # with EPIPE, which ends the run without a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(anosograph.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "anosograph.cli", "analyze", str(GOLDEN / "c4.edges"),
             "--k", "3"], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and done.stderr.count("\n") <= 1


def test_command_runs_with_the_imports_frozen(capsys, c4_path, monkeypatch):
    # the objects alive at the start are out of the command's collections,
    # and main leaves nothing frozen behind
    import gc

    frozen = []
    handler, text, options = COMMANDS["dims"]

    def recording(args):
        frozen.append(gc.get_freeze_count())
        return handler(args)

    monkeypatch.setitem(COMMANDS, "dims", (recording, text, options))
    assert main(["dims", c4_path, "--k", "3"]) == 0
    assert frozen[0] > 0 and gc.get_freeze_count() == 0


def test_deeply_nested_spec_exit_1(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"step": 3, "vector": ' + "[" * 100000 + "]" * 100000 + "}")
    _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step3.edges"),
                                    "--quotient", str(spec)])


def test_usage_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("a a\n")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.edges")]) == 1
    assert main(["nonsense"]) == 1


def test_byte_identical_output(capsys, c4_path):
    code_a, a = run(capsys, "synthesize", c4_path, "--k", "2")
    code_b, b = run(capsys, "synthesize", c4_path, "--k", "2")
    assert code_a == code_b == 0
    assert a == b
    _, c = run(capsys, "analyze", c4_path, "--k", "3")
    _, d = run(capsys, "analyze", c4_path, "--k", "3")
    assert c == d


def test_derivations_command(capsys, c4_path):
    code, out = run(capsys, "derivations", c4_path, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 4]
    assert doc["dim_der"] > 0


def test_derivations_with_quotient_spec(capsys, tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nc d\na c\na d\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"step": 2, "alpha": "a", "beta": "b", "gamma": "c", "delta": "d"}))
    code, out = run(capsys, "derivations", str(graph), "--quotient", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient_dims"] == [4, 3]
    assert doc["span_report"]["ok"] is True
    assert doc["lift_check"] is True


def test_derivations_with_quotient_spec_builds_and_solves_once(monkeypatch, capsys):
    from anosograph import cli, derivations, liealg

    calls = {"build_graded_quotient": 0, "derivation_algebra": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = counted(liealg.build_graded_quotient)
    solve = counted(derivations.derivation_algebra)
    monkeypatch.setattr(liealg, "build_graded_quotient", build)
    monkeypatch.setattr(derivations, "build_graded_quotient", build)
    monkeypatch.setattr(derivations, "derivation_algebra", solve)
    monkeypatch.setattr(cli, "derivation_algebra", solve)
    code, out = run(capsys, "derivations", str(GOLDEN / "step2.edges"),
                    "--quotient", str(GOLDEN / "step2.json"))
    assert code == 0
    assert out == (GOLDEN / "derivations_step2.stdout").read_text(encoding="utf-8")
    # one quotient and, for the lift check, the unquotiented algebra
    assert calls == {"build_graded_quotient": 2, "derivation_algebra": 1}


def test_search_command(capsys, tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nc d\na c\na d\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"step": 2, "alpha": "a", "beta": "b", "gamma": "c", "delta": "d"}))
    code, out = run(capsys, "search", str(graph), "--quotient", str(spec),
                    "--entry-bound", "1", "--budget", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["findings"] == []
    assert doc["searched"]["budget"] == 500


@pytest.mark.parametrize("text, flags", [
    ("a b\n", []),  # box 5^4 = 625, below the default budget
    ("vertex: a\n", ["--entry-bound", "1", "--budget", "10"]),  # box 3
])
def test_search_stops_when_box_is_exhausted(tmp_path, text, flags):
    graph = tmp_path / "g.edges"
    graph.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(anosograph.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "anosograph.cli", "search", str(graph), *flags],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["findings"] == []


def test_search_negative_entry_bound_exit_1(capsys, c4_path):
    assert main(["search", c4_path, "--entry-bound", "-1"]) == 1
    assert capsys.readouterr().err == "error: entry bound must be >= 0, not -1\n"


def test_search_negative_budget_exit_1(capsys, c4_path):
    assert main(["search", c4_path, "--budget", "-1"]) == 1
    assert capsys.readouterr().err == "error: budget must be >= 0, not -1\n"


def test_bad_spec_exit_1(capsys, tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nc d\na c\n")  # missing alpha-delta edge
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"step": 2, "alpha": "a", "beta": "b", "gamma": "c", "delta": "d"}))
    assert main(["derivations", str(graph), "--quotient", str(spec)]) == 1
    malformed = [
        [1, 2],
        {"step": 2, "alpha": ["a"], "beta": "b", "gamma": "c", "delta": "d"},
        {"step": 3, "vector": {"a.a.b": None}},
        {"step": 3, "vector": {"a.a.b": [1]}},
        {"step": 3, "vector": {"a.a.b": "1/0"}},
        {"step": 3, "vector": {"a.a.b": "1/2/3"}},
        {"step": 3, "vector": {"a.z.b": 1}},
    ]
    for doc in malformed:
        capsys.readouterr()
        spec.write_text(json.dumps(doc))
        assert main(["derivations", str(graph), "--quotient", str(spec)]) == 1, doc
        assert capsys.readouterr().err.startswith("error: "), doc


def test_text_format(capsys, c4_path):
    code, out = run(capsys, "dims", c4_path, "--k", "3", "--format", "text")
    assert code == 0
    assert "total: 20" in out


# -- the argument parser against argparse ----------------------------------------

def _reference(argv):
    """argparse's namespace for argv as a dict, or its exit code."""
    try:
        return vars(argparse_reference().parse_args(argv))
    except SystemExit as e:
        return e.code


def _parsed(argv):
    try:
        return vars(parse_args(argv))
    except SystemExit as e:
        return e.code


def _sample(kind, i):
    """A valid value for an option of this kind, varied by i."""
    if kind is int:
        return str(i - 1)  # i = 0 gives a negative number
    return kind[i % len(kind)] if isinstance(kind, tuple) else f"file{i}.json"


def _shortest_prefix(flag, flags):
    return next(flag[:n] for n in range(3, len(flag) + 1)
                if [f for f in flags if f.startswith(flag[:n])] == [flag])


@pytest.mark.parametrize("name", list(COMMANDS))
def test_parser_matches_argparse_on_valid_argv(name, capsys):
    options = COMMANDS[name][2]
    flags = [flag for flag, *_ in options] + ["--help"]
    required = [arg for flag, _, default, _ in options if default is REQUIRED
                for arg in (flag, "req.json")]
    rng = random.Random(name)
    argvs = [[name, "g.edges", *required], [name, *required, "--", "-g.edges"]]
    for i in range(8):
        pairs = [[flag, _sample(kind, i)] for flag, kind, _, _ in options]
        if i % 2:  # repeated options: the last value wins
            pairs += [[flag, _sample(kind, i + 1)] for flag, kind, _, _ in options]
        for pair in pairs:
            if i % 4 >= 2:
                pair[0] = _shortest_prefix(pair[0], flags)
            if i % 3 == 1:
                pair[:] = ["=".join(pair)]
        pairs.append(["g.edges"])
        rng.shuffle(pairs)
        argvs.append([name] + [token for pair in pairs for token in pair])
    for argv in argvs:
        expected = _reference(argv)
        assert isinstance(expected, dict), (argv, capsys.readouterr().err)
        assert _parsed(argv) == expected, argv


@pytest.mark.parametrize("name", list(COMMANDS))
def test_parser_matches_argparse_on_usage_errors(name, capsys):
    options = COMMANDS[name][2]
    required = [arg for flag, _, default, _ in options if default is REQUIRED
                for arg in (flag, "req.json")]
    ok = [name, "g.edges", *required]
    argvs = [
        [name, *required],  # no graph
        ok + ["extra.edges"],
        ok + ["--bogus", "1"],
        ok + ["-k", "1"],
        ok + ["--=1"],  # a prefix of every option
        ok + ["--format"],
        ok + ["--format", "-x"],
        ok + ["--format", "--format", "text"],
        ok + ["--format", "xml"],
        ok + ["--format=JSON"],
    ]
    argvs += [ok + [flag, "x"] for flag, kind, _, _ in options if kind is int]
    argvs += [ok + [flag] for flag, _, _, _ in options]
    if required:  # the required option missing, or its value missing
        argvs += [[name, "g.edges"], [name, "g.edges", required[0]]]
    for argv in [[], ["nonsense", "g.edges"], ["-k"]] + argvs:
        assert _reference(argv) == 1, argv
        assert _parsed(argv) == 1, argv
        capsys.readouterr()
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: anosograph"), argv
        assert "\nerror: " in captured.err, argv


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_program_help_on_stdout(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: anosograph")
    for name in COMMANDS:
        assert name in captured.out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_help_on_stdout(capsys, name):
    for flag in ("-h", "--help", "--he"):
        assert main([name, flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"usage: anosograph {name} ")
        for option, *_ in COMMANDS[name][2]:
            assert f"\n  {option} " in captured.out, (name, option)


def _bump_char_poly(doc):
    doc["char_polys"]["2"][1] += 1


def _flip_determinant(doc):
    doc["determinants"]["3"] = -doc["determinants"]["3"]


def _widen_margin(doc):
    doc["unit_root_certs"]["2"]["witness"]["min_margin"] = "1"


@pytest.mark.parametrize("tamper, check", [
    (_bump_char_poly, "recorded-char-polys"),
    (_flip_determinant, "recorded-determinants"),
    (_widen_margin, "recorded-unit-root-certs"),
])
def test_verify_compares_recorded_spectral_fields(capsys, tmp_path, tamper, check):
    # the blocks are untouched, so every re-derivation passes and only the
    # recorded field can be wrong; root disks, and their margins, are in
    # the schema-1 certificate only
    name = "synthesize_c4_k3.schema1.cert.json" if tamper is _widen_margin else CERT
    doc = json.loads((GOLDEN / name).read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert code == 3
    report = json.loads(out)["report"]
    assert report["first_failure"] == check
    assert [c["name"] for c in report["checks"] if c["ok"]][-2:] == [
        "unimodularity", "unit-root-freeness"]
    field = check.removeprefix("recorded-").replace("-", "_")
    assert report["checks"][-1]["detail"] == f"recorded {field} differ from the re-derived ones"


def _bump_trace_poly(doc):
    doc["unit_root_certs"]["2"]["witness"]["trace_poly"][0] += 1


def _drop_trace_poly(doc):
    del doc["unit_root_certs"]["3"]["witness"]["trace_poly"]


def _drop_witness(doc):
    del doc["unit_root_certs"]["2"]["witness"]


def _disks_as_schema_2(doc):
    # a schema-1 certificate relabelled: root disks where a trace polynomial belongs
    doc["schema"] = 2


def _move_center(doc):
    center = doc["unit_root_certs"]["3"]["witness"]["root_enclosures"][0]["center"]
    center[0] = str(Fraction(center[0]) + Fraction(1, 2 ** 64))


@pytest.mark.parametrize("name, tamper", [
    (CERT, _bump_trace_poly),
    (CERT, _drop_trace_poly),
    (CERT, _drop_witness),
    ("synthesize_c4_k3.schema1.cert.json", _disks_as_schema_2),
    ("synthesize_c4_k3.schema1.cert.json", _move_center),
], ids=["changed-trace-poly", "removed-trace-poly", "removed-witness", "disks-as-schema-2",
        "moved-center"])
def test_verify_refuses_a_tampered_unit_root_witness(capsys, tmp_path, name, tamper):
    doc = json.loads((GOLDEN / name).read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert code == 3
    assert json.loads(out)["report"]["first_failure"] == "recorded-unit-root-certs"


def _misrecord_component(doc):
    doc["components"][0]["char_poly"] = [7]
    doc["components"][0]["products"] = {"ok": False}


def _bool_r_max(doc):
    doc["components"][0]["r_max"] = True


def _float_coefficient(doc):
    doc["components"][0]["char_poly"][-1] = 1.0


def _string_candidate_index(doc):
    doc["components"][0]["candidate_index"] = "2"


def _deep_candidate_index(doc):
    doc["components"][0]["candidate_index"] = _nested_list(900)


def _drop_candidate_index(doc):
    del doc["components"][0]["candidate_index"]


@pytest.mark.parametrize("tamper, field", [
    (_misrecord_component, "char_poly"),
    (_bool_r_max, "r_max"),
    (_float_coefficient, "char_poly"),
    (_string_candidate_index, "candidate_index"),
    (_deep_candidate_index, "candidate_index"),
    (_drop_candidate_index, "candidate_index"),
])
def test_verify_compares_recorded_components(capsys, tmp_path, tamper, field):
    # true and 1.0 equal 1 in Python, so the comparison is of JSON text
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(GOLDEN / "c4.edges"), "--certificate", str(cert_path))
    assert code == 3
    report = json.loads(out)["report"]
    assert report["first_failure"] == "recorded-components"
    assert report["checks"][-1]["detail"] == (
        f"component 0: recorded {field} differs from the re-derived one")
