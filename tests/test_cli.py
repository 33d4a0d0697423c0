import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import anosograph
from anosograph.cli import main

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
], ids=["null-exponents", "non-list-degree-block"])
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


GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_synthesize_budget_exhausted_exit_4(capsys, c4_path):
    code, out = run(capsys, "synthesize", c4_path, "--k", "2", "--budget", "0")
    assert code == 4
    assert json.loads(out)["admits"] is True


def test_usage_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("a a\n")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.edges")]) == 1
    assert main(["nonsense"]) == 1


def test_byte_identical_output(capsys, c4_path):
    _, a = run(capsys, "synthesize", c4_path, "--k", "2", "--seed", "0")
    _, b = run(capsys, "synthesize", c4_path, "--k", "2", "--seed", "0")
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
