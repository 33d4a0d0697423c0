import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import anosograph
from anosograph import anosov
from anosograph.anosov import companion_matrix
from anosograph.cli import COMMANDS, REQUIRED, main, parse_args
from anosograph.graphs import parse_graph
from oracles import argparse_reference, mignotte_palindromic

GOLDEN = Path(__file__).resolve().parent / "golden"
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


def test_indeterminate_enclosure_exit_1(tmp_path):
    a = companion_matrix(mignotte_palindromic())
    text = "".join(f"vertex: v{i}\n" for i in range(6))
    graph_path = tmp_path / "six.edges"
    graph_path.write_text(text)
    doc = {
        "schema": 1,
        "graph_digest": parse_graph(text).digest(),
        "k": 2,
        "classes": [[f"v{i}" for i in range(6)]],
        "components": [{"matrix": a}],
        "exponents": [1],
        "degree_blocks": {"1": a, "2": []},
        "char_polys": {},
        "unit_root_certs": {},
        "determinants": {},
    }
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(anosograph.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "anosograph.cli", "verify", str(graph_path),
         "--certificate", str(cert_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "could not certify enclosures" in proc.stderr


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


@pytest.mark.parametrize("tamper, field", [
    (lambda doc: doc.update(extra=_nested_list(900)), "extra"),
    (lambda doc: doc["components"][0].update(extra=_nested_list(900)), "components[0].extra"),
    (lambda doc: doc.update({"x" * 100000: 1}), "x" * 64),
], ids=["top-level", "component", "long-key"])
def test_unknown_certificate_key_exit_1(capsys, tmp_path, tamper, field):
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
    tamper(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    err = _assert_one_error_line(capsys, ["verify", str(GOLDEN / "c4.edges"),
                                          "--certificate", str(cert_path)])
    assert err == f"error: cannot load certificate: malformed certificate field {field!r}\n"


def test_nested_spec_coefficient_is_one_short_line(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"step": 3, "vector": {"a.a.b": _nested_list(900)}}))
    err = _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step3.edges"),
                                          "--quotient", str(spec)])
    assert "(got a list)" in err and len(err) < 200


@pytest.mark.parametrize("vector, quoted", [
    ({"a." * 50000 + "b": 1}, "a." * 32),  # not a degree-3 basis word
    ({"a.a." + "x" * 100000: 1}, repr("x" * 64)),  # unknown vertex
    ({"a.a." + "b" * 100000: [1]}, "a.a." + "b" * 60),  # bad coefficient
], ids=["word", "vertex", "coefficient"])
def test_long_spec_text_is_cut_in_the_error_line(capsys, tmp_path, vector, quoted):
    # a word or label from the spec is quoted by its first 64 characters only
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"step": 3, "vector": vector}))
    err = _assert_one_error_line(capsys, ["derivations", str(GOLDEN / "step3.edges"),
                                          "--quotient", str(spec)])
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
    # recorded field can be wrong
    doc = json.loads((GOLDEN / "synthesize_c4_k3.cert.json").read_text())
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


def _misrecord_component(doc):
    doc["components"][0]["char_poly"] = [7]
    doc["components"][0]["products"] = {"ok": False}


def _bool_r_max(doc):
    doc["components"][0]["r_max"] = True


def _float_coefficient(doc):
    doc["components"][0]["char_poly"][-1] = 1.0


@pytest.mark.parametrize("tamper, field", [
    (_misrecord_component, "char_poly"),
    (_bool_r_max, "r_max"),
    (_float_coefficient, "char_poly"),
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
