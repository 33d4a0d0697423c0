import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from anosograph.derivations import (
    QuotientSpec,
    SpecError,
    build_quotient,
    derivation_algebra,
    hyperbolic_search,
    lift_check,
    span_report,
)
from anosograph.graphs import graph_from_edges, parse_graph
from anosograph.liealg import build_graded_quotient, non_edge_relations, quotient_algebra
from anosograph import linalg
from oracles import (
    all_graphs_up_to_iso,
    derivation_identity_holds,
    derivations_dense,
    edgeless_graph,
    local_rank,
    product_hyperbolic,
    search_reference,
)

S5_GRAPH = parse_graph("a b\nc d\na c\na d")
S5_SPEC = QuotientSpec(step=2, vertices=("a", "b", "c", "d"))
C4 = parse_graph("a b\nb c\nc d\nd a")
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_graph(name):
    return parse_graph((GOLDEN / f"{name}.edges").read_text())


def golden_quotient(name):
    return build_quotient(golden_graph(name), QuotientSpec.from_json(
        json.loads((GOLDEN / f"{name}.json").read_text())))


def s6_spec(graph, coeffs=(Fraction(1),)):
    """X = sum of coeffs[i] * w_i over the first degree-3 basis words w_i."""
    h3 = quotient_algebra(graph, 3)
    return QuotientSpec(step=3, vector=tuple(
        (tuple(graph.vertices[i] for i in word), c)
        for word, c in zip(h3.basis_words[3], coeffs)))


def complete_labeled(n):
    from anosograph.graphs import graph_from_edges

    vs = ["a", "b", "c", "d", "e"][:n]
    return graph_from_edges(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])


# -- quotient building --------------------------------------------------------

def test_smallest_s5_quotient_dims():
    assert build_quotient(S5_GRAPH, S5_SPEC).dims == [4, 3]


def test_k4_s5_quotient_dims():
    assert build_quotient(complete_labeled(4), S5_SPEC).dims == [4, 5]


def test_s6_quotient_dims():
    assert build_quotient(C4, s6_spec(C4)).dims == [4, 4, 11]


def test_spec_missing_edge_rejected():
    g = parse_graph("a b\nc d\na c")  # alpha-delta edge missing
    with pytest.raises(SpecError, match="alpha delta"):
        build_quotient(g, S5_SPEC)


def test_spec_requires_distinct_vertices():
    with pytest.raises(SpecError, match="distinct"):
        QuotientSpec(step=2, vertices=("a", "a", "c", "d")).relation(
            quotient_algebra(S5_GRAPH, 2))


def test_spec_single_edge_vector_not_expressible():
    # a span of one edge bracket alone is not a valid quotient spec
    with pytest.raises(SpecError):
        QuotientSpec.from_json({"step": 2, "alpha": "a", "beta": "b"})


def test_spec_zero_vector_rejected():
    with pytest.raises(SpecError, match="nonzero"):
        QuotientSpec(step=3, vector=()).relation(quotient_algebra(C4, 3))
    spec = QuotientSpec(step=3, vector=((("a", "a", "b"), Fraction(1)),
                                        (("a", "a", "b"), Fraction(-1))))
    with pytest.raises(SpecError, match="nonzero"):
        spec.relation(quotient_algebra(C4, 3))


def test_spec_unknown_word_rejected():
    spec = QuotientSpec(step=3, vector=((("a", "c", "a"), Fraction(1)),))
    with pytest.raises(SpecError):
        spec.relation(quotient_algebra(C4, 3))


def test_step3_quotient_builds_graph_algebra_once(monkeypatch):
    # validation and the quotient share one 3-step graph algebra: one
    # elimination, and the structure constants of the quotient alone
    import anosograph.derivations as derivations
    import anosograph.liealg as liealg

    spec = s6_spec(C4)
    bases, eliminations = [], []

    def counting(graph, k):
        bases.append(quotient_algebra(graph, k))
        return bases[-1]

    def eliminating(*args):
        eliminations.append(args[1])
        return build_graded_quotient(*args)

    monkeypatch.setattr(derivations, "quotient_algebra", counting)
    monkeypatch.setattr(liealg, "build_graded_quotient", eliminating)
    q = build_quotient(C4, spec)
    assert q.dims == [4, 4, 11] and q.struct
    assert [b.k for b in bases] == [3] and eliminations == [3]
    assert "struct" not in vars(bases[0])


def _assert_same_algebra(q, ref):
    assert q.basis_words == ref.basis_words
    assert q.relation_generators == ref.relation_generators
    assert q.struct == ref.struct
    for red in ref.reductions.values():
        for w in red.words:
            assert q.project(w) == ref.project(w), w


def _step2_spec_graphs():
    """The core abcd (edges ab, cd, ac, ad) with optional bc and bd, and
    an optional fifth vertex e adjacent to any subset of abcd."""
    core = [("a", "b"), ("c", "d"), ("a", "c"), ("a", "d")]
    for extra in itertools.product((False, True), repeat=2):
        edges = core + [e for e, on in zip((("b", "c"), ("b", "d")), extra) if on]
        yield graph_from_edges("abcd", edges)
        for r in range(5):
            for nbrs in itertools.combinations("abcd", r):
                yield graph_from_edges("abcde", edges + [(v, "e") for v in nbrs])


def test_step2_quotient_equals_the_elimination_with_x():
    count = 0
    for g in _step2_spec_graphs():
        x = S5_SPEC.relation(quotient_algebra(g, 2))
        ref = build_graded_quotient(g, 2, non_edge_relations(g) + [(2, x)])
        _assert_same_algebra(build_quotient(g, S5_SPEC), ref)
        count += 1
    assert count == 4 * 17


def test_step3_quotient_equals_the_elimination_with_x():
    count = 0
    for g in all_graphs_up_to_iso(4):
        if not g.edges:
            continue
        words = quotient_algebra(g, 3).basis_words[3]
        for i, w in enumerate(words):
            label = tuple(g.vertices[v] for v in w)
            second = tuple(g.vertices[v] for v in words[(i + 1) % len(words)])
            for vector in (((label, Fraction(1)),),
                           ((label, Fraction(-3, 2)), (second, Fraction(2, 5)))):
                spec = QuotientSpec(step=3, vector=vector)
                x = spec.relation(quotient_algebra(g, 3))
                ref = build_graded_quotient(g, 3, non_edge_relations(g) + [(3, x)])
                _assert_same_algebra(build_quotient(g, spec), ref)
                count += 1
    assert count > 50


def test_spec_json_round_trip():
    spec = QuotientSpec.from_json(
        {"step": 2, "alpha": "a", "beta": "b", "gamma": "c", "delta": "d"})
    assert spec.vertices == ("a", "b", "c", "d")
    spec6 = QuotientSpec.from_json({"step": 3, "vector": {"a.a.b": 1, "a.b.c": "1/2"}})
    assert dict(spec6.vector)[("a", "b", "c")] == Fraction(1, 2)


def test_spec_json_rejects_non_string_word_key():
    # JSON object keys are always strings; a Python caller can pass others
    with pytest.raises(SpecError, match="strings"):
        QuotientSpec.from_json({"step": 3, "vector": {("a", "a", "b"): 1, "a.b.c": 1}})


# -- derivation algebras ------------------------------------------------------

def test_abelian_derivations():
    for n in range(1, 6):
        algebra = quotient_algebra(edgeless_graph(n), 2)
        assert derivation_algebra(algebra).dimension == n * n


def test_heisenberg_derivations():
    algebra = quotient_algebra(parse_graph("a b"), 2)
    assert derivation_algebra(algebra).dimension == 6


def test_heisenberg_two_constructions_agree():
    # the one-edge graph algebra is the free 2-step algebra on 2 generators
    a = quotient_algebra(parse_graph("a b"), 2)
    b = quotient_algebra(complete_labeled(2), 2)
    assert derivation_algebra(a).dimension == derivation_algebra(b).dimension == 6


def _assert_matches_dense(algebra):
    fast = derivation_algebra(algebra)
    dense = derivations_dense(algebra)
    assert fast.dimension == len(dense)
    # the fast basis lies in the dense span: adding it keeps the rank
    flat = [[x for row in m for x in row] for m in dense + fast.basis]
    assert local_rank(flat) == len(dense)
    _assert_identity_exact(algebra, fast)


def _assert_identity_exact(algebra, der):
    n = len(algebra.generators)
    for mat, images in zip(der.basis, der.maps, strict=True):
        assert derivation_identity_holds(algebra, mat)
        # the matrix extends the stored generator images
        assert {(i, j): mat[i][j] for i in range(algebra.dim) for j in range(n)
                if mat[i][j]} == images


def test_derivations_match_dense_oracle():
    # every graph on at most four vertices up to isomorphism at step 2, then
    # larger steps and quotients, the last by X = 1/2 w0 - 3/5 w1 over the
    # first two degree-3 basis words, coefficients like those the
    # benchmark's step-3 specs draw
    graphs = [g for n in range(1, 5) for g in all_graphs_up_to_iso(n)]
    assert len(graphs) == 18
    cases = [quotient_algebra(g, 2) for g in graphs] + [
        quotient_algebra(complete_labeled(3), 3),
        build_quotient(S5_GRAPH, S5_SPEC),
        build_quotient(C4, s6_spec(C4)),
        build_quotient(C4, s6_spec(C4, (Fraction(1, 2), Fraction(-3, 5)))),
    ]
    assert cases[-1].dims == [4, 4, 11]
    for algebra in cases:
        _assert_matches_dense(algebra)


def test_derivation_identity_exact():
    for algebra in (quotient_algebra(parse_graph("a b"), 2),
                    quotient_algebra(C4, 2),
                    build_quotient(S5_GRAPH, S5_SPEC),
                    build_quotient(C4, s6_spec(C4))):
        _assert_identity_exact(algebra, derivation_algebra(algebra))


def test_one_free_derivation_per_family(monkeypatch, capsys):
    # a kernel solve extends all its unknowns E_ij in one recursion: one
    # free_derivation per degree shift, and on the golden step-2 run one per
    # _derivations_in_span call with pairs, on the quotient or, for the
    # lift check, on the unquotiented algebra
    from anosograph import cli, derivations
    from anosograph.liealg import GradedLieAlgebra

    extended, solved = [], []
    family = GradedLieAlgebra.free_derivation
    solve = derivations._derivations_in_span

    def spy_family(self, images):
        extended.append(self)
        return family(self, images)

    def spy_solve(algebra, conditions, pairs):
        if pairs:
            solved.append((algebra, len(pairs)))
        return solve(algebra, conditions, pairs)

    monkeypatch.setattr(GradedLieAlgebra, "free_derivation", spy_family)
    monkeypatch.setattr(derivations, "_derivations_in_span", spy_solve)
    algebra = quotient_algebra(C4, 3)
    derivation_algebra(algebra)
    assert extended == [algebra] * 3

    extended.clear()
    solved.clear()
    code = cli.main(["derivations", str(GOLDEN / "step2.edges"),
                     "--quotient", str(GOLDEN / "step2.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "derivations_step2.stdout").read_text(
        encoding="utf-8")
    assert extended == [a for a, _ in solved]
    assert len({id(a) for a in extended}) == 2
    # each span-report family is one solve, none of them a single pair
    assert solved and all(size > 1 for _, size in solved)


def test_inner_derivations_contained():
    algebra = quotient_algebra(C4, 2)
    der = derivation_algebra(algebra)
    flat = [[x for row in m for x in row] for m in der.basis]
    rank = local_rank(flat)
    for x in range(algebra.dim):
        ad = [[Fraction(0)] * algebra.dim for _ in range(algebra.dim)]
        for j in range(algebra.dim):
            for l, c in algebra.bracket_basis(x, j).items():
                ad[l][j] = c
        assert local_rank(flat + [[v for row in ad for v in row]]) == rank


def test_inner_derivations_nilpotent():
    algebra = quotient_algebra(C4, 3)
    for x in range(algebra.dim):
        ad = [[Fraction(0)] * algebra.dim for _ in range(algebra.dim)]
        for j in range(algebra.dim):
            for l, c in algebra.bracket_basis(x, j).items():
                ad[l][j] = c
        power = linalg.mat_pow(ad, algebra.k)
        assert all(v == 0 for row in power for v in row)


def test_v_stable_subspace():
    algebra = build_quotient(S5_GRAPH, S5_SPEC)
    full = derivation_algebra(algebra)
    stable = derivation_algebra(algebra, v_stable=True)
    assert stable.dimension <= full.dimension
    n = len(algebra.generators)
    for mat in stable.basis:
        for j in range(n):
            for i in range(n, algebra.dim):
                assert mat[i][j] == 0
    # the CLI reports dim_der_v_stable as the weight-zero count of the full algebra
    assert stable.basis == [m for m, w in zip(full.basis, full.weights) if w == 0]


# -- span report and lift check -----------------------------------------------

def test_span_report_smallest():
    rep = span_report(S5_GRAPH, S5_SPEC)
    assert rep.ok
    assert rep.dim_total == 10
    dims = {k: v["dim"] for k, v in rep.families.items()}
    assert dims["diagonal"] == 3
    assert dims["W_beta_gamma__delta_alpha"] == 2
    assert dims["W_gamma_alpha__beta_delta"] == 2
    assert dims["type_iv"] == 3


def test_span_report_dimension_against_dense_oracle():
    # V-stabilizing derivations of the quotient, recomputed densely
    algebra = build_quotient(S5_GRAPH, S5_SPEC)
    n = len(algebra.generators)
    dense = derivations_dense(algebra)
    rows = []
    for mat in dense:
        rows.append([x for row in mat for x in row])
    # restrict to D(V) <= V: entries (i>=n, j<n) vanish
    constraints = []
    for mat in dense:
        ok = True
        constraints.append([mat[i][j] for j in range(n) for i in range(n, algebra.dim)])
    kernel_dim = len(dense) - local_rank([c for c in constraints if any(c)]) \
        if any(any(c) for c in constraints) else len(dense)
    assert span_report(S5_GRAPH, S5_SPEC).dim_total == kernel_dim


def test_span_report_k4_k5():
    for g in (complete_labeled(4), complete_labeled(5)):
        rep = span_report(g, S5_SPEC)
        assert rep.ok, rep.to_json()
    rep5 = span_report(complete_labeled(5), S5_SPEC)
    # maps sending the extra vertex into the quadruple exist (type ii)
    assert rep5.families["type_ii"]["dim"] + rep5.families["type_iii"]["dim"] > 0


def test_span_report_requires_step2():
    with pytest.raises(SpecError):
        span_report(C4, s6_spec(C4))


def test_lift_check_instances():
    assert lift_check(S5_GRAPH, S5_SPEC)
    assert lift_check(complete_labeled(4), S5_SPEC)
    assert lift_check(complete_labeled(5), S5_SPEC)


# -- bounded search -----------------------------------------------------------

def test_search_smallest_s5_quotient_empty_smoke():
    algebra = build_quotient(S5_GRAPH, S5_SPEC)
    assert hyperbolic_search(algebra, entry_bound=2, budget=3000) == []


def test_search_s6_quotient_empty_smoke():
    algebra = build_quotient(C4, s6_spec(C4))
    assert hyperbolic_search(algebra, entry_bound=1, budget=1500) == []


def test_search_control_finds_hyperbolic():
    # un-quotiented 2-step algebra of the 4-cycle: the synthesized Anosov
    # block lies inside the searched box and must be found
    from anosograph.anosov import synthesize

    algebra = quotient_algebra(C4, 2)
    planted = synthesize(C4, 2).degree_blocks[1]
    assert max(abs(x) for row in planted for x in row) <= 2
    findings = hyperbolic_search(algebra, entry_bound=2, budget=12000)
    assert findings
    assert any(f.matrix == planted for f in findings)


def test_search_deterministic():
    algebra = build_quotient(S5_GRAPH, S5_SPEC)
    a = [f.to_json() for f in hyperbolic_search(algebra, entry_bound=1, budget=800, seed=3)]
    b = [f.to_json() for f in hyperbolic_search(algebra, entry_bound=1, budget=800, seed=3)]
    assert a == b


def test_per_degree_gate_matches_product_predicate(monkeypatch):
    # every candidate of the golden searches that reaches a hyperbolicity
    # decision (not a signed permutation, determinant +-1 and a descending
    # extension; the rest are rejected before either predicate) is decided
    # degree by degree exactly as on the product of its blocks'
    # characteristic polynomials
    from anosograph import derivations

    gate = derivations._check_blocks
    decided = []

    def recording(blocks, decide):
        ok, payload = gate(blocks, decide)
        decided.append((blocks, ok))
        return ok, payload

    monkeypatch.setattr(derivations, "_check_blocks", recording)
    control = hyperbolic_search(quotient_algebra(golden_graph("c4"), 2), entry_bound=2,
                                budget=500)
    for name, bound, budget in (("step2", 2, 60), ("step3", 1, 24)):
        assert hyperbolic_search(golden_quotient(name), bound, budget) == []
    assert len(decided) > 36
    for blocks, ok in decided:
        assert ok == product_hyperbolic(blocks), blocks[1]
    recorded = json.loads((GOLDEN / "search_control_c4.stdout").read_text())["findings"]
    assert len(recorded) == 36
    assert [f.matrix for f in control] == [f["matrix"] for f in recorded]


def test_search_matches_reference_loop():
    # the reference extends and tests every distinct candidate; S5 at
    # budget 800 runs past the 384 signed permutations and the 128
    # block-diagonal candidates into the random stream.  C4 at 384 ends
    # with the 4! * 2^4 counted signed permutations and at 385 tests one
    # block-diagonal candidate; at entry bound 0 the box holds no signed
    # permutation, only the zero matrix
    c4 = quotient_algebra(golden_graph("c4"), 2)
    cases = [(c4, 2, 500, 0, 36),
             (c4, 2, 384, 0, 0),
             (c4, 2, 385, 0, 0),
             (golden_quotient("step2"), 2, 60, 0, 0),
             (golden_quotient("step3"), 1, 24, 0, 0),
             (build_quotient(S5_GRAPH, S5_SPEC), 1, 800, 3, 0),
             (build_quotient(S5_GRAPH, S5_SPEC), 0, 5, 0, 0)]
    for algebra, bound, budget, seed, count in cases:
        found = [f.matrix for f in hyperbolic_search(algebra, bound, budget, seed)]
        assert found == search_reference(algebra, bound, budget, seed)
        assert len(found) == count


def test_is_signed_permutation_over_the_unit_box():
    from anosograph.derivations import _is_signed_permutation

    assert not _is_signed_permutation([[1, 1], [0, 0]])
    for n in range(1, 4):
        signed = {tuple(tuple(signs[j] if perm[j] == i else 0 for j in range(n))
                        for i in range(n))
                  for perm in itertools.permutations(range(n))
                  for signs in itertools.product((1, -1), repeat=n)}
        assert len(signed) == math.factorial(n) << n
        for entries in itertools.product((-1, 0, 1), repeat=n * n):
            g = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
            assert _is_signed_permutation(g) == (tuple(map(tuple, g)) in signed), g


def _spy(monkeypatch, namespace, name, calls):
    original = getattr(namespace, name)

    def spy(*args):
        calls.append((name, args))
        return original(*args)

    monkeypatch.setattr(namespace, name, spy)


def test_search_work_is_bounded(monkeypatch):
    from anosograph import derivations

    calls = []
    _spy(monkeypatch, derivations.linalg, "det_bareiss", calls)
    for name in ("extend_to_algebra", "unit_root_free"):
        _spy(monkeypatch, derivations, name, calls)
    # 6! * 2^6 and 7! * 2^7 candidates, all signed permutations: counted,
    # never built or tested
    k33 = quotient_algebra(golden_graph("k33"), 2)
    assert hyperbolic_search(k33, entry_bound=1, budget=46080) == []
    c7 = quotient_algebra(parse_graph("".join(f"v{i} v{(i + 1) % 7}\n" for i in range(7))), 2)
    assert hyperbolic_search(c7, entry_bound=1, budget=645120) == []
    assert calls == []
    control = quotient_algebra(golden_graph("c4"), 2)
    assert len(hyperbolic_search(control, entry_bound=2, budget=500)) == 36
    # each distinct polynomial is decided once, the 5 distinct finding
    # polynomials among them; their certificates carry the witness
    decided = [args[0] for name, args in calls if name == "unit_root_free"]
    assert decided and len(decided) == len(set(decided))
