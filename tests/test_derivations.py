from fractions import Fraction

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
from anosograph.graphs import parse_graph
from anosograph.liealg import quotient_algebra
from anosograph import linalg
from oracles import (
    derivation_identity_holds,
    derivations_dense,
    edgeless_graph,
    local_rank,
)

S5_GRAPH = parse_graph("a b\nc d\na c\na d")
S5_SPEC = QuotientSpec(step=2, vertices=("a", "b", "c", "d"))
C4 = parse_graph("a b\nb c\nc d\nd a")


def s6_spec(graph):
    h3 = quotient_algebra(graph, 3)
    word = h3.basis_words[3][0]
    labels = tuple(graph.vertices[i] for i in word)
    return QuotientSpec(step=3, vector=((labels, Fraction(1)),))


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
        QuotientSpec(step=2, vertices=("a", "a", "c", "d")).validate(S5_GRAPH)


def test_spec_single_edge_vector_not_expressible():
    # a span of one edge bracket alone is not a valid quotient spec
    with pytest.raises(SpecError):
        QuotientSpec.from_json({"step": 2, "alpha": "a", "beta": "b"})


def test_spec_zero_vector_rejected():
    with pytest.raises(SpecError, match="nonzero"):
        QuotientSpec(step=3, vector=()).validate(C4)
    spec = QuotientSpec(step=3, vector=((("a", "a", "b"), Fraction(1)),
                                        (("a", "a", "b"), Fraction(-1))))
    with pytest.raises(SpecError, match="nonzero"):
        spec.validate(C4)


def test_spec_unknown_word_rejected():
    spec = QuotientSpec(step=3, vector=((("a", "c", "a"), Fraction(1)),))
    with pytest.raises(SpecError):
        spec.validate(C4)


def test_step3_quotient_builds_graph_algebra_once(monkeypatch):
    # validation and the nonvanishing check share one 3-step graph algebra
    import anosograph.derivations as derivations

    spec = s6_spec(C4)
    calls = []

    def counting(graph, k):
        calls.append(k)
        return quotient_algebra(graph, k)

    monkeypatch.setattr(derivations, "quotient_algebra", counting)
    assert build_quotient(C4, spec).dims == [4, 4, 11]
    assert calls == [3]


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


def test_derivations_match_dense_oracle():
    cases = [
        quotient_algebra(parse_graph("a b"), 2),
        quotient_algebra(parse_graph("a b\nb c"), 2),
        quotient_algebra(C4, 2),
        quotient_algebra(complete_labeled(3), 3),
        build_quotient(S5_GRAPH, S5_SPEC),
        build_quotient(C4, s6_spec(C4)),
    ]
    for algebra in cases:
        fast = derivation_algebra(algebra)
        dense = derivations_dense(algebra)
        assert fast.dimension == len(dense)
        # the fast basis lies in the dense span: adding it keeps the rank
        flat = [[x for row in m for x in row] for m in dense + fast.basis]
        assert local_rank(flat) == len(dense)


def test_derivation_identity_exact():
    for algebra in (quotient_algebra(parse_graph("a b"), 2),
                    quotient_algebra(C4, 2),
                    build_quotient(S5_GRAPH, S5_SPEC),
                    build_quotient(C4, s6_spec(C4))):
        der = derivation_algebra(algebra)
        n = len(algebra.generators)
        for mat, images in zip(der.basis, der.maps, strict=True):
            assert derivation_identity_holds(algebra, mat)
            # the matrix extends the stored generator images
            assert {(i, j): mat[i][j] for i in range(algebra.dim) for j in range(n)
                    if mat[i][j]} == images


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
