import hashlib
import json
from fractions import Fraction

import pytest

from anosograph.graphs import parse_graph
from anosograph.liealg import (
    build_graded_quotient,
    graph_algebra_dims,
    non_edge_relations,
    quotient_algebra,
)
from anosograph.lyndon import witt_number
from oracles import (
    all_graphs_up_to_iso,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    deg3_dim_tensor,
    edgeless_graph,
)

C4 = parse_graph("a b\nb c\nc d\nd a")


def test_four_cycle_dims():
    h = quotient_algebra(C4, 3)
    assert h.dims == [4, 4, 12]
    assert h.dim == 20


def test_k2_dims_equal_vertices_and_edges():
    for g in all_graphs_up_to_iso(4):
        h = quotient_algebra(g, 2)
        assert h.dims == [g.n, len(g.edges)]


def test_complete_graph_is_free():
    # no non-edges, so the ideal vanishes and dims are Witt numbers
    h = quotient_algebra(complete_graph(4), 3)
    assert h.dims == [witt_number(4, m) for m in (1, 2, 3)]
    assert h.ideal_dims == [0, 0, 0]


def test_edgeless_dims():
    h = quotient_algebra(edgeless_graph(3), 3)
    assert h.dims == [3, 0, 0]


def test_bipartite_deg3_dimension():
    assert quotient_algebra(bipartite_graph(2, 3), 3).dims[2] == 21
    assert quotient_algebra(bipartite_graph(2, 3), 3).dims[2] == deg3_dim_tensor(bipartite_graph(2, 3))


def test_ideal_quotient_consistency():
    for g in (C4, complete_graph(3), cycle_graph(5)):
        h = quotient_algebra(g, 3)
        for m in range(1, 4):
            assert h.ideal_dims[m - 1] + h.dims[m - 1] == witt_number(g.n, m)


def test_monotonicity_adding_edge():
    base = parse_graph("a b\nb c")
    more = parse_graph("a b\nb c\nc a")
    d1 = quotient_algebra(base, 3).dims
    d2 = quotient_algebra(more, 3).dims
    assert all(x <= y for x, y in zip(d1, d2))


def test_rejects_step_below_two():
    with pytest.raises(ValueError):
        quotient_algebra(C4, 1)


def test_rejects_relation_above_step():
    with pytest.raises(ValueError, match="outside 2..2"):
        build_graded_quotient(("a", "b"), 2, [(3, {(0, 0, 1): Fraction(1)})])


def test_bracket_of_adjacent_generators():
    h = quotient_algebra(C4, 2)
    a, b = h.index_of((0,)), h.index_of((1,))
    assert h.bracket({a: 1}, {b: 1}) == {h.index_of((0, 1)): 1}


def test_bracket_of_nonadjacent_generators_is_zero():
    h = quotient_algebra(C4, 2)
    a, c = h.index_of((0,)), h.index_of((2,))
    assert h.bracket({a: 1}, {c: 1}) == {}


def test_bracket_self_is_zero():
    h = quotient_algebra(C4, 2)
    x = {i: Fraction(i + 1) for i in range(h.dim)}
    assert h.bracket(x, x) == {}


def test_projection_recursion_matches_elimination():
    # the identity image_map brackets along the standard factorization;
    # project looks the word up in the table the elimination built.  step3
    # is C4 at step 3 modulo 1/2 w0 - 3/5 w1, its first two degree-3 basis words
    w0, w1 = quotient_algebra(C4, 3).basis_words[3][:2]
    relation = {w0: Fraction(1, 2), w1: Fraction(-3, 5)}
    step3 = build_graded_quotient(C4.vertices, 3, non_edge_relations(C4) + [(3, relation)])
    assert step3.dims == [4, 4, 11]
    for h in (quotient_algebra(C4, 4), step3):
        identity = h.image_map([{j: 1} for j in range(len(h.generators))])
        for m in range(1, h.k + 1):
            for w in h.reductions[m].words:
                assert identity(w) == h.project(w)
        for i in range(h.dim):
            assert h.project(h.word_of(i)) == {i: 1}


def test_closed_form_dims_match_elimination():
    def check(g, k):
        h = quotient_algebra(g, k)
        dims = graph_algebra_dims(g, k)
        assert dims == h.dims
        assert h.ideal_dims == [witt_number(g.n, m) - d for m, d in enumerate(dims, 1)]

    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            for k in (2, 3, 4, 5):
                check(g, k)
    for g in (cycle_graph(6), bipartite_graph(3, 3)):
        check(g, 5)


def test_antisymmetry_of_structure_constants():
    h = quotient_algebra(cycle_graph(5), 3)
    for i in range(h.dim):
        for j in range(h.dim):
            lhs = h.bracket_basis(i, j)
            rhs = {l: -c for l, c in h.bracket_basis(j, i).items()}
            assert lhs == rhs


def jacobi_holds(algebra):
    # grading kills any triple of total degree above k, so only the rest
    # needs explicit evaluation; structure keys are checked to respect the
    # grading as part of construction
    for (i, j), entry in algebra.struct.items():
        m = algebra.degree_of(i) + algebra.degree_of(j)
        assert all(algebra.degree_of(l) == m for l in entry)
    idx = range(algebra.dim)
    for i in idx:
        for j in idx:
            if j <= i:
                continue
            for l in idx:
                if l <= j:
                    continue
                if (algebra.degree_of(i) + algebra.degree_of(j)
                        + algebra.degree_of(l)) > algebra.k:
                    continue
                acc = [Fraction(0)] * algebra.dim
                for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                    inner = algebra.bracket_basis(a, b)
                    for t, ct in inner.items():
                        for s, cs in algebra.bracket_basis(t, c).items():
                            acc[s] += ct * cs
                if any(acc):
                    return False
    return True


def test_jacobi_small_corpus():
    for n in range(1, 5):
        for g in all_graphs_up_to_iso(n):
            for k in (2, 3):
                assert jacobi_holds(quotient_algebra(g, k))


def test_structure_constants_integral_in_practice():
    for g in (C4, bipartite_graph(2, 3), complete_graph(4)):
        h = quotient_algebra(g, 3)
        for entry in h.struct.values():
            for c in entry.values():
                assert Fraction(c).denominator == 1


def test_serialization_shape():
    h = quotient_algebra(C4, 2)
    doc = h.to_json()
    assert doc["k"] == 2
    assert doc["dims"] == [4, 4]
    assert doc["basis"][0] == ["a", "b", "c", "d"]
    assert doc["basis"][1] == ["a.b", "a.d", "b.c", "c.d"]
    assert all(len(t) == 5 for t in doc["structure"])


def test_dims_invariant_under_relabeling():
    shuffled = parse_graph("d a\nc d\nb c\na b")  # same 4-cycle, new order
    assert quotient_algebra(shuffled, 3).dims == quotient_algebra(C4, 3).dims


def test_large_build_is_pinned():
    # C6 at k = 6 eliminates hundreds of relation rows per degree; the
    # digest pins every pivot, basis word and structure constant
    doc = quotient_algebra(cycle_graph(6), 6).to_json()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "d1d1bfc41b9ef5ed48d47ab6ba2d76b5a4a915e2d4031012bc68d0f506b19506"
