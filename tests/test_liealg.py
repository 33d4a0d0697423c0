import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from anosograph import liealg
from anosograph.graphs import coherent_components, graph_from_edges, parse_graph
from anosograph.liealg import (
    build_graded_quotient,
    graph_algebra_dims,
    non_edge_relations,
    quotient_algebra,
)
from anosograph.lyndon import mobius_inversion, witt_number
from oracles import (
    all_graphs_up_to_iso,
    all_labeled_graphs,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    deg3_dim_tensor,
    edgeless_graph,
    magnet_graph,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
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
        build_graded_quotient(parse_graph("a b"), 2, [(3, {(0, 0, 1): Fraction(1)})])


def test_quotient_rejects_a_relation_off_the_top_degree():
    h = quotient_algebra(C4, 3)
    for x in ({(0, 1): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (1, 2): 1}):
        with pytest.raises(ValueError, match="degree-3 Lyndon words"):
            h.quotient(x)
    assert h.quotient({(0, 0, 1): 1}).dims == [4, 4, 11]
    # an algebra whose top degree lies wholly in the ideal has no row to add to
    with pytest.raises(ValueError, match="degree-3"):
        quotient_algebra(edgeless_graph(2), 3).quotient({(0, 0, 1): 1})


def test_build_stops_at_a_degree_inside_the_ideal():
    # the algebra is generated in degree one, so a zero degree makes every
    # later one zero; those degrees are neither listed nor eliminated
    pair = parse_graph("a b")
    h = build_graded_quotient(pair, 5, [(3, {(0, 0, 1): 1}), (3, {(0, 1, 1): 1})])
    assert sorted(h.reductions) == [1, 2, 3]
    assert h.dims == [2, 1, 0, 0, 0]
    assert h.ideal_dims == [0, 0, 2, 3, 6]
    assert h.struct == {(0, 1): {2: 1}}
    edgeless = quotient_algebra(edgeless_graph(2), 40)
    assert edgeless.dims == [2] + [0] * 39
    assert edgeless.ideal_dims[39] == witt_number(2, 40)


def _index_of(h, word):
    return next(i for i in range(h.dim) if h.word_of(i) == word)


def test_bracket_of_adjacent_generators():
    h = quotient_algebra(C4, 2)
    a, b = _index_of(h, (0,)), _index_of(h, (1,))
    assert h.bracket({a: 1}, {b: 1}) == {_index_of(h, (0, 1)): 1}


def test_bracket_of_nonadjacent_generators_is_zero():
    h = quotient_algebra(C4, 2)
    a, c = _index_of(h, (0,)), _index_of(h, (2,))
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
    step3 = build_graded_quotient(C4, 3, non_edge_relations(C4) + [(3, relation)])
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
        dims = graph_algebra_dims(coherent_components(g), k)
        assert dims == h.dims
        assert h.ideal_dims == [witt_number(g.n, m) - d for m, d in enumerate(dims, 1)]

    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            for k in (2, 3, 4, 5):
                check(g, k)
    for g in (cycle_graph(6), bipartite_graph(3, 3)):
        check(g, 5)
    # coherent classes of several vertices, one item each of the independence
    # sum: independent ones, clique ones next to independent ones, clique
    # parts of a blow-up of P3, and the interleaved classes of K_{3,3}
    a, b, c = ["a0", "a1"], ["b0", "b1", "b2"], ["c0", "c1"]
    p3_cliques = graph_from_edges(a + b + c, [*combinations(a, 2), *combinations(b, 2),
                                              *combinations(c, 2), *product(a, b), *product(b, c)])
    for g in (edgeless_graph(6), bipartite_graph(1, 5), bipartite_graph(2, 4),
              parse_graph("a b\nb c\nb d\nc e\nd e\ne f"),
              parse_graph("a x\nb x\nc x\na y\nb y\nc y\nx z\nvertex: w"),
              magnet_graph(3, 3), magnet_graph(2, 4), p3_cliques,
              parse_graph((GOLDEN / "k33.edges").read_text())):
        for k in (2, 3, 4, 5):
            check(g, k)


def test_dims_and_witt_numbers_share_an_exact_inversion():
    # K_n has no relation: its algebra is free; the edgeless one is abelian
    for n in range(1, 7):
        for k in (2, 5, 9):
            assert graph_algebra_dims(coherent_components(complete_graph(n)), k) == [
                witt_number(n, m) for m in range(1, k + 1)]
            assert graph_algebra_dims(coherent_components(edgeless_graph(n)), k) == (
                [n] + [0] * (k - 1))
    # mu(2) b(1) + mu(1) b(2) = 1 is not divisible by 2
    with pytest.raises(AssertionError):
        mobius_inversion(2)(lambda e: int(e == 2))


def test_dims_count_independent_sets_only_up_to_n(monkeypatch):
    # I(-t) has degree at most n, so Newton's recurrence gets at most n + 1
    # coefficients however large k is
    lengths = []
    power_sums = liealg.power_sums

    def spy(f, n):
        lengths.append(len(f))
        return power_sums(f, n)

    monkeypatch.setattr(liealg, "power_sums", spy)
    k = 50
    dims = graph_algebra_dims(coherent_components(C4), k)
    assert lengths and max(lengths) <= C4.n + 1
    # I_C4(-t) = 1 - 4t + 2t^2
    assert _cartier_foata_series(dims, k) == [1, -4, 2] + [0] * (k - 2)


def _cartier_foata_series(dims, k):
    """prod_m (1 - t^m)^(d_m) up to t^k, which is I(-t) for the dims of a
    graph algebra."""
    series = [1] + [0] * k
    for m, d in enumerate(dims, 1):
        series = [sum((-1) ** j * math.comb(d, j) * series[s - m * j] for j in range(s // m + 1))
                  for s in range(k + 1)]
    return series


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                            min_size=n, max_size=n))
    return n, edges, weights, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_independence_sum_matches_subset_enumeration(case):
    n, edges, weights, top = case
    neighbours = [0] * n
    for i, j in edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    # every subset without an edge inside, its weights multiplied out as
    # polynomials in t cut after t^top; a weight [w_1, ..] is w_1 t + ..
    expected = [1] + [0] * top
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any({i, j} <= set(subset) for i, j in edges):
                continue
            product = [1] + [0] * top
            for i in subset:
                series = [0] + weights[i]
                product = [sum(product[a] * series[c - a] for a in range(c + 1)
                               if c - a < len(series)) for c in range(top + 1)]
            expected = [x + y for x, y in zip(expected, product)]
    assert liealg._independence_sum(neighbours, weights, top) == expected


def test_dims_of_a_long_path_are_quick():
    # a memo keyed on the vertices left keeps the 300-vertex path at k = 8
    # to a few hundred thousand steps; I_n(-t) = I_(n-1)(-t) - t I_(n-2)(-t)
    n, k = 300, 8
    path = parse_graph("\n".join(f"v{i} v{i + 1}" for i in range(n - 1)))
    start = time.perf_counter()
    dims = graph_algebra_dims(coherent_components(path), k)
    assert time.perf_counter() - start < 4
    before, independence = [1] + [0] * k, [1, -1] + [0] * (k - 1)
    for _ in range(n - 1):
        before, independence = independence, [
            x - (before[s - 1] if s else 0) for s, x in enumerate(independence)]
    assert dims[0] == n
    assert _cartier_foata_series(dims, k) == independence


def test_dims_of_a_large_star_are_quick():
    # the 120 leaves of K_{1,120} are false twins, one item of the
    # independence sum: I(-t) = (1 - t)^120 - t
    n, k = 120, 121
    start = time.perf_counter()
    dims = graph_algebra_dims(coherent_components(bipartite_graph(1, n)), k)
    assert time.perf_counter() - start < 1
    independence = [(-1) ** s * math.comb(n, s) for s in range(k + 1)]
    independence[1] -= 1
    assert _cartier_foata_series(dims, k) == independence


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


def test_dims_invariant_under_relabeling():
    shuffled = parse_graph("d a\nc d\nb c\na b")  # same 4-cycle, new order
    assert quotient_algebra(shuffled, 3).dims == quotient_algebra(C4, 3).dims


def test_large_build_is_pinned():
    # C6 at k = 6 eliminates hundreds of relation rows per degree; the
    # digest pins every pivot, basis word and structure constant
    h = quotient_algebra(cycle_graph(6), 6)
    doc = {"dims": h.dims, "basis": h.basis_words,
           "struct": sorted([i, j, l, str(c)] for (i, j), entry in h.struct.items()
                            for l, c in entry.items())}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "adadb5046daa5571ecf7da05a1b23d64357b243eb5db7f2f1e97c81a546c5e47"


def test_graph_algebras_stay_in_the_integers():
    # no graph relation here needs a division, so every stored value is an
    # int, and the degree blocks of an integer map come out as int matrices
    from anosograph.anosov import synthesize

    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            h = quotient_algebra(g, 4)
            values = [x for red in h.reductions.values()
                      for row in red.relations.values() for x in row.values()]
            values += [x for red in h.reductions.values()
                       for w in red.words for x in h.project(w).values()]
            values += [x for entry in h.struct.values() for x in entry.values()]
            assert all(type(x) is int for x in values), g.edges
    blocks = synthesize(C4, 3).degree_blocks
    assert all(type(x) is int for b in blocks.values() for row in b for x in row)
