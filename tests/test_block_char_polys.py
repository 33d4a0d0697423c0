"""The closed-form block characteristic polynomials against Berkowitz.

`liealg.block_char_polys` reads det(x - g_m) from the class polynomials
and the exponents alone.  The oracle builds the blocks instead: it
extends the degree-one map through the algebra (`extend_to_algebra`) and
runs `char_poly` on each block, which shares no code with the closed form.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from anosograph import anosov
from anosograph.anosov import (
    LadderExhaustedError,
    _check_polys,
    _exponent_ladder,
    _powered_degree_one,
    companion_matrix,
    decide_anosov,
    extend_to_algebra,
    find_component_matrix,
    synthesize,
)
from anosograph.graphs import coherent_components, graph_from_edges
from anosograph.liealg import block_char_polys, graph_algebra_dims, quotient_algebra
from anosograph.spectra import char_poly, unit_root_free
from oracles import all_graphs_up_to_iso, bipartite_graph, complete_graph


def berkowitz_polys(graph, partition, matrices, exponents, k):
    g = _powered_degree_one(graph.n, partition.classes, matrices, exponents)
    blocks = extend_to_algebra(quotient_algebra(graph, k), g)
    return {m: char_poly(block) for m, block in blocks.items()}


def rungs_checked(monkeypatch, graph, k):
    """Run `synthesize`, comparing the closed form with Berkowitz on every
    rung it tries, passing or failing; returns the rungs."""
    rungs = []

    def checked(partition, class_polys, exponents, dims):
        polys = block_char_polys(partition, class_polys, exponents, dims)
        matrices = [companion_matrix(p) for p in class_polys]
        assert polys == berkowitz_polys(graph, partition, matrices, exponents, len(dims)), (
            graph.edge_list(), k, exponents)
        rungs.append(exponents)
        return polys

    monkeypatch.setattr(anosov, "block_char_polys", checked)
    try:
        synthesize(graph, k)
    except LadderExhaustedError:
        pass
    return rungs


def admitted_small_graphs(k):
    return [g for n in range(1, 6) for g in all_graphs_up_to_iso(n)
            if decide_anosov(coherent_components(g), k).admits]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_rung_on_small_admitted_graphs(monkeypatch, k):
    graphs = admitted_small_graphs(k)
    assert graphs
    for graph in graphs:
        assert rungs_checked(monkeypatch, graph, k)


def blowup(base_edges, parts):
    """Each base vertex i becomes parts[i] pairwise non-adjacent twins."""
    names = [[f"{i}{chr(97 + j)}" for j in range(p)] for i, p in enumerate(parts)]
    return graph_from_edges([v for part in names for v in part],
                            [(u, v) for i, j in base_edges for u in names[i] for v in names[j]])


@pytest.mark.parametrize("graph, k", [
    (complete_graph(6), 3),
    (bipartite_graph(3, 3), 4),
    # classes 0 and 2 joined, class 1 joined to neither: {0, 1} and {1, 2}
    # are independent class sets, {0, 1, 2} is not
    (blowup([(0, 2)], [2, 2, 2]), 3),
    # a 5-cycle of classes: the sets {0, 2} and {2, 4} but not {0, 2, 4}
    (blowup([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [2] * 5), 3),
], ids=["K6-k3", "K33-k4", "C4+2K1-k3", "C5[2]-k3"])
def test_every_rung_on_larger_graphs(monkeypatch, graph, k):
    assert rungs_checked(monkeypatch, graph, k)


def test_the_four_cycle_at_k4_fails_every_rung_alike():
    # every rung has a unit-modulus eigenvalue, for Berkowitz as for the
    # closed form; `synthesize` refuses C4 at k = 4 before the ladder, so the test
    # walks the ladder itself
    c4 = graph_from_edges("abcd", ["ab", "bc", "cd", "da"])
    partition = coherent_components(c4)
    component = find_component_matrix(2, 4)
    rungs = list(_exponent_ladder(len(partition.classes), anosov.MAX_EXPONENT))
    assert len(rungs) == 28
    dims = graph_algebra_dims(partition, 4)
    for exponents in rungs:
        polys = block_char_polys(partition, [component.poly] * 2, exponents, dims)
        assert polys == berkowitz_polys(c4, partition, [component.matrix] * 2, exponents, 4)
        ok, (kind, _) = _check_polys(sorted(polys), polys.get, unit_root_free)
        assert not ok and kind == "unit-root-freeness", exponents


@st.composite
def unimodular_matrices(draw, d):
    """A d x d integer matrix of determinant +-1: a signed permutation
    times a few elementary shears."""
    perm = draw(st.permutations(range(d)))
    m = [[draw(st.sampled_from((1, -1))) if perm[i] == j else 0 for j in range(d)]
         for i in range(d)]
    if d > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.sampled_from(list(combinations(range(d), 2))))
            if draw(st.booleans()):
                i, j = j, i
            c = draw(st.integers(-2, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def graph_and_class_maps(draw):
    n = draw(st.integers(1, 5))
    vertices = [f"v{i}" for i in range(n)]
    edges = [e for e in combinations(vertices, 2) if draw(st.booleans())]
    graph = graph_from_edges(vertices, edges)
    partition = coherent_components(graph)
    matrices = [draw(unimodular_matrices(len(cls))) for cls in partition.classes]
    exponents = [draw(st.integers(1, 3)) for _ in partition.classes]
    return graph, partition, matrices, exponents, draw(st.integers(2, 3))


@settings(max_examples=60, deadline=None)
@given(graph_and_class_maps())
def test_drawn_unimodular_class_maps(case):
    # any graph, singleton classes included, and class matrices that need
    # not be companions nor avoid the unit circle
    graph, partition, matrices, exponents, k = case
    class_polys = [char_poly(a) for a in matrices]
    dims = graph_algebra_dims(partition, k)
    assert block_char_polys(partition, class_polys, exponents, dims) == berkowitz_polys(
        graph, partition, matrices, exponents, k)
