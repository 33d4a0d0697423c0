import pytest
from hypothesis import given, settings, strategies as st

from anosograph.graphs import (
    GraphParseError,
    coherent_components,
    graph_from_edges,
    parse_graph,
)
from oracles import (
    all_labeled_graphs,
    coherent_classes_brute,
    coherent_relation_brute,
    complete_graph,
    edgeless_graph,
    magnet_graph,
)


def test_parse_basic():
    g = parse_graph("a b\nb c")
    assert list(g.vertices) == ["a", "b", "c"]
    assert g.edge_list() == [(0, 1), (1, 2)]


def test_parse_duplicate_edge_collapses():
    g = parse_graph("a b\na b")
    assert len(g.edges) == 1


def test_parse_self_loop_names_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("a b\na a")


def test_parse_empty_graph_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("# nothing here\n")


def test_parse_isolated_vertex_and_comments():
    g = parse_graph("# header\na b   # trailing\nvertex: z\n")
    assert list(g.vertices) == ["a", "b", "z"]
    assert all(g.index["z"] not in e for e in g.edges)


def test_graph_from_edges_names_unknown_endpoint():
    with pytest.raises(GraphParseError, match="'c'"):
        graph_from_edges(["a", "b"], [("a", "c")])


def test_graph_equality_and_hash_ignore_index():
    g = parse_graph("a b\nb c\n")
    h = graph_from_edges("abc", ["ab", "bc"])
    h.index["unrelated"] = 3
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != parse_graph("b a\nb c\n")  # same edges, other vertex order
    assert g != parse_graph("a b\nb c\nc a\n")


def test_first_appearance_order():
    g = parse_graph("d c\nb a")
    assert list(g.vertices) == ["d", "c", "b", "a"]


def test_four_cycle_partition():
    # hand check of the neighborhood inclusions: opposite corners pair up
    g = parse_graph("a b\nb c\nc d\nd a")
    p = coherent_components(g)
    assert p.class_labels() == [["a", "c"], ["b", "d"]]
    assert all(not es for es in p.internal_edges)
    assert sorted(sorted(x) for x in p.pair_edges) == [[0, 1]]


def test_complete_graph_single_class():
    p = coherent_components(complete_graph(5))
    assert len(p.classes) == 1 and len(p.classes[0]) == 5
    assert len(p.internal_edges[0]) == 10


def test_edgeless_single_class():
    p = coherent_components(edgeless_graph(4))
    assert len(p.classes) == 1
    assert p.internal_edges == ((),)


def test_magnet_partition():
    # core is one class with all internal edges, the complement the other
    g = magnet_graph(3, 2)
    p = coherent_components(g)
    assert p.class_labels() == [["c0", "c1", "c2"], ["t0", "t1"]]
    assert len(p.internal_edges[0]) == 3
    assert p.internal_edges[1] == ()


def test_partition_json_shape():
    p = coherent_components(parse_graph("a b\nb c\nc d\nd a"))
    doc = p.to_json()
    assert doc["classes"] == [["a", "c"], ["b", "d"]]
    assert doc["pair_edges"] == [[0, 1]]
    assert doc["internal_edges"]["0"] == []


def _assert_matches_oracle(g, p):
    assert [list(cls) for cls in p.classes] == coherent_classes_brute(g)


def test_partition_covers_exhaustively_up_to_six_vertices():
    # the definitional relation is reflexive, symmetric and transitive;
    # every vertex is in exactly one class, and the classes are its classes
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            related = coherent_relation_brute(g)
            for a in range(n):
                assert a in related[a]
                for b in related[a]:
                    assert a in related[b]
                    assert related[b] <= related[a]
            p = coherent_components(g)
            seen = sorted(v for cls in p.classes for v in cls)
            assert seen == list(range(n))
            _assert_matches_oracle(g, p)


def test_pair_edges_against_brute_scan():
    for g in all_labeled_graphs(4):
        p = coherent_components(g)
        for i in range(len(p.classes)):
            for j in range(i + 1, len(p.classes)):
                brute = any(
                    g.adjacent(u, v) for u in p.classes[i] for v in p.classes[j]
                )
                assert (frozenset((i, j)) in p.pair_edges) == brute


def test_cross_class_adjacency_uniform():
    # coherence forces all-or-nothing adjacency between two classes
    for g in all_labeled_graphs(5):
        p = coherent_components(g)
        for i in range(len(p.classes)):
            for j in range(i + 1, len(p.classes)):
                flags = {
                    g.adjacent(u, v) for u in p.classes[i] for v in p.classes[j]
                }
                assert len(flags) == 1


def test_merge_true_twins_never_splits_class():
    # contracting two vertices with identical closed neighborhoods keeps
    # the remaining vertices' classes together
    g = magnet_graph(3, 3)
    p = coherent_components(g)
    merged = graph_from_edges(
        [v for v in g.vertices if v != "c2"],
        [(g.vertices[u], g.vertices[v]) for u, v in g.edge_list()
         if "c2" not in (g.vertices[u], g.vertices[v])],
    )
    q = coherent_components(merged)
    class_of = {v: ci for ci, cls in enumerate(q.classes) for v in cls}
    for cls in p.classes:
        labels = [g.vertices[v] for v in cls if g.vertices[v] != "c2"]
        if len(labels) > 1:
            ids = {class_of[merged.index[l]] for l in labels}
            assert len(ids) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_partition_random_graphs(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    vs = [f"v{i}" for i in range(n)]
    g = graph_from_edges(vs, [(vs[i], vs[j]) for (i, j), keep in zip(pairs, mask) if keep])
    p = coherent_components(g)
    assert sorted(v for cls in p.classes for v in cls) == list(range(n))
    # classes ordered by smallest member
    mins = [cls[0] for cls in p.classes]
    assert mins == sorted(mins)
    _assert_matches_oracle(g, p)
