"""Finite simple graphs and their coherent-component partitions.

Vertices are arbitrary string labels; their first-appearance order in the
input is the canonical basis order used by every downstream matrix.  The
coherent components are the graph's twin classes: vertices with equal
open neighborhoods, or equal closed ones.  A `CoherentPartition` is the
graph on the classes that `liealg` and `anosov` read: a clique flag and a
bitmask of adjacent classes per class; only its `to_json` lists vertex pairs.
"""

import hashlib
import json
from itertools import combinations


class GraphParseError(ValueError):
    pass


def _echo(text):
    """The first 64 characters of a line or label from an input file, as an
    error message quotes it, so that the message stays one short line."""
    return str(text)[:64]


class Graph:
    """A finite simple graph: ordered vertex labels plus an edge set.

    Edges are stored as frozensets of index pairs into `vertices`; `index`
    maps each label to its position.  Equality and hashing ignore `index`,
    which the labels determine.
    """

    __slots__ = ("vertices", "edges", "index")

    def __init__(self, vertices, edges):
        self.vertices = vertices  # tuple of str labels
        self.edges = edges  # frozenset of frozenset index pairs
        self.index = {v: i for i, v in enumerate(vertices)}
        if len(self.index) != len(vertices):
            raise GraphParseError("duplicate vertex label")
        for e in edges:
            if len(e) != 2:
                raise GraphParseError("self-loop or malformed edge")
            if any(i not in range(len(vertices)) for i in e):
                raise GraphParseError("edge endpoint outside vertex set")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    @property
    def n(self):
        return len(self.vertices)

    def adjacent(self, i, j):
        return frozenset((i, j)) in self.edges

    def edge_list(self):
        """Edges as sorted index pairs, sorted; the canonical enumeration."""
        return sorted(tuple(sorted(e)) for e in self.edges)

    def canonical_text(self):
        return json.dumps(
            {"vertices": list(self.vertices), "edges": self.edge_list()},
            separators=(",", ":"),
        )

    def digest(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [[self.vertices[i], self.vertices[j]] for i, j in self.edge_list()],
        }


def graph_from_edges(vertices, edges):
    """Build a Graph from label lists; edges are (label, label) pairs."""
    vs = tuple(vertices)
    idx = {v: i for i, v in enumerate(vs)}
    es = set()
    for u, v in edges:
        if u == v:
            raise GraphParseError(f"self-loop at {_echo(u)!r}")
        for w in (u, v):
            if w not in idx:
                raise GraphParseError(f"edge endpoint {_echo(w)!r} is not a vertex")
        es.add(frozenset((idx[u], idx[v])))
    return Graph(vs, frozenset(es))


def parse_graph(text):
    """Parse an edge-list document.

    Each non-comment line is "u v" (an edge) or "vertex: u" (an isolated
    vertex declaration); '#' starts a comment.  Vertices appear in
    first-appearance order; duplicate edge lines collapse.
    """
    vertices = []
    seen = {}
    edges = set()

    def intern(label):
        if label not in seen:
            seen[label] = len(vertices)
            vertices.append(label)
        return seen[label]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertex:"):
            label = line[len("vertex:"):].strip()
            if not label:
                raise GraphParseError(f"line {lineno}: empty vertex declaration")
            intern(label)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 'u v' or 'vertex: u', got {_echo(raw)!r}")
        u, v = parts
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at {_echo(u)!r}")
        edges.add(frozenset((intern(u), intern(v))))
    if not vertices:
        raise GraphParseError("empty graph: at least one vertex is required")
    return Graph(tuple(vertices), frozenset(edges))


class CoherentPartition:
    """Equivalence classes of the coherence relation, as a graph on classes.

    `classes` holds vertex indices, ordered by smallest member; cross-class
    adjacency is uniform, so the per-class clique flags `cliques` and
    bitmasks of adjacent classes `masks` carry every edge.
    """

    __slots__ = ("graph", "classes", "cliques", "masks")

    def __init__(self, graph, classes, cliques, masks):
        self.graph = graph
        self.classes = classes  # tuple of tuples of vertex indices
        self.cliques = cliques  # per class, true for a clique of >= 2 vertices
        self.masks = masks  # per class, the int bitmask of its adjacent classes

    def class_labels(self):
        return [[self.graph.vertices[i] for i in cls] for cls in self.classes]

    def class_pairs(self):
        """The adjacent class pairs (ci, cj), ci < cj, in ascending order."""
        return [(ci, cj) for ci, mask in enumerate(self.masks)
                for cj in range(ci + 1, mask.bit_length()) if mask >> cj & 1]

    def to_json(self):
        labels = self.class_labels()
        return {
            "classes": labels,
            "pair_edges": [list(pair) for pair in self.class_pairs()],
            "internal_edges": {
                str(c): [list(pair) for pair in combinations(names, 2)] if clique else []
                for c, (names, clique) in enumerate(zip(labels, self.cliques))
            },
        }


def coherent_components(g):
    """Partition the vertex set into coherent components.

    Vertices a and b are coherent when N(a) ⊆ N[b] and N(b) ⊆ N[a], that
    is, when they are twins: adjacent with N[a] = N[b], or non-adjacent
    with N(a) = N(b).  No vertex has twins of both kinds: if b is a true
    twin of a and c a false twin, then b ∈ N(a) = N(c), so c ∈ N[b] = N[a],
    which contradicts c ∉ N(a).  So the relation is an equivalence, and a
    vertex's class is its group of equal open-neighborhood bitmasks if
    that has other members, else its group of equal closed ones.  A class
    is an independent set of false twins or a clique of true twins, so an
    edge inside it, which sets its own bit in the class masks, makes it a
    clique.
    """
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    open_groups, closed_groups = {}, {}
    for v, mask in enumerate(masks):
        open_groups.setdefault(mask, []).append(v)
        closed_groups.setdefault(mask | 1 << v, []).append(v)
    class_of = [-1] * g.n
    classes = []
    for v, mask in enumerate(masks):
        if class_of[v] >= 0:
            continue
        members = open_groups[mask]
        if len(members) == 1:
            members = closed_groups[mask | 1 << v]
        for w in members:
            class_of[w] = len(classes)
        classes.append(tuple(members))
    class_masks = [0] * len(classes)
    for u, v in g.edges:
        class_masks[class_of[u]] |= 1 << class_of[v]
        class_masks[class_of[v]] |= 1 << class_of[u]
    return CoherentPartition(
        graph=g,
        classes=tuple(classes),
        cliques=tuple(bool(m >> c & 1) for c, m in enumerate(class_masks)),
        masks=tuple(m & ~(1 << c) for c, m in enumerate(class_masks)),
    )
