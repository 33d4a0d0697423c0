"""Finite simple graphs and their coherent-component partitions.

Vertices are arbitrary string labels; their first-appearance order in the
input is the canonical basis order used by every downstream matrix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


class GraphParseError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant that should be unreachable was violated."""


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: ordered vertex labels plus an edge set.

    Edges are stored as frozensets of index pairs into `vertices`.
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[int]]
    index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {v: i for i, v in enumerate(self.vertices)})
        if len(self.index) != len(self.vertices):
            raise GraphParseError("duplicate vertex label")
        for e in self.edges:
            if len(e) != 2:
                raise GraphParseError("self-loop or malformed edge")
            if any(i not in range(len(self.vertices)) for i in e):
                raise GraphParseError("edge endpoint outside vertex set")

    @property
    def n(self):
        return len(self.vertices)

    def adjacent(self, i, j):
        return frozenset((i, j)) in self.edges

    def open_neighborhood(self, i):
        return {j for j in range(self.n) if self.adjacent(i, j)}

    def closed_neighborhood(self, i):
        return self.open_neighborhood(i) | {i}

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
            raise GraphParseError(f"self-loop at {u!r}")
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
            raise GraphParseError(f"line {lineno}: expected 'u v' or 'vertex: u', got {raw!r}")
        u, v = parts
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at {u!r}")
        edges.add(frozenset((intern(u), intern(v))))
    if not vertices:
        raise GraphParseError("empty graph: at least one vertex is required")
    return Graph(tuple(vertices), frozenset(edges))


@dataclass(frozen=True)
class CoherentPartition:
    """Equivalence classes of the coherence relation, with edge metadata.

    `classes` holds vertex indices, ordered by smallest member; cross-class
    adjacency is uniform, so `pair_edges` is a set of class-index pairs.
    """

    graph: Graph
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    internal_edges: tuple[tuple[tuple[int, int], ...], ...]
    pair_edges: frozenset[frozenset[int]]

    def class_labels(self):
        return [[self.graph.vertices[i] for i in cls] for cls in self.classes]

    def to_json(self):
        return {
            "classes": self.class_labels(),
            "pair_edges": sorted(sorted(p) for p in self.pair_edges),
            "internal_edges": {
                str(c): [[self.graph.vertices[u], self.graph.vertices[v]] for u, v in es]
                for c, es in enumerate(self.internal_edges)
            },
        }


def _coherent(g, a, b):
    if a == b:
        return True
    na, nb = g.open_neighborhood(a), g.open_neighborhood(b)
    return na <= g.closed_neighborhood(b) and nb <= g.closed_neighborhood(a)


def coherent_components(g):
    """Partition the vertex set into coherent components.

    Two vertices are related when each one's open neighborhood sits inside
    the other's closed neighborhood.  The relation is an equivalence; we
    verify transitivity on the input instead of assuming it.
    """
    n = g.n
    rel = [[_coherent(g, a, b) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if rel[a][b] != rel[b][a]:
                raise InvariantError("coherence relation is not symmetric")
    for a in range(n):
        for b in range(n):
            if rel[a][b]:
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        raise InvariantError(
                            f"coherence relation not transitive at "
                            f"({g.vertices[a]}, {g.vertices[b]}, {g.vertices[c]})"
                        )
    class_of = [-1] * n
    classes = []
    for v in range(n):
        if class_of[v] >= 0:
            continue
        members = tuple(w for w in range(n) if rel[v][w])
        for w in members:
            class_of[w] = len(classes)
        classes.append(members)
    internal = []
    for cls in classes:
        es = sorted((u, v) for u in cls for v in cls if u < v and g.adjacent(u, v))
        internal.append(tuple(es))
    pairs = set()
    for e in g.edges:
        u, v = tuple(e)
        cu, cv = class_of[u], class_of[v]
        if cu != cv:
            pairs.add(frozenset((cu, cv)))
    return CoherentPartition(
        graph=g,
        classes=tuple(classes),
        class_of=tuple(class_of),
        internal_edges=tuple(internal),
        pair_edges=frozenset(pairs),
    )
