"""Graded nilpotent Lie algebras presented as quotients of free ones.

The free k-step nilpotent Lie algebra on the vertex space carries the
Lyndon basis from `lyndon`; a graph algebra is the quotient by the graded
ideal generated by brackets of non-adjacent vertices.  The ideal is
eliminated degree by degree as an exact row space, and the surviving
(non-pivot) Lyndon words form the quotient basis.  Pivots prefer
lexicographically smaller words, so structure constants are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .lyndon import free_bracket_words, lyndon_basis


@dataclass
class Reduction:
    """Relation row space inside one free degree component, in rref form."""

    degree: int
    words: list  # free Lyndon words of this degree, lex order
    col: dict = field(repr=False)
    rel_rows: list = field(repr=False)
    rel_pivots: list = field(repr=False)
    surviving: list = field(repr=False)  # columns that survive to the quotient

    @property
    def rel_dim(self):
        return len(self.rel_rows)

    def reduce_dict(self, d):
        """Free {word: coeff} -> quotient coordinates (surviving columns)."""
        vec = [Fraction(0)] * len(self.words)
        for w, c in d.items():
            vec[self.col[w]] += c
        residue = linalg.reduce_mod_rows(self.rel_rows, self.rel_pivots, vec)
        return [residue[c] for c in self.surviving]


class GradedLieAlgebra:
    """A quotient of a free k-step nilpotent Lie algebra, over exact rationals.

    Basis elements are the surviving Lyndon words, globally indexed degree
    by degree; `struct[(i, j)]` holds the bracket [e_i, e_j] for i < j as a
    sparse map into basis indices.
    """

    def __init__(self, generators, k, reductions, relation_generators, graph=None):
        self.generators = tuple(generators)
        self.k = k
        self.graph = graph
        self.reductions = reductions
        self.relation_generators = relation_generators
        self.basis_words = {m: [reductions[m].words[c] for c in reductions[m].surviving]
                            for m in range(1, k + 1)}
        self.dims = [len(self.basis_words[m]) for m in range(1, k + 1)]
        self.ideal_dims = [reductions[m].rel_dim for m in range(1, k + 1)]
        self.offsets = {}
        off = 0
        for m in range(1, k + 1):
            self.offsets[m] = off
            off += self.dims[m - 1]
        self.dim = off
        self._degree = []
        self._word = []
        for m in range(1, k + 1):
            for w in self.basis_words[m]:
                self._degree.append(m)
                self._word.append(w)
        self._index = {w: i for i, w in enumerate(self._word)}
        self.struct = {}
        self._build_structure()

    # -- basis bookkeeping -------------------------------------------------

    def degree_of(self, i):
        return self._degree[i]

    def word_of(self, i):
        return self._word[i]

    def index_of(self, word):
        return self._index[word]

    def word_label(self, word):
        return ".".join(self.generators[i] for i in word)

    # -- brackets ----------------------------------------------------------

    def _build_structure(self):
        for i in range(self.dim):
            di = self._degree[i]
            for j in range(i + 1, self.dim):
                dj = self._degree[j]
                m = di + dj
                if m > self.k:
                    continue
                expansion = free_bracket_words(self._word[i], self._word[j])
                red = self.reductions[m]
                coords = red.reduce_dict(expansion)
                entry = {}
                base = self.offsets[m]
                for pos, c in enumerate(coords):
                    if c:
                        entry[base + pos] = c
                if entry:
                    self.struct[(i, j)] = entry

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse dict, for any index order."""
        if i == j:
            return {}
        if i < j:
            return self.struct.get((i, j), {})
        return {l: -c for l, c in self.struct.get((j, i), {}).items()}

    def bracket(self, x, y):
        """Bilinear bracket of two coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"expected vectors of dimension {self.dim}")
        out = [Fraction(0)] * self.dim
        nx = [(i, Fraction(c)) for i, c in enumerate(x) if c]
        ny = [(j, Fraction(c)) for j, c in enumerate(y) if c]
        for i, ci in nx:
            for j, cj in ny:
                if i == j:
                    continue
                for l, c in self.bracket_basis(i, j).items():
                    out[l] += ci * cj * c
        return out

    def class_vector(self, element):
        """Class of a homogeneous free element {word: coeff}, as a full vector."""
        out = [Fraction(0)] * self.dim
        if element:
            m = len(next(iter(element)))
            coords = self.reductions[m].reduce_dict(element)
            out[self.offsets[m]:self.offsets[m] + len(coords)] = coords
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self):
        triples = []
        for (i, j), entry in sorted(self.struct.items()):
            for l in sorted(entry):
                c = Fraction(entry[l])
                triples.append([i, j, l, c.numerator, c.denominator])
        return {
            "k": self.k,
            "dims": list(self.dims),
            "ideal_dims": list(self.ideal_dims),
            "basis": [[self.word_label(w) for w in self.basis_words[m]]
                      for m in range(1, self.k + 1)],
            "structure": triples,
        }


def build_graded_quotient(generators, k, relation_gens, graph=None):
    """Quotient of the free k-step algebra by the graded ideal the given
    homogeneous elements generate.

    relation_gens: list of (degree, {word: coeff}); degrees must lie in 2..k.
    The ideal is closed up degree by degree via bracketing with degree one.
    """
    for deg, _ in relation_gens:
        if deg < 2 or deg > k:
            raise ValueError(f"relation generator degree {deg} outside 2..{k}")
    n = len(generators)
    basis = lyndon_basis(n, k)
    words1 = basis.words[1]
    reductions = {1: Reduction(degree=1, words=list(words1),
                               col={w: i for i, w in enumerate(words1)},
                               rel_rows=[], rel_pivots=[], surviving=list(range(n)))}
    prev_rows = []
    prev_words = words1
    for m in range(2, k + 1):
        words = basis.words[m]
        col = {w: i for i, w in enumerate(words)}
        rows = []
        # bracket every degree-(m-1) relation row with every generator
        for row in prev_rows:
            for v in range(n):
                acc = {}
                for widx, c in enumerate(row):
                    if c:
                        for w2, c2 in free_bracket_words((v,), prev_words[widx]).items():
                            acc[w2] = acc.get(w2, Fraction(0)) + c * c2
                vec = [Fraction(0)] * len(words)
                for w2, c2 in acc.items():
                    vec[col[w2]] += c2
                if any(vec):
                    rows.append(vec)
        for deg, d in relation_gens:
            if deg == m:
                vec = [Fraction(0)] * len(words)
                for w, c in d.items():
                    if w not in col:
                        raise ValueError(f"{w} is not a degree-{m} Lyndon word")
                    vec[col[w]] += Fraction(c)
                rows.append(vec)
        rel_rows, rel_pivots = linalg.rref(rows, len(words)) if rows else ([], [])
        pivot_set = set(rel_pivots)
        reductions[m] = Reduction(
            degree=m,
            words=list(words),
            col=col,
            rel_rows=rel_rows,
            rel_pivots=rel_pivots,
            surviving=[c for c in range(len(words)) if c not in pivot_set],
        )
        prev_rows = rel_rows
        prev_words = words
    return GradedLieAlgebra(generators, k, reductions, relation_gens, graph=graph)


def non_edge_relations(graph):
    """Degree-2 relation generators: one bracket per non-edge."""
    gens = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if not graph.adjacent(i, j):
                gens.append((2, {(i, j): Fraction(1)}))
    return gens


def quotient_algebra(graph, k):
    """The k-step nilpotent Lie algebra of a graph.

    Free k-step on the vertex space modulo the ideal generated by brackets
    of non-adjacent vertices; k = 2 gives the classical graph algebra.
    """
    if k < 2:
        raise ValueError("step k must be >= 2")
    return build_graded_quotient(graph.vertices, k, non_edge_relations(graph), graph=graph)
