"""Graded nilpotent Lie algebras presented as quotients of free ones.

The free k-step nilpotent Lie algebra on the vertex space carries the
Lyndon basis from `lyndon`; a graph algebra is the quotient by the graded
ideal generated by brackets of non-adjacent vertices.  The ideal is
eliminated degree by degree as an exact row space of sparse rows keyed by
free Lyndon words, and the surviving (non-pivot) words form the quotient
basis.  Pivots are the lexicographically smallest words, so structure
constants are reproducible bit for bit.  The elimination is stored as one
normal-form table from each free word to its image in the quotient, which
is the projection (`project`) and gives every structure constant.

An element of a `GradedLieAlgebra` is a sparse dict {basis index: coeff}
with no zero entries; coefficients are ints or Fractions.  Free-algebra
coordinates (Lyndon words, the relation row spaces) stay inside this
module: maps defined on free words, such as the extension of a degree-one
map or a free derivation, are pushed into the quotient here, word by word
along the standard factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .lyndon import _mobius, free_bracket_words, lyndon_basis, standard_factorization


def combine(terms):
    """The sum of c * x over (c, x) pairs, x sparse; zero entries dropped."""
    out = {}
    for c, x in terms:
        if c:
            for i, xi in x.items():
                out[i] = out.get(i, 0) + c * xi
    return {i: c for i, c in out.items() if c}


@dataclass
class Reduction:
    """Relation row space inside one free degree component, as the rref
    basis {pivot word: row} of `linalg.rref`, rows sparse {free Lyndon
    word: coeff}; pivots are the lexicographically smallest words."""

    words: list  # free Lyndon words of this degree, lex order
    relations: dict = field(repr=False)


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
        self.basis_words = {m: [w for w in red.words if w not in red.relations]
                            for m, red in reductions.items()}
        self.dims = [len(self.basis_words[m]) for m in range(1, k + 1)]
        self.ideal_dims = [len(reductions[m].relations) for m in range(1, k + 1)]
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
        # normal forms: a basis word is its unit vector, and a pivot word p
        # of relation row r is -(r - p), the rest of its row
        self._normal_form = {w: {i: 1} for i, w in enumerate(self._word)}
        for red in reductions.values():
            for p, row in red.relations.items():
                self._normal_form[p] = {self._index[w]: -c for w, c in row.items() if w != p}
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

    def project(self, word):
        """The image of the free Lyndon word in this algebra, as a sparse
        element; the caller must not change it."""
        return self._normal_form[word]

    # -- brackets ----------------------------------------------------------

    def _build_structure(self):
        # degrees ascend with the index, so the partners j of i with
        # deg i + deg j <= k end where degree k - deg i + 1 begins
        for i in range(self.dim):
            for j in range(i + 1, self.offsets[self.k - self._degree[i] + 1]):
                expansion = free_bracket_words(self._word[i], self._word[j])
                entry = combine((c, self._normal_form[w]) for w, c in expansion.items())
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
        """[x, y] of two sparse elements."""
        struct = self.struct
        terms = []
        for i, ci in x.items():
            for j, cj in y.items():
                if i < j and (i, j) in struct:
                    terms.append((ci * cj, struct[i, j]))
                elif j < i and (j, i) in struct:
                    terms.append((-ci * cj, struct[j, i]))
        return combine(terms)

    # -- maps from the free algebra -----------------------------------------

    def image_map(self, images):
        """w -> f(w) for free Lyndon words w.

        f is the homomorphism of the free algebra that sends generator j to
        the sparse element images[j], composed with the projection onto this
        algebra: f[u, v] = [f u, f v] along the standard factorization, with
        the bracket taken here, memoized per word.  With images[j] = {j: 1}
        it is the projection itself (`project`).
        """
        memo = {(j,): img for j, img in enumerate(images)}

        def f(w):
            if w not in memo:
                u, v = standard_factorization(w)
                memo[w] = self.bracket(f(u), f(v))
            return memo[w]

        return f

    def free_derivation(self, images):
        """w -> D(w) for free Lyndon words w.

        D is the derivation of the free algebra with the given sparse
        generator images, pushed to this algebra:
        D[u, v] = [Du, pi v] + [pi u, Dv] along the standard factorization,
        pi the projection, memoized per word.
        """
        pi = self.project
        memo = {(j,): img for j, img in enumerate(images)}

        def d(w):
            if w not in memo:
                u, v = standard_factorization(w)
                memo[w] = combine(((1, self.bracket(d(u), pi(v))),
                                   (1, self.bracket(pi(u), d(v)))))
            return memo[w]

        return d

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
    reductions = {1: Reduction(words=list(basis.words[1]), relations={})}
    for m in range(2, k + 1):
        words = basis.words[m]
        # bracket every degree-(m-1) relation row with every generator
        rows = [combine((c, free_bracket_words((v,), w)) for w, c in row.items())
                for row in reductions[m - 1].relations.values() for v in range(n)]
        word_set = set(words)
        for deg, d in relation_gens:
            if deg == m:
                for w in d:
                    if w not in word_set:
                        raise ValueError(f"{w} is not a degree-{m} Lyndon word")
                rows.append(d)
        reductions[m] = Reduction(words=list(words), relations=linalg.rref(rows))
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


def graph_algebra_dims(graph, k):
    """`quotient_algebra(graph, k).dims` in closed form, without building it.

    Non-adjacent vertices commute, so the graph algebra is the free
    partially commutative Lie algebra truncated at step k, and its degree
    dimensions d_m satisfy prod_m (1 - t^m)^(d_m) = I(-t), with I the
    independence polynomial of the graph (Cartier-Foata and PBW).  Only the
    independent sets of size <= k are counted; Mobius inversion of
    -log I(-t) then gives d_1..d_k.
    """
    memo = {}

    def count(vs, room):
        """Independent sets inside the vertex tuple vs, by size up to room."""
        if (vs, room) not in memo:
            out = [1] + [0] * room
            if room:
                for i, v in enumerate(vs):
                    rest = tuple(u for u in vs[i + 1:] if not graph.adjacent(u, v))
                    for size, c in enumerate(count(rest, room - 1), 1):
                        out[size] += c
            memo[vs, room] = out
        return memo[vs, room]

    coeffs = [(-1) ** s * c for s, c in enumerate(count(tuple(range(graph.n)), k))]
    # b_m = m [t^m] -log I(-t), from I(-t) L' = -I'(-t) with L = -log I(-t)
    b = [0] * (k + 1)
    for m in range(1, k + 1):
        b[m] = -m * coeffs[m] - sum(coeffs[j] * b[m - j] for j in range(1, m))
    return [sum(_mobius(m // e) * b[e] for e in range(1, m + 1) if m % e == 0) // m
            for m in range(1, k + 1)]
