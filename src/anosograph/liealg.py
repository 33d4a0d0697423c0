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
with no zero entries.  Lyndon expansions are integral and `linalg.rref`
stores a new row's integral quotients as ints, so coefficients are ints
unless the quotient's relations divide, which no graph algebra checked
(up to 5 vertices) needs.  Free-algebra coordinates (Lyndon words, the
relation row spaces) stay inside this module: maps defined on free
words, such as the extension of a degree-one map or a free derivation,
are pushed into the quotient here, word by word along the standard
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul, sub

from . import linalg
from .intpoly import IntPolynomial
from .lyndon import _mobius, free_bracket_words, lyndon_basis, standard_factorization, witt_number


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

    The generators are the vertices of `graph`.  Basis elements are the
    surviving Lyndon words, globally indexed degree by degree;
    `struct[(i, j)]` holds the bracket [e_i, e_j] for i < j as a sparse map
    into basis indices.
    """

    def __init__(self, graph, k, reductions, relation_generators):
        self.graph = graph
        self.generators = tuple(graph.vertices)
        self.k = k
        self.reductions = reductions
        self.relation_generators = relation_generators
        # degrees past the last built one lie wholly in the ideal
        self.basis_words = {m: [] for m in range(1, k + 1)}
        for m, red in reductions.items():
            self.basis_words[m] = [w for w in red.words if w not in red.relations]
        self.dims = [len(self.basis_words[m]) for m in range(1, k + 1)]
        self.ideal_dims = [witt_number(graph.n, m) - d for m, d in enumerate(self.dims, 1)]
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
        self._build_structure(max(reductions))

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

    def _build_structure(self, top):
        # degrees ascend with the index, so the partners j of i with
        # deg i + deg j <= top end where degree top - deg i + 1 begins;
        # brackets past the last built degree `top` are 0
        for i in range(self.dim):
            for j in range(i + 1, self.offsets[top - self._degree[i] + 1]):
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
            for l in sorted(entry):  # ints and Fractions both have these
                triples.append([i, j, l, entry[l].numerator, entry[l].denominator])
        return {
            "k": self.k,
            "dims": list(self.dims),
            "ideal_dims": list(self.ideal_dims),
            "basis": [[self.word_label(w) for w in self.basis_words[m]]
                      for m in range(1, self.k + 1)],
            "structure": triples,
        }


def build_graded_quotient(graph, k, relation_gens):
    """Quotient of the free k-step algebra on the graph's vertices by the
    graded ideal the given homogeneous elements generate.

    relation_gens: list of (degree, {word: coeff}); degrees must lie in 2..k.
    The ideal is closed up degree by degree via bracketing with degree one.
    The algebra is generated in degree one, so the build stops at the first
    degree wholly in the ideal; Lyndon words are listed to twice the degree
    reached, so none past that stop are.
    """
    for deg, _ in relation_gens:
        if deg < 2 or deg > k:
            raise ValueError(f"relation generator degree {deg} outside 2..{k}")
    n = graph.n
    free_words = lyndon_basis(n, min(k, 2)).words
    reductions = {1: Reduction(words=list(free_words[1]), relations={})}
    for m in range(2, k + 1):
        if m not in free_words:
            free_words = lyndon_basis(n, min(k, 2 * m)).words
        words = free_words[m]
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
        if len(reductions[m].relations) == len(words):
            break
    return GradedLieAlgebra(graph, k, reductions, relation_gens)


def non_edge_relations(graph):
    """Degree-2 relation generators: one bracket per non-edge."""
    gens = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if not graph.adjacent(i, j):
                gens.append((2, {(i, j): 1}))
    return gens


def quotient_algebra(graph, k):
    """The k-step nilpotent Lie algebra of a graph.

    Free k-step on the vertex space modulo the ideal generated by brackets
    of non-adjacent vertices; k = 2 gives the classical graph algebra.
    """
    if k < 2:
        raise ValueError("step k must be >= 2")
    return build_graded_quotient(graph, k, non_edge_relations(graph))


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


def _exact(a, b):
    """a / b, which must divide: a remainder means a wrong identity."""
    q, r = divmod(a, b)
    assert r == 0, f"{a} is not divisible by {b}"
    return q


def _mobius_pairs(m):
    """(e, mu(m/e)) for the divisors e of m with mu(m/e) != 0."""
    return [(e, _mobius(m // e)) for e in range(1, m + 1) if m % e == 0 and _mobius(m // e)]


def _power_sums(f, n):
    """[p_0, p_1, .., p_n] with p_m = m [t^m] -log f for m >= 1 and p_0 =
    deg f, from the coefficients f[0] = 1, f[1], .., f[d] of f (Newton's
    identities, p_m = -m f_m - sum_{0<j<m} f_j p_(m-j), f_j = 0 for j > d).
    For f = det(1 - tA) these are the power sums tr(A^m)."""
    d = len(f) - 1
    p = [d]
    for m in range(1, min(n, d) + 1):
        p.append(-m * f[m] - sum(map(mul, f[1:m], p[m - 1:0:-1])))
    tail = f[:0:-1]  # f_d, .., f_1 against p_(m-d), .., p_(m-1)
    for m in range(d + 1, n + 1):
        p.append(-sum(map(mul, tail, p[m - d:m])))
    return p


def _from_power_sums(p, n):
    """The coefficients f[0] = 1, f[1], .., f[n] of the series whose power
    sums (`_power_sums`) are p[1..n]: j f_j = -sum_{0<i<=j} p_i f_(j-i)."""
    f = [1] + [0] * n
    for j in range(1, n + 1):
        f[j] = _exact(-sum(map(mul, p[1:j + 1], f[j - 1::-1])), j)
    return f


def _columns_power_sums(f, n):
    """`_power_sums` of several series at once, [None, p_1, .., p_n]: f[j]
    and p[m] are columns, one entry per series."""
    p = [None]
    for m in range(1, n + 1):
        acc = [-m * x for x in f[m]]
        for j in range(1, m):
            acc = list(map(sub, acc, map(mul, f[j], p[m - j])))
        p.append(acc)
    return p


def _columns_from_power_sums(p, n):
    """`_from_power_sums` of several series at once, [f_0, .., f_n]: p[i]
    and f[j] are columns, one entry per series."""
    f = [[1] * len(p[1])]
    for j in range(1, n + 1):
        acc = [-x for x in p[j]]
        for i in range(1, j):
            acc = list(map(sub, acc, map(mul, p[i], f[j - i])))
        assert not any(a % j for a in acc), f"a column is not divisible by {j}"
        f.append([a // j for a in acc])
    return f


def block_char_polys(partition, class_polys, exponents, k):
    """det(x - g_m) for m = 1..k, as {m: IntPolynomial}, without building g_m.

    g is the automorphism of the k-step graph algebra induced by the
    degree-one map that is B_i = A_i^(e_i) on coherent class i, where
    class_polys[i] is det(x - A_i) and e_i = exponents[i].  By PBW and
    Cartier-Foata, as in `graph_algebra_dims`, prod_m det(1 - t^m g_m) is
    the independence polynomial evaluated class by class.  Cross-class
    adjacency is uniform, so an independent vertex set is a set of pairwise
    non-adjacent classes with a nonempty choice in each: any vertices of a
    class without internal edges, one vertex of any other.  Weighted by g,
    the choices in class i sum to det(1 - t B_i) - 1, or to -t tr(B_i) if
    class i has internal edges, and a class set contributes the product of
    its classes' terms.  With b_n(g) = n [t^n] of -log of that sum, and
    g^s in place of g,

        tr(g_m^r) = (1/m) sum_{e | m} mu(m/e) b_e(g^(rm/e)),

    and Newton's identities turn tr(g_m^r), r = 1..dim g_m, into
    det(x - g_m); s = 0 gives the dimensions.  A class's power sums
    tr(B_i^s) follow the linear recurrence of its characteristic
    polynomial.  Every division is exact; a remainder raises
    AssertionError.
    """
    independent = [not edges for edges in partition.internal_edges]
    sizes = [len(cls) for cls in partition.classes]
    mobius = [_mobius_pairs(m) for m in range(k + 1)]

    def unjoined(i, candidates):
        return [j for j in candidates
                if j > i and frozenset((i, j)) not in partition.pair_edges]

    # the class sets of size <= k by size, each as (position of the set
    # without its last class, or -1; its last class); sets[:ends[j]] are
    # those of size <= j
    sets, ends = [], [0]
    level = [(-1, i, unjoined(i, range(len(sizes)))) for i in range(len(sizes))]
    while level and len(ends) <= k:
        grown = []
        for parent, i, after in level:  # after: the classes the set can grow by
            sets.append((parent, i))
            grown += [(len(sets) - 1, j, unjoined(j, after)) for j in after]
        ends.append(len(sets))
        level = grown
    ends += [len(sets)] * (k + 1 - len(ends))

    def log_coefficients(class_sums, ss, top):
        """{s: b} for the s in ss, b[n] = b_n(g^s) for 1 <= n <= top, where
        class_sums[i][n] = tr(B_i^n).  The s are taken together: each
        coefficient is a column, one entry per s."""
        factors = []
        for i, p in enumerate(class_sums):
            if independent[i]:
                room = min(top, sizes[i])
                factors.append(_columns_from_power_sums(
                    [None] + [[p[j * s] for s in ss] for j in range(1, room + 1)], room))
            else:
                factors.append([None, [-p[s] for s in ss]])
        total = [[1] * len(ss)] + [[0] * len(ss) for _ in range(top)]
        prods = []
        for parent, i in sets[:ends[top]]:
            base = prods[parent] if parent >= 0 else total[:1]
            prod = [None] * (top + 1)
            for a, x in enumerate(base):  # None: a zero column
                if x is not None:
                    for c, y in enumerate(factors[i][1:top + 1 - a], a + 1):
                        term = list(map(mul, x, y))
                        prod[c] = term if prod[c] is None else list(map(add, prod[c], term))
            prods.append(prod)
            for c, x in enumerate(prod):
                if x is not None:
                    total[c] = list(map(add, total[c], x))
        b = _columns_power_sums(total, top)
        return {s: [0] + [b[n][w] for n in range(1, top + 1)] for w, s in enumerate(ss)}

    # tr(B_i^0) = |class i| stands in for every power at s = 0
    b0 = log_coefficients([[d] for d in sizes], [0], k)[0]
    dims = [_exact(sum(c * b0[e] for e, c in mobius[m]), m) for m in range(1, k + 1)]
    # the s with b_e(g^s) needed, s = rm/e for some r <= dim g_m, by the
    # largest such e
    top = {}
    for m, dim in enumerate(dims, 1):
        for e, _ in mobius[m]:
            for r in range(1, dim + 1):
                s = r * m // e
                top[s] = max(top.get(s, 0), e)
    groups = {}
    for s, e in top.items():
        groups.setdefault(e, []).append(s)
    class_sums = []
    for i, (poly, exponent) in enumerate(zip(class_polys, exponents)):
        d = poly.degree
        reach = max((max(ss) * (min(e, d) if independent[i] else 1)
                     for e, ss in groups.items()), default=0)
        f = list(reversed(poly.coeffs))  # det(1 - tA)
        if exponent != 1:  # det(1 - tA^e) from tr(A^(je)), j <= d
            p = _power_sums(f, d * exponent)
            f = _from_power_sums([p[j * exponent] for j in range(d + 1)], d)
        class_sums.append(_power_sums(f, reach))
    b = {}
    for e, ss in groups.items():
        b.update(log_coefficients(class_sums, ss, e))
    polys = {}
    for m, dim in enumerate(dims, 1):
        traces = [dim] + [_exact(sum(c * b[r * m // e][e] for e, c in mobius[m]), m)
                          for r in range(1, dim + 1)]
        polys[m] = IntPolynomial(_from_power_sums(traces, dim)[::-1])
    return polys
